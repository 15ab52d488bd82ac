"""Non-asymptotic normal-approximation bounds for simulated designs.

The Wasserstein bound is the sum of a third-moment term and a
pair-sum-variance term; the Kolmogorov conversion is (2/pi)^(1/4) times
the square root. True moments are required, so everything here is
simulation-only and works off a moment oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mwclust.clusters import build_index
from mwclust.dgp import DgpSpec, MomentOracle, Streams, draw, structure

_VAR_COEF = math.sqrt(2.0 / math.pi)
_DK_COEF = (2.0 / math.pi) ** 0.25


@dataclass(frozen=True)
class BoundReport:
    term_third: float
    term_var: float
    d_W_bound: float
    d_K_bound: float
    method: str
    mc_se: float | None = None

    def to_dict(self) -> dict:
        return {
            "term_third": self.term_third,
            "term_var": self.term_var,
            "d_W_bound": self.d_W_bound,
            "d_K_bound": self.d_K_bound,
            "method": self.method,
            "mc_se": self.mc_se,
        }


def kolmogorov_bound(d_W: float) -> float:
    """Convert a Wasserstein bound to a Kolmogorov-distance bound."""
    if d_W < 0:
        raise ValueError("d_W must be nonnegative")
    return _DK_COEF * math.sqrt(d_W)


def _dependent_sums(oracle: MomentOracle):
    """Map x (n or n-by-K) to Bx, B the symmetric 0/1 true-dependence matrix, diagonal included.

    Pairs are pruned by the true dependence indicator: for iid designs only
    the self pair survives, which is the minimal valid dependency neighborhood.
    """
    if oracle.dependence_kind == "self":
        return lambda x: x
    if oracle.dependence_kind == "custom":
        B = oracle.adjacency().astype(float)
        return lambda x: B @ x
    return build_index(oracle.scheme).neighbor_sums


def _analytic(oracle: MomentOracle) -> BoundReport:
    if not oracle.gaussian:
        raise ValueError(
            "analytic bound requires Gaussian components; use the monte-carlo method"
        )
    sigma_sq = oracle.true_Q
    # odd moments of symmetric Gaussian components vanish identically
    term_third = 0.0
    if oracle.third_inner_sum is not None:
        term_third = float(np.abs(oracle.third_inner_sum).sum()) / sigma_sq**1.5
    # Gaussian fourth moments give Var(x'Bx) = 2 tr(BCBC); with C = FF' + diag(e)
    # and B symmetric 0/1 that trace is |F'BF|^2 + 2 sum_i e_i |(BF)_i|^2 + e'Be
    F, e = oracle.cov_factor()
    B = _dependent_sums(oracle)
    BF = B(F)
    tr_BCBC = float(np.square(F.T @ BF).sum() + 2.0 * (e @ np.square(BF).sum(axis=1)) + e @ B(e))
    term_var = _VAR_COEF * math.sqrt(2.0 * tr_BCBC) / sigma_sq
    d_W = term_third + term_var
    return BoundReport(
        term_third=term_third,
        term_var=term_var,
        d_W_bound=d_W,
        d_K_bound=kolmogorov_bound(d_W),
        method="analytic",
    )


def _monte_carlo(spec: DgpSpec, oracle: MomentOracle, reps: int) -> BoundReport:
    n = oracle.scheme.n
    dependent_sums = _dependent_sums(oracle)
    sigma_sq = oracle.true_Q
    u_sum = np.zeros(n)
    u_sumsq = np.zeros(n)
    T = np.empty(reps)
    streams = Streams(spec.seed)
    for r in range(reps):
        x = draw(spec, r, streams) - oracle.mean
        t = dependent_sums(x)
        T[r] = float(x @ t)
        u = x * t * t
        u_sum += u
        u_sumsq += u * u
    e = u_sum / reps
    term_third = float(np.abs(e).sum()) / sigma_sq**1.5
    var_u = np.maximum(u_sumsq / reps - e * e, 0.0)
    se_third = math.sqrt(float(var_u.sum()) / reps) / sigma_sq**1.5
    var_T = float(np.var(T, ddof=1))
    centered = T - T.mean()
    m4 = float(np.mean(centered**4))
    se_var_T = math.sqrt(max(m4 - var_T**2, 0.0) / reps)
    term_var = _VAR_COEF * math.sqrt(var_T) / sigma_sq
    se_var = (
        _VAR_COEF * se_var_T / (2.0 * math.sqrt(var_T)) / sigma_sq if var_T > 0 else 0.0
    )
    d_W = term_third + term_var
    return BoundReport(
        term_third=term_third,
        term_var=term_var,
        d_W_bound=d_W,
        d_K_bound=kolmogorov_bound(d_W),
        method="monte-carlo",
        mc_se=math.sqrt(se_third**2 + se_var**2),
    )


def wasserstein_bound(
    spec: DgpSpec, method: str = "analytic", reps: int = 10_000
) -> BoundReport:
    """Evaluate the Wasserstein bound for a simulation design.

    The analytic path needs Gaussian components (fourth moments via the
    Gaussian product rule); the monte-carlo path estimates the moment terms
    over ``reps`` replications and reports a standard error.
    """
    _, oracle = structure(spec)
    if oracle.true_Q <= 0:
        raise ValueError("design has zero variance; bound undefined")
    if method == "analytic":
        return _analytic(oracle)
    if method == "monte-carlo":
        return _monte_carlo(spec, oracle, reps)
    raise ValueError(f"unknown method {method!r}")
