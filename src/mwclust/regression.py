"""OLS with partialling-out and cluster-robust inference.

The slope's clustered variance from the residualized (FWL) regression equals
the (1,1) element of the full two-way sandwich. ``theta_inference`` fits once
and forms one pair sum over the stacked scores [u_hat * D_tilde | X * u]: its
first diagonal entry gives the residualized variance, the rest the sandwich
meat, and the two routes are cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from mwclust.clusters import ClusterScheme, NeighborhoodIndex, WeightedSample
from mwclust.variance import cgm_raw, smallest_eigenvalue

# N(0,1) 97.5% quantile; no small-sample df adjustment.
Z_CRIT_95 = 1.959964

PIVOT_RTOL = 1e-10
RANK_LAMBDA_MIN = 1e-10


class SingularDesignError(ValueError):
    """Design matrix is rank deficient; the message names the offending column."""


@dataclass(frozen=True)
class RegressionData:
    """Outcome, regressor of interest, controls, and a two-way cluster scheme."""

    Y: np.ndarray
    D: np.ndarray
    controls: np.ndarray  # n x (K-1); may be empty
    scheme: ClusterScheme
    column_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float).ravel()
        D = np.asarray(self.D, dtype=float).ravel()
        Wc = np.asarray(self.controls, dtype=float)
        if Wc.size == 0:
            Wc = np.empty((Y.size, 0))
        Wc = np.atleast_2d(Wc)
        if Wc.shape[0] != Y.size and Wc.shape[1] == Y.size:
            Wc = Wc.T
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "controls", Wc)
        if D.shape != Y.shape or Wc.shape[0] != Y.size:
            raise ValueError("Y, D and controls must agree on n")
        if self.scheme.n != Y.size:
            raise ValueError("cluster scheme does not match n")
        if not self.column_names:
            names = ("D",) + tuple(f"control{j}" for j in range(Wc.shape[1]))
            object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.Y.size

    @property
    def X(self) -> np.ndarray:
        return np.column_stack([self.D, self.controls])


@dataclass
class InferenceResult:
    beta_hat: np.ndarray
    theta_hat: float
    sigma_sq: float
    sigma_hat: float | None
    V_hat: np.ndarray | None
    t_stat: float | None
    ci_95: tuple[float, float] | None
    residuals: np.ndarray
    D_tilde: np.ndarray
    negative_variance: bool = False
    warnings: list[str] = field(default_factory=list)
    score_pair_sum: float | None = None  # pair sum of u_hat * D_tilde, sigma_sq's numerator
    rank_lambda: float | None = None  # smallest eigenvalue of X'X/n


def _solve_pivoted(X: np.ndarray, Y: np.ndarray, names) -> np.ndarray:
    """Least squares via column-pivoted QR with rank diagnosis."""
    q, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = PIVOT_RTOL * (diag.max() if diag.size else 0.0)
    bad = np.flatnonzero(diag <= tol)
    if diag.size == 0 or bad.size or diag.size < X.shape[1]:
        # with fewer rows than columns, the columns pivoted past the last row are dependent
        col = int(piv[bad[0] if bad.size else diag.size]) if diag.size else 0
        name = names[col] if col < len(names) else f"column {col}"
        raise SingularDesignError(f"design matrix is rank deficient at column {name!r}")
    beta_perm = scipy.linalg.solve_triangular(r, q.T @ Y)
    beta = np.empty_like(beta_perm)
    beta[piv] = beta_perm
    return beta


def ols_fit(data: RegressionData) -> np.ndarray:
    """Full-regression coefficient vector (slope of interest first)."""
    X = data.X
    beta = _solve_pivoted(X, data.Y, data.column_names)
    resid = data.Y - X @ beta
    ref = np.linalg.norm(X.T @ data.Y)
    if ref > 0 and np.linalg.norm(X.T @ resid) > 1e-8 * ref:
        raise FloatingPointError("normal-equation residual orthogonality check failed")
    return beta


def fwl_residualize(data: RegressionData):
    """Residualize D and Y against the controls.

    With no controls this is the identity. Returns (D_tilde, Y_tilde).
    """
    Wc = data.controls
    if Wc.shape[1] == 0:
        return data.D.copy(), data.Y.copy()
    names = data.column_names[1:]
    gamma_d = _solve_pivoted(Wc, data.D, names)
    gamma_y = _solve_pivoted(Wc, data.Y, names)
    return data.D - Wc @ gamma_d, data.Y - Wc @ gamma_y


def _pair_sum(scores: np.ndarray, index: NeighborhoodIndex) -> np.ndarray:
    """Pair sum of the per-observation scores (n-by-K); they overflow on extreme data."""
    if not np.isfinite(scores).all():
        raise FloatingPointError("regression scores overflow double precision")
    return cgm_raw(WeightedSample(W=scores, omega=np.ones(scores.shape[0])), index).Q_hat


def _slope_variance(pair_sum: float, ssd: float) -> float:
    """Residualized slope variance: the pair sum of u_i Dt_i u_j Dt_j over (sum Dt^2)^2."""
    try:
        return pair_sum / ssd**2
    except OverflowError:  # ssd**2 is out of range; dividing twice is not
        return pair_sum / ssd / ssd


def _residual_ssd(data: RegressionData, D_tilde) -> float:
    """Sum of squares of the residualized regressor; raises when it vanishes or overflows.

    The relative test reads D and D_tilde scaled by one power of two, which is
    exact and keeps their sums of squares finite.
    """
    ssd = float(D_tilde @ D_tilde)
    e = -np.frexp(np.abs(data.D).max())[1]
    d, dt = np.ldexp(data.D, e), np.ldexp(D_tilde, e)
    if ssd <= RANK_LAMBDA_MIN or dt @ dt <= RANK_LAMBDA_MIN * (d @ d):
        raise SingularDesignError(
            "regressor of interest has no residual variation after partialling out controls"
        )
    if not np.isfinite(ssd):
        raise FloatingPointError(
            "sum of squares of the residualized regressor overflows double precision"
        )
    return ssd


def _fwl_fit(data: RegressionData):
    """(beta, D_tilde, ssd, theta, u_hat): the long fit, then the residualized slope and residuals."""
    beta = ols_fit(data)
    D_tilde, Y_tilde = fwl_residualize(data)
    ssd = _residual_ssd(data, D_tilde)
    theta = float(D_tilde @ Y_tilde / ssd)
    return beta, D_tilde, ssd, theta, Y_tilde - D_tilde * theta


def _gram(X: np.ndarray) -> tuple[np.ndarray, float]:
    """X'X and the smallest eigenvalue of X'X/n; raises when the rank condition fails."""
    S = X.T @ X
    rank_lambda = smallest_eigenvalue(S / X.shape[0])
    if rank_lambda <= RANK_LAMBDA_MIN:
        raise SingularDesignError("X'X/n is near singular; rank condition fails")
    return S, rank_lambda


def _sandwich(S: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """S^-1 Q S^-1: the covariance of the coefficients, with bread X'X and meat Q."""
    S_inv = np.linalg.inv(S)
    return S_inv @ Q @ S_inv


def _finish_scalar(beta, theta, sigma_sq, u_hat, D_tilde, V_hat=None, **health) -> InferenceResult:
    """Standard error, t statistic and 95% interval of the slope from its variance.

    A negative variance can occur in finite samples; it is surfaced, not
    clipped, and no interval is formed.
    """
    negative = sigma_sq < 0
    sigma = None if negative else float(np.sqrt(sigma_sq))
    return InferenceResult(
        beta_hat=beta, theta_hat=theta, sigma_sq=sigma_sq, sigma_hat=sigma, V_hat=V_hat,
        t_stat=theta / sigma if sigma else None,
        ci_95=None if sigma is None else (theta - Z_CRIT_95 * sigma, theta + Z_CRIT_95 * sigma),
        residuals=u_hat, D_tilde=D_tilde, negative_variance=negative,
        warnings=["estimated variance is negative; confidence interval suppressed"] if negative else [],
        **health,
    )


def fixed_design_inference(data: RegressionData, index: NeighborhoodIndex) -> InferenceResult:
    """Slope inference treating the regressors as nonstochastic."""
    beta, D_tilde, ssd, theta, u_hat = _fwl_fit(data)
    pair_sum = float(_pair_sum((u_hat * D_tilde)[:, None], index)[0, 0])
    sigma_sq = _slope_variance(pair_sum, ssd)
    return _finish_scalar(beta, theta, sigma_sq, u_hat, D_tilde, score_pair_sum=pair_sum)


def stochastic_design_inference(data: RegressionData, index: NeighborhoodIndex) -> InferenceResult:
    """Full sandwich inference treating the regressors as random."""
    X = data.X
    S, rank_lambda = _gram(X)
    beta = ols_fit(data)
    u_hat = data.Y - X @ beta
    V_hat = _sandwich(S, _pair_sum(X * u_hat[:, None], index))
    D_tilde, _ = fwl_residualize(data)
    return _finish_scalar(
        beta, float(beta[0]), float(V_hat[0, 0]), u_hat, D_tilde, V_hat=V_hat, rank_lambda=rank_lambda
    )


def theta_inference(data: RegressionData, index: NeighborhoodIndex) -> InferenceResult:
    """Slope inference via the residualized route, cross-checked against the sandwich.

    One fit and one pair sum over the stacked scores [u_hat * D_tilde | X * u];
    asserts the numeric identity between the (1,1) element of the full
    sandwich and the residualized variance formula.
    """
    beta, D_tilde, ssd, theta, u_hat = _fwl_fit(data)
    X = data.X
    S, rank_lambda = _gram(X)
    scores = np.vstack([u_hat * D_tilde, X.T * (data.Y - X @ beta)])  # one score per row
    Q = _pair_sum(scores.T, index)  # a view whose columns cluster_sums reads without a copy
    pair_sum = float(Q[0, 0])
    sigma_sq = _slope_variance(pair_sum, ssd)
    V_hat = _sandwich(S, Q[1:, 1:])
    scale = max(abs(sigma_sq), abs(float(V_hat[0, 0])), 1e-300)
    if not abs(sigma_sq - float(V_hat[0, 0])) <= 1e-8 * scale:  # NaN fails too
        raise FloatingPointError(
            "residualized variance and sandwich (1,1) element disagree beyond tolerance"
        )
    return _finish_scalar(
        beta, theta, sigma_sq, u_hat, D_tilde, V_hat=V_hat,
        score_pair_sum=pair_sum, rank_lambda=rank_lambda,
    )
