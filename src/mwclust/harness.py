"""Replication studies: CI coverage, variance-ratio consistency, pivot normality.

Per-replication randomness is derived from (seed, replication id) with
counter-based streams, so results are identical for any worker count and
aggregation is order-independent. Each study draws all its streams from one
``Streams`` helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from mwclust.clusters import ClusterScheme, WeightedSample, build_index
from mwclust.dgp import DgpSpec, Streams, _streams_for, draw, structure, true_bias_term
from mwclust.regression import RegressionData, Z_CRIT_95, fixed_design_inference
from mwclust.variance import cgm_demeaned, cgm_raw

# component ids 0..2 are used inside the dgp module for the outcome draws
COMP_D_ALPHA, COMP_D_GAMMA, COMP_D_NOISE = 4, 5, 6

# regression-target design: slope of interest, intercept, and the cluster
# share of the regressor's variation
THETA_TRUE = 1.0
INTERCEPT_TRUE = 0.5
D_CLUSTER_SHARE = 0.5


@dataclass
class McReport:
    reps: int
    seed: int
    coverage_95: float | None = None
    mean_var_ratio: float | None = None
    var_ratio_sd: float | None = None
    ks_pivot: float | None = None
    rejection_flags: int = 0
    bias_term: float | None = None
    trace: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "reps": self.reps,
            "seed": self.seed,
            "coverage_95": self.coverage_95,
            "mean_var_ratio": self.mean_var_ratio,
            "var_ratio_sd": self.var_ratio_sd,
            "ks_pivot": self.ks_pivot,
            "rejection_flags": self.rejection_flags,
            "bias_term": self.bias_term,
            "trace": list(self.trace),
            "warnings": list(self.warnings),
        }


def ks_statistic(samples) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF."""
    from scipy.special import ndtr  # loaded on first use: it keeps scipy off the import path

    x = np.sort(np.asarray(samples, dtype=float))
    m = x.size
    if m < 2:
        raise ValueError("need at least 2 samples")
    cdf = ndtr(x)
    upper = np.arange(1, m + 1) / m - cdf
    lower = cdf - np.arange(0, m) / m
    return float(max(upper.max(), lower.max()))


def regression_replication(
    spec: DgpSpec, scheme: ClusterScheme, rep: int, streams: Streams | None = None
) -> RegressionData:
    """Replication ``rep`` of the regression target, Y = theta D + intercept + W.

    The regressor has one component per G and per H cluster, so that
    clustering matters, plus idiosyncratic noise; all draws are keyed by
    ``spec.seed`` and ``rep``, and come from ``streams`` as in ``draw``.
    """
    stream = _streams_for(spec.seed, streams)
    g, h = scheme.labels
    C_G, C_H = scheme.n_clusters
    da = stream(rep, COMP_D_ALPHA).standard_normal(C_G)
    dg = stream(rep, COMP_D_GAMMA).standard_normal(C_H)
    nu = stream(rep, COMP_D_NOISE).standard_normal(g.size)
    D = D_CLUSTER_SHARE * (da[g] + dg[h]) + nu
    Y = THETA_TRUE * D + INTERCEPT_TRUE + draw(spec, rep, stream)
    return RegressionData(
        Y=Y, D=D, controls=np.ones((g.size, 1)), scheme=scheme, column_names=("d", "(intercept)")
    )


def run_coverage(
    spec: DgpSpec, target: str = "mean", reps: int = 2000, seed: int = 0
) -> McReport:
    """Replicate, estimate, and record 95% CI containment of the truth.

    Non-positive estimated variances are counted as non-coverage, tallied in
    ``rejection_flags`` and given a NaN pivot. A variance can be negative in
    finite samples, and exactly zero when one cluster holds every
    observation, as on the one-way triple design.
    """
    if target not in ("mean", "regression-theta"):
        raise ValueError(f"unknown target {target!r}")
    scheme, oracle = structure(spec)
    index = build_index(scheme)
    spec = replace(spec, seed=seed)
    streams = Streams(seed)
    n = scheme.n
    report = McReport(reps=reps, seed=seed, bias_term=true_bias_term(oracle))
    if oracle.true_Q <= 0:
        report.coverage_95 = None
        report.warnings.append("degenerate design: zero variance, coverage undefined")
        return report
    sigma_true = math.sqrt(oracle.true_Q)
    mu = oracle.mean
    mu_bar = float(mu.mean())
    covered = 0
    pivots = np.empty(reps)
    ratios = np.empty(reps)
    ones = np.ones(n)
    for r in range(reps):
        if target == "mean":
            W = draw(spec, r, streams)
            pivots[r] = (W.sum() - mu.sum()) / sigma_true
            sample = WeightedSample(W=W[:, None], omega=ones)
            mean, est = cgm_demeaned(sample, index)
            q = float(est.Q_hat[0, 0])
            ratios[r] = q / oracle.true_Q
            if q < 0:
                report.rejection_flags += 1
                continue
            half = Z_CRIT_95 * math.sqrt(q) / n
            if abs(float(mean[0]) - mu_bar) <= half:
                covered += 1
        else:
            res = fixed_design_inference(regression_replication(spec, scheme, r, streams), index)
            if res.sigma_sq <= 0:
                report.rejection_flags += 1
                pivots[r] = np.nan
                ratios[r] = np.nan
                continue
            pivots[r] = (res.theta_hat - THETA_TRUE) / res.sigma_hat
            ratios[r] = np.nan
            lo, hi = res.ci_95
            if lo <= THETA_TRUE <= hi:
                covered += 1
    report.coverage_95 = covered / reps
    good = pivots[np.isfinite(pivots)]
    if good.size >= 2:
        report.ks_pivot = ks_statistic(good)
    good_r = ratios[np.isfinite(ratios)]
    if good_r.size:
        report.mean_var_ratio = float(good_r.mean())
        report.var_ratio_sd = float(good_r.std(ddof=1)) if good_r.size > 1 else 0.0
    return report


def run_consistency(
    spec: DgpSpec,
    n_sweep,
    reps: int = 500,
    seed: int = 0,
    demean: bool = False,
) -> McReport:
    """Trace the variance-estimate-to-truth ratio over growing cluster counts."""
    report = McReport(reps=reps, seed=seed)
    streams = Streams(seed)
    for M in n_sweep:
        spec_m = replace(spec, M=int(M), seed=seed)
        scheme, oracle = structure(spec_m)
        index = build_index(scheme)
        if oracle.true_Q <= 0:
            raise ValueError(f"true variance is not positive at M={M}")
        ones = np.ones(scheme.n)
        ratios = np.empty(reps)
        for r in range(reps):
            W = draw(spec_m, r, streams)
            sample = WeightedSample(W=W[:, None], omega=ones)
            if demean:
                _, est = cgm_demeaned(sample, index)
            else:
                est = cgm_raw(sample, index)
            ratios[r] = float(est.Q_hat[0, 0]) / oracle.true_Q
        report.trace.append(
            {
                "M": int(M),
                "n": scheme.n,
                "mean_var_ratio": float(ratios.mean()),
                "var_ratio_sd": float(ratios.std(ddof=1)),
                "mc_se": float(ratios.std(ddof=1) / math.sqrt(reps)),
            }
        )
    last = report.trace[-1]
    report.mean_var_ratio = last["mean_var_ratio"]
    report.var_ratio_sd = last["var_ratio_sd"]
    return report
