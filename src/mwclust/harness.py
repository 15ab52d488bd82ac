"""Replication studies: CI coverage, variance-ratio consistency, pivot normality.

Per-replication randomness is derived from (seed, replication id) with
counter-based streams, so results are identical for any worker count and
aggregation is order-independent. Each study draws all its streams from one
``Streams`` helper, and runs its replications in blocks (``dgp._blocks``):
one array operation per block, with each replication's values those of a
study run one replication at a time, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from mwclust.clusters import ClusterScheme, NeighborhoodIndex, build_index
from mwclust.dgp import DgpSpec, Streams, _blocks, _fill, _streams_for, draws, structure
from mwclust.regression import RegressionData, Z_CRIT_95, intercept_only_slope

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
    coverage_mc_se: float | None = None  # binomial standard error of coverage_95
    mean_var_ratio: float | None = None
    var_ratio_sd: float | None = None
    ks_pivot: float | None = None
    rejection_flags: int = 0
    trace: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


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


def _regression_draws(spec: DgpSpec, scheme: ClusterScheme, reps: range, stream: Streams):
    """(D, Y) of replications ``reps`` of the regression target, one row per replication."""
    g, h = scheme.labels
    C_G, C_H = scheme.n_clusters
    da = _fill(stream, reps, COMP_D_ALPHA, "gaussian", C_G)
    dg = _fill(stream, reps, COMP_D_GAMMA, "gaussian", C_H)
    nu = _fill(stream, reps, COMP_D_NOISE, "gaussian", g.size)
    D = D_CLUSTER_SHARE * (np.take(da, g, axis=1) + np.take(dg, h, axis=1)) + nu
    Y = THETA_TRUE * D + INTERCEPT_TRUE + draws(spec, reps, stream)
    return D, Y


def regression_replication(
    spec: DgpSpec, scheme: ClusterScheme, rep: int, streams: Streams | None = None
) -> RegressionData:
    """Replication ``rep`` of the regression target, Y = theta D + intercept + W.

    The regressor has one component per G and per H cluster, so that
    clustering matters, plus idiosyncratic noise; all draws are keyed by
    ``spec.seed`` and ``rep``, and come from ``streams`` as in ``draws``.
    """
    stream = _streams_for(spec.seed, streams)
    (D,), (Y,) = _regression_draws(spec, scheme, range(rep, rep + 1), stream)
    return RegressionData(
        Y=Y, D=D, controls=np.ones((D.size, 1)), scheme=scheme, column_names=("d", "(intercept)")
    )


def _demeaned_pair_sums(W: np.ndarray, index: NeighborhoodIndex, ones: np.ndarray):
    """Per row of the block W, (mean, pair sum of the row minus its mean): ``cgm_demeaned`` on unit weights."""
    mean = np.matmul(ones, W[:, :, None])[:, 0] / W.shape[1]  # per row, the gemv of ``weighted_mean``
    return mean, index.row_pair_sums(W - mean[:, None])


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
    report = McReport(reps=reps, seed=seed)
    if oracle.true_Q <= 0:
        report.warnings.append("degenerate design: zero variance, coverage undefined")
        return report
    sigma_true = math.sqrt(oracle.true_Q)
    mu_sum = oracle.mean.sum()
    mu_bar = float(oracle.mean.mean())
    covered = 0
    pivots = np.full(reps, np.nan)
    ratios = np.full(reps, np.nan)
    ones = np.ones(n)
    for block in _blocks(reps, n):
        rows = slice(block.start, block.stop)
        if target == "mean":
            W = draws(spec, block, streams)
            pivots[rows] = (W.sum(axis=1) - mu_sum) / sigma_true
            mean, q = _demeaned_pair_sums(W, index, ones)
            ratios[rows] = q / oracle.true_Q
            flagged = q < 0
            half_width = Z_CRIT_95 * np.sqrt(np.where(flagged, 0.0, q)) / n
            hits = np.abs(mean - mu_bar) <= half_width
        else:
            D, Y = _regression_draws(spec, scheme, block, streams)
            theta, sigma_sq = intercept_only_slope(D, Y, index)
            flagged = sigma_sq <= 0
            sigma = np.sqrt(np.where(flagged, 1.0, sigma_sq))
            pivots[rows] = np.where(flagged, np.nan, (theta - THETA_TRUE) / sigma)
            hits = (theta - Z_CRIT_95 * sigma <= THETA_TRUE) & (THETA_TRUE <= theta + Z_CRIT_95 * sigma)
        report.rejection_flags += int(np.count_nonzero(flagged))
        covered += int(np.count_nonzero(hits & ~flagged))
    report.coverage_95 = covered / reps
    report.coverage_mc_se = math.sqrt(report.coverage_95 * (1 - report.coverage_95) / reps)
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
        if not 0 < oracle.true_Q < math.inf:
            raise ValueError(f"true variance is not positive and finite at M={M}")
        ones = np.ones(scheme.n)
        ratios = np.empty(reps)
        for block in _blocks(reps, scheme.n):
            W = draws(spec_m, block, streams)
            q = _demeaned_pair_sums(W, index, ones)[1] if demean else index.row_pair_sums(W)
            ratios[block.start : block.stop] = q / oracle.true_Q
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
