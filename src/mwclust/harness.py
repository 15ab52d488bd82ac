"""Replication studies: CI coverage, variance-ratio consistency, pivot normality.

Per-replication randomness is derived from (seed, replication id) with
counter-based streams, so results are identical for any worker count and
aggregation is order-independent. Each study fills all its streams from one
``Streams`` helper, and runs its replications in blocks (``dgp._blocks``):
one array operation per block, with each replication's values those of a
study run one replication at a time, bit for bit.

The coverage and consistency studies split their blocks over the usable
CPUs (``_in_parts``): contiguous ranges of blocks, each but the first in a
forked child. A block's values depend only on its replications, and the
parent joins them in replication order, so a report has the same bytes for
any number of CPUs. The Monte Carlo bound (``stein._replicate``) stays in
one process: its sums over replications run in replication order.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from mwclust.clusters import ClusterScheme, NeighborhoodIndex, build_index
from mwclust.dgp import DgpSpec, Streams, _blocks, draws, structure
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


def _regression_draws(spec: DgpSpec, scheme: ClusterScheme, reps: range, streams: Streams):
    """(D, Y) of replications ``reps`` of the regression target, one row per replication."""
    g, h = scheme.labels
    C_G, C_H = scheme.n_clusters
    da = streams.fill(reps, COMP_D_ALPHA, "gaussian", C_G)
    dg = streams.fill(reps, COMP_D_GAMMA, "gaussian", C_H)
    nu = streams.fill(reps, COMP_D_NOISE, "gaussian", g.size)
    D = D_CLUSTER_SHARE * (np.take(da, g, axis=1) + np.take(dg, h, axis=1)) + nu
    Y = THETA_TRUE * D + INTERCEPT_TRUE + draws(spec, reps, streams)
    return D, Y


def regression_replication(spec: DgpSpec, scheme: ClusterScheme, rep: int) -> RegressionData:
    """Replication ``rep`` of the regression target, Y = theta D + intercept + W.

    The regressor has one component per G and per H cluster, so that
    clustering matters, plus idiosyncratic noise; all draws are keyed by
    ``spec.seed`` and ``rep``.
    """
    (D,), (Y,) = _regression_draws(spec, scheme, range(rep, rep + 1), Streams(spec.seed))
    return RegressionData(
        Y=Y, D=D, controls=np.ones((D.size, 1)), scheme=scheme, column_names=("d", "(intercept)")
    )


def _demeaned_pair_sums(W: np.ndarray, index: NeighborhoodIndex, ones: np.ndarray):
    """Per row of the block W, (mean, pair sum of the row minus its mean): ``cgm_demeaned`` on unit weights."""
    mean = np.matmul(ones, W[:, :, None])[:, 0] / W.shape[1]  # per row, the gemv of ``weighted_mean``
    return mean, index.row_pair_sums(W - mean[:, None])


# a study of fewer blocks runs in-process: a fork and the pages its child copies cost 2-4 ms,
# a few blocks on the benchmark's designs
MIN_FORKED_BLOCKS = 8


def _part_count(blocks: int) -> int:
    """Ranges to cut ``blocks`` blocks into: one per usable CPU, or 1 where a fork is out."""
    if blocks < MIN_FORKED_BLOCKS or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1  # a child gets only the calling thread: a lock that another thread holds would stay held
    return min(len(os.sched_getaffinity(0)), blocks)


def _fork(fn, blocks: list) -> tuple[int, int]:
    """(pid, read end of a pipe) of a child that pickles ``(True, [fn(b) for b in blocks])`` or ``(False, exc)``."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():  # Python 3.12+ warns of a BLAS thread pool; a warning must not lose the pid
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            try:
                payload = (True, [fn(block) for block in blocks])
            except BaseException as exc:
                payload = (False, exc)
            with open(write, "wb") as pipe:
                pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)  # no cleanup of the parent's state: no atexit, no flush of its buffers
    os.close(write)
    return pid, read


def _in_parts(fn, blocks: list) -> list:
    """``[fn(block) for block in blocks]``, contiguous ranges of the blocks run at once in forked children.

    Range 0 runs in the caller, each other range in a child (``_fork``), and
    the results are joined in range order, so the first failure in block
    order is raised. A fork that fails leaves its range and the later ones to
    the caller. Every child is reaped; a child still running when the caller
    unwinds is killed first. A child is forked, not spawned: it inherits
    ``fn`` and the study's arrays, where a spawned one would import numpy
    again, which takes longer than most studies.
    """
    parts = _part_count(len(blocks))
    edges = [len(blocks) * k // parts for k in range(parts + 1)]
    children = []  # (pid, pipe) per forked range, in range order
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            try:
                pid, read = _fork(fn, blocks[lo:hi])
            except OSError:  # no memory or process slot for a child: the caller runs the rest
                break
            children.append((pid, open(read, "rb")))
        out = [fn(block) for block in blocks[: edges[1]]]
        for pid, pipe in children:
            try:
                ok, value = pickle.loads(pipe.read())
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"replication worker {pid} ended without a result") from None
            if not ok:
                raise value
            out += value
        return out + [fn(block) for block in blocks[edges[1 + len(children)] :]]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already: SIGCHLD is ignored
                pass


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
    ones = np.ones(n)

    def block_values(block):
        """(pivots, variance ratios, flagged count, covered count) of one block; no ratios for the slope."""
        if target == "mean":
            W = draws(spec, block, streams)
            pivots = (W.sum(axis=1) - mu_sum) / sigma_true
            mean, q = _demeaned_pair_sums(W, index, ones)
            ratios = q / oracle.true_Q
            flagged = q < 0
            half_width = Z_CRIT_95 * np.sqrt(np.where(flagged, 0.0, q)) / n
            hits = np.abs(mean - mu_bar) <= half_width
        else:
            D, Y = _regression_draws(spec, scheme, block, streams)
            theta, sigma_sq = intercept_only_slope(D, Y, index)
            flagged = sigma_sq <= 0
            sigma = np.sqrt(np.where(flagged, 1.0, sigma_sq))
            pivots = np.where(flagged, np.nan, (theta - THETA_TRUE) / sigma)
            ratios = np.empty(0)
            hits = (theta - Z_CRIT_95 * sigma <= THETA_TRUE) & (THETA_TRUE <= theta + Z_CRIT_95 * sigma)
        return pivots, ratios, int(np.count_nonzero(flagged)), int(np.count_nonzero(hits & ~flagged))

    pivots, ratios, flagged, covered = zip(*_in_parts(block_values, list(_blocks(reps, n))))
    pivots, ratios = np.concatenate(pivots), np.concatenate(ratios)
    report.rejection_flags = sum(flagged)
    report.coverage_95 = sum(covered) / reps
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
    """Trace the variance-estimate-to-truth ratio over growing cluster counts.

    The blocks of the whole sweep are split over the CPUs as one list, grid
    size by grid size.
    """
    report = McReport(reps=reps, seed=seed)
    streams = Streams(seed)
    designs = []  # (spec, n, index, true variance, ones) per grid size
    for M in n_sweep:
        spec_m = replace(spec, M=int(M), seed=seed)
        scheme, oracle = structure(spec_m)
        if not 0 < oracle.true_Q < math.inf:
            raise ValueError(f"true variance is not positive and finite at M={M}")
        designs.append((spec_m, scheme.n, build_index(scheme), oracle.true_Q, np.ones(scheme.n)))

    def block_ratios(item):
        k, block = item
        spec_m, _, index, true_Q, ones = designs[k]
        W = draws(spec_m, block, streams)
        q = _demeaned_pair_sums(W, index, ones)[1] if demean else index.row_pair_sums(W)
        return q / true_Q

    work = [(k, block) for k, design in enumerate(designs) for block in _blocks(reps, design[1])]
    done = _in_parts(block_ratios, work)
    for k, (spec_m, n, *_) in enumerate(designs):
        ratios = np.concatenate([r for (j, _), r in zip(work, done) if j == k])
        report.trace.append(
            {
                "M": spec_m.M,
                "n": n,
                "mean_var_ratio": float(ratios.mean()),
                "var_ratio_sd": float(ratios.std(ddof=1)),
                "mc_se": float(ratios.std(ddof=1) / math.sqrt(reps)),
            }
        )
    last = report.trace[-1]
    report.mean_var_ratio = last["mean_var_ratio"]
    report.var_ratio_sd = last["var_ratio_sd"]
    return report
