"""Empirically checkable assumption diagnostics.

Oracle mode (simulation, true dependence known) reports exact regularity
ratios; data mode replaces the unobservable dependence indicator with the
shared-cluster indicator, an upper bound, and is flagged as a surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mwclust.clusters import NeighborhoodIndex, pair_weight_sums
from mwclust.variance import smallest_eigenvalue

# Benchmark from the iid case: equal weights and no clustering give 1/n,
# so a study trusted at n = 30 motivates this default.
L_WARN_DEFAULT = 1.0 / 30.0


@dataclass
class DiagnosticsReport:
    L_per_dim: dict[str, float]
    ratio_22: dict[str, float]
    ratio_23_upper: dict[str, float]
    rank_lambda: float | None = None
    oracle_mode: bool = False
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "L_per_dim": self.L_per_dim,
            "ratio_22": self.ratio_22,
            "ratio_23_upper": self.ratio_23_upper,
            "rank_lambda": self.rank_lambda,
            "oracle_mode": self.oracle_mode,
            "warnings": list(self.warnings),
        }


def leverage_L(index: NeighborhoodIndex, weights) -> dict[str, float]:
    """Largest single-cluster share of squared absolute-weight sums, per dimension.

    Invariant to weight sign and uniform rescaling.
    """
    weights = np.asarray(weights, dtype=float)
    if not np.any(weights):
        raise ValueError("weights are all zero")
    # scaling by a power of two is exact, and keeps the squared sums finite
    per_cluster = pair_weight_sums(index, np.ldexp(weights, -np.frexp(np.abs(weights).max())[1]))
    return {dim: float(sq.max() / sq.sum()) for dim, sq in per_cluster.items()}


def _dependent_abs_sum(index: NeighborhoodIndex, weights, dim_pos: int, dependent) -> float:
    """Sum of |w_i w_j| over the within-cluster pairs of one dimension that are dependent."""
    total = 0.0
    for members in index.members[dim_pos]:
        w = np.abs(weights[members])
        ii, jj = np.meshgrid(members, members, indexing="ij")
        mask = dependent(ii.ravel(), jj.ravel()).reshape(ii.shape)
        total += float((np.outer(w, w) * mask).sum())
    return total


def assumption_ratios(
    index: NeighborhoodIndex,
    weights,
    Q_reference: float,
    dependent=None,
    warn_threshold: float = L_WARN_DEFAULT,
) -> DiagnosticsReport:
    """Regularity-ratio fragment of the diagnostics report.

    ``Q_reference`` is the true smallest variance eigenvalue in oracle mode,
    or the smallest eigenvalue of the estimated variance in data mode.
    ``dependent`` is a vectorized pair predicate; when omitted, every
    shared-cluster pair counts as dependent (the data-mode upper bound).
    """
    if not Q_reference > 0:
        raise ValueError("Q_reference must be positive")
    weights = np.asarray(weights, dtype=float)
    L = leverage_L(index, weights)
    if dependent is None:
        pair_sums = {dim: float(sq.sum()) for dim, sq in pair_weight_sums(index, weights).items()}
    else:
        pair_sums = {
            dim: _dependent_abs_sum(index, weights, pos, dependent)
            for pos, dim in enumerate(index.scheme.dims)
        }
    ratio_23 = {dim: total / Q_reference for dim, total in pair_sums.items()}
    warnings = []
    for dim, val in L.items():
        if val > warn_threshold:
            warnings.append(
                f"leverage on dimension {dim} is {val:.4g}, above threshold {warn_threshold:.4g}"
            )
    if dependent is None:
        warnings.append(
            "dependence indicator unobservable: ratio_23 uses the shared-cluster "
            "upper bound"
        )
    return DiagnosticsReport(
        L_per_dim=L,
        ratio_22=dict(L),
        ratio_23_upper=ratio_23,
        oracle_mode=dependent is not None,
        warnings=warnings,
    )


def rank_condition(X) -> float:
    """Smallest eigenvalue of X'X/n."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < X.shape[1] and X.ndim == 2 and X.shape[0] == 1:
        X = X.T
    n = X.shape[0]
    return smallest_eigenvalue(X.T @ X / n)
