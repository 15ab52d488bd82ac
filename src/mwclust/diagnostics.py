"""Empirically checkable assumption diagnostics.

Oracle mode (simulation, true dependence known as a label pair) reports
exact regularity ratios; data mode replaces the unobservable dependence
indicator with the shared-cluster indicator, an upper bound, and is flagged
as a surrogate. Both modes sum through ``NeighborhoodIndex``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from mwclust.clusters import ClusterScheme, NeighborhoodIndex, SchemaError, build_index, pair_weight_sums

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
        return asdict(self)


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


def leverage_warnings(L: dict[str, float]) -> list[str]:
    """A warning for each dimension whose leverage ``L`` is above ``L_WARN_DEFAULT``."""
    return [
        f"leverage on dimension {dim} is {val:.4g}, above threshold {L_WARN_DEFAULT:.4g}"
        for dim, val in L.items()
        if val > L_WARN_DEFAULT
    ]


def _dependent_abs_sum(labels, dependent: ClusterScheme, weights) -> float:
    """Sum of |w_i w_j| over the pairs in one cluster of ``labels`` that are truly dependent.

    Such a pair shares its cluster and a true label, so it shares a label of
    the pair (cluster, true G) x (cluster, true H). The raw keys reach n^2;
    ``from_labels`` makes them dense before the index forms its cell keys.
    """
    keys = [labels * (lab.max() + 1) + lab for lab in dependent.labels]
    return build_index(ClusterScheme.from_labels(*keys)).pair_sum(np.abs(weights))


def assumption_ratios(
    index: NeighborhoodIndex,
    weights,
    Q_reference: float,
    dependent=None,
) -> DiagnosticsReport:
    """Regularity-ratio fragment of the diagnostics report.

    ``Q_reference`` is the true smallest variance eigenvalue in oracle mode,
    or the smallest eigenvalue of the estimated variance in data mode.
    ``dependent`` is the true dependence as a two-way ``ClusterScheme``
    (i and j are dependent iff they share a label on either dimension), such
    as ``MomentOracle.dependent``; when omitted, every shared-cluster pair
    counts as dependent (the data-mode upper bound).
    """
    if not Q_reference > 0:
        raise ValueError("Q_reference must be positive")
    if dependent is not None and dependent.n != index.n:
        raise SchemaError(f"dependent has n={dependent.n} but index has n={index.n}")
    weights = np.asarray(weights, dtype=float)
    L = leverage_L(index, weights)
    if dependent is None:
        pair_sums = {dim: float(sq.sum()) for dim, sq in pair_weight_sums(index, weights).items()}
    else:
        pair_sums = {
            dim: _dependent_abs_sum(labels, dependent, weights)
            for dim, labels in zip(index.scheme.dims, index.scheme.labels)
        }
    ratio_23 = {dim: total / Q_reference for dim, total in pair_sums.items()}
    warnings = leverage_warnings(L)
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

