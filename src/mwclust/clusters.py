"""Cluster assignments and the dependency-neighborhood structure.

An observation's neighborhood is the union of its clusters on every
dimension; two observations outside each other's neighborhoods are treated
as independent by every estimator in this package. ``NeighborhoodIndex``
owns the one kernel that sums over neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class SchemaError(ValueError):
    """Malformed cluster scheme or inconsistent array lengths."""


@dataclass(frozen=True)
class ClusterScheme:
    """Per-observation cluster labels on each clustering dimension.

    Labels are stored as dense integers ``0..C-1`` per dimension; use
    :meth:`from_labels` to canonicalize arbitrary label values (strings,
    sparse ints) at ingestion.
    """

    dims: tuple[str, ...]
    labels: tuple[np.ndarray, ...]  # one dense int64 vector per dimension
    label_values: tuple[tuple, ...] = field(default=())  # original value per dense id

    def __post_init__(self):
        if len(self.dims) != len(self.labels):
            raise SchemaError("one label vector required per dimension")
        if not self.labels:
            raise SchemaError("at least one clustering dimension required")
        n = len(self.labels[0])
        if n < 1:
            raise SchemaError("scheme requires n >= 1")
        for dim, lab in zip(self.dims, self.labels):
            if len(lab) != n:
                raise SchemaError(
                    f"label vector for dimension {dim!r} has length {len(lab)}, expected {n}"
                )

    @property
    def n(self) -> int:
        return len(self.labels[0])

    @property
    def n_clusters(self) -> tuple[int, ...]:
        return tuple(int(lab.max()) + 1 for lab in self.labels)

    @classmethod
    def from_labels(cls, *label_vectors, dims=None) -> "ClusterScheme":
        """Build a scheme from raw label vectors, canonicalizing to dense ints.

        Unused labels are dropped; the mapping back to original values is
        retained in ``label_values``.
        """
        if dims is None:
            dims = tuple("GH"[i] if i < 2 else f"C{i}" for i in range(len(label_vectors)))
        dense = []
        values = []
        for dim, raw in zip(dims, label_vectors):
            ids, uniq = _canonical(raw, dim)
            if dense and ids.size != dense[0].size:
                raise SchemaError(
                    f"label vector for dimension {dim!r} has length {ids.size}, "
                    f"expected {dense[0].size}"
                )
            dense.append(ids)
            values.append(uniq)
        return cls(dims=tuple(dims), labels=tuple(dense), label_values=tuple(values))


def _canonical(raw, dim) -> tuple[np.ndarray, tuple]:
    """Dense int64 ids and the sorted distinct values of one label vector.

    The result is that of ``np.unique``. For a list of strings only the
    distinct labels are sorted; labels with a trailing NUL, which numpy's
    fixed-width strings drop, go through ``np.unique`` so that it keeps
    deciding which labels are equal.
    """
    if isinstance(raw, list):
        try:
            distinct = dict.fromkeys(raw)
        except TypeError:  # unhashable items, e.g. nested lists
            distinct = None
        if distinct is not None and all(
            type(v) is str and not v.endswith("\0") for v in distinct
        ):
            uniq = sorted(distinct)
            code = dict(zip(uniq, range(len(uniq))))
            return np.fromiter(map(code.__getitem__, raw), np.int64, count=len(raw)), tuple(uniq)
    arr = np.asarray(raw)
    if arr.ndim != 1:
        raise SchemaError(f"labels for dimension {dim!r} must be one-dimensional")
    uniq, inv = np.unique(arr, return_inverse=True)
    return inv.astype(np.int64), tuple(uniq.tolist())


@dataclass(frozen=True)
class WeightedSample:
    """An n-by-K outcome matrix with nonstochastic per-observation weights."""

    W: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        if W.shape[0] == 1 and np.asarray(self.W).ndim == 1:
            W = W.T
        omega = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "omega", omega)
        if W.ndim != 2 or W.shape[1] < 1:
            raise SchemaError("W must be an n-by-K matrix with K >= 1")
        if omega.shape != (W.shape[0],):
            raise SchemaError("omega must be an n-vector matching W")
        if not (np.isfinite(W).all() and np.isfinite(omega).all()):
            raise SchemaError("W and omega must be finite")

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def K(self) -> int:
        return self.W.shape[1]


class NeighborhoodIndex:
    """Cluster sizes, intersection cells and the shared cluster-sum kernel.

    Every neighbourhood sum in the package goes through :meth:`cluster_sums`:
    by inclusion-exclusion, a sum over i's neighbourhood is its G-cluster sum
    plus its H-cluster sum minus its intersection-cell sum. The pair-sum
    variance, the bias term, the Monte Carlo bound and the data-mode
    diagnostics all use it. Per-cluster member lists, read by
    :meth:`neighborhood` (the independent pair-enumeration check) and by the
    oracle-mode diagnostics, are built on first use.

    Immutable once built; safe to share across concurrent readers.
    """

    def __init__(self, scheme: ClusterScheme):
        if len(scheme.dims) != 2:
            raise SchemaError(
                f"algorithms require exactly 2 clustering dimensions, got {len(scheme.dims)}"
            )
        self.scheme = scheme
        self.n = scheme.n
        self.cluster_sizes = [np.bincount(lab) for lab in scheme.labels]
        g, h = scheme.labels
        uniq, self.cell_dense = np.unique(g * self.cluster_sizes[1].size + h, return_inverse=True)
        self.n_cells = uniq.size
        self._groups = (
            (g, self.cluster_sizes[0].size),
            (h, self.cluster_sizes[1].size),
            (self.cell_dense, self.n_cells),
        )

    @cached_property
    def members(self) -> list[list[np.ndarray]]:
        """Per dimension, the ascending observation ids of each cluster."""
        return [
            np.split(np.argsort(lab, kind="stable"), np.cumsum(sizes)[:-1])
            for lab, sizes in zip(self.scheme.labels, self.cluster_sizes)
        ]

    def neighborhood(self, i: int) -> np.ndarray:
        """Sorted ids of observations sharing a cluster with ``i`` on any dimension."""
        if not 0 <= i < self.n:
            raise IndexError(f"observation id {i} out of range [0, {self.n})")
        g, h = (lab[i] for lab in self.scheme.labels)
        return np.union1d(self.members[0][g], self.members[1][h])

    def neighborhood_sizes(self) -> np.ndarray:
        """N_i for every observation: the neighbourhood sum of ones."""
        return self.neighbor_sums(np.ones(self.n)).astype(np.int64)

    def cluster_sums(self, x) -> list[np.ndarray]:
        """Column sums of ``x`` per G cluster, per H cluster and per intersection cell.

        ``x`` is an n-vector or an n-by-K array; each result has one row per
        cluster (or cell) and the trailing shape of ``x``.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return [np.bincount(lab, weights=x, minlength=m) for lab, m in self._groups]
        if x.shape[1] == 1:  # the same bincount, without the transposing copy and the stack
            return [np.bincount(lab, weights=x[:, 0], minlength=m)[:, None] for lab, m in self._groups]
        cols = np.ascontiguousarray(x.T)  # one transposing copy, not one strided copy per column
        return [
            np.column_stack([np.bincount(lab, weights=col, minlength=m) for col in cols])
            for lab, m in self._groups
        ]

    def neighbor_sums(self, x) -> np.ndarray:
        """Row i holds the sum of ``x`` over i's neighbourhood, i included."""
        s_g, s_h, s_cell = self.cluster_sums(x)
        g, h = self.scheme.labels
        return s_g[g] + s_h[h] - s_cell[self.cell_dense]


def build_index(scheme: ClusterScheme) -> NeighborhoodIndex:
    """Cluster sizes and intersection-cell structure of a two-way scheme."""
    return NeighborhoodIndex(scheme)


def pair_weight_sums(index: NeighborhoodIndex, omega) -> dict[str, np.ndarray]:
    """Per dimension, the squared absolute-weight sum of every cluster.

    Their total over a dimension is the sum of ``|omega_i omega_j|`` over all
    ordered within-cluster pairs of that dimension.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (index.n,):
        raise SchemaError("omega length does not match index")
    sums = index.cluster_sums(np.abs(omega))[:2]
    return {dim: s * s for dim, s in zip(index.scheme.dims, sums)}
