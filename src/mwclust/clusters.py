"""Cluster assignments and the dependency-neighborhood structure.

An observation's neighborhood is the union of its clusters on every
dimension; two observations outside each other's neighborhoods are treated
as independent by every estimator in this package. ``NeighborhoodIndex``
owns the one kernel that sums over neighborhoods.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

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

    @cached_property
    def grid(self) -> tuple[int, int] | None:
        """``(C_G, C_H)`` of a two-way scheme laid out as a complete grid (``_grid``), else None."""
        return _grid(*self.labels) if len(self.labels) == 2 else None

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


def _grid(g: np.ndarray, h: np.ndarray) -> tuple[int, int] | None:
    """``(C_G, C_H)`` when observation i is in G cluster i // C_H and H cluster i % C_H, with C_G, C_H >= 2.

    That is a complete C_G-by-C_H grid in row-major order, one observation
    per cell, as the simulation designs lay out at ``cell_size`` 1. The last
    observation names the only candidate, so other labels are declined at
    once unless n is the product of its counts.
    """
    C_G, C_H = int(g[-1]) + 1, int(h[-1]) + 1
    if g.size != C_G * C_H or C_G < 2 or C_H < 2:
        return None
    i = np.arange(g.size)
    return (C_G, C_H) if np.array_equal(g, i // C_H) and np.array_equal(h, i % C_H) else None


def spread(rows: np.ndarray, labels: np.ndarray, grid: tuple[int, int] | None) -> np.ndarray:
    """``np.take(rows, labels, axis=1)``: a B-by-C block of per-label values as a fresh C-ordered B-by-n block.

    ``labels`` are the G or the H labels of a scheme whose ``grid`` is
    ``grid``. On a grid the values are broadcast, not gathered; observation 1
    is in G cluster 0 and in H cluster 1 there, which tells the two apart.
    """
    if grid is None:
        return np.take(rows, labels, axis=1)
    out = np.empty((len(rows), *grid))
    out[...] = rows[:, None, :] if labels[1] else rows[:, :, None]
    return out.reshape(len(rows), -1)


def _canonical(raw, dim) -> tuple[np.ndarray, tuple]:
    """Dense int64 ids and the sorted distinct values of one label vector.

    The result is that of ``np.unique`` on the labels as Python objects, so
    labels that differ only by trailing NULs stay apart. A list or tuple is
    coded in order of first appearance and then ranked by ``_ranked``; those
    that it declines go through ``np.unique``.
    """
    if isinstance(raw, (list, tuple)):
        first = defaultdict(count().__next__)
        try:
            codes = np.fromiter(map(first.__getitem__, raw), np.int64, count=len(raw))
        except TypeError:  # unhashable items, e.g. nested lists
            pass
        else:
            if (ranked := _ranked(codes, list(first))) is not None:
                return ranked
    arr = np.asarray(raw)
    if arr.ndim != 1:
        raise SchemaError(f"labels for dimension {dim!r} must be one-dimensional")
    uniq, inv = np.unique(arr, return_inverse=True)
    return inv.astype(np.int64), tuple(uniq.tolist())


def _ranked(codes: np.ndarray, keys: list) -> tuple[np.ndarray, tuple] | None:
    """``_canonical``'s result from codes in order of first appearance, ``keys[c]`` being code c's label.

    None unless every key is a ``str``, whose code-point order is that of ``np.unique``.
    """
    if not all(type(v) is str for v in keys):
        return None
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return np.argsort(order)[codes], tuple(keys[k] for k in order)


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


class NeighborhoodIndex:
    """Cluster sizes, intersection cells and the shared cluster-sum kernel.

    Every neighbourhood sum in the package goes through :meth:`cluster_sums`,
    or through :meth:`row_pair_sums` and :meth:`row_neighbor_sums` for a block
    of replications: by inclusion-exclusion, a sum over i's neighbourhood is
    its G-cluster sum plus its H-cluster sum minus its intersection-cell sum.
    The pair-sum variance, the bias term, both bounds and the diagnostics all
    use it. Per-cluster member lists, read by :meth:`neighborhood` (the
    independent pair-enumeration check), and the block codes are built on
    first use. On a complete grid in row-major order (``grid``, read from
    the labels alone: the simulation designs at one observation per cell),
    the block sums reduce a reshaped block instead.

    Immutable once built, but for those caches, which are replaced whole;
    safe to share across concurrent readers.
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
        self.grid = scheme.grid
        # (label of each observation, number of labels) of the three sums, signed +, +, -
        self.groups = (
            (g, self.cluster_sizes[0].size),
            (h, self.cluster_sizes[1].size),
            (self.cell_dense, self.n_cells),
        )
        self._codes = None  # per group, label + count * row over the largest block summed so far

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
        # a row per column, one copy at most: none for a vector, an n-by-1 array or the pair-sum callers' K-by-n.T
        cols = np.ascontiguousarray(x.T).reshape(-1, len(x))
        sums = []
        for lab, m in self.groups:
            s = np.empty((m, cols.shape[0]))
            for j, col in enumerate(cols):
                s[:, j] = np.bincount(lab, weights=col, minlength=m)
            sums.append(s[:, 0] if x.ndim == 1 else s)
        return sums

    def pair_sum(self, s):
        """Sum of s_i s_j' over dependent ordered pairs: a float for an n-vector, K-by-K for n-by-K."""
        s_g, s_h, s_cell = self.cluster_sums(s)
        total = s_g.T @ s_g + s_h.T @ s_h - s_cell.T @ s_cell
        return float(total) if np.ndim(s) == 1 else total

    def neighbor_sums(self, x) -> np.ndarray:
        """Row i holds the sum of ``x`` over i's neighbourhood, i included."""
        s_g, s_h, s_cell = self.cluster_sums(x)
        g, h = self.scheme.labels
        return s_g[g] + s_h[h] - s_cell[self.cell_dense]

    def _row_sums(self, X: np.ndarray) -> list[np.ndarray]:
        """Per group, the B-by-count sums of each row of the B-by-n block ``X``.

        One bincount per group over the codes label + count * row visits each
        row's entries in the order ``cluster_sums`` visits one row's, so each
        row's sums have its bits. On a grid, a sum over the strided axis of
        the reshaped block (and of its transposed copy for the G sums) adds
        the same entries in the same order, and each cell is one entry; a sum
        that bincount starts from +0.0 cannot end at -0.0, hence ``+ 0.0``.
        """
        if self.grid:
            cells = X.reshape(len(X), *self.grid)
            sums = [np.add.reduce(cells.transpose(0, 2, 1).copy(), axis=1), np.add.reduce(cells, axis=1)]
            return [np.add(s, 0.0, out=s) for s in sums] + [X + 0.0]
        codes = self._codes
        if codes is None or codes[0].size < X.size:
            rows = np.arange(X.shape[0])[:, None]
            codes = self._codes = [(lab + m * rows).ravel() for lab, m in self.groups]
        flat, B = np.ravel(X), len(X)
        return [np.bincount(c[: X.size], flat, m * B).reshape(B, m) for c, (_, m) in zip(codes, self.groups)]

    def row_pair_sums(self, X: np.ndarray) -> np.ndarray:
        """``pair_sum`` of each row of a B-by-n block, bit for bit."""
        s_g, s_h, s_cell = self._row_sums(X)
        return _row_dots(s_g, s_g) + _row_dots(s_h, s_h) - _row_dots(s_cell, s_cell)

    def row_neighbor_sums(self, X: np.ndarray) -> np.ndarray:
        """``neighbor_sums`` of each row of a B-by-n block, bit for bit, as a C-ordered block."""
        s_g, s_h, s_cell = self._row_sums(X)
        if self.grid:
            return (s_g[:, :, None] + s_h[:, None, :]).reshape(s_cell.shape) - s_cell
        g, h = self.scheme.labels
        return np.take(s_g, g, axis=1) + np.take(s_h, h, axis=1) - np.take(s_cell, self.cell_dense, axis=1)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[k] @ b[k]`` for each row k of two C-ordered B-by-m arrays, bit for bit.

    The batched product takes one BLAS dot per pair of contiguous rows, as the
    one-row product does; the dot of a strided row can sum in another order.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


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
