"""Simulation designs with known ground truth.

Each variant is one table of cluster-level components, from which ``draws``
and the oracle read: exact means, the exact variance of the weighted sum,
the true pairwise dependence as a pair of cluster labels and closed-form
third moments (not for the product design). Replication streams are
counter-based so parallel generation is replication-stable: a study fills
every stream from one ``Streams`` helper (``Streams.fill``), one block of
replications at a time. ``draws`` is the one function that takes a helper;
``draw`` builds its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from mwclust.clusters import ClusterScheme, build_index, spread

VARIANTS = (
    "additive-re",
    "interactive-chaos",
    "iid-conservative",
    "nonzero-mean-triple",
)

DISTRIBUTIONS = ("gaussian", "centered-exponential", "rademacher")

# Third central moment of each unit-variance component family.
_M3 = {"gaussian": 0.0, "centered-exponential": 2.0, "rademacher": 0.0}

# Component ids for counter-based stream separation within a replication.
COMP_ALPHA, COMP_GAMMA, COMP_EPS = 0, 1, 2


@dataclass(frozen=True)
class DgpSpec:
    """Declarative simulation configuration."""

    variant: str
    M: int = 4  # grid side, or number of replicated blocks for the triple
    cell_size: int = 1
    dist_alpha: str = "gaussian"
    dist_gamma: str = "gaussian"
    dist_eps: str = "gaussian"
    sigma_alpha: float = 1.0
    sigma_gamma: float = 1.0
    sigma_eps: float = 1.0
    hetero_alpha: bool = False
    hetero_gamma: bool = False
    hetero_eps: bool = False
    triple_one_way: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for dist in (self.dist_alpha, self.dist_gamma, self.dist_eps):
            if dist not in DISTRIBUTIONS:
                raise ValueError(f"unknown distribution {dist!r}")
        for name, value in (("M", self.M), ("cell_size", self.cell_size), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.M < 1 or self.cell_size < 1:
            raise ValueError("grid must be nonempty")
        if not 0 <= self.seed < 2**64:  # a Philox key
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.variant == "interactive-chaos" and self.cell_size != 1:
            raise ValueError("interactive-chaos requires cell_size = 1")
        for name, value in (("sigma_alpha", self.sigma_alpha), ("sigma_gamma", self.sigma_gamma),
                            ("sigma_eps", self.sigma_eps)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        for name in ("hetero_alpha", "hetero_gamma", "hetero_eps", "triple_one_way"):
            if not isinstance(getattr(self, name), bool):  # "no" or NaN would read as true
                raise ValueError(f"dgp.{name} must be true or false, got {getattr(self, name)!r}")


@dataclass
class MomentOracle:
    """Analytic moments for a simulation design."""

    mean: np.ndarray
    true_Q: float
    scheme: ClusterScheme
    gaussian: bool
    dependent: ClusterScheme  # true dependence: i, j dependent iff they share a label on either dimension
    # entry i: closed-form sum of E[X_i X_j X_k] over j, k in i's dependency neighborhood
    # (the triple enumeration collapsed by shared-component counting); None for a product
    third_inner_sum: np.ndarray | None = None
    _design: _Layout | None = field(default=None, repr=False)


def _schedule(base: float, count: int, hetero: bool) -> np.ndarray:
    if hetero:
        return base * (1.0 + np.arange(count) / count)
    return np.full(count, base)


class Streams:
    """Counter-based Philox streams of one seed, all drawn from one generator.

    For each row, ``fill`` resets the shared generator to the whole state of a
    freshly built ``Philox(key=seed, counter=[0, 0, rep, comp])``, buffered word
    and cached 32-bit half included, and fills the row from it: that stream
    bit for bit, for a fraction of the cost of building one. The fresh state is
    held as plain ints and lists, which the state setter reads about twice as
    fast as numpy arrays. No caller holds the generator, so none can draw from
    it across a reset. Do not share a helper between threads (the package
    starts none); the forked children of a study, or of the Monte Carlo
    bound's 16 groups of blocks, each fill from their own copy, and since
    every stream is fixed by (seed, rep, comp) alone, a replication has the
    same bytes in any process. Rademacher rows keep their raw words in one
    block, converted to signs once.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._bits = np.random.Philox(key=np.uint64(seed))
        self._rng = np.random.Generator(self._bits)
        state = self._bits.state  # empty buffer, no cached half word
        self._counter = [0, 0, 0, 0]
        self._fresh = {**state, "state": {"counter": self._counter, "key": state["state"]["key"].tolist()},
                       "buffer": state["buffer"].tolist()}

    def _reset(self, rows: np.ndarray, reps: range, comp: int):
        """Each row of ``rows`` with the generator reset to stream (rep, comp) of its replication."""
        bits, fresh, counter = self._bits, self._fresh, self._counter
        for row, rep in zip(rows, reps):
            counter[2], counter[3] = rep, comp
            bits.state = fresh
            yield row

    def fill(self, reps: range, comp: int, dist: str, size: int) -> np.ndarray:
        """Unit-variance draws of ``dist``, one row per replication: row k is stream (reps[k], comp)."""
        if dist == "rademacher":  # rng.integers(0, 2, size) at a third of its cost: the top bit of each 32-bit half
            words = np.empty((len(reps), (size + 1) // 2), "<u8")
            for row in self._reset(words, reps, comp):
                row[:] = self._bits.random_raw(row.size)
            return (words.view("<u4")[:, :size] >> 31) * 2.0 - 1.0  # low half first
        z = np.empty((len(reps), size))
        draw = self._rng.standard_normal if dist == "gaussian" else self._rng.standard_exponential
        for row in self._reset(z, reps, comp):
            draw(out=row)
        if dist == "centered-exponential":
            z -= 1.0
        return z


# replications per block: B * n stays near this many elements, where numpy's per-call cost
# is spread over the block and its arrays stay in cache
BLOCK_ELEMENTS = 2**14


def _blocks(reps: int, n: int):
    """The replications ``0..reps-1`` as consecutive ranges of ``max(1, BLOCK_ELEMENTS // n)``."""
    size = max(1, BLOCK_ELEMENTS // n)
    return (range(start, min(start + size, reps)) for start in range(0, reps, size))


class _Component(NamedTuple):
    """A cluster-level effect: one unit-variance draw of ``dist`` per label, from stream ``comp``."""

    comp: int
    dist: str
    labels: np.ndarray  # label of each observation
    scale: np.ndarray  # scale of each label
    load: np.ndarray | None  # loading of each observation; None for all ones

    @property
    def loads(self) -> np.ndarray:
        return np.ones(self.labels.size) if self.load is None else self.load

    def linked(self) -> np.ndarray:
        """Labels shared by exactly the observations it makes dependent: dense, in order of first appearance."""
        key = np.where(self.loads != 0, self.labels, self.scale.size + np.arange(self.labels.size))
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        return np.argsort(np.argsort(first))[inverse]


class _Layout(NamedTuple):
    """A design as a table of components; every array is read-only.

    Observation i is ``mean[i]``, plus each component at i, plus ``noise[i]`` times a draw of its own;
    in a product design, it is the product of its factors instead.
    """

    scheme: ClusterScheme  # the design's G and H clusters, handed out by ``structure``
    mean: np.ndarray | None  # None for a centered design
    components: tuple[_Component, ...]
    noise: np.ndarray | None  # scale of the idiosyncratic component of each observation
    factors: tuple[_Component, ...] = ()  # a product design: observation i is the product of these

    @property
    def row_var(self) -> np.ndarray:
        """The variance of each observation that no other one shares: its noise, or its product's."""
        if self.factors:
            return math.prod(c.scale[c.labels] ** 2 for c in self.factors)
        return np.zeros(self.scheme.n) if self.noise is None else self.noise**2


@lru_cache(maxsize=64)
def _layout(spec: DgpSpec) -> _Layout:
    """The component table of a design, built once per spec.

    ``structure`` hands its scheme and arrays out (``scheme.labels``,
    ``oracle.mean``) and ``draw`` reads them on every replication, so they
    are shared and the arrays marked read-only.
    """
    M, cell = spec.M, spec.cell_size
    if spec.variant == "nonzero-mean-triple":
        block = np.repeat(np.arange(M, dtype=np.int64), 3)
        if spec.triple_one_way:
            g = np.zeros(3 * M, dtype=np.int64)
            h = np.arange(3 * M, dtype=np.int64)
        else:
            g = 2 * block + np.tile(np.array([0, 0, 1], dtype=np.int64), M)
            h = 2 * block + np.tile(np.array([0, 1, 1], dtype=np.int64), M)
        unit = np.ones(M)  # block covariance [[1,1,0],[1,2,1],[0,1,1]]
        layout = _Layout(ClusterScheme(("G", "H"), (g, h)), np.tile([1.0, -1.0, 1.0], M), components=(
            _Component(COMP_ALPHA, spec.dist_alpha, block, unit, np.tile([1.0, 1.0, 0.0], M)),
            _Component(COMP_GAMMA, spec.dist_gamma, block, unit, np.tile([0.0, 1.0, 1.0], M)),
        ), noise=None)
    else:
        g = np.repeat(np.arange(M, dtype=np.int64), M * cell)
        h = np.tile(np.repeat(np.arange(M, dtype=np.int64), cell), M)
        effects = (
            _Component(COMP_ALPHA, spec.dist_alpha, g, _schedule(spec.sigma_alpha, M, spec.hetero_alpha), None),
            _Component(COMP_GAMMA, spec.dist_gamma, h, _schedule(spec.sigma_gamma, M, spec.hetero_gamma), None),
        )
        noise = _schedule(spec.sigma_eps, g.size, spec.hetero_eps)
        layout = _Layout(ClusterScheme(("G", "H"), (g, h)), None, effects, noise)
        if spec.variant == "iid-conservative":
            layout = layout._replace(components=())
        if spec.variant == "interactive-chaos":  # uncorrelated but within-row/column dependent
            layout = layout._replace(components=(), noise=None, factors=effects)
    for arr in (*layout.scheme.labels, layout.mean, layout.noise,
                *(a for c in (*layout.components, *layout.factors) for a in c[2:])):
        if arr is not None:
            arr.flags.writeable = False
    return layout


def structure(spec: DgpSpec):
    """Scheme and moment oracle for a spec; deterministic, no draws.

    Identical across replications, so callers can build the neighborhood
    index once per study. The scheme and the mean array are shared with
    every other call for an equal spec, and the arrays are read-only.
    """
    lay = _layout(spec)
    scheme = lay.scheme
    # without a shared component every observation is its own cluster: self-only dependence
    linked = tuple(c.linked() for c in (*lay.components, *lay.factors)) or (np.arange(scheme.n),) * 2
    sums = [np.bincount(c.labels, c.loads, c.scale.size) for c in lay.components]  # per label, of its loadings
    true_Q = sum((s**2 * c.scale**2).sum() for s, c in zip(sums, lay.components)) + lay.row_var.sum()
    # a component adds m3 scale^3 load_i load_j load_k to E[X_i X_j X_k] for j, k of i's label
    third = None if lay.factors else sum(
        (_M3[c.dist] * c.scale**3)[c.labels] * s[c.labels] ** 2 * c.loads for s, c in zip(sums, lay.components)
    )
    if lay.noise is not None:
        third = third + _M3[spec.dist_eps] * lay.noise**3
    dists = [c.dist for c in lay.components] + ([spec.dist_eps] if lay.noise is not None else [])
    return scheme, MomentOracle(
        mean=np.broadcast_to(0.0, scheme.n) if lay.mean is None else lay.mean,  # read-only either way
        true_Q=float(true_Q),
        scheme=scheme,
        gaussian=not lay.factors and all(d == "gaussian" for d in dists),  # products of normals are not normal
        dependent=ClusterScheme(dims=scheme.dims, labels=linked),
        third_inner_sum=third,
        _design=lay,
    )


def draws(spec: DgpSpec, reps: range, streams: Streams | None = None) -> np.ndarray:
    """Replications ``reps`` of the outcome vector, one per row of a fresh C-ordered array.

    Row k is deterministic in (seed, reps[k]) and does not depend on the other
    rows. A study passes one ``Streams(spec.seed)`` to every block; without it,
    ``draws`` builds its own, with the same result. A helper of another seed
    raises ValueError.
    """
    if streams is None:
        streams = Streams(spec.seed)
    elif streams.seed != spec.seed:
        raise ValueError(f"stream helper has seed {streams.seed}, the design has seed {spec.seed}")
    lay = _layout(spec)

    def effect(comp, dist, labels, scale, load):
        x = spread(scale * streams.fill(reps, comp, dist, scale.size), labels, lay.scheme.grid)
        return x if load is None else x * load

    if lay.factors:
        a, b = (effect(*c) for c in lay.factors)
        return a * b
    terms = [effect(*c) for c in lay.components]
    if lay.noise is not None:
        terms.append(lay.noise * streams.fill(reps, COMP_EPS, spec.dist_eps, lay.scheme.n))
    x = terms[0] if lay.mean is None else lay.mean + terms[0]
    for term in terms[1:]:
        x += term
    return x


def draw(spec: DgpSpec, rep: int = 0) -> np.ndarray:
    """One replication of the outcome vector, a fresh array: row 0 of ``draws`` over ``rep`` alone."""
    return draws(spec, range(rep, rep + 1))[0]


def true_bias_term(oracle: MomentOracle) -> float:
    """Exact sum of mean products over all neighborhood pairs.

    The sign of this term determines whether a nonzero-mean design over- or
    under-states the variance.
    """
    mu = oracle.mean
    return float(mu @ build_index(oracle.scheme).neighbor_sums(mu))
