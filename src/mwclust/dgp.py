"""Simulation designs with known ground truth.

Each variant ships an oracle carrying exact means, the exact variance of
the weighted sum, the true pairwise dependence as a pair of cluster labels,
and (where the additive structure allows) closed-form third moments.
Replication streams are counter-based so parallel generation is
replication-stable; a study draws every stream from one ``Streams``
generator whose counter it resets.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from mwclust.clusters import ClusterScheme, build_index

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
    # entry i: closed-form sum of E[X_i X_j X_k] over j, k in i's dependency
    # neighborhood (the triple enumeration collapsed by shared-component
    # counting); additive designs only
    third_inner_sum: np.ndarray | None = None
    _factor_builder: callable = None
    _factor: tuple = field(default=None, repr=False)

    def cov_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """``(F, e)`` with covariance ``F @ F.T + diag(e)``; F has O(M) columns (built lazily)."""
        if self._factor is None:
            self._factor = self._factor_builder()
        return self._factor


def _schedule(base: float, count: int, hetero: bool) -> np.ndarray:
    if hetero:
        return base * (1.0 + np.arange(count) / count)
    return np.full(count, base)


class Streams:
    """Counter-based Philox streams of one seed, all drawn from one generator.

    ``streams(rep, comp)`` returns the shared generator in the state of a
    freshly built ``Philox(key=seed, counter=[0, 0, rep, comp])``, so it draws
    that stream bit for bit, for a fraction of the cost of building one. The
    whole fresh state is restored, not the counter alone: a draw can leave a
    buffered word or a cached 32-bit half behind. Each call resets the same
    generator, so draw from one stream before asking for the next, and do not
    share a helper between threads (the package starts none).
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._bits = np.random.Philox(key=np.uint64(seed))
        self._rng = np.random.Generator(self._bits)
        self._fresh = self._bits.state  # empty buffer, no cached half word
        self._counter = self._fresh["state"]["counter"]

    def __call__(self, rep: int, comp: int) -> np.random.Generator:
        self._counter[2] = rep
        self._counter[3] = comp
        self._bits.state = self._fresh
        return self._rng


def _streams_for(seed: int, streams: Streams | None) -> Streams:
    """``streams``, or a new helper when it is None; raises ValueError on a helper of another seed."""
    if streams is None:
        return Streams(seed)
    if streams.seed != seed:
        raise ValueError(f"stream helper has seed {streams.seed}, the design has seed {seed}")
    return streams


def _draw(rng: np.random.Generator, dist: str, size: int) -> np.ndarray:
    if dist == "gaussian":
        return rng.standard_normal(size)
    if dist == "centered-exponential":
        return rng.standard_exponential(size) - 1.0
    return rng.integers(0, 2, size=size) * 2.0 - 1.0


class _Layout(NamedTuple):
    """The seed-independent arrays of a design; every array is read-only."""

    g: np.ndarray  # G cluster of each observation
    h: np.ndarray  # H cluster of each observation
    mean: np.ndarray
    sa: np.ndarray | None = None  # grid: scale of alpha per G cluster
    sg: np.ndarray | None = None  # grid: scale of gamma per H cluster
    se: np.ndarray | None = None  # grid: scale of eps per observation
    block: np.ndarray | None = None  # triple: block of each observation
    load_a: np.ndarray | None = None  # triple: loading of the first block component
    load_c: np.ndarray | None = None  # triple: loading of the second block component


@lru_cache(maxsize=64)
def _layout(spec: DgpSpec) -> _Layout:
    """Labels, scale schedules, triple block and mean of a design, built once per spec.

    ``structure`` hands these arrays out (``scheme.labels``, ``oracle.mean``)
    and ``draw`` reads them on every replication, so they are shared and
    marked read-only.
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
        layout = _Layout(
            g, h, np.tile([1.0, -1.0, 1.0], M), block=block,
            load_a=np.tile([1.0, 1.0, 0.0], M), load_c=np.tile([0.0, 1.0, 1.0], M),
        )
    else:
        g = np.repeat(np.arange(M, dtype=np.int64), M * cell)
        h = np.tile(np.repeat(np.arange(M, dtype=np.int64), cell), M)
        layout = _Layout(
            g, h, np.zeros(g.size),
            sa=_schedule(spec.sigma_alpha, M, spec.hetero_alpha),
            sg=_schedule(spec.sigma_gamma, M, spec.hetero_gamma),
            se=_schedule(spec.sigma_eps, g.size, spec.hetero_eps),
        )
    for arr in layout:
        if arr is not None:
            arr.flags.writeable = False
    return layout


def structure(spec: DgpSpec):
    """Scheme and moment oracle for a spec; deterministic, no draws.

    Identical across replications, so callers can build the neighborhood
    index once per study. The label and mean arrays are shared with every
    other call for an equal spec, and are read-only.
    """
    lay = _layout(spec)
    scheme = ClusterScheme(dims=("G", "H"), labels=(lay.g, lay.h))
    if spec.variant == "nonzero-mean-triple":
        return scheme, _triple_oracle(spec, scheme, lay)

    M, n = spec.M, scheme.n
    g, h, sa, sg, se = lay.g, lay.h, lay.sa, lay.sg, lay.se
    if spec.variant == "additive-re":
        sizes_g = np.bincount(g, minlength=M).astype(float)
        sizes_h = np.bincount(h, minlength=M).astype(float)
        true_Q = float(
            (sizes_g**2 * sa**2).sum() + (sizes_h**2 * sg**2).sum() + (se**2).sum()
        )
        m3a = _M3[spec.dist_alpha] * sa**3
        m3g = _M3[spec.dist_gamma] * sg**3
        m3e = _M3[spec.dist_eps] * se**3
        gaussian = {spec.dist_alpha, spec.dist_gamma, spec.dist_eps} == {"gaussian"}
        oracle = MomentOracle(
            mean=lay.mean,
            true_Q=true_Q,
            scheme=scheme,
            gaussian=gaussian,
            dependent=scheme,
            third_inner_sum=m3a[g] * sizes_g[g] ** 2 + m3g[h] * sizes_h[h] ** 2 + m3e,
            # one column per random effect: F = [Z_g diag(sa) | Z_h diag(sg)]
            _factor_builder=lambda: (np.hstack([np.eye(M)[g] * sa, np.eye(M)[h] * sg]), se**2),
        )
        return scheme, oracle

    if spec.variant == "iid-conservative":
        own = np.arange(n)  # every observation its own cluster: self-only dependence
        oracle = MomentOracle(
            mean=lay.mean,
            true_Q=float((se**2).sum()),
            scheme=scheme,
            gaussian=spec.dist_eps == "gaussian",
            dependent=ClusterScheme(dims=scheme.dims, labels=(own, own)),
            third_inner_sum=_M3[spec.dist_eps] * se**3,
            _factor_builder=lambda: (np.empty((n, 0)), se**2),
        )
        return scheme, oracle

    # interactive-chaos: uncorrelated but within-row/column dependent
    var_i = sa[g] ** 2 * sg[h] ** 2
    oracle = MomentOracle(
        mean=lay.mean,
        true_Q=float(var_i.sum()),
        scheme=scheme,
        gaussian=False,  # products of normals are not normal
        dependent=scheme,
        _factor_builder=lambda: (np.empty((n, 0)), var_i),
    )
    return scheme, oracle


def _triple_oracle(spec: DgpSpec, scheme: ClusterScheme, lay: _Layout) -> MomentOracle:
    blocks = spec.M
    block, loadings = lay.block, (lay.load_a, lay.load_c)
    # actual dependence is a shared block component, whatever the scheme; the two-way
    # labels pair the middle member with the first (on G) and the last (on H)
    two_way = _layout(replace(spec, triple_one_way=False))
    gaussian = {spec.dist_alpha, spec.dist_gamma} == {"gaussian"}
    return MomentOracle(
        mean=lay.mean,
        true_Q=8.0 * blocks,
        scheme=scheme,
        gaussian=gaussian,
        dependent=ClusterScheme(dims=scheme.dims, labels=(two_way.g, two_way.h)),
        # block covariance [[1,1,0],[1,2,1],[0,1,1]]: one column per block component
        _factor_builder=lambda: (
            np.hstack([np.eye(blocks)[block] * load[:, None] for load in loadings]),
            np.zeros(scheme.n),
        ),
    )


def draw(spec: DgpSpec, rep: int = 0, streams: Streams | None = None) -> np.ndarray:
    """One replication of the outcome vector, a fresh array. Deterministic in (seed, rep).

    A study passes one ``Streams(spec.seed)`` to every replication; without
    it, ``draw`` builds its own, with the same result.
    """
    stream = _streams_for(spec.seed, streams)
    lay = _layout(spec)
    if spec.variant == "nonzero-mean-triple":
        a = _draw(stream(rep, COMP_ALPHA), spec.dist_alpha, spec.M)
        c = _draw(stream(rep, COMP_GAMMA), spec.dist_gamma, spec.M)
        return lay.mean + a[lay.block] * lay.load_a + c[lay.block] * lay.load_c

    n = lay.g.size
    if spec.variant == "iid-conservative":
        return lay.se * _draw(stream(rep, COMP_EPS), spec.dist_eps, n)
    alpha = lay.sa * _draw(stream(rep, COMP_ALPHA), spec.dist_alpha, spec.M)
    gamma = lay.sg * _draw(stream(rep, COMP_GAMMA), spec.dist_gamma, spec.M)
    if spec.variant == "interactive-chaos":
        return alpha[lay.g] * gamma[lay.h]
    eps = lay.se * _draw(stream(rep, COMP_EPS), spec.dist_eps, n)
    return alpha[lay.g] + gamma[lay.h] + eps


def true_bias_term(oracle: MomentOracle) -> float:
    """Exact sum of mean products over all neighborhood pairs.

    The sign of this term determines whether a nonzero-mean design over- or
    under-states the variance.
    """
    mu = oracle.mean
    return float(mu @ build_index(oracle.scheme).neighbor_sums(mu))
