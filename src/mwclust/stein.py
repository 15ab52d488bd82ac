"""Non-asymptotic normal-approximation bounds for simulated designs.

The Wasserstein bound is the sum of a third-moment term and a
pair-sum-variance term; the Kolmogorov conversion is (2/pi)^(1/4) times
the square root. True moments are required, so everything here is
simulation-only and works off a moment oracle. Both terms sum over the
pairs of the oracle's true dependence, a label pair, through its index.
Both bounds are ratios that do not depend on the design's scale, so both
are computed for x / sigma: no power of sigma can leave the double range.

The Monte Carlo bound cuts its replication blocks into ``MC_GROUPS`` (16)
contiguous groups, a number that the design fixes, and splits the groups
over the usable CPUs with ``harness._in_parts``. Each group sums u and u^2
over its replications in their order, and the groups' sums are added in
group order, so a report has the same bytes for any number of CPUs; its
``term_third`` can differ in the last bits from one running sum over all
replications (one ulp on ``configs/diagnose_chaos.json``). On a complete
grid, one observation per cell in row-major order (the true dependence of
additive-re and interactive-chaos at ``cell_size`` 1), the neighbour sums
of a block reduce the reshaped block instead of gathering.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations_with_replacement

import numpy as np

from mwclust.clusters import _row_dots, build_index
from mwclust.dgp import DgpSpec, MomentOracle, Streams, _blocks, draws, structure
from mwclust.harness import _in_parts

_VAR_COEF = math.sqrt(2.0 / math.pi)
_DK_COEF = (2.0 / math.pi) ** 0.25
_PAIR_CHUNK = 2**20  # index pairs that ``_matches`` holds at a time
_SIGNS = (1.0, 1.0, -1.0)  # of the G, H and cell sums in the true dependence B
# groups of the Monte Carlo bound's blocks, a count that the design fixes: 16 splits evenly over 1, 2, 4,
# 8 or 16 CPUs, and more would only add group sums
MC_GROUPS = 16


@dataclass(frozen=True)
class BoundReport:
    term_third: float
    term_var: float
    d_W_bound: float
    d_K_bound: float
    method: str
    mc_se: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def kolmogorov_bound(d_W: float) -> float:
    """Convert a Wasserstein bound to a Kolmogorov-distance bound."""
    if d_W < 0:
        raise ValueError("d_W must be nonnegative")
    return _DK_COEF * math.sqrt(d_W)


def _matches(a: np.ndarray, b: np.ndarray, size: int):
    """Chunks of about ``_PAIR_CHUNK`` index pairs (p, q) with ``a[p] == b[q]``, for ints in [0, size)."""
    order = np.argsort(b, kind="stable")
    count = np.bincount(b, minlength=size)
    start = np.cumsum(count) - count  # where each value's run begins in b[order]
    per = count[a]
    ends = np.cumsum(per)
    lo = 0
    while lo < a.size:
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")))
        k = per[lo:hi]
        p = np.repeat(np.arange(lo, hi), k)
        q = order[np.repeat(start[a[lo:hi]] - (np.cumsum(k) - k), k) + np.arange(p.size)]
        yield p, q
        lo = hi


def _label_sums(groups: np.ndarray, labels: np.ndarray, size: int, f: np.ndarray):
    """S'F of one component as (group, label, sum of f) over its nonzero pairs, sorted by group then label."""
    codes, inverse = np.unique(groups * size + labels, return_inverse=True)
    return codes // size, codes % size, np.bincount(inverse, f)


def _pair_terms(A1, A2, m: int, L2: int):
    """Chunks of the terms of A1'A2 over the pairs of two ``_label_sums``: (flat index j1 * L2 + j2, v1 v2)."""
    (r1, j1, v1), (r2, j2, v2) = A1, A2
    for p, q in _matches(r1, r2, m):
        yield j1[p] * L2 + j2[q], v1[p] * v2[q]


def _product(A1, A2, m: int, L1: int, L2: int, pairs: int) -> np.ndarray:
    """A1'A2, L1-by-L2, of two ``_label_sums`` over the same m groups that meet in ``pairs`` pairs."""
    if 8 * pairs > m * L1 * L2:  # dense enough that a matrix product costs less than its pairs
        (r1, j1, v1), (r2, j2, v2) = A1, A2
        D1, D2 = np.zeros((m, L1)), np.zeros((m, L2))
        D1[r1, j1] = v1
        D2[r2, j2] = v2
        return D1.T @ D2
    P = np.zeros(L1 * L2)
    for codes, terms in _pair_terms(A1, A2, m, L2):
        P += np.bincount(codes, terms, L1 * L2)
    return P.reshape(L1, L2)


def _signed_norm(A1s, A2s, groups, L1: int, L2: int) -> float:
    """|sum_d sign_d A1_d'A2_d|^2 over the G, H and cell sums (signs +, +, -) of two components.

    When the pairs are few against the L1-by-L2 block, the sum is formed over
    the distinct flat indices of their terms only.
    """
    counts = [np.bincount(A1[0], minlength=m) @ np.bincount(A2[0], minlength=m)
              for A1, A2, (_, m) in zip(A1s, A2s, groups)]
    if 4 * sum(counts) < L1 * L2:  # the block would outweigh the pairs' indices and terms
        codes, terms = [np.empty(0, np.int64)], [np.empty(0)]
        for s, A1, A2, (_, m) in zip(_SIGNS, A1s, A2s, groups):
            for c, t in _pair_terms(A1, A2, m, L2):
                codes.append(c)
                terms.append(s * t)
        _, inverse = np.unique(np.concatenate(codes), return_inverse=True)
        P = np.bincount(inverse, np.concatenate(terms))
    else:
        P = sum(s * _product(A1, A2, m, L1, L2, int(k))
                for s, A1, A2, (_, m), k in zip(_SIGNS, A1s, A2s, groups, counts))
    return float(np.vdot(P, P))


def _dependent_trace(oracle: MomentOracle) -> float:
    """tr(BCBC) for x / sigma, B the 0/1 true dependence and C = FF' + diag(e) the covariance, from labels.

    F has a column per label of each component and one nonzero per row and
    component. B sums over G clusters and H clusters and subtracts the cells
    (signs +, +, -); with A_d = S_d'F the sums of F per (group, label) of sum
    d, F'BF = sum_d sign_d A_d'A_d and (BF)_i = sum_d sign_d A_d[group_d(i)].
    Then tr(BCBC) = |F'BF|^2 + 2 sum_i e_i |(BF)_i|^2 + e'Be, from L-by-L
    blocks and per-cell dots; no n-by-L array is formed.
    """
    lay = oracle._design
    index = build_index(oracle.dependent)
    (g, C_G), (h, C_H), (cell, n_cells) = index.groups
    root = math.sqrt(oracle.true_Q)
    e = lay.row_var / oracle.true_Q
    sizes = [c.scale.size for c in lay.components]
    A = [
        [_label_sums(a, c.labels, L, (c.scale / root)[c.labels] * c.loads) for a, _ in index.groups]
        for c, L in zip(lay.components, sizes)
    ]
    # |F'BF|^2 from its blocks per pair of components; a block off the diagonal counts twice
    term_F = 0.0
    for c1, c2 in combinations_with_replacement(range(len(A)), 2):
        term_F += (1.0 if c1 == c2 else 2.0) * _signed_norm(A[c1], A[c2], index.groups, sizes[c1], sizes[c2])
    # sum_i e_i |(BF)_i|^2: the squared rows of each A_d, and the dots of the rows of two sums
    # that an observation meets, whose e-weight is that of its cell
    cell_g, cell_h = np.empty(n_cells, np.int64), np.empty(n_cells, np.int64)
    cell_g[cell], cell_h[cell] = g, h
    cell_keys = cell_g * C_H + cell_h  # increasing in the cell id
    e_sums = [np.bincount(a, e, m) for a, m in index.groups]
    term_e = 0.0
    for L, A_c in zip(sizes, A):
        for E, (r, _, v), (_, m) in zip(e_sums, A_c, index.groups):
            term_e += float(E @ np.bincount(r, v * v, m))
        A_G, A_H, A_cell = A_c
        r, j, v = A_cell
        for (r_d, j_d, v_d), of_cell in ((A_G, cell_g), (A_H, cell_h)):  # the cell's label in its G or H group
            at = np.searchsorted(r_d * L + j_d, of_cell[r] * L + j)
            term_e -= 2.0 * float(e_sums[2][r] @ (v * v_d[at]))
        (r_g, j_g, v_g), (r_h, j_h, v_h) = A_G, A_H
        for p, q in _matches(j_g, j_h, L):  # a label's G and H groups, kept where they meet in a cell
            key = r_g[p] * C_H + r_h[q]
            at = np.minimum(np.searchsorted(cell_keys, key), n_cells - 1)
            met = cell_keys[at] == key
            term_e += 2.0 * float(e_sums[2][at[met]] @ (v_g[p] * v_h[q])[met])
    return term_F + 2.0 * term_e + float(e @ index.neighbor_sums(e))


def _analytic(oracle: MomentOracle) -> BoundReport:
    if not oracle.gaussian:
        raise ValueError(
            "analytic bound requires Gaussian components; use the monte-carlo method"
        )
    # odd moments of symmetric Gaussian components vanish identically, and
    # Gaussian fourth moments give Var(x'Bx) = 2 tr(BCBC)
    term_var = _VAR_COEF * math.sqrt(2.0 * _dependent_trace(oracle))
    return BoundReport(
        term_third=0.0,
        term_var=term_var,
        d_W_bound=term_var,
        d_K_bound=kolmogorov_bound(term_var),
        method="analytic",
    )


def _replicate(spec: DgpSpec, oracle: MomentOracle, reps: int):
    """For x / sigma, T = x'Bx per replication and the sums over replications of u and u^2, u = x (Bx)^2.

    Summed group by group, over at most ``MC_GROUPS`` contiguous groups of the blocks.
    """
    n = oracle.scheme.n
    index = build_index(oracle.dependent)
    sigma = math.sqrt(oracle.true_Q)
    streams = Streams(spec.seed)

    def moments(group):
        """T of the group's replications, and its sums of u and u^2 as one 2-by-n array."""
        T, sums = [], np.zeros((2, n))
        for block in group:
            x = (draws(spec, block, streams) - oracle.mean) / sigma
            t = index.row_neighbor_sums(x)
            T.append(_row_dots(x, t))
            rows = np.empty((len(block) + 1, 2, n))  # the running sums, then u and u^2 of each replication
            rows[0] = sums
            u, u_sq = rows[1:, 0], rows[1:, 1]
            np.multiply(x, t, out=u)
            u *= t
            np.multiply(u, u, out=u_sq)
            # a sum over the outer axis adds the rows one by one, in replication order: the inner axes,
            # 2n >= 2 long, are not summed, so no pairwise summation applies
            sums = np.add.reduce(rows, axis=0)
        return np.concatenate(T), sums

    blocks = list(_blocks(reps, n))
    count = min(MC_GROUPS, len(blocks))
    edges = [len(blocks) * k // count for k in range(count + 1)]
    T, sums = zip(*_in_parts(moments, [blocks[lo:hi] for lo, hi in zip(edges, edges[1:])]))
    u_sum, u_sumsq = sum(sums)  # group by group
    return np.concatenate(T), u_sum, u_sumsq


def _monte_carlo(spec: DgpSpec, oracle: MomentOracle, reps: int) -> BoundReport:
    T, u_sum, u_sumsq = _replicate(spec, oracle, reps)
    e = u_sum / reps
    term_third = float(np.abs(e).sum())
    var_u = np.maximum(u_sumsq / reps - e * e, 0.0)
    se_third = math.sqrt(float(var_u.sum()) / reps)
    var_T = float(np.var(T, ddof=1))
    centered = T - T.mean()
    m4 = float(np.mean(centered**4))
    se_var_T = math.sqrt(max(m4 - var_T**2, 0.0) / reps)
    term_var = _VAR_COEF * math.sqrt(var_T)
    se_var = _VAR_COEF * se_var_T / (2.0 * math.sqrt(var_T)) if var_T > 0 else 0.0
    d_W = term_third + term_var
    return BoundReport(
        term_third=term_third,
        term_var=term_var,
        d_W_bound=d_W,
        d_K_bound=kolmogorov_bound(d_W),
        method="monte-carlo",
        mc_se=math.sqrt(se_third**2 + se_var**2),
    )


def wasserstein_bound(
    spec: DgpSpec, method: str = "analytic", reps: int = 10_000
) -> BoundReport:
    """Evaluate the Wasserstein bound for a simulation design.

    The analytic path needs Gaussian components (fourth moments via the
    Gaussian product rule); the monte-carlo path estimates the moment terms
    over ``reps`` replications and reports a standard error.
    """
    _, oracle = structure(spec)
    if oracle.true_Q <= 0:
        raise ValueError("design has zero variance; bound undefined")
    if not oracle.true_Q < math.inf:
        raise ValueError("design variance overflows double precision; bound undefined")
    if method == "analytic":
        return _analytic(oracle)
    if method == "monte-carlo":
        if reps < 2:  # the variance of T needs two
            raise ValueError(f"monte-carlo bound needs at least 2 replications, got {reps}")
        return _monte_carlo(spec, oracle, reps)
    raise ValueError(f"unknown method {method!r}")
