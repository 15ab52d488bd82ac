from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from mwclust.clusters import build_index
from mwclust.dgp import (
    COMP_ALPHA,
    COMP_EPS,
    COMP_GAMMA,
    DISTRIBUTIONS,
    VARIANTS,
    DgpSpec,
    Streams,
    draw,
    draws,
    structure,
    true_bias_term,
)


class TestDgpSpec:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            DgpSpec(variant="mystery")

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            DgpSpec(variant="additive-re", dist_eps="cauchy")

    def test_chaos_requires_unit_cells(self):
        with pytest.raises(ValueError):
            DgpSpec(variant="interactive-chaos", cell_size=2)

    @pytest.mark.parametrize("value", ["no", 1, None, float("nan")])
    @pytest.mark.parametrize("key", ["hetero_alpha", "hetero_gamma", "hetero_eps", "triple_one_way"])
    def test_flags_must_be_bool(self, key, value):
        with pytest.raises(ValueError, match=f"^dgp.{key} must be true or false"):
            DgpSpec(variant="additive-re", **{key: value})


def reference_cov(spec: DgpSpec) -> np.ndarray:
    """The dense covariance builders that the low-rank factor replaced."""
    scheme, _ = structure(spec)
    n = scheme.n
    g, h = scheme.labels
    if spec.variant == "nonzero-mean-triple":
        block_cov = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
        C = np.zeros((n, n))
        for b in range(spec.M):
            C[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] = block_cov
        return C
    sa = spec.sigma_alpha * (1.0 + np.arange(spec.M) / spec.M if spec.hetero_alpha else np.ones(spec.M))
    sg = spec.sigma_gamma * (1.0 + np.arange(spec.M) / spec.M if spec.hetero_gamma else np.ones(spec.M))
    se = spec.sigma_eps * (1.0 + np.arange(n) / n if spec.hetero_eps else np.ones(n))
    if spec.variant == "iid-conservative":
        return np.diag(se**2)
    if spec.variant == "interactive-chaos":
        return np.diag(sa[g] ** 2 * sg[h] ** 2)
    same_g = g[:, None] == g[None, :]
    same_h = h[:, None] == h[None, :]
    C = np.where(same_g, sa[g][:, None] * sa[g][None, :], 0.0)
    C += np.where(same_h, sg[h][:, None] * sg[h][None, :], 0.0)
    C[np.diag_indices(n)] += se**2
    return C


def reference_schedule(base: float, count: int, hetero: bool) -> np.ndarray:
    if hetero:
        return base * (1.0 + np.arange(count) / count)
    return np.full(count, base)


def fresh_stream(seed: int, rep: int, comp: int) -> np.random.Generator:
    """A newly built Philox generator for stream (rep, comp) of ``seed``."""
    counter = np.array([0, 0, rep, comp], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


def reference_component(rng: np.random.Generator, dist: str, size: int) -> np.ndarray:
    """Unit-variance draws of one component family."""
    if dist == "gaussian":
        return rng.standard_normal(size)
    if dist == "centered-exponential":
        return rng.standard_exponential(size) - 1.0
    return rng.integers(0, 2, size=size) * 2.0 - 1.0


def reference_draw(spec: DgpSpec, rep: int = 0) -> np.ndarray:
    """The draw that rebuilt its labels, scale schedules, block, mean and generators on every call."""
    M, cell = spec.M, spec.cell_size

    def component(comp, dist, size):
        return reference_component(fresh_stream(spec.seed, rep, comp), dist, size)

    if spec.variant == "nonzero-mean-triple":
        a = component(COMP_ALPHA, spec.dist_alpha, M)
        c = component(COMP_GAMMA, spec.dist_gamma, M)
        block = np.repeat(np.arange(M), 3)
        pattern_a = np.tile(np.array([1.0, 1.0, 0.0]), M)
        pattern_c = np.tile(np.array([0.0, 1.0, 1.0]), M)
        mean = np.tile(np.array([1.0, -1.0, 1.0]), M)
        return mean + a[block] * pattern_a + c[block] * pattern_c

    n = M * M * cell
    g = np.repeat(np.arange(M), M * cell)
    h = np.tile(np.repeat(np.arange(M), cell), M)
    se = reference_schedule(spec.sigma_eps, n, spec.hetero_eps)
    if spec.variant == "iid-conservative":
        return se * component(COMP_EPS, spec.dist_eps, n)
    sa = reference_schedule(spec.sigma_alpha, M, spec.hetero_alpha)
    sg = reference_schedule(spec.sigma_gamma, M, spec.hetero_gamma)
    alpha = sa * component(COMP_ALPHA, spec.dist_alpha, M)
    gamma = sg * component(COMP_GAMMA, spec.dist_gamma, M)
    if spec.variant == "interactive-chaos":
        return alpha[g] * gamma[h]
    eps = se * component(COMP_EPS, spec.dist_eps, n)
    return alpha[g] + gamma[h] + eps


def reference_labels(spec: DgpSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (G, H) labels of the grid and triple scheme builders."""
    M = spec.M
    if spec.variant != "nonzero-mean-triple":
        g = np.repeat(np.arange(M, dtype=np.int64), M * spec.cell_size)
        h = np.tile(np.repeat(np.arange(M, dtype=np.int64), spec.cell_size), M)
        return g, h
    b = np.repeat(np.arange(M, dtype=np.int64), 3)
    if spec.triple_one_way:
        return np.zeros(3 * M, dtype=np.int64), np.arange(3 * M, dtype=np.int64)
    g = 2 * b + np.tile(np.array([0, 0, 1], dtype=np.int64), M)
    h = 2 * b + np.tile(np.array([0, 1, 1], dtype=np.int64), M)
    return g, h


def cov_factor(oracle) -> tuple[np.ndarray, np.ndarray]:
    """``(F, e)`` with covariance ``F @ F.T + diag(e)``: a dense column per label of each component."""
    lay = oracle._design
    F = (np.eye(c.scale.size)[c.labels] * c.scale * c.loads[:, None] for c in lay.components)
    return np.hstack([np.empty((oracle.scheme.n, 0)), *F]), lay.row_var


def dense_cov(oracle) -> np.ndarray:
    """The n-by-n covariance F F' + diag(e) from the oracle's low-rank factor."""
    F, e = cov_factor(oracle)
    return F @ F.T + np.diag(e)


def dense_dependence(labels) -> np.ndarray:
    """The n-by-n boolean matrix of pairs that share a label of ``labels`` on either dimension."""
    g, h = labels.labels
    return (g[:, None] == g[None, :]) | (h[:, None] == h[None, :])


def reference_triple_dependent(M: int) -> np.ndarray:
    """Triple dependence by position: same block, except the first and last members."""
    block = np.repeat(np.arange(M), 3)
    pos = np.tile(np.arange(3), M)
    skip = (np.minimum.outer(pos, pos) == 0) & (np.maximum.outer(pos, pos) == 2)
    return (block[:, None] == block[None, :]) & ~skip


def reference_third_moment(spec: DgpSpec):
    """E[X_i X_j X_k] of every design with additive components, one triple at a time."""
    scheme, _ = structure(spec)
    m3 = {"gaussian": 0.0, "centered-exponential": 2.0, "rademacher": 0.0}
    if spec.variant == "nonzero-mean-triple":
        block = np.repeat(np.arange(spec.M), 3)
        load_a, load_c = np.tile([1.0, 1.0, 0.0], spec.M), np.tile([0.0, 1.0, 1.0], spec.M)

        def triple_moment(i, j, k):
            if not block[i] == block[j] == block[k]:
                return 0.0
            return m3[spec.dist_alpha] * load_a[[i, j, k]].prod() + m3[spec.dist_gamma] * load_c[[i, j, k]].prod()

        return triple_moment
    g, h = scheme.labels
    sa = reference_schedule(spec.sigma_alpha, spec.M, spec.hetero_alpha)
    sg = reference_schedule(spec.sigma_gamma, spec.M, spec.hetero_gamma)
    se = reference_schedule(spec.sigma_eps, scheme.n, spec.hetero_eps)
    additive = spec.variant == "additive-re"

    def third_moment(i, j, k):
        val = 0.0
        if additive and g[i] == g[j] == g[k]:
            val += m3[spec.dist_alpha] * sa[g[i]] ** 3
        if additive and h[i] == h[j] == h[k]:
            val += m3[spec.dist_gamma] * sg[h[i]] ** 3
        if i == j == k:
            val += m3[spec.dist_eps] * se[i] ** 3
        return val

    return third_moment


def reference_moments(spec: DgpSpec):
    """``(true_Q, third_inner_sum, (F, e), gaussian, dependent labels)`` from each variant's own closed form.

    These are the per-variant oracles that the component table replaced; the
    triple's third-moment sum was not given (None).
    """
    M = spec.M
    m3 = {"gaussian": 0.0, "centered-exponential": 2.0, "rademacher": 0.0}
    if spec.variant == "nonzero-mean-triple":
        block = np.repeat(np.arange(M), 3)
        loads = (np.tile([1.0, 1.0, 0.0], M), np.tile([0.0, 1.0, 1.0], M))
        F = np.hstack([np.eye(M)[block] * load[:, None] for load in loads])
        gaussian = {spec.dist_alpha, spec.dist_gamma} == {"gaussian"}
        return 8.0 * M, None, (F, np.zeros(3 * M)), gaussian, reference_labels(replace(spec, triple_one_way=False))
    g, h = reference_labels(spec)
    n = g.size
    sa = reference_schedule(spec.sigma_alpha, M, spec.hetero_alpha)
    sg = reference_schedule(spec.sigma_gamma, M, spec.hetero_gamma)
    se = reference_schedule(spec.sigma_eps, n, spec.hetero_eps)
    m3e = m3[spec.dist_eps] * se**3
    if spec.variant == "additive-re":
        sizes_g = np.bincount(g, minlength=M).astype(float)
        sizes_h = np.bincount(h, minlength=M).astype(float)
        true_Q = float((sizes_g**2 * sa**2).sum() + (sizes_h**2 * sg**2).sum() + (se**2).sum())
        m3a, m3g = m3[spec.dist_alpha] * sa**3, m3[spec.dist_gamma] * sg**3
        third = m3a[g] * sizes_g[g] ** 2 + m3g[h] * sizes_h[h] ** 2 + m3e
        F = np.hstack([np.eye(M)[g] * sa, np.eye(M)[h] * sg])
        gaussian = {spec.dist_alpha, spec.dist_gamma, spec.dist_eps} == {"gaussian"}
        return true_Q, third, (F, se**2), gaussian, (g, h)
    if spec.variant == "iid-conservative":
        own = np.arange(n)
        return float((se**2).sum()), m3e, (np.empty((n, 0)), se**2), spec.dist_eps == "gaussian", (own, own)
    var_i = sa[g] ** 2 * sg[h] ** 2  # interactive-chaos
    return float(var_i.sum()), None, (np.empty((n, 0)), var_i), False, (g, h)


def layout_specs():
    """Every variant, distribution, heterogeneity flag, cell size and triple orientation."""
    dists = [(d, d, d) for d in DISTRIBUTIONS] + [("centered-exponential", "rademacher", "gaussian")]
    for variant, dist, hetero, cell, one_way in product(
        VARIANTS, dists, product((False, True), repeat=3), (1, 3), (False, True)
    ):
        if variant == "interactive-chaos" and cell != 1:
            continue
        yield DgpSpec(
            variant=variant, M=3, cell_size=cell,
            dist_alpha=dist[0], dist_gamma=dist[1], dist_eps=dist[2],
            sigma_alpha=0.5, sigma_gamma=2.0, sigma_eps=1.5,
            hetero_alpha=hetero[0], hetero_gamma=hetero[1], hetero_eps=hetero[2],
            triple_one_way=one_way,
        )


class TestLayout:
    def test_draw_matches_reference_bit_for_bit(self):
        for spec in layout_specs():
            scheme, oracle = structure(spec)
            for seed, rep in product((0, 7, 2**40 + 3), (0, 1, 5)):
                seeded = replace(spec, seed=seed)
                got, ref = draw(seeded, rep), reference_draw(seeded, rep)
                assert got.shape == ref.shape == oracle.mean.shape == (scheme.n,), spec
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (spec, seed, rep)

    def test_oracle_matches_reference_closed_forms_bit_for_bit(self):
        # scales and a size at which the order of the floating-point sums shows in the bits
        odd = (replace(s, M=11, sigma_alpha=0.3, sigma_gamma=1.7, sigma_eps=0.9) for s in layout_specs())
        for spec in (*layout_specs(), *odd):
            _, oracle = structure(spec)
            true_Q, third, (F, e), gaussian, dependent = reference_moments(spec)
            assert type(oracle.true_Q) is float and oracle.true_Q.hex() == true_Q.hex(), spec
            if spec.variant == "interactive-chaos":
                assert oracle.third_inner_sum is None
            elif third is not None:  # the triple's is checked against enumeration
                assert oracle.third_inner_sum.tobytes() == third.tobytes(), spec
            got_F, got_e = cov_factor(oracle)
            assert (got_F.shape, got_F.tobytes(), got_e.tobytes()) == (F.shape, F.tobytes(), e.tobytes()), spec
            assert oracle.gaussian is gaussian, spec
            assert oracle.dependent.dims == ("G", "H")
            for got, ref in zip(oracle.dependent.labels, dependent, strict=True):
                assert got.dtype == np.int64 and got.tobytes() == ref.tobytes(), spec

    def test_structure_labels_match_reference_schemes(self):
        for spec in layout_specs():
            scheme, _ = structure(spec)
            for got, ref in zip(scheme.labels, reference_labels(spec)):
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("one_way", [False, True])
    def test_triple_dependence_is_a_shared_block_component(self, one_way):
        _, oracle = structure(DgpSpec(variant="nonzero-mean-triple", M=3, triple_one_way=one_way))
        A = dense_dependence(oracle.dependent)
        np.testing.assert_array_equal(A, reference_triple_dependent(3))
        np.testing.assert_array_equal(A, dense_cov(oracle) != 0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_shared_arrays_are_read_only(self, variant):
        spec = DgpSpec(variant=variant, M=3)
        scheme, oracle = structure(spec)
        assert structure(spec)[0].labels[0] is scheme.labels[0]
        for arr in (*scheme.labels, oracle.mean):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 99
        np.testing.assert_array_equal(scheme.labels[0], reference_labels(spec)[0])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_draw_returns_a_fresh_writable_array(self, variant):
        spec = DgpSpec(variant=variant, M=3, seed=4)
        _, oracle = structure(spec)
        x = draw(spec, 2)
        before = x.copy()
        assert x.flags.writeable and not np.shares_memory(x, oracle.mean)
        x[:] = 99.0
        x *= 2.0
        np.testing.assert_array_equal(draw(spec, 2), before)


class TestCovFactor:
    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec(variant="additive-re", M=4),
            DgpSpec(
                variant="additive-re", M=3, cell_size=3, sigma_alpha=0.5, sigma_gamma=3.0,
                sigma_eps=0.2, hetero_alpha=True, hetero_gamma=True, hetero_eps=True,
            ),
            DgpSpec(variant="iid-conservative", M=3, cell_size=2, hetero_eps=True),
            DgpSpec(variant="interactive-chaos", M=4, sigma_alpha=2.0, hetero_gamma=True),
            DgpSpec(variant="nonzero-mean-triple", M=4),
            DgpSpec(variant="nonzero-mean-triple", M=2, triple_one_way=True),
        ],
        ids=["additive", "additive-hetero-cell3", "iid", "chaos", "triple", "triple-one-way"],
    )
    def test_cov_matches_dense_builder(self, spec):
        _, oracle = structure(spec)
        F, e = cov_factor(oracle)
        assert F.shape[0] == e.shape[0] == oracle.scheme.n
        assert F.shape[1] <= 2 * spec.M
        np.testing.assert_allclose(dense_cov(oracle), reference_cov(spec), rtol=1e-15, atol=0.0)


class TestStructure:
    def test_additive_true_q_closed_form_m2(self):
        # 2x2 grid, unit scales: 2 clusters of size 2 per dimension plus 4
        # idiosyncratic terms: 2*4 + 2*4 + 4 = 20
        _, oracle = structure(DgpSpec(variant="additive-re", M=2))
        assert oracle.true_Q == 20.0

    def test_additive_true_q_matches_cov_sum(self):
        spec = DgpSpec(
            variant="additive-re", M=3, cell_size=2, hetero_alpha=True, hetero_eps=True
        )
        _, oracle = structure(spec)
        assert oracle.true_Q == pytest.approx(dense_cov(oracle).sum(), rel=1e-12)

    def test_additive_cov_matches_empirical(self):
        spec = DgpSpec(variant="additive-re", M=3, sigma_eps=0.5, hetero_gamma=True)
        scheme, oracle = structure(spec)
        draws = np.stack([draw(spec, r) for r in range(40_000)])
        emp = np.cov(draws.T)
        assert np.abs(emp - dense_cov(oracle)).max() < 0.1

    def test_chaos_is_uncorrelated_but_dependent(self):
        spec = DgpSpec(variant="interactive-chaos", M=4)
        scheme, oracle = structure(spec)
        C = dense_cov(oracle)
        assert np.abs(C - np.diag(np.diag(C))).max() == 0.0
        A = dense_dependence(oracle.dependent)
        g, h = scheme.labels
        np.testing.assert_array_equal(A, (g[:, None] == g[None, :]) | (h[:, None] == h[None, :]))

    def test_chaos_true_q(self):
        _, oracle = structure(DgpSpec(variant="interactive-chaos", M=5, sigma_alpha=2.0))
        assert oracle.true_Q == pytest.approx(25 * 4.0)

    def test_iid_dependence_is_diagonal(self):
        _, oracle = structure(DgpSpec(variant="iid-conservative", M=3))
        np.testing.assert_array_equal(dense_dependence(oracle.dependent), np.eye(9, dtype=bool))

    def test_third_inner_sum_matches_triple_enumeration(self):
        spec = DgpSpec(
            variant="additive-re",
            M=2,
            dist_alpha="centered-exponential",
            dist_eps="centered-exponential",
            hetero_alpha=True,
        )
        scheme, oracle = structure(spec)
        index = build_index(scheme)
        third_moment = reference_third_moment(spec)
        for i in range(scheme.n):
            nbrs = index.neighborhood(i)
            brute = sum(third_moment(i, int(j), int(k)) for j in nbrs for k in nbrs)
            assert oracle.third_inner_sum[i] == pytest.approx(brute, rel=1e-12)

    def test_iid_third_inner_sum_matches_triple_enumeration(self):
        spec = DgpSpec(
            variant="iid-conservative", M=2, cell_size=2, dist_eps="centered-exponential",
            sigma_eps=0.7, hetero_eps=True,
        )
        scheme, oracle = structure(spec)
        third_moment = reference_third_moment(spec)
        for i in range(scheme.n):
            brute = sum(third_moment(i, j, k) for j in range(scheme.n) for k in range(scheme.n))
            assert oracle.third_inner_sum[i] == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("dist_gamma", ["centered-exponential", "rademacher"])
    @pytest.mark.parametrize("one_way", [False, True])
    def test_triple_third_inner_sum_matches_triple_enumeration(self, one_way, dist_gamma):
        spec = DgpSpec(
            variant="nonzero-mean-triple", M=2, dist_alpha="centered-exponential", dist_gamma=dist_gamma,
            triple_one_way=one_way,
        )
        _, oracle = structure(spec)
        index = build_index(oracle.dependent)  # the true dependence, whatever the scheme
        third_moment = reference_third_moment(spec)
        for i in range(oracle.scheme.n):
            nbrs = index.neighborhood(i)
            brute = sum(third_moment(i, int(j), int(k)) for j in nbrs for k in nbrs)
            assert oracle.third_inner_sum[i] == pytest.approx(brute, rel=1e-12)

    def test_gaussian_designs_have_zero_third_moments(self):
        _, oracle = structure(DgpSpec(variant="additive-re", M=3))
        assert all(oracle.third_inner_sum[i] == 0.0 for i in range(9))


class TestTriple:
    def test_two_way_bias_is_minus_one_per_block(self):
        _, oracle = structure(DgpSpec(variant="nonzero-mean-triple", M=1))
        assert true_bias_term(oracle) == -1.0
        _, oracle5 = structure(DgpSpec(variant="nonzero-mean-triple", M=5))
        assert true_bias_term(oracle5) == -5.0

    def test_one_way_rearrangement_bias_is_plus_one(self):
        _, oracle = structure(
            DgpSpec(variant="nonzero-mean-triple", M=1, triple_one_way=True)
        )
        assert true_bias_term(oracle) == 1.0

    def test_block_covariance_matches_empirical(self):
        spec = DgpSpec(variant="nonzero-mean-triple", M=1)
        _, oracle = structure(spec)
        draws = np.stack([draw(spec, r) for r in range(40_000)])
        np.testing.assert_allclose(draws.mean(axis=0), [1.0, -1.0, 1.0], atol=0.03)
        np.testing.assert_allclose(np.cov(draws.T), dense_cov(oracle), atol=0.06)

    def test_true_q_counts_dependent_pairs(self):
        # sum over truly dependent pairs of block_cov entries: 8 per block
        spec = DgpSpec(variant="nonzero-mean-triple", M=3)
        _, oracle = structure(spec)
        A = dense_dependence(oracle.dependent)
        assert oracle.true_Q == pytest.approx((dense_cov(oracle) * A).sum())
        assert oracle.true_Q == 24.0


class TestDraw:
    def test_deterministic_in_seed_and_rep(self):
        spec = DgpSpec(variant="additive-re", M=3, seed=42)
        np.testing.assert_array_equal(draw(spec, 7), draw(spec, 7))
        assert not np.array_equal(draw(spec, 7), draw(spec, 8))

    def test_reps_are_exchangeable_streams(self):
        # drawing rep 5 never requires drawing reps 0-4
        spec = DgpSpec(variant="interactive-chaos", M=4, seed=1)
        direct = draw(spec, 5)
        np.testing.assert_array_equal(direct, draw(spec, 5))

    def test_component_scales_respected(self):
        spec = DgpSpec(variant="additive-re", M=20, sigma_alpha=0.0, sigma_gamma=0.0)
        scheme, oracle = structure(spec)
        draws = np.stack([draw(spec, r) for r in range(2000)])
        assert abs(draws.var() - 1.0) < 0.1  # pure idiosyncratic noise

    def test_rademacher_support(self):
        spec = DgpSpec(
            variant="iid-conservative", M=3, dist_eps="rademacher", sigma_eps=2.0
        )
        x = draw(spec, 0)
        assert set(np.unique(np.abs(x)).tolist()) == {2.0}


class TestStreams:
    def test_interleaved_streams_match_fresh_generators(self):
        # one helper, blocks of one to three streams filled in a random order, odd sizes and
        # every family: an odd Rademacher row leaves a cached 32-bit half behind, which the
        # reset before the next row must clear
        order = np.random.default_rng(3)
        for seed in (0, 11, 2**40 + 3):
            streams = Streams(seed)
            for _ in range(300):
                first, comp = int(order.integers(0, 2**33)), int(order.integers(0, 7))
                reps = range(first, first + int(order.integers(1, 4)))
                dist = DISTRIBUTIONS[int(order.integers(0, len(DISTRIBUTIONS)))]
                size = 2 * int(order.integers(0, 20)) + 1
                block = streams.fill(reps, comp, dist, size)
                assert block.shape == (len(reps), size)
                for rep, got in zip(reps, block):
                    ref = reference_component(fresh_stream(seed, rep, comp), dist, size)
                    assert got.tobytes() == ref.tobytes(), (seed, rep, comp, dist, size)

    @pytest.mark.parametrize("size", [1, 2, 3, 16, 17, 256])
    def test_rademacher_rows_are_the_integers_draws(self, size):
        # fill reads the raw words instead of calling Generator.integers(0, 2, size): same values, odd or even size
        for seed, first in ((0, 0), (11, 5), (2**40 + 3, 2**33 - 2)):
            block = Streams(seed).fill(range(first, first + 3), COMP_EPS, "rademacher", size)
            for rep, row in zip(range(first, first + 3), block):
                ref = fresh_stream(seed, rep, COMP_EPS).integers(0, 2, size)
                assert row.tobytes() == (2.0 * ref - 1.0).tobytes(), (seed, rep)

    def test_refill_after_other_streams_gives_the_same_row(self):
        # stream (9, 2) filled, then other streams of every family and odd sizes, then (9, 2) again
        streams = Streams(5)
        for dist in DISTRIBUTIONS:
            first = streams.fill(range(9, 10), 2, dist, 5)
            for rep, comp, other in ((9, 1, "rademacher"), (3, 2, "centered-exponential"), (10, 2, "gaussian")):
                streams.fill(range(rep, rep + 2), comp, other, 3)
            assert streams.fill(range(9, 10), 2, dist, 5).tobytes() == first.tobytes(), dist

    def test_draw_through_one_helper_matches_reference(self):
        for spec in layout_specs():
            for seed in (0, 7):
                seeded = replace(spec, seed=seed)
                streams = Streams(seed)
                for rep in (5, 0, 3, 0, 1):
                    got = draws(seeded, range(rep, rep + 1), streams)[0]
                    assert got.tobytes() == reference_draw(seeded, rep).tobytes(), (spec, seed, rep)

    def test_helper_of_another_seed_refused(self):
        spec = DgpSpec(variant="additive-re", M=3, seed=4)
        with pytest.raises(ValueError, match="seed 5"):
            draws(spec, range(0, 2), Streams(5))
        np.testing.assert_array_equal(draws(spec, range(0, 2), Streams(4)), draws(spec, range(0, 2)))
