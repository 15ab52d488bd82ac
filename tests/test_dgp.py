import numpy as np
import pytest

from mwclust.clusters import build_index
from mwclust.dgp import (
    DgpSpec,
    draw,
    generate,
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
        F, e = oracle.cov_factor()
        assert F.shape[0] == e.shape[0] == oracle.scheme.n
        assert F.shape[1] <= 2 * spec.M
        np.testing.assert_allclose(oracle.cov(), reference_cov(spec), rtol=1e-15, atol=0.0)


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
        assert oracle.true_Q == pytest.approx(oracle.cov().sum(), rel=1e-12)

    def test_additive_cov_matches_empirical(self):
        spec = DgpSpec(variant="additive-re", M=3, sigma_eps=0.5, hetero_gamma=True)
        scheme, oracle = structure(spec)
        draws = np.stack([draw(spec, r) for r in range(40_000)])
        emp = np.cov(draws.T)
        assert np.abs(emp - oracle.cov()).max() < 0.1

    def test_chaos_is_uncorrelated_but_dependent(self):
        spec = DgpSpec(variant="interactive-chaos", M=4)
        scheme, oracle = structure(spec)
        C = oracle.cov()
        assert np.abs(C - np.diag(np.diag(C))).max() == 0.0
        A = oracle.adjacency()
        g, h = scheme.labels
        np.testing.assert_array_equal(A, (g[:, None] == g[None, :]) | (h[:, None] == h[None, :]))

    def test_chaos_true_q(self):
        _, oracle = structure(DgpSpec(variant="interactive-chaos", M=5, sigma_alpha=2.0))
        assert oracle.true_Q == pytest.approx(25 * 4.0)

    def test_iid_dependence_is_diagonal(self):
        _, oracle = structure(DgpSpec(variant="iid-conservative", M=3))
        np.testing.assert_array_equal(oracle.adjacency(), np.eye(9, dtype=bool))

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
        for i in range(scheme.n):
            nbrs = index.neighborhood(i)
            brute = sum(
                oracle.third_moment(i, int(j), int(k)) for j in nbrs for k in nbrs
            )
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
        np.testing.assert_allclose(np.cov(draws.T), oracle.cov(), atol=0.06)

    def test_true_q_counts_dependent_pairs(self):
        # sum over truly dependent pairs of block_cov entries: 8 per block
        spec = DgpSpec(variant="nonzero-mean-triple", M=3)
        _, oracle = structure(spec)
        A = oracle.adjacency()
        assert oracle.true_Q == pytest.approx((oracle.cov() * A).sum())
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

    def test_generate_bundles_consistently(self):
        sample, scheme, oracle = generate(DgpSpec(variant="additive-re", M=2), rep=3)
        assert sample.n == scheme.n == oracle.mean.size == 4
        np.testing.assert_array_equal(sample.W[:, 0], draw(DgpSpec(variant="additive-re", M=2), 3))
