import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwclust.clusters import ClusterScheme, WeightedSample, build_index
from mwclust.variance import (
    DegenerateWeightsError,
    cgm_demeaned,
    cgm_raw,
    dof_factor,
    psd_clip,
    smallest_eigenvalue,
    symmetric_eigh,
    weighted_mean,
)


def naive_cgm(W, omega, g, h):
    """O(n^2) reference: loop over all pairs sharing a cluster."""
    n, K = W.shape
    Q = np.zeros((K, K))
    for i in range(n):
        for j in range(n):
            if g[i] == g[j] or h[i] == h[j]:
                Q += omega[i] * omega[j] * np.outer(W[i], W[j])
    return Q


def random_instance(rng, n_max=60, K_max=3):
    n = int(rng.integers(2, n_max))
    K = int(rng.integers(1, K_max + 1))
    g = rng.integers(0, max(2, n // 4), n)
    h = rng.integers(0, max(2, n // 3), n)
    W = rng.normal(size=(n, K))
    omega = rng.uniform(0.2, 2.0, n)
    scheme = ClusterScheme.from_labels(g, h)
    return WeightedSample(W=W, omega=omega), build_index(scheme), g, h


def stacked_cluster_sums(index, x):
    """Per G cluster, H cluster and cell, the column sums of n-by-K ``x``: one bincount per
    column, stacked. The bits that ``NeighborhoodIndex.cluster_sums`` keeps."""
    x = np.asarray(x, dtype=float)
    groups = zip((*index.scheme.labels, index.cell_dense), (*index.scheme.n_clusters, index.n_cells))
    if x.shape[1] == 1:
        return [np.bincount(lab, weights=x[:, 0], minlength=m)[:, None] for lab, m in groups]
    cols = np.ascontiguousarray(x.T)
    return [np.column_stack([np.bincount(lab, weights=col, minlength=m) for col in cols]) for lab, m in groups]

class TestJacobi:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(FloatingPointError):
            smallest_eigenvalue(np.array([[1.0, bad], [bad, 1.0]]))

    def test_non_convergence_raises_floating_point_error(self, monkeypatch):
        # LAPACK gives up on some matrices whose entries span 1e-14 to 1e270
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(FloatingPointError, match="did not converge"):
            smallest_eigenvalue(np.eye(2))

    def test_identity(self):
        vals, vecs = symmetric_eigh(np.eye(3))
        np.testing.assert_array_equal(vals, np.ones(3))
        np.testing.assert_array_equal(vecs, np.eye(3))

    def test_smallest_eigenvalue_indefinite(self):
        A = np.diag([3.0, -2.0, 1.0])
        assert smallest_eigenvalue(A) == pytest.approx(-2.0)

    def test_smallest_eigenvalue_1x1_matches_lapack(self):
        mags = np.geomspace(1e-300, 1e300, 2001)
        for v in np.concatenate([mags, -mags, [0.0]]):
            assert smallest_eigenvalue([[v]]) == symmetric_eigh([[v]])[0][0] == v


class TestWeightedMean:
    def test_simple_average(self):
        s = WeightedSample(W=np.array([[1.0], [3.0]]), omega=np.array([1.0, 1.0]))
        np.testing.assert_allclose(weighted_mean(s), [2.0])

    def test_zero_weight_sum(self):
        s = WeightedSample(W=np.ones((2, 1)), omega=np.array([1.0, -1.0]))
        with pytest.raises(DegenerateWeightsError):
            weighted_mean(s)


class TestCgmRaw:
    def test_single_observation(self):
        sample = WeightedSample(W=np.array([[2.0]]), omega=np.array([3.0]))
        index = build_index(ClusterScheme.from_labels([0], [0]))
        est = cgm_raw(sample, index)
        np.testing.assert_allclose(est.Q_hat, [[36.0]])

    def test_all_one_cluster_is_full_outer_square(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(10, 2))
        omega = np.ones(10)
        index = build_index(ClusterScheme.from_labels(np.zeros(10), np.arange(10)))
        est = cgm_raw(WeightedSample(W=W, omega=omega), index)
        S = W.sum(axis=0)
        np.testing.assert_allclose(est.Q_hat, np.outer(S, S), rtol=1e-12)

    def test_singletons_reduce_to_diagonal_sum(self):
        rng = np.random.default_rng(2)
        W = rng.normal(size=(8, 2))
        index = build_index(ClusterScheme.from_labels(np.arange(8), np.arange(8)))
        est = cgm_raw(WeightedSample(W=W, omega=np.ones(8)), index)
        np.testing.assert_allclose(est.Q_hat, W.T @ W, rtol=1e-12)

    @pytest.mark.parametrize("method", ["pair-enum", "inclusion-exclusion"])
    def test_matches_naive_reference(self, method):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sample, index, g, h = random_instance(rng)
            est = cgm_raw(sample, index, method=method)
            ref = naive_cgm(sample.W, sample.omega, g, h)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(est.Q_hat - ref).max() <= 1e-10 * scale

    def test_scalar_pair_sum_is_the_one_column_estimate_bit_for_bit(self):
        # the same bincounts, and a 1-D dot product gives the bits of the (1,C) @ (C,1) one
        rng = np.random.default_rng(6)
        for trial in range(400):
            sample, index, _, _ = random_instance(rng, n_max=300, K_max=1)
            s = sample.W[:, 0] * 10.0 ** rng.integers(-3, 6)
            q = index.pair_sum(s)
            ref = cgm_raw(WeightedSample(W=s[:, None], omega=np.ones(s.size)), index).Q_hat[0, 0]
            assert type(q) is float and np.float64(q).tobytes() == ref.tobytes(), trial

    def test_methods_agree(self):
        rng = np.random.default_rng(4)
        sample, index, _, _ = random_instance(rng, n_max=120)
        q1 = cgm_raw(sample, index, method="pair-enum").Q_hat
        q2 = cgm_raw(sample, index, method="inclusion-exclusion").Q_hat
        np.testing.assert_allclose(q1, q2, rtol=1e-12, atol=1e-12)

    @given(
        st.sampled_from(["random", "singletons", "one-cluster", "one-way"]),
        st.sampled_from([1, 3]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_k_column_pair_sum_equals_pair_enumeration(self, shape, K, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        g, h = {
            "random": (rng.integers(0, 5, n), rng.integers(0, 6, n)),
            "singletons": (np.arange(n), np.arange(n)),
            "one-cluster": (np.zeros(n, dtype=int), np.zeros(n, dtype=int)),
            "one-way": (np.zeros(n, dtype=int), np.arange(n)),
        }[shape]
        sample = WeightedSample(W=rng.normal(size=(n, K)), omega=rng.uniform(0.2, 2.0, n))
        index = build_index(ClusterScheme.from_labels(g, h))
        ie = cgm_raw(sample, index, method="inclusion-exclusion").Q_hat
        enum = cgm_raw(sample, index, method="pair-enum").Q_hat
        assert ie.shape == enum.shape == (K, K)
        np.testing.assert_allclose(ie, enum, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(enum).max()))

    def test_unknown_method(self):
        rng = np.random.default_rng(5)
        sample, index, _, _ = random_instance(rng)
        with pytest.raises(ValueError):
            cgm_raw(sample, index, method="magic")

    def test_size_mismatch(self):
        sample = WeightedSample(W=np.ones((3, 1)), omega=np.ones(3))
        index = build_index(ClusterScheme.from_labels([0, 1], [0, 1]))
        with pytest.raises(ValueError):
            cgm_raw(sample, index)

    def test_symmetry_and_lambda_min(self):
        rng = np.random.default_rng(6)
        sample, index, _, _ = random_instance(rng, K_max=3)
        est = cgm_raw(sample, index)
        np.testing.assert_array_equal(est.Q_hat, est.Q_hat.T)
        assert est.lambda_min == pytest.approx(np.linalg.eigvalsh(est.Q_hat)[0], abs=1e-10)

    def test_dof_correction_factor(self):
        rng = np.random.default_rng(7)
        _, index, _, _ = random_instance(rng)
        cg, ch = (s.size for s in index.cluster_sizes)
        assert dof_factor(index) == pytest.approx((cg / (cg - 1)) * (ch / (ch - 1)), rel=1e-15)
        # a dimension with a single cluster contributes no factor
        one_g = build_index(ClusterScheme.from_labels([0, 0, 0, 0], [0, 1, 2, 2]))
        assert dof_factor(one_g) == 3 / 2
        assert dof_factor(build_index(ClusterScheme.from_labels([0, 0], [0, 0]))) == 1.0

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_weight_scaling_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        sample, index, _, _ = random_instance(rng, n_max=30)
        c = float(rng.uniform(0.1, 5.0))
        scaled = WeightedSample(W=sample.W, omega=c * sample.omega)
        q = cgm_raw(sample, index).Q_hat
        qc = cgm_raw(scaled, index).Q_hat
        np.testing.assert_allclose(qc, c * c * q, rtol=1e-9, atol=1e-9)


    @given(
        st.integers(min_value=1, max_value=5),
        st.sampled_from(["C", "F"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_layout_keeps_the_bits(self, K, order, unit, seed):
        # cgm_raw writes the weighted sample K-by-n and cluster_sums fills one array per
        # dimension; both are storage changes, so the bits are those of the product
        # omega[:, None] * W and of the stacked per-column bincounts
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        g = rng.integers(0, int(rng.integers(1, 30)), n)
        h = rng.integers(0, int(rng.integers(1, 30)), n)
        W = np.asarray(rng.normal(size=(n, K)) * 10.0 ** rng.integers(-5, 6, K), order=order)
        omega = np.ones(n) if unit else rng.uniform(0.1, 10.0, n)
        index = build_index(ClusterScheme.from_labels(g, h))
        weighted = omega[:, None] * W
        s_g, s_h, s_cell = stacked_cluster_sums(index, weighted)
        total = s_g.T @ s_g + s_h.T @ s_h - s_cell.T @ s_cell
        Q = cgm_raw(WeightedSample(W=W, omega=omega), index).Q_hat
        assert Q.tobytes() == (0.5 * (total + total.T)).tobytes()
        for x in (W, weighted, np.multiply(W.T, omega, order="C").T):
            sums = index.cluster_sums(x)
            assert all(s.flags.c_contiguous for s in sums)
            assert [s.tobytes() for s in sums] == [s.tobytes() for s in stacked_cluster_sums(index, x)]

class TestCgmDemeaned:
    def test_recentring_changes_sign_structure(self):
        # a mean-dominated sample: raw picks up the mean cross products,
        # demeaned removes them
        W = np.array([[10.0], [10.1], [9.9]])
        index = build_index(ClusterScheme.from_labels([0, 0, 1], [0, 1, 1]))
        sample = WeightedSample(W=W, omega=np.ones(3))
        mean, est = cgm_demeaned(sample, index)
        assert mean[0] == pytest.approx(10.0)
        raw = cgm_raw(sample, index)
        assert abs(est.Q_hat[0, 0]) < abs(raw.Q_hat[0, 0])
        assert est.demeaned and not raw.demeaned

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        sample, index, _, _ = random_instance(rng)
        shifted = WeightedSample(W=sample.W + 100.0, omega=sample.omega)
        _, a = cgm_demeaned(sample, index)
        _, b = cgm_demeaned(shifted, index)
        scale = max(1.0, np.abs(a.Q_hat).max())
        np.testing.assert_allclose(b.Q_hat, a.Q_hat, atol=1e-7 * scale)


class TestPsdProject:
    def test_clips_negative_part(self):
        # alternating signs across overlapping clusters produce a negative
        # pair sum
        est = cgm_raw(
            WeightedSample(W=np.array([[1.0], [-1.0], [1.0]]), omega=np.ones(3)),
            build_index(ClusterScheme.from_labels([0, 0, 1], [0, 1, 1])),
        )
        assert est.lambda_min < 0
        clipped = psd_clip(est.Q_hat)
        assert smallest_eigenvalue(clipped) >= 0
        np.testing.assert_array_equal(clipped, [[0.0]])

    def test_idempotent_and_psd_fixed_point(self):
        rng = np.random.default_rng(9)
        sample, index, _, _ = random_instance(rng, K_max=3)
        proj = psd_clip(cgm_raw(sample, index).Q_hat)
        again = psd_clip(proj)
        np.testing.assert_allclose(again, proj, atol=1e-10)
        assert np.linalg.eigvalsh(proj)[0] >= -1e-12
