import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwclust.clusters import (
    ClusterScheme,
    NeighborhoodIndex,
    SchemaError,
    WeightedSample,
    build_index,
    pair_weight_sums,
    spread,
)
from mwclust.dgp import MomentOracle, true_bias_term


def two_way(g, h):
    return ClusterScheme.from_labels(g, h)


class TestClusterScheme:
    def test_canonicalizes_arbitrary_labels(self):
        scheme = ClusterScheme.from_labels(["b", "a", "b"], [10, 10, 3])
        assert scheme.n == 3
        g, h = scheme.labels
        # dense 0-based ids; same partition as the input labels
        assert sorted(set(g.tolist())) == [0, 1]
        assert g[0] == g[2] != g[1]
        assert h[0] == h[1] != h[2]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.text(max_size=3), min_size=1, max_size=25).flatmap(
            lambda g: st.tuples(
                st.just(g),
                st.lists(st.sampled_from(["日本", "é", "a", "a\0", "", "Z"]), min_size=len(g), max_size=len(g)),
            )
        )
    )
    @example((["only"] * 4, ["é"] * 4))
    def test_string_labels_match_np_unique(self, labels):
        scheme = ClusterScheme.from_labels(*labels)
        for raw, ids, values in zip(labels, scheme.labels, scheme.label_values):
            # as Python objects: a fixed-width string array would drop trailing NULs
            uniq, inv = np.unique(np.array(raw, dtype=object), return_inverse=True)
            assert ids.dtype == np.int64
            np.testing.assert_array_equal(ids, inv)
            assert values == tuple(uniq.tolist())

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_labels_differing_by_trailing_nul_are_distinct(self, kind):
        scheme = ClusterScheme.from_labels(kind(["a", "a\0", "b"]), ["x", "y", "z"])
        assert scheme.labels[0].tolist() == [0, 1, 2]
        assert scheme.label_values[0] == ("a", "a\0", "b")

    def test_drops_empty_label_values(self):
        scheme = ClusterScheme.from_labels([0, 5, 5], [1, 1, 2])
        assert scheme.n_clusters == (2, 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(SchemaError):
            ClusterScheme.from_labels([0, 1], [0, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            ClusterScheme.from_labels([], [])

    def test_default_dim_names(self):
        scheme = ClusterScheme.from_labels([0, 1], [0, 1])
        assert scheme.dims == ("G", "H")


class TestWeightedSample:
    def test_promotes_vector_to_column(self):
        s = WeightedSample(W=np.arange(3.0), omega=np.ones(3))
        assert s.W.shape == (3, 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(SchemaError):
            WeightedSample(W=np.array([1.0, np.nan]), omega=np.ones(2))

    def test_rejects_weight_mismatch(self):
        with pytest.raises(SchemaError):
            WeightedSample(W=np.ones((3, 2)), omega=np.ones(2))


class TestNeighborhoodIndex:
    def test_neighborhood_is_union_of_clusters(self):
        # 2x2 grid, one observation per cell
        scheme = two_way([0, 0, 1, 1], [0, 1, 0, 1])
        index = build_index(scheme)
        assert index.neighborhood(0).tolist() == [0, 1, 2]
        assert index.neighborhood(3).tolist() == [1, 2, 3]

    def test_neighborhood_sizes_inclusion_exclusion(self):
        rng = np.random.default_rng(3)
        g = rng.integers(0, 4, 40)
        h = rng.integers(0, 5, 40)
        index = build_index(two_way(g, h))
        brute = np.array(
            [((g == g[i]) | (h == h[i])).sum() for i in range(40)]
        )
        np.testing.assert_array_equal(index.neighborhood_sizes(), brute)

    def test_neighborhood_brute_force_members(self):
        rng = np.random.default_rng(4)
        g = rng.integers(0, 3, 25)
        h = rng.integers(0, 6, 25)
        index = build_index(two_way(g, h))
        for i in range(25):
            expect = np.flatnonzero((g == g[i]) | (h == h[i]))
            np.testing.assert_array_equal(index.neighborhood(i), expect)

    def test_out_of_range(self):
        index = build_index(two_way([0, 1], [0, 1]))
        with pytest.raises(IndexError):
            index.neighborhood(2)

    def test_requires_two_dims(self):
        scheme = ClusterScheme.from_labels([0, 1], dims=("G",))
        with pytest.raises(SchemaError):
            NeighborhoodIndex(scheme)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_self_membership_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        g = rng.integers(0, 5, n)
        h = rng.integers(0, 5, n)
        index = build_index(two_way(g, h))
        hoods = [set(index.neighborhood(i).tolist()) for i in range(n)]
        for i in range(n):
            assert i in hoods[i]
            for j in hoods[i]:
                assert i in hoods[j]

    @given(
        st.sampled_from(["random", "singletons", "one-cluster", "one-way"]),
        st.sampled_from([0, 1, 2]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_neighbor_sums_match_brute_force(self, shape, K, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        g, h = {
            "random": (rng.integers(0, 5, n), rng.integers(0, 5, n)),
            "singletons": (np.arange(n), np.arange(n)),
            "one-cluster": (np.zeros(n, dtype=int), np.zeros(n, dtype=int)),
            "one-way": (np.zeros(n, dtype=int), np.arange(n)),
        }[shape]
        index = build_index(two_way(g, h))
        x = rng.normal(size=(n, K))  # K = 0: the empty covariance factor of the iid and chaos oracles
        brute = np.array([x[(g == g[i]) | (h == h[i])].sum(axis=0) for i in range(n)])
        counts = (*index.scheme.n_clusters, index.n_cells)
        assert [s.shape for s in index.cluster_sums(x)] == [(c, K) for c in counts]
        assert index.pair_sum(x).shape == (K, K)
        np.testing.assert_allclose(index.neighbor_sums(x), brute, rtol=1e-12, atol=1e-12)
        v = rng.normal(size=n)
        brute_v = np.array([v[(g == g[i]) | (h == h[i])].sum() for i in range(n)])
        np.testing.assert_allclose(index.neighbor_sums(v), brute_v, rtol=1e-12, atol=1e-12)
        # the bias term against its definition as a loop over neighborhoods
        mu = rng.normal(size=n) + 1.0
        oracle = MomentOracle(
            mean=mu, true_Q=1.0, scheme=index.scheme, gaussian=False, dependent=index.scheme,
        )
        loop = sum(mu[i] * mu[index.neighborhood(i)].sum() for i in range(n))
        assert true_bias_term(oracle) == pytest.approx(loop, rel=1e-12, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_vector_column_and_block_give_the_same_bytes(self, n, K, data):
        # cluster_sums runs one column loop for all three shapes; the K-by-n layout is the pair-sum callers'
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        j = data.draw(st.integers(min_value=0, max_value=K - 1))
        rng = np.random.default_rng(seed)
        index = build_index(two_way(rng.integers(0, 4, n), rng.integers(0, 4, n)))
        X = rng.normal(size=(n, K)) * 10.0 ** rng.integers(-3, 4, size=(n, K))
        x = X[:, j].copy()
        sums, hood, pair = index.cluster_sums(x), index.neighbor_sums(x), index.pair_sum(x)
        assert isinstance(pair, float) and np.float64(pair).tobytes() == index.pair_sum(x[:, None])[0, 0].tobytes()
        for block in (x[:, None], X, np.ascontiguousarray(X.T).T):
            col = 0 if block.shape[1] == 1 else j
            for s, s_block in zip(sums, index.cluster_sums(block)):
                assert s.ndim == 1 and s_block.shape == (s.size, block.shape[1])
                assert s.tobytes() == s_block[:, col].tobytes()
            assert hood.tobytes() == index.neighbor_sums(block)[:, col].tobytes()
            # the K-by-K diagonal is a matrix product's reduction, not a dot's: equal to its rounding
            assert abs(index.pair_sum(block)[col, col] - pair) <= 1e-12 * sum(float(c @ c) for c in sums)


class TestGridRoute:
    """On a complete grid in row-major order, block sums and spreads reshape the block, with bincount's bits."""

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(B=1, C_G=2, C_H=2, seed=0)
    @example(B=3, C_G=1, C_H=9, seed=1)  # the one-way triple's layout
    @settings(max_examples=80, deadline=None)
    def test_grid_route_gives_the_bits_of_bincount(self, B, C_G, C_H, seed):
        rng = np.random.default_rng(seed)
        n = C_G * C_H
        i = np.arange(n)
        scheme = two_way(i // C_H, i % C_H)
        index, plain = build_index(scheme), build_index(scheme)
        grid = (C_G, C_H) if min(C_G, C_H) >= 2 else None
        assert index.grid == scheme.grid == grid
        plain.grid = None  # the bincount route on the same labels
        # magnitudes far apart, so that the order of a sum shows in its bits, and +-0.0, with a G row
        # and an H column all -0.0, whose bincount sums are +0.0
        X = rng.normal(size=(B, n)) * 10.0 ** rng.integers(-8, 9, size=(B, n))
        X[rng.random((B, n)) < 0.2] = 0.0
        X[rng.random((B, n)) < 0.2] = -0.0
        cells = X.reshape(B, C_G, C_H)
        cells[:, rng.integers(C_G), :] = -0.0
        cells[:, :, rng.integers(C_H)] = -0.0
        for got, ref in zip(index._row_sums(X), plain._row_sums(X)):
            assert got.tobytes() == ref.tobytes()
        assert index.row_pair_sums(X).tobytes() == plain.row_pair_sums(X).tobytes()
        assert index.row_neighbor_sums(X).tobytes() == plain.row_neighbor_sums(X).tobytes()
        rows = [rng.normal(size=(B, C)) for C in (C_G, C_H)]
        for labels, values in zip(scheme.labels, rows):
            spread_block = spread(values, labels, grid)
            assert spread_block.flags.c_contiguous
            assert spread_block.tobytes() == np.take(values, labels, axis=1).tobytes()
        # the same cells in another order are no grid
        order = rng.permutation(n)
        if (order == i).all():
            order = order[::-1]
        if n > 1:
            shuffled = two_way(*(lab[order] for lab in scheme.labels))
            assert build_index(shuffled).grid is None and shuffled.grid is None


class TestPairWeightSums:
    def test_per_cluster_squared_sums(self):
        scheme = two_way([0, 0, 1], [0, 1, 2])
        index = build_index(scheme)
        out = pair_weight_sums(index, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out["G"], [9.0, 9.0])
        np.testing.assert_allclose(out["H"], [1.0, 4.0, 9.0])

    def test_cross_pair_abs_matches_pair_enumeration(self):
        rng = np.random.default_rng(9)
        g = rng.integers(0, 4, 30)
        h = rng.integers(0, 4, 30)
        w = rng.normal(size=30)
        index = build_index(two_way(g, h))
        out = pair_weight_sums(index, w)
        for pos, dim in enumerate(("G", "H")):
            lab = (g, h)[pos]
            brute = sum(
                abs(w[i] * w[j])
                for i in range(30)
                for j in range(30)
                if lab[i] == lab[j]
            )
            assert out[dim].sum() == pytest.approx(brute, rel=1e-12)
