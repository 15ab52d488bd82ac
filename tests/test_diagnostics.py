import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwclust.clusters import ClusterScheme, SchemaError, build_index
from mwclust.dgp import DgpSpec, structure
from mwclust.diagnostics import (
    L_WARN_DEFAULT,
    assumption_ratios,
    leverage_L,
)


def index_for(g, h):
    return build_index(ClusterScheme.from_labels(g, h))


def all_pairs(n):
    """True dependence of every pair: one label shared by all."""
    return ClusterScheme.from_labels(np.zeros(n), np.zeros(n))


def self_only(n):
    """True dependence of each observation with itself alone."""
    return ClusterScheme.from_labels(np.arange(n), np.arange(n))


def random_labels(rng, shape, n):
    return {
        "random": (rng.integers(0, 4, n), rng.integers(0, 5, n)),
        "singletons": (np.arange(n), np.arange(n)),
        "one-cluster": (np.zeros(n, dtype=int), np.zeros(n, dtype=int)),
        "one-way": (np.zeros(n, dtype=int), np.arange(n)),
    }[shape]


class TestLeverage:
    def test_equal_weight_singletons_give_one_over_n(self):
        index = index_for(np.arange(30), np.arange(30))
        L = leverage_L(index, np.ones(30))
        assert L["G"] == pytest.approx(1.0 / 30.0, abs=1e-15)
        assert L["H"] == pytest.approx(1.0 / 30.0, abs=1e-15)

    def test_single_cluster_gives_one(self):
        index = index_for(np.zeros(10), np.arange(10))
        assert leverage_L(index, np.ones(10))["G"] == 1.0

    def test_hand_enumerated_two_clusters(self):
        # weights (1,2,3), clusters {0,1} and {2}: max(9,9)/(9+9) = 1/2
        index = index_for([0, 0, 1], [0, 1, 2])
        L = leverage_L(index, np.array([1.0, 2.0, 3.0]))
        assert L["G"] == pytest.approx(0.5)

    def test_sign_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        g = rng.integers(0, 4, 20)
        h = rng.integers(0, 5, 20)
        w = rng.normal(size=20)
        index = index_for(g, h)
        base = leverage_L(index, w)
        rescaled = leverage_L(index, -3.7 * w)
        for dim in base:
            assert rescaled[dim] == pytest.approx(base[dim], rel=1e-12)

    def test_all_zero_weights_rejected(self):
        index = index_for([0, 1], [0, 1])
        with pytest.raises(ValueError):
            leverage_L(index, np.zeros(2))


    def test_huge_weights_do_not_overflow(self):
        # squared cluster sums of 1e300 weights exceed the float range; the
        # shares do not, and are invariant to the scale
        index = index_for(["a", "a", "b"], ["b", "c", "b"])
        assert leverage_L(index, [1e300, 1e300, 2e300]) == leverage_L(index, [1.0, 1.0, 2.0]) == {
            "G": 0.5,
            "H": 0.9,
        }


class TestAssumptionRatios:
    def test_oracle_mode_exact_ratio(self):
        # 3x3 grid, unit weights, every within-cluster pair dependent:
        # per dimension 3 clusters x 9 pairs = 27, over a reference of 9
        g = np.repeat(np.arange(3), 3)
        h = np.tile(np.arange(3), 3)
        index = index_for(g, h)
        report = assumption_ratios(index, np.ones(9), 9.0, dependent=all_pairs(9))
        assert report.oracle_mode
        assert report.ratio_23_upper["G"] == pytest.approx(3.0)
        assert report.ratio_23_upper["H"] == pytest.approx(3.0)

    def test_data_mode_flags_surrogate(self):
        index = index_for([0, 0, 1], [0, 1, 1])
        report = assumption_ratios(index, np.ones(3), 1.0)
        assert not report.oracle_mode
        assert any("unobservable" in w for w in report.warnings)

    def test_restricted_predicate_prunes_pairs(self):
        index = index_for([0, 0], [0, 1])
        diag_only = assumption_ratios(index, np.ones(2), 1.0, dependent=self_only(2))
        full = assumption_ratios(index, np.ones(2), 1.0, dependent=all_pairs(2))
        assert diag_only.ratio_23_upper["G"] == pytest.approx(2.0)
        assert full.ratio_23_upper["G"] == pytest.approx(4.0)

    @given(
        st.sampled_from(["random", "singletons", "one-cluster", "one-way"]),
        st.sampled_from(["random", "singletons", "one-cluster", "one-way"]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_oracle_mode_equals_brute_force(self, shape, true_shape, seed):
        # sum of |w_i w_j| over the within-cluster pairs that share a true label
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        g, h = random_labels(rng, shape, n)
        tg, th = random_labels(rng, true_shape, n)
        w = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        dependent = ClusterScheme.from_labels(tg, th)
        report = assumption_ratios(index_for(g, h), w, 2.0, dependent=dependent)
        truly = (tg[:, None] == tg[None, :]) | (th[:, None] == th[None, :])
        for dim, lab in (("G", g), ("H", h)):
            brute = (np.abs(np.outer(w, w)) * ((lab[:, None] == lab[None, :]) & truly)).sum()
            assert report.ratio_23_upper[dim] == pytest.approx(brute / 2.0, rel=1e-12)

    def test_oracle_mode_rejects_a_dependence_of_another_length(self):
        with pytest.raises(SchemaError, match="n=3"):
            assumption_ratios(index_for([0, 1], [0, 1]), np.ones(2), 1.0, dependent=all_pairs(3))

    def test_oracle_mode_allocates_no_n_by_n_array(self):
        # the one-way triple: one G cluster of n = 3600, whose true dependence is not its scheme's
        scheme, oracle = structure(DgpSpec(variant="nonzero-mean-triple", M=1200, triple_one_way=True))
        index = build_index(scheme)
        n = scheme.n
        tracemalloc.start()
        try:
            report = assumption_ratios(index, np.ones(n), oracle.true_Q, dependent=oracle.dependent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 2  # half of one dense float matrix
        # per block of true variance 8: the G cluster holds its 7 dependent ordered
        # pairs, the singleton H clusters its 3 self pairs
        assert report.ratio_23_upper == {"G": 7 / 8, "H": 3 / 8}

    def test_leverage_warning_threshold(self):
        index = index_for(np.zeros(5), np.arange(5))
        report = assumption_ratios(index, np.ones(5), 1.0)
        assert any("leverage" in w for w in report.warnings)
        assert L_WARN_DEFAULT == pytest.approx(1.0 / 30.0)

    def test_nonpositive_reference_rejected(self):
        index = index_for([0, 1], [0, 1])
        with pytest.raises(ValueError):
            assumption_ratios(index, np.ones(2), 0.0)

    def test_serializes(self):
        import json

        index = index_for([0, 1], [0, 1])
        report = assumption_ratios(index, np.ones(2), 1.0)
        json.dumps(report.to_dict())

