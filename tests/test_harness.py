import json
import math

import numpy as np
import pytest
from scipy import stats

from mwclust.cli import main
from mwclust.dgp import DgpSpec, draw, structure
from mwclust.harness import (
    INTERCEPT_TRUE,
    THETA_TRUE,
    McReport,
    ks_statistic,
    regression_replication,
    run_consistency,
    run_coverage,
)


class TestKsStatistic:
    def test_matches_scipy_on_random_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=int(rng.integers(5, 500)))
            ref = stats.kstest(x, "norm").statistic
            assert ks_statistic(x) == pytest.approx(ref, abs=1e-12)

    def test_normal_draws_are_close(self):
        rng = np.random.default_rng(1)
        assert ks_statistic(rng.normal(size=10_000)) < 0.02

    def test_point_mass_at_median(self):
        assert ks_statistic([0.0, 0.0, 0.0]) == pytest.approx(0.5)

    def test_exact_quantile_grid(self):
        m = 50
        from scipy.special import ndtri

        q = ndtri((np.arange(1, m + 1) - 0.5) / m)
        assert ks_statistic(q) == pytest.approx(0.5 / m, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ks_statistic([1.0])


class TestRunCoverage:
    def test_mean_target_additive_covers_near_nominal(self):
        spec = DgpSpec(variant="additive-re", M=10)
        rep = run_coverage(spec, target="mean", reps=400, seed=0)
        assert 0.85 <= rep.coverage_95 <= 0.99
        assert rep.mean_var_ratio == pytest.approx(1.0, abs=0.25)
        assert rep.bias_term == 0.0

    def test_regression_target_runs_and_covers(self):
        spec = DgpSpec(variant="additive-re", M=10)
        rep = run_coverage(spec, target="regression-theta", reps=200, seed=0)
        assert 0.8 <= rep.coverage_95 <= 1.0
        assert rep.ks_pivot is not None

    def test_deterministic_given_seed(self):
        spec = DgpSpec(variant="additive-re", M=5)
        a = run_coverage(spec, target="mean", reps=100, seed=9)
        b = run_coverage(spec, target="mean", reps=100, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_results(self):
        spec = DgpSpec(variant="additive-re", M=5)
        a = run_coverage(spec, target="mean", reps=100, seed=1)
        b = run_coverage(spec, target="mean", reps=100, seed=2)
        assert a.to_dict() != b.to_dict()

    def test_degenerate_design_flagged(self):
        spec = DgpSpec(
            variant="additive-re", M=2, sigma_alpha=0.0, sigma_gamma=0.0, sigma_eps=0.0
        )
        rep = run_coverage(spec, target="mean", reps=10, seed=0)
        assert rep.coverage_95 is None
        assert rep.warnings

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            run_coverage(DgpSpec(variant="additive-re"), target="median")

    def test_zero_variance_replications_flagged(self, tmp_path, capsys):
        # one G cluster holds every observation, so the clustered score sum
        # is the whole-sample sum of u_hat * D_tilde, which the intercept
        # makes exactly zero: every replication is flagged, none divides by 0
        spec = DgpSpec(variant="nonzero-mean-triple", M=4, triple_one_way=True)
        rep = run_coverage(spec, target="regression-theta", reps=5, seed=0)
        assert (rep.rejection_flags, rep.coverage_95, rep.ks_pivot) == (5, 0.0, None)
        cfg = tmp_path / "one_way.json"
        cfg.write_text(json.dumps({
            "dgp": {"variant": "nonzero-mean-triple", "M": 4, "triple_one_way": True},
            "mode": "coverage", "target": "regression-theta", "reps": 5,
        }))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["rejection_flags"] == 5

    def test_chaos_pivot_departs_from_normal(self):
        ch = run_coverage(
            DgpSpec(variant="interactive-chaos", M=10), target="mean", reps=600, seed=0
        )
        ad = run_coverage(
            DgpSpec(variant="additive-re", M=10), target="mean", reps=600, seed=0
        )
        assert ch.ks_pivot > ad.ks_pivot


class TestRunConsistency:
    def test_ratio_approaches_one(self):
        rep = run_consistency(
            DgpSpec(variant="additive-re"), [4, 8, 16], reps=150, seed=0
        )
        assert len(rep.trace) == 3
        assert abs(rep.trace[-1]["mean_var_ratio"] - 1.0) < 0.1
        sds = [row["var_ratio_sd"] for row in rep.trace]
        assert sds[0] > sds[-1]

    def test_iid_conservative_still_consistent(self):
        rep = run_consistency(
            DgpSpec(variant="iid-conservative"), [8, 16], reps=200, seed=0
        )
        assert abs(rep.trace[-1]["mean_var_ratio"] - 1.0) < 0.1

    def test_triple_raw_ratio_bounded_below_one(self):
        # the alternating-mean pattern biases the raw pair sum downward by
        # one unit per block, so the ratio stays bounded away from 1
        spec = DgpSpec(variant="nonzero-mean-triple")
        raw = run_consistency(spec, [50], reps=300, seed=0)
        assert raw.mean_var_ratio < 0.95

    def test_demeaning_recovers_under_common_mean_shift(self):
        # a large common location shift wrecks the raw estimator but leaves
        # the recentred one untouched
        from mwclust.clusters import WeightedSample, build_index
        from mwclust.dgp import draw, structure
        from mwclust.variance import cgm_demeaned, cgm_raw

        spec = DgpSpec(variant="nonzero-mean-triple", M=50)
        scheme, oracle = structure(spec)
        index = build_index(scheme)
        W = draw(spec, 0) + 100.0
        sample = WeightedSample(W=W[:, None], omega=np.ones(scheme.n))
        raw = float(cgm_raw(sample, index).Q_hat[0, 0])
        _, dm = cgm_demeaned(sample, index)
        assert raw / oracle.true_Q > 100
        assert abs(float(dm.Q_hat[0, 0]) / oracle.true_Q - 1.0) < 2.0

    def test_zero_variance_design_rejected(self):
        spec = DgpSpec(
            variant="additive-re", sigma_alpha=0.0, sigma_gamma=0.0, sigma_eps=0.0
        )
        with pytest.raises(ValueError):
            run_consistency(spec, [4], reps=10, seed=0)

    def test_trace_serializes(self):
        import json

        rep = run_consistency(DgpSpec(variant="additive-re"), [4], reps=20, seed=0)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["trace"][0]["M"] == 4
        assert isinstance(rep, McReport)


class TestRegressionReplication:
    def test_outcome_is_the_design_draw_plus_the_linear_part(self):
        spec = DgpSpec(variant="additive-re", M=4, cell_size=2, hetero_eps=True, seed=9)
        scheme, _ = structure(spec)
        data = regression_replication(spec, scheme, 3)
        assert data.column_names == ("d", "(intercept)")
        np.testing.assert_array_equal(data.controls, np.ones((scheme.n, 1)))
        np.testing.assert_allclose(
            data.Y - THETA_TRUE * data.D - INTERCEPT_TRUE, draw(spec, 3), rtol=0, atol=1e-12
        )

    def test_triple_design_draws_one_component_per_cluster(self):
        # the two-way triple has 2M clusters on each dimension, not M
        spec = DgpSpec(variant="nonzero-mean-triple", M=4)
        report = run_coverage(spec, target="regression-theta", reps=20, seed=1)
        assert 0.0 <= report.coverage_95 <= 1.0
        assert report.ks_pivot is not None
