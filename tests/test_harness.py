import functools
import json
import math
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from mwclust import dgp, harness, stein
from mwclust.cli import main
from mwclust.clusters import NeighborhoodIndex, WeightedSample, build_index
from mwclust.dgp import DgpSpec, Streams, draw, draws, structure, true_bias_term
from mwclust.harness import (
    COMP_D_ALPHA,
    COMP_D_GAMMA,
    COMP_D_NOISE,
    D_CLUSTER_SHARE,
    INTERCEPT_TRUE,
    THETA_TRUE,
    McReport,
    ks_statistic,
    regression_replication,
    run_consistency,
    run_coverage,
)
from mwclust.regression import SingularDesignError, _fit, _slope_variance, intercept_only_slope
from mwclust.stein import wasserstein_bound
from mwclust.variance import cgm_demeaned, cgm_raw


def fresh_normal(seed: int, rep: int, comp: int, size: int) -> np.ndarray:
    """Standard normals from a newly built Philox generator for stream (rep, comp)."""
    counter = np.array([0, 0, rep, comp], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter)).standard_normal(size)


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
        assert true_bias_term(structure(spec)[1]) == 0.0

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
        assert rep.coverage_95 is None and rep.coverage_mc_se is None
        assert rep.warnings

    @pytest.mark.parametrize("target", ["mean", "regression-theta"])
    def test_coverage_mc_se_is_the_binomial_standard_error(self, target):
        rep = run_coverage(DgpSpec(variant="additive-re", M=4), target=target, reps=50, seed=3)
        p = rep.coverage_95
        assert 0 < p < 1 and rep.coverage_mc_se == math.sqrt(p * (1 - p) / 50)

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

    def test_regressor_streams_match_fresh_generators(self):
        # one helper across replications in a random order; the odd-length
        # Rademacher outcome draw precedes the next replication's regressor streams
        spec = DgpSpec(variant="additive-re", M=3, dist_eps="rademacher", seed=12)
        scheme, _ = structure(spec)
        g, h = scheme.labels
        streams = Streams(12)
        for rep in (4, 0, 9, 4, 2):
            (got_D,), (got_Y,) = harness._regression_draws(spec, scheme, range(rep, rep + 1), streams)
            da = fresh_normal(12, rep, COMP_D_ALPHA, 3)
            dg = fresh_normal(12, rep, COMP_D_GAMMA, 3)
            D = D_CLUSTER_SHARE * (da[g] + dg[h]) + fresh_normal(12, rep, COMP_D_NOISE, scheme.n)
            assert got_D.tobytes() == D.tobytes(), rep
            Y = THETA_TRUE * D + INTERCEPT_TRUE + draw(spec, rep)
            assert got_Y.tobytes() == Y.tobytes(), rep


class TestOneGeneratorPerStudy:
    """A study builds a fixed number of stream helpers, however many replications it runs."""

    STUDIES = {
        "coverage-mean": lambda reps: run_coverage(DgpSpec(variant="additive-re", M=3), reps=reps, seed=1),
        "coverage-theta": lambda reps: run_coverage(
            DgpSpec(variant="additive-re", M=3), target="regression-theta", reps=reps, seed=1
        ),
        "consistency": lambda reps: run_consistency(DgpSpec(variant="additive-re"), [3, 4], reps=reps, seed=1),
        "monte-carlo-bound": lambda reps: wasserstein_bound(
            DgpSpec(variant="additive-re", M=3, seed=1), method="monte-carlo", reps=reps
        ),
    }

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_helpers_built_do_not_grow_with_reps(self, study, monkeypatch):
        built = []
        init = Streams.__init__

        def counting_init(self, seed):
            built.append(seed)
            init(self, seed)

        monkeypatch.setattr(Streams, "__init__", counting_init)
        counts = []
        for reps in (10, 30):
            built.clear()
            self.STUDIES[study](reps)
            counts.append(len(built))
        assert 1 <= counts[0] == counts[1], counts

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_no_weighted_sample_per_replication(self, study, monkeypatch):
        built = []
        post_init = WeightedSample.__post_init__

        def counting_post_init(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(WeightedSample, "__post_init__", counting_post_init)
        counts = []
        for reps in (10, 30):
            built.clear()
            self.STUDIES[study](reps)
            counts.append(len(built))
        assert counts[0] == counts[1], counts


# designs of the differential tests: every variant, both triple layouts, cells of several observations
LOOP_DESIGNS = {
    "additive-re": DgpSpec(variant="additive-re", M=5, hetero_alpha=True, hetero_eps=True, sigma_gamma=1.7),
    "additive-re-cells": DgpSpec(variant="additive-re", M=3, cell_size=3, dist_eps="centered-exponential"),
    "iid-conservative": DgpSpec(variant="iid-conservative", M=5, hetero_eps=True),
    "interactive-chaos": DgpSpec(variant="interactive-chaos", M=5, hetero_alpha=True),
    "triple-two-way": DgpSpec(variant="nonzero-mean-triple", M=4),
    "triple-one-way": DgpSpec(variant="nonzero-mean-triple", M=4, triple_one_way=True),
    "triple-cells": DgpSpec(variant="nonzero-mean-triple", M=2, cell_size=2, dist_alpha="rademacher"),
}


def reference_estimates(spec, reps, demean):
    """Per replication, (mean or None, q) from the estimator objects: ``cgm_demeaned`` or ``cgm_raw``."""
    scheme, _ = structure(spec)
    index = build_index(scheme)
    streams = Streams(spec.seed)
    out = []
    for r in range(reps):
        W = draws(spec, range(r, r + 1), streams)[0][:, None]
        sample = WeightedSample(W=W, omega=np.ones(scheme.n))
        if demean:
            mean, est = cgm_demeaned(sample, index)
            out.append((mean[0], est.Q_hat[0, 0]))
        else:
            out.append((None, cgm_raw(sample, index).Q_hat[0, 0]))
    return out


def reference_pivots(spec, reps):
    """Per replication, the standardized sum of the draws."""
    _, oracle = structure(spec)
    streams = Streams(spec.seed)
    return [
        (draws(spec, range(r, r + 1), streams)[0].sum() - oracle.mean.sum()) / math.sqrt(oracle.true_Q)
        for r in range(reps)
    ]


def reference_coverage_mean(spec, reps, seed, estimates=None, pivots=None):
    """The mean-target study written per replication with the estimator objects, or from their ``estimates``."""
    spec = replace(spec, seed=seed)
    scheme, oracle = structure(spec)
    n = scheme.n
    report = McReport(reps=reps, seed=seed)
    covered, ratios = 0, np.empty(reps)
    estimates = reference_estimates(spec, reps, demean=True) if estimates is None else estimates[:reps]
    pivots = np.array(reference_pivots(spec, reps) if pivots is None else pivots[:reps])
    for r, (mean, q) in enumerate(estimates):
        ratios[r] = float(q) / oracle.true_Q
        if q < 0:
            report.rejection_flags += 1
        elif abs(float(mean) - float(oracle.mean.mean())) <= harness.Z_CRIT_95 * math.sqrt(q) / n:
            covered += 1
    report.coverage_95 = covered / reps
    report.coverage_mc_se = math.sqrt(report.coverage_95 * (1 - report.coverage_95) / reps)
    if reps >= 2:
        report.ks_pivot = ks_statistic(pivots)
    report.mean_var_ratio = float(ratios.mean())
    report.var_ratio_sd = float(ratios.std(ddof=1)) if reps > 1 else 0.0
    return report


@pytest.fixture
def recorded(monkeypatch):
    """Every replication's (mean, q) pair sum computed by a study from here on, in order; mean is None for a raw one.

    The studies sum a block of replications at a time, through ``row_pair_sums``
    and ``harness._demeaned_pair_sums``; each block adds one entry per row.
    """
    calls = []
    row_pair_sums = NeighborhoodIndex.row_pair_sums
    demeaned = harness._demeaned_pair_sums

    def recording_row_pair_sums(self, X):
        q = row_pair_sums(self, X)
        calls.extend([None, value] for value in q)
        return q

    def recording_demeaned(W, index, ones):
        mean, q = demeaned(W, index, ones)
        for call, value in zip(calls[len(calls) - len(q) :], mean):
            call[0] = value
        return mean, q

    monkeypatch.setattr(NeighborhoodIndex, "row_pair_sums", recording_row_pair_sums)
    monkeypatch.setattr(harness, "_demeaned_pair_sums", recording_demeaned)
    return calls


def assert_same_bits(got, ref):
    assert len(got) == len(ref)
    for r, ((mean, q), (ref_mean, ref_q)) in enumerate(zip(got, ref)):
        assert np.float64(q).tobytes() == np.float64(ref_q).tobytes(), r
        if ref_mean is None:
            assert mean is None, r
        else:
            assert np.float64(mean).tobytes() == np.float64(ref_mean).tobytes(), r


class TestLoopsMatchEstimatorObjects:
    """The study loops give the bits of ``cgm_demeaned`` / ``cgm_raw`` on every replication."""

    @pytest.mark.parametrize("design", sorted(LOOP_DESIGNS))
    def test_coverage_mean(self, design, recorded):
        spec = LOOP_DESIGNS[design]
        report = run_coverage(spec, target="mean", reps=60, seed=5)
        study = recorded[:]  # the references below go through pair_sum too
        assert_same_bits(study, reference_estimates(replace(spec, seed=5), 60, True))
        assert report.to_dict() == reference_coverage_mean(spec, 60, 5).to_dict()

    @pytest.mark.parametrize("demean", [False, True])
    @pytest.mark.parametrize("design", sorted(LOOP_DESIGNS))
    def test_consistency(self, design, demean, recorded):
        spec = LOOP_DESIGNS[design]
        sweep = [spec.M, spec.M + 1]
        report = run_consistency(spec, sweep, reps=40, seed=8, demean=demean)
        study = recorded[:]  # the references below go through pair_sum too
        ref = []
        for M, row in zip(sweep, report.trace):
            spec_m = replace(spec, M=M, seed=8)
            per_rep = reference_estimates(spec_m, 40, demean)
            ref += per_rep
            ratios = np.array([q for _, q in per_rep]) / structure(spec_m)[1].true_Q
            assert row["mean_var_ratio"] == float(ratios.mean())
            assert row["var_ratio_sd"] == float(ratios.std(ddof=1))
        assert_same_bits(study, ref)


def residualized_slope(data, index):
    """(theta_hat, sigma_sq) of the residualized slope of ``_fit``: the general fit, with no shortcut."""
    _, D_tilde, ssd, u_hat = _fit(data)
    return float(D_tilde @ data.Y) / ssd, _slope_variance(index.pair_sum(u_hat * D_tilde), ssd)


class TestInterceptOnlySlope:
    """The regression target's closed form against the residualized slope of ``_fit`` on the same replication."""

    @pytest.mark.parametrize("design", sorted(LOOP_DESIGNS))
    def test_matches_fixed_design_inference(self, design):
        spec = LOOP_DESIGNS[design]
        scheme, _ = structure(spec)
        index = build_index(scheme)
        for r in range(40):
            data = regression_replication(spec, scheme, r)
            ref_theta, ref_sigma_sq = residualized_slope(data, index)
            (theta,), (sigma_sq,) = intercept_only_slope(data.D[None], data.Y[None], index)
            assert abs(theta - ref_theta) <= 1e-12 * abs(ref_theta), r
            assert abs(sigma_sq - ref_sigma_sq) <= 1e-12 * abs(ref_sigma_sq), r
            assert (sigma_sq <= 0) == (ref_sigma_sq <= 0), r

    def test_one_way_triple_variances_are_zero_and_flagged(self):
        spec = LOOP_DESIGNS["triple-one-way"]
        scheme, _ = structure(spec)
        index = build_index(scheme)
        for r in range(10):
            data = regression_replication(spec, scheme, r)
            assert intercept_only_slope(data.D[None], data.Y[None], index)[1][0] == 0.0
        assert run_coverage(spec, target="regression-theta", reps=10, seed=0).rejection_flags == 10

    @pytest.mark.parametrize("D", [np.full(12, 2.5), np.full(12, 0.0), np.r_[1.0, np.full(11, 1.0 + 1e-12)]])
    def test_constant_regressor_raises_the_fit_message(self, D):
        spec = LOOP_DESIGNS["triple-two-way"]
        scheme, _ = structure(spec)
        index = build_index(scheme)
        data = regression_replication(spec, scheme, 0)
        data = replace(data, D=D)
        with pytest.raises(SingularDesignError) as fit_error:
            _fit(data)
        with pytest.raises(SingularDesignError) as closed_form_error:
            intercept_only_slope(data.D[None], data.Y[None], index)
        assert str(closed_form_error.value) == str(fit_error.value)


@functools.lru_cache(maxsize=None)
def edge_reference(design: str, demean: bool):
    """``block_edges`` of a loop design at seed 5, and ``reference_estimates`` up to the last edge."""
    spec = replace(LOOP_DESIGNS[design], seed=5)
    edges = block_edges(spec)
    return edges, reference_estimates(spec, edges[-1], demean)


def block_edges(spec: DgpSpec) -> list[int]:
    """Replication counts at the edges of the study blocks of ``spec``'s design: 1, B - 1, B, B + 1 and 2B + 3."""
    B = max(1, dgp.BLOCK_ELEMENTS // structure(spec)[0].n)
    return sorted({r for r in (1, B - 1, B, B + 1, 2 * B + 3) if r >= 1})


def one_replication_slope(D, Y, index):
    """(theta_hat, sigma_sq) of ``intercept_only_slope`` computed on one replication's n-vectors."""
    Dt, Yt = D - D.mean(), Y - Y.mean()
    ssd = float(Dt @ Dt)
    theta = float(Dt @ Yt) / ssd
    return theta, _slope_variance(index.pair_sum((Yt - theta * Dt) * Dt), ssd)


def one_replication_moments(spec, counts):
    """``stein._replicate`` written one replication at a time: T, and the sums of u and u^2 after each count."""
    _, oracle = structure(spec)
    neighbor_sums = build_index(oracle.dependent).neighbor_sums
    sigma = math.sqrt(oracle.true_Q)
    streams = Streams(spec.seed)
    T, u_sum, u_sumsq = np.empty(max(counts)), np.zeros(oracle.scheme.n), np.zeros(oracle.scheme.n)
    sums = {}
    for r in range(max(counts)):
        x = (draws(spec, range(r, r + 1), streams)[0] - oracle.mean) / sigma
        t = neighbor_sums(x)
        T[r] = float(x @ t)
        u = x * t * t
        u_sum += u
        u_sumsq += u * u
        if r + 1 in counts:
            sums[r + 1] = (u_sum.tobytes(), u_sumsq.tobytes())
    return T, sums


class TestBlockEdges:
    """At every edge of a block, each replication of a study has the bits of the one-replication reference."""

    def test_blocks_partition_the_replications(self):
        for n in (1, 6, 25, 2304, 2**14, 2**14 + 1):
            B = max(1, dgp.BLOCK_ELEMENTS // n)
            for reps in (1, 2 * B + 3):
                blocks = list(dgp._blocks(reps, n))
                assert [r for block in blocks for r in block] == list(range(reps))
                assert [len(block) for block in blocks[:-1]] == [B] * (len(blocks) - 1)

    @pytest.mark.parametrize("design", sorted(LOOP_DESIGNS))
    def test_draws_rows_are_single_draws(self, design):
        spec = replace(LOOP_DESIGNS[design], seed=9)
        reps = block_edges(spec)[-1]
        block = dgp.draws(spec, range(2, reps))
        assert block.flags.c_contiguous
        for k, row in enumerate(block):
            assert row.tobytes() == draw(spec, k + 2).tobytes(), k

    @pytest.mark.parametrize("design", sorted(LOOP_DESIGNS))
    def test_coverage_mean(self, design, recorded):
        spec = LOOP_DESIGNS[design]
        edges, ref = edge_reference(design, True)
        pivots = reference_pivots(replace(spec, seed=5), edges[-1])
        for reps in edges:
            recorded.clear()
            report = run_coverage(spec, target="mean", reps=reps, seed=5)
            assert_same_bits(recorded, ref[:reps])
            assert report.to_dict() == reference_coverage_mean(spec, reps, 5, ref, pivots).to_dict(), reps

    @pytest.mark.parametrize("demean", [False, True])
    @pytest.mark.parametrize("design", sorted(LOOP_DESIGNS))
    def test_consistency(self, design, demean, recorded):
        spec = LOOP_DESIGNS[design]
        edges, ref = edge_reference(design, demean)
        for reps in edges[1:]:  # the sweep's standard deviation needs two replications
            recorded.clear()
            (row,) = run_consistency(spec, [spec.M], reps=reps, seed=5, demean=demean).trace
            assert_same_bits(recorded, ref[:reps])
            ratios = np.array([q for _, q in ref[:reps]]) / structure(spec)[1].true_Q
            assert (row["mean_var_ratio"], row["var_ratio_sd"]) == (float(ratios.mean()), float(ratios.std(ddof=1)))

    @pytest.mark.parametrize("design", sorted(LOOP_DESIGNS))
    def test_slope(self, design, monkeypatch):
        spec = replace(LOOP_DESIGNS[design], seed=3)
        scheme, _ = structure(spec)
        index = build_index(scheme)
        edges = block_edges(spec)
        ref = []
        for r in range(edges[-1]):
            data = regression_replication(spec, scheme, r)
            ref.append(one_replication_slope(data.D, data.Y, index))
        study = []

        def recording_slope(D, Y, index):
            theta, sigma_sq = intercept_only_slope(D, Y, index)
            study.extend(zip(theta, sigma_sq))
            return theta, sigma_sq

        monkeypatch.setattr(harness, "intercept_only_slope", recording_slope)
        for reps in edges:
            study.clear()
            run_coverage(spec, target="regression-theta", reps=reps, seed=3)
            assert np.array(study).tobytes() == np.array(ref[:reps]).tobytes(), reps

    @pytest.mark.parametrize("design", sorted(LOOP_DESIGNS))
    def test_monte_carlo_moments(self, design):
        spec = replace(LOOP_DESIGNS[design], seed=6)
        _, oracle = structure(spec)
        edges = block_edges(spec)
        T_ref, sums = one_replication_moments(spec, edges)
        for reps in edges:
            T, u_sum, u_sumsq = stein._replicate(spec, oracle, reps)
            assert T.tobytes() == T_ref[:reps].tobytes(), reps
            assert (u_sum.tobytes(), u_sumsq.tobytes()) == sums[reps], reps


# designs of the split tests: enough blocks that a study forks when more than one CPU is usable
SPLIT_STUDIES = {
    # additive-re at M = 20 is n = 400: blocks of 40 replications, 10 of them
    "coverage-mean": lambda: run_coverage(
        DgpSpec(variant="additive-re", M=20, hetero_alpha=True), target="mean", reps=400, seed=4
    ),
    "coverage-theta": lambda: run_coverage(
        DgpSpec(variant="additive-re", M=20, dist_eps="rademacher"), target="regression-theta", reps=400, seed=4
    ),
    # 5 blocks at M = 20 and 8 at M = 24; the triple, 8 at M = 200 and 12 at M = 300
    "consistency": lambda: run_consistency(DgpSpec(variant="additive-re"), [20, 24], reps=200, seed=4),
    "consistency-demeaned": lambda: run_consistency(
        DgpSpec(variant="nonzero-mean-triple"), [200, 300], reps=200, seed=4, demean=True
    ),
}


def usable_cpus(monkeypatch, count: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked from here on; every test that uses it ends with none left unreaped."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report_bytes(study: str) -> str:
    return json.dumps(SPLIT_STUDIES[study]().to_dict())


class TestSplitOverCpus:
    """A study's report has the same bytes however many CPUs its blocks are split over."""

    @pytest.mark.parametrize("study", sorted(SPLIT_STUDIES))
    def test_report_is_the_same_for_one_and_three_parts(self, study, monkeypatch, forks):
        usable_cpus(monkeypatch, 1)
        serial = report_bytes(study)
        assert forks == []
        usable_cpus(monkeypatch, 3)
        assert report_bytes(study) == serial
        assert len(forks) == 2

    @pytest.mark.parametrize("blocks", [8, 9, 10, 23])
    def test_contiguous_ranges_come_back_in_block_order(self, blocks, monkeypatch, forks):
        usable_cpus(monkeypatch, 3)
        out = harness._in_parts(lambda block: (block, os.getpid()), list(range(blocks)))
        assert [block for block, _ in out] == list(range(blocks))
        first, second = blocks // 3, 2 * blocks // 3
        assert [pid for _, pid in out] == (
            [os.getpid()] * first + [forks[0]] * (second - first) + [forks[1]] * (blocks - second)
        )

    def test_fewer_blocks_than_the_minimum_stay_in_process(self, monkeypatch, forks):
        usable_cpus(monkeypatch, 3)
        assert harness._in_parts(lambda block: block, list(range(harness.MIN_FORKED_BLOCKS - 1))) == list(range(7))
        assert forks == []

    @pytest.mark.parametrize("study", sorted(SPLIT_STUDIES))
    @pytest.mark.parametrize("why", ["fork fails", "one usable cpu", "another thread"])
    def test_no_fork_gives_the_same_report(self, study, why, monkeypatch):
        usable_cpus(monkeypatch, 1)
        serial = report_bytes(study)
        attempts = []

        def failing_fork():
            attempts.append(1)
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        usable_cpus(monkeypatch, 1 if why == "one usable cpu" else 3)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        if why == "another thread":
            other.start()
        try:
            assert report_bytes(study) == serial
        finally:
            stop.set()
        if why == "another thread":
            other.join(timeout=10)
            assert not other.is_alive()
        assert len(attempts) == (1 if why == "fork fails" else 0)

    def test_a_fork_that_fails_partway_leaves_the_rest_to_the_caller(self, monkeypatch, forks):
        usable_cpus(monkeypatch, 4)
        fork = os.fork  # the fixture's, which records the pid
        calls = []

        def second_fails():
            calls.append(1)
            if len(calls) == 2:
                raise OSError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        assert harness._in_parts(lambda block: -block, list(range(12))) == [-b for b in range(12)]
        assert len(forks) == 1 and len(calls) == 2


class TestFailuresInParts:
    # additive-re at M = 20: 10 blocks of 40; with 3 parts, ranges of blocks 0-2, 3-5 and 6-9
    SPEC = DgpSpec(variant="additive-re", M=20)

    def test_singular_design_in_a_child_reaches_the_cli(self, tmp_path, monkeypatch, capsys, forks):
        cfg = tmp_path / "theta.json"
        cfg.write_text(json.dumps({
            "dgp": {"variant": "additive-re", "M": 20}, "mode": "coverage", "target": "regression-theta",
            "reps": 400, "seed": 2,
        }))
        regression_draws = harness._regression_draws

        def constant_late(spec, scheme, reps, stream):
            D, Y = regression_draws(spec, scheme, reps, stream)
            if reps.start >= 200:
                D[:] = 2.5
            return D, Y

        monkeypatch.setattr(harness, "_regression_draws", constant_late)
        outcomes = []
        for cpus in (1, 3):
            usable_cpus(monkeypatch, cpus)
            code = main(["simulate", "--config", str(cfg)])
            outcomes.append((code, capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        code, (out, err) = outcomes[0]
        assert (code, out) == (3, "")
        assert err == "error: regressor of interest has no residual variation after partialling out controls\n"
        assert len(forks) == 2

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_the_earliest_replication_fails_first(self, cpus, monkeypatch, forks):
        draws_ = harness.draws

        def failing_draws(spec, reps, streams=None):
            if 150 in reps:  # block 3, the first of the middle range
                raise SingularDesignError("middle range")
            if 300 in reps:  # block 7, in the last range
                raise FloatingPointError("last range")
            return draws_(spec, reps, streams)

        monkeypatch.setattr(harness, "draws", failing_draws)
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(SingularDesignError, match="middle range"):
            run_coverage(self.SPEC, reps=400, seed=1)
        assert len(forks) == cpus - 1

    def test_a_failure_in_the_caller_kills_the_children(self, monkeypatch, forks):
        # the children's ranges would sleep for a minute; the caller's first block fails at once
        draws_ = harness.draws

        def slow_draws(spec, reps, streams=None):
            if reps.start == 0:
                raise FloatingPointError("first block")
            if reps.start >= 120:
                time.sleep(60)
            return draws_(spec, reps, streams)

        monkeypatch.setattr(harness, "draws", slow_draws)
        usable_cpus(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(FloatingPointError, match="first block"):
            run_coverage(self.SPEC, reps=400, seed=1)
        assert time.perf_counter() - start < 30
        assert len(forks) == 2
