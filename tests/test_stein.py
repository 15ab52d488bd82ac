import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mwclust.dgp import DgpSpec, draw, structure
from mwclust.stein import (
    BoundReport,
    _dependent_trace,
    _replicate,
    kolmogorov_bound,
    wasserstein_bound,
)
from test_dgp import cov_factor, dense_cov, layout_specs


def dense_dependence(labels) -> np.ndarray:
    """The n-by-n 0/1 matrix of pairs that share a label of ``labels`` on either dimension."""
    g, h = labels.labels
    return ((g[:, None] == g[None, :]) | (h[:, None] == h[None, :])).astype(float)


def spec_id(spec: DgpSpec) -> str:
    """Short test id: the fields that differ from their defaults."""
    default = DgpSpec(variant=spec.variant)
    changed = (f"{k}={v}" for k, v in vars(spec).items() if k != "variant" and v != getattr(default, k))
    return ",".join([spec.variant, *changed])


class TestKolmogorovConversion:
    def test_constant_and_monotonicity(self):
        assert kolmogorov_bound(0.0) == 0.0
        assert kolmogorov_bound(1.0) == pytest.approx((2.0 / math.pi) ** 0.25)
        assert kolmogorov_bound(0.25) == pytest.approx(0.5 * (2.0 / math.pi) ** 0.25)
        assert kolmogorov_bound(0.01) < kolmogorov_bound(0.04)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kolmogorov_bound(-1e-9)


class TestAnalytic:
    def test_iid_gaussian_closed_form(self):
        # n iid standard normals with self-only dependence:
        # Var(sum x_i^2) = 2n, sigma^2 = n
        for M in (2, 4):
            n = M * M
            rep = wasserstein_bound(DgpSpec(variant="iid-conservative", M=M))
            assert rep.term_third == 0.0
            expect = math.sqrt(2.0 / math.pi) * math.sqrt(2.0 * n) / n
            assert rep.term_var == pytest.approx(expect, rel=1e-12)
            assert rep.d_W_bound == rep.term_var
            assert rep.d_K_bound == pytest.approx(
                (2.0 / math.pi) ** 0.25 * math.sqrt(rep.d_W_bound)
            )

    def test_gaussian_additive_third_term_vanishes(self):
        rep = wasserstein_bound(DgpSpec(variant="additive-re", M=6))
        assert rep.term_third == 0.0

    def test_additive_var_term_matches_direct_quadratic_form(self):
        spec = DgpSpec(variant="additive-re", M=3, hetero_alpha=True)
        scheme, oracle = structure(spec)
        rep = wasserstein_bound(spec)
        B = dense_dependence(oracle.dependent)
        C = dense_cov(oracle)
        var = 2.0 * np.trace(B @ C @ B @ C)
        expect = math.sqrt(2.0 / math.pi) * math.sqrt(var) / oracle.true_Q
        assert rep.term_var == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            *(DgpSpec(variant="additive-re", M=M) for M in (1, 2, 8, 32)),
            *(
                DgpSpec(
                    variant="additive-re", M=M, cell_size=cell, sigma_alpha=0.3,
                    sigma_gamma=2.0, sigma_eps=0.7, hetero_alpha=True,
                    hetero_gamma=True, hetero_eps=True,
                )
                for M, cell in ((3, 1), (32, 1), (3, 3), (16, 3))
            ),
            DgpSpec(variant="additive-re", M=5, cell_size=3, sigma_eps=0.0),
            DgpSpec(variant="iid-conservative", M=7, cell_size=3, hetero_eps=True),
            DgpSpec(variant="nonzero-mean-triple", M=6),
            DgpSpec(variant="nonzero-mean-triple", M=6, triple_one_way=True),
            DgpSpec(variant="nonzero-mean-triple", M=32),
        ],
        ids=spec_id,
    )
    def test_closed_form_matches_dense_trace(self, spec):
        # 2 tr(BCBC) from the dense dependence matrix and covariance
        _, oracle = structure(spec)
        B = dense_dependence(oracle.dependent)
        BC = B @ dense_cov(oracle)
        dense = math.sqrt(2.0 / math.pi) * math.sqrt(2.0 * np.trace(BC @ BC)) / oracle.true_Q
        assert wasserstein_bound(spec).term_var == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize(
        "spec,method",
        [
            (DgpSpec(variant="additive-re", M=64, hetero_alpha=True), "analytic"),
            (DgpSpec(variant="iid-conservative", M=64, hetero_alpha=True), "analytic"),
            # n = 3600, so one dense float matrix takes 104 MB. The triple's true
            # dependence is not its scheme's when one-way; both paths sum over it
            # with no n-by-n array, and the analytic path with no n-by-2M factor
            (DgpSpec(variant="nonzero-mean-triple", M=1200), "monte-carlo"),
            (DgpSpec(variant="nonzero-mean-triple", M=1200, triple_one_way=True), "monte-carlo"),
            (DgpSpec(variant="nonzero-mean-triple", M=1200), "analytic"),
            (DgpSpec(variant="nonzero-mean-triple", M=1200, triple_one_way=True), "analytic"),
        ],
        ids=["additive-re", "iid-conservative", "triple-two-way-monte-carlo", "triple-one-way-monte-carlo",
             "triple-two-way-analytic", "triple-one-way-analytic"],
    )
    def test_allocates_no_n_by_n_array(self, spec, method):
        n = structure(spec)[0].n
        tracemalloc.start()
        try:
            wasserstein_bound(spec, method=method, reps=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 2  # half of one dense float matrix

    @pytest.mark.parametrize("one_way", [False, True])
    def test_triple_forms_no_label_block(self, one_way):
        # F'BF has about 4M nonzeros, against M^2 entries in an L-by-L block of the triple's L = M labels
        M = 1500
        spec = DgpSpec(variant="nonzero-mean-triple", M=M, triple_one_way=one_way)
        structure(spec)  # the layout is cached; its arrays are not the bound's
        tracemalloc.start()
        try:
            wasserstein_bound(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * M * M / 4

    def test_reaches_n_16384(self):
        # a dense n-by-n matrix at M=128 would take 2 GB
        coarse, fine = (
            wasserstein_bound(DgpSpec(variant="additive-re", M=M, hetero_alpha=True))
            for M in (64, 128)
        )
        assert math.isfinite(fine.d_W_bound)
        assert 0.0 < fine.d_W_bound < coarse.d_W_bound

    def test_non_gaussian_design_refused(self):
        with pytest.raises(ValueError):
            wasserstein_bound(DgpSpec(variant="interactive-chaos", M=4))

    def test_decreases_with_grid_size(self):
        bounds = [
            wasserstein_bound(DgpSpec(variant="additive-re", M=M)).d_W_bound
            for M in (4, 8, 16)
        ]
        assert bounds[0] > bounds[1] > bounds[2]


LAYOUTS = list(layout_specs())


class TestDependentTrace:
    """The label-sparse tr(BCBC) against the dense n-by-n product of the moved covariance factor."""

    @settings(max_examples=150, deadline=None)
    @given(
        spec=st.sampled_from(LAYOUTS),
        M=st.integers(1, 4),
        scales=st.tuples(*[st.sampled_from([0.0, 1e-3, 1.0]) | st.floats(0.05, 20.0)] * 3),
    )
    def test_matches_dense_reference(self, spec, M, scales):
        spec = replace(spec, M=M, sigma_alpha=scales[0], sigma_gamma=scales[1], sigma_eps=scales[2])
        _, oracle = structure(spec)
        assume(oracle.true_Q > 0)
        F, e = cov_factor(oracle)
        B = dense_dependence(oracle.dependent)
        C = (F @ F.T + np.diag(e)) / oracle.true_Q
        dense = float(np.trace(B @ C @ B @ C))
        assert abs(_dependent_trace(oracle) - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("one_way", [False, True])
    def test_triple_closed_form(self, one_way):
        # each block of three has covariance [[1,1,0],[1,2,1],[0,1,1]] and is its own dependence
        # block but for the first and last members: tr(BCBC) = 50 M / (8 M)^2 for x / sigma
        M = 1500
        _, oracle = structure(DgpSpec(variant="nonzero-mean-triple", M=M, triple_one_way=one_way))
        assert _dependent_trace(oracle) == pytest.approx(50.0 * M / (8.0 * M) ** 2, rel=1e-12)


class TestMonteCarlo:
    def test_agrees_with_analytic_on_gaussian_design(self):
        spec = DgpSpec(variant="additive-re", M=6)
        ana = wasserstein_bound(spec, method="analytic")
        mc = wasserstein_bound(spec, method="monte-carlo", reps=4000)
        assert mc.mc_se is not None and mc.mc_se > 0
        # third term is estimated noise around zero; variance term should be
        # within a few standard errors
        assert abs(mc.term_var - ana.term_var) < 6 * mc.mc_se + 0.02

    def test_nonzero_third_term_for_skewed_components(self):
        spec = DgpSpec(
            variant="iid-conservative", M=3, dist_eps="centered-exponential"
        )
        mc = wasserstein_bound(spec, method="monte-carlo", reps=20_000)
        # E[x_i^3] = 2 for unit-scale centered exponentials, sigma^2 = n:
        # term = n * 2 / n^{3/2}
        n = 9
        expect = 2.0 * n / n**1.5
        assert mc.term_third == pytest.approx(expect, rel=0.15)

    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec(variant="additive-re", M=4, dist_alpha="centered-exponential",
                    dist_gamma="centered-exponential", dist_eps="centered-exponential"),
            DgpSpec(variant="nonzero-mean-triple", M=5, dist_alpha="centered-exponential", dist_gamma="rademacher"),
            DgpSpec(variant="additive-re", M=3, hetero_alpha=True, dist_alpha="rademacher",
                    dist_gamma="centered-exponential", dist_eps="gaussian"),
        ],
        ids=spec_id,
    )
    def test_third_moments_match_the_oracle_on_dependent_designs(self, spec):
        # for x centered and divided by sigma, E[x_i (Bx)_i^2] = third_inner_sum[i] / sigma^3: the
        # quantity whose Monte Carlo mean term_third sums, per observation, within 5 standard errors
        _, oracle = structure(spec)
        reps = 20_000
        _, u_sum, u_sumsq = _replicate(spec, oracle, reps)
        mean = u_sum / reps
        se = np.sqrt((u_sumsq / reps - mean * mean) / reps)
        expect = oracle.third_inner_sum / oracle.true_Q**1.5
        assert np.all(se > 0) and np.any(expect != 0)
        z = (mean - expect) / se
        assert np.abs(z).max() <= 5.0, z

    def test_deterministic_given_seed(self):
        spec = DgpSpec(variant="additive-re", M=4, seed=3)
        a = wasserstein_bound(spec, method="monte-carlo", reps=500)
        b = wasserstein_bound(spec, method="monte-carlo", reps=500)
        assert a == b

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            wasserstein_bound(DgpSpec(variant="additive-re"), method="exact")

    @pytest.mark.parametrize("reps", [0, 1])
    def test_fewer_than_two_replications_refused(self, reps):
        with pytest.raises(ValueError, match="at least 2 replications"):
            wasserstein_bound(DgpSpec(variant="additive-re"), method="monte-carlo", reps=reps)

    def test_zero_variance_design_refused(self):
        spec = DgpSpec(
            variant="additive-re", M=2, sigma_alpha=0.0, sigma_gamma=0.0, sigma_eps=0.0
        )
        with pytest.raises(ValueError):
            wasserstein_bound(spec)


class TestReport:
    def test_serializes(self):
        import json

        rep = wasserstein_bound(DgpSpec(variant="additive-re", M=4))
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["method"] == "analytic"
        assert isinstance(rep, BoundReport)
