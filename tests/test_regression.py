import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwclust import regression
from mwclust.clusters import ClusterScheme, WeightedSample, build_index
from mwclust.regression import (
    RANK_LAMBDA_OVERFLOW,
    RegressionData,
    SingularDesignError,
    Z_CRIT_95,
    _finish_scalar,
    _fit,
    _pow2_scaled,
    _slope_variance,
    stochastic_design_inference,
    theta_inference,
)
from mwclust.variance import cgm_raw, smallest_eigenvalue


def fixed_design_inference(data, index):
    """Slope inference treating the regressors as nonstochastic: the residualized slope of ``_fit``
    and its variance, the pair sum of u_hat * D_tilde over (sum D_tilde^2)^2."""
    beta, D_tilde, ssd, u_hat = _fit(data)
    pair_sum = index.pair_sum(u_hat * D_tilde)
    sigma_sq = _slope_variance(pair_sum, ssd)
    return _finish_scalar(beta, float(beta[0]), sigma_sq, u_hat, D_tilde, score_pair_sum=pair_sum)


def make_data(Y, D, controls, g, h, names=()):
    scheme = ClusterScheme.from_labels(g, h)
    return RegressionData(Y=Y, D=D, controls=controls, scheme=scheme, column_names=names)


def random_regression(rng, n_max=80, p_max=3):
    n = int(rng.integers(10, n_max))
    p = int(rng.integers(0, p_max))
    g = rng.integers(0, max(2, n // 5), n)
    h = rng.integers(0, max(2, n // 4), n)
    controls = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p)])
    D = rng.normal(size=n) + 0.5 * rng.normal(size=1)
    Y = 1.5 * D + controls @ rng.normal(size=p + 1) + rng.normal(size=n)
    return make_data(Y, D, controls, g, h)


def hc0_sandwich(X, Y):
    """Independently coded heteroskedasticity-robust sandwich."""
    XtX_inv = np.linalg.inv(X.T @ X)
    beta = XtX_inv @ X.T @ Y
    u = Y - X @ beta
    meat = (X * u[:, None]).T @ (X * u[:, None])
    return beta, XtX_inv @ meat @ XtX_inv


def oneway_sandwich(X, Y, clusters):
    """Independently coded one-way cluster-robust sandwich."""
    XtX_inv = np.linalg.inv(X.T @ X)
    beta = XtX_inv @ X.T @ Y
    u = Y - X @ beta
    meat = np.zeros((X.shape[1], X.shape[1]))
    for c in np.unique(clusters):
        s = (X[clusters == c] * u[clusters == c, None]).sum(axis=0)
        meat += np.outer(s, s)
    return beta, XtX_inv @ meat @ XtX_inv


class TestOlsFit:
    def test_exact_slope_no_controls(self):
        D = np.array([1.0, 2.0, 3.0])
        data = make_data(2 * D, D, np.empty((3, 0)), [0, 1, 2], [0, 1, 2])
        np.testing.assert_allclose(_fit(data)[0], [2.0])

    def test_exact_affine_fit(self):
        D = np.array([0.0, 1.0, 2.0, 3.0])
        data = make_data(1 + 3 * D, D, np.ones((4, 1)), [0, 1, 2, 3], [0, 1, 2, 3])
        np.testing.assert_allclose(_fit(data)[0], [3.0, 1.0], atol=1e-12)

    def test_closed_form_simple_slope(self):
        D = np.array([0.0, 1.0, 2.0])
        Y = np.array([0.0, 1.0, 1.0])
        data = make_data(Y, D, np.ones((3, 1)), [0, 1, 2], [0, 1, 2])
        beta = _fit(data)[0]
        assert beta[0] == pytest.approx(0.5, abs=1e-12)

    def test_rank_deficiency_names_column(self):
        # the later column of a collinear control pair is named; a dependent
        # regressor of interest gets its own message (TestFwl)
        D = np.array([1.0, 2.0, 3.0, 5.0])
        x = np.array([0.0, 1.0, 0.0, 2.0])
        controls = np.column_stack([np.ones(4), x, 2 * x])
        data = make_data(
            D, D, controls, [0, 1, 2, 3], [0, 1, 2, 3], names=("dose", "(intercept)", "x", "x2")
        )
        with pytest.raises(SingularDesignError, match="rank deficient at column 'x2'"):
            _fit(data)

    def test_fewer_rows_than_columns(self):
        # columns past the last row are dependent; the first one is named
        data = make_data([1.0, 2.0], [3.0, 1.0], np.column_stack([np.ones(2), [0.0, 1.0], [2.0, 5.0]]),
                         [0, 1], [0, 1], names=("d", "(intercept)", "x", "z"))
        with pytest.raises(SingularDesignError, match="rank deficient at column 'z'"):
            _fit(data)

    def test_orthogonality_check_catches_a_faulty_solve(self, monkeypatch):
        rng = np.random.default_rng(8)
        data = random_regression(rng)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1.0)
        with pytest.raises(FloatingPointError, match="orthogonality check failed"):
            _fit(data)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_orthogonality_check_fires_where_x_prime_y_overflows(self, monkeypatch):
        # |X'Y|^2 overflows in the units of D; the check reads power-of-two scaled columns
        D = np.sqrt(7e306) * np.array([1.0, -1.0, 2.0, 5.0])
        data = make_data(np.arange(4.0), D, np.ones((4, 1)), np.arange(4), np.arange(4))
        with np.errstate(over="ignore"):
            assert np.linalg.norm(data.X.T @ data.Y) == np.inf
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1.0)
        with pytest.raises(FloatingPointError, match="orthogonality check failed"):
            _fit(data)


class TestFwl:
    def test_intercept_only_demeans(self):
        rng = np.random.default_rng(0)
        D = rng.normal(size=12)
        data = make_data(rng.normal(size=12), D, np.ones((12, 1)), np.arange(12), np.arange(12))
        _, D_tilde, ssd, _ = _fit(data)
        np.testing.assert_allclose(D_tilde, D - D.mean(), atol=1e-12)
        assert ssd == D_tilde @ D_tilde

    def test_no_controls_is_identity(self):
        rng = np.random.default_rng(1)
        D = rng.normal(size=5)
        data = make_data(rng.normal(size=5), D, np.empty((5, 0)), np.arange(5), np.arange(5))
        D_tilde = _fit(data)[1]
        np.testing.assert_array_equal(D_tilde, D)

    def test_orthogonal_to_controls(self):
        rng = np.random.default_rng(2)
        data = random_regression(rng)
        _, D_tilde, _, u_hat = _fit(data)
        assert np.abs(data.controls.T @ D_tilde).max() < 1e-8
        assert np.abs(data.X.T @ u_hat).max() < 1e-8

    def test_collinear_regressor_flagged(self):
        # inside the control span, whatever its scale
        ctrl = np.column_stack([np.ones(6), np.arange(6.0)])
        for D in (3.0 * np.arange(6.0) - 1.0, np.zeros(6), np.full(6, 1e-9)):
            data = make_data(np.arange(6.0) ** 2, D, ctrl, np.arange(6), np.arange(6))
            index = build_index(data.scheme)
            with pytest.raises(SingularDesignError, match="regressor of interest has no residual variation"):
                fixed_design_inference(data, index)

    def test_huge_regressor_is_not_mistaken_for_constant(self):
        # D'D overflows while D varies: the rank test reads exactly scaled copies
        c = np.sqrt(7e306)  # D'D = 31 c^2 overflows, the residual ssd 18.75 c^2 does not
        D = c * np.array([1.0, -1.0, 2.0, 5.0])
        data = make_data(np.arange(4.0), D, np.ones((4, 1)), np.arange(4), np.arange(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ssd = _fit(data)[2]
        assert ssd == pytest.approx(18.75 * c * c, rel=1e-12)
        # when the residual ssd itself overflows or underflows, the error says so
        for D, message in [([1e300, -1e300, 2e300, 5.0], "overflows double"),
                           ([1e-170, 2e-170, 0.0, 5e-170], "underflows double")]:
            data = make_data(np.arange(4.0), np.array(D), np.ones((4, 1)), np.arange(4), np.arange(4))
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=message):
                _fit(data)


class TestFixedDesign:
    def test_perfect_fit_zero_variance(self):
        D = np.array([1.0, 2.0, 3.0, 4.0])
        data = make_data(2 * D, D, np.empty((4, 0)), [0, 0, 1, 1], [0, 1, 0, 1])
        res = fixed_design_inference(data, build_index(data.scheme))
        assert res.sigma_sq == pytest.approx(0.0, abs=1e-20)
        assert res.t_stat is None

    def test_singleton_clusters_match_hc0(self):
        rng = np.random.default_rng(3)
        n = 40
        D = rng.normal(size=n)
        Y = D + rng.normal(size=n)
        data = make_data(Y, D, np.ones((n, 1)), np.arange(n), np.arange(n))
        res = fixed_design_inference(data, build_index(data.scheme))
        _, V = hc0_sandwich(data.X, Y)
        assert res.sigma_sq == pytest.approx(V[0, 0], rel=1e-10)

    def test_negative_variance_surfaced_not_clipped(self):
        # alternating-sign outcome over overlapping clusters: the pair sum
        # of scores goes negative
        Y = np.array([1.0, -1.0, 1.0])
        D = np.array([1.0, 1.0, 1.0 + 1e-9])
        data = make_data(Y, D, np.empty((3, 0)), [0, 0, 1], [0, 1, 1])
        res = fixed_design_inference(data, build_index(data.scheme))
        assert res.negative_variance
        assert res.sigma_sq < 0
        assert res.ci_95 is None and res.t_stat is None and res.sigma_hat is None
        assert res.warnings

    def test_squared_denominator_overflow_does_not_raise(self):
        # sum of D_tilde^2 near 1e201 is finite, its square is not (and near
        # 1e-199 its square underflows); the variance scales as 1/c^2 when
        # D_tilde is scaled by c
        D = np.array([1.0, -2.0, 3.0, -1.0])
        index = build_index(ClusterScheme.from_labels([0, 0, 1, 1], [0, 1, 0, 1]))

        def variance(Dt):  # unit residuals: the scores are Dt itself
            pair_sum = cgm_raw(WeightedSample(W=Dt[:, None], omega=np.ones(4)), index).Q_hat[0, 0]
            return _slope_variance(float(pair_sum), float(Dt @ Dt))

        unit, huge, tiny = variance(D), variance(D * 1e100), variance(D * 1e-100)
        assert unit > 0 and huge == pytest.approx(unit * 1e-200, rel=1e-12)
        assert tiny == pytest.approx(unit * 1e200, rel=1e-12)

    def test_overflowing_variance_raises(self):
        # theta_hat is 5e154 and finite; its variance is beyond double precision
        D, Y = np.array([1e-5, 0.0, -1e-300]), np.array([0.0, 3.0, -1e150])
        data = make_data(Y, D, np.ones((3, 1)), [0, 1, 0], [0, 1, 2])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="slope variance overflows"):
                fixed_design_inference(data, build_index(data.scheme))

    def test_ci_is_symmetric_with_pinned_critical_value(self):
        rng = np.random.default_rng(4)
        data = random_regression(rng)
        res = fixed_design_inference(data, build_index(data.scheme))
        lo, hi = res.ci_95
        assert hi - res.theta_hat == pytest.approx(Z_CRIT_95 * res.sigma_hat)
        assert res.theta_hat - lo == pytest.approx(Z_CRIT_95 * res.sigma_hat)


class TestStochasticDesign:
    def test_singleton_clusters_match_hc0_sandwich(self):
        rng = np.random.default_rng(5)
        n = 35
        D = rng.normal(size=n)
        ctrl = np.column_stack([np.ones(n), rng.normal(size=n)])
        Y = D + ctrl @ np.array([1.0, -0.5]) + rng.normal(size=n)
        data = make_data(Y, D, ctrl, np.arange(n), np.arange(n))
        res = stochastic_design_inference(data, build_index(data.scheme))
        _, V = hc0_sandwich(data.X, Y)
        scale = np.abs(V).max()
        assert np.abs(res.V_hat - V).max() <= 1e-10 * scale

    def test_unique_h_matches_oneway_sandwich(self):
        rng = np.random.default_rng(6)
        n = 60
        g = rng.integers(0, 6, n)
        D = rng.normal(size=n)
        Y = D + rng.normal(size=n)
        data = make_data(Y, D, np.ones((n, 1)), g, np.arange(n))
        res = stochastic_design_inference(data, build_index(data.scheme))
        _, Vg = oneway_sandwich(data.X, Y, g)
        _, Vhc0 = hc0_sandwich(data.X, Y)
        # unique-H second dimension adds singleton terms already present in
        # the intersection, so the estimator reduces to one-way clustering
        expect = Vg
        scale = np.abs(expect).max()
        assert np.abs(res.V_hat - expect).max() <= 1e-10 * scale

    def test_near_singular_design_rejected(self):
        n = 20
        x = np.random.default_rng(9).normal(size=n)
        data = make_data(np.ones(n), 1e-9 * x, x[:, None], np.arange(n), np.arange(n))
        with pytest.raises(SingularDesignError, match="no residual variation"):
            stochastic_design_inference(data, build_index(data.scheme))
        # a small constant regressor without controls is a valid design
        data = make_data(np.ones(n), np.full(n, 1e-9), np.empty((n, 0)), np.arange(n), np.arange(n))
        res = stochastic_design_inference(data, build_index(data.scheme))
        assert res.theta_hat == pytest.approx(1e9, rel=1e-14)


class TestGram:
    def test_orthonormal_columns(self):
        n = 16
        D = np.tile([1.0, -1.0], n // 2)
        data = make_data(np.arange(n, dtype=float), D, np.ones((n, 1)), np.arange(n), np.arange(n))
        # X'X/n = I for this balanced design
        res = theta_inference(data, build_index(data.scheme))
        assert res.rank_lambda == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-155, 1e-160, 1e-300])
    def test_scales_far_apart_overflow_only_the_control_variance(self, c):
        # a control at scale c passes the unit-free rank test; its entry of
        # X'X underflows, but the sandwich is formed on power-of-two scaled
        # columns, so the slope's variance does not depend on c
        def fit(c):
            x = c * np.array([1.0, 2.0, 0.0, 5.0, 3.0])
            data = make_data(np.array([1.0, 3.0, 2.0, 5.0, 4.0]), np.array([0.5, 2.0, 1.0, 3.0, 7.0]),
                             np.column_stack([np.ones(5), x]), np.arange(5) % 2, np.arange(5) % 3)
            return theta_inference(data, build_index(data.scheme))

        base = fit(1.0)
        if c >= 1e-155:  # the control's variance, about 1/c^2, is still a double
            res = fit(c)
            assert res.V_hat[0, 0] == pytest.approx(base.V_hat[0, 0], rel=1e-13)
            assert res.V_hat[2, 2] * c * c == pytest.approx(base.V_hat[2, 2], rel=1e-13)
        else:
            with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match="sandwich variance overflows double precision"
            ):
                fit(c)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e154, 1e156, 1e200, 1e300])
    def test_large_control_withholds_only_rank_lambda(self, c):
        # X'X/n overflows in the units of the data, so its eigenvalue is not
        # reported; the fit and the sandwich, formed on scaled columns, are
        def fit(c):
            x = c * np.array([1.0, 2.0, 0.0, 5.0, 3.0])
            data = make_data(np.array([1.0, 3.0, 2.0, 5.0, 4.0]), np.array([0.5, 2.0, 1.0, 3.0, 7.0]),
                             np.column_stack([np.ones(5), x]), np.arange(5) % 2, np.arange(5) % 3)
            index = build_index(data.scheme)
            return theta_inference(data, index), stochastic_design_inference(data, index)

        base, _ = fit(1.0)
        assert base.rank_lambda is not None and RANK_LAMBDA_OVERFLOW not in base.warnings
        for res in fit(c):
            assert res.rank_lambda is None
            assert RANK_LAMBDA_OVERFLOW in res.warnings and "rank_lambda" in RANK_LAMBDA_OVERFLOW
            assert res.theta_hat == pytest.approx(base.theta_hat, rel=1e-13)
            assert res.sigma_sq == pytest.approx(base.sigma_sq, rel=1e-12)

    def test_collinear_columns_raise(self):
        ctrl = np.column_stack([np.ones(8), 2 * np.ones(8)])
        data = make_data(np.arange(8.0), np.arange(8.0) % 3, ctrl, np.arange(8), np.arange(8),
                         names=("d", "(intercept)", "two"))
        with pytest.raises(SingularDesignError, match="rank deficient at column 'two'"):
            theta_inference(data, build_index(data.scheme))


class TestPow2Scaled:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_exponents_match_the_axis_reduction(self, seed, n, k):
        # per-column maxima are exact, so the exponents equal those of the
        # whole-array axis-0 reduction, zeros, infinities and subnormals included
        rng = np.random.default_rng(seed)
        magnitude = rng.choice([0.0, 5e-324, 1e-300, 1.0, 3.5, 1e300, np.inf], size=(n, k))
        A = rng.normal(size=(n, k)) * magnitude
        A[rng.random((n, k)) < 0.2] = 0.0
        As, e = _pow2_scaled(A)
        np.testing.assert_array_equal(e, np.frexp(np.abs(A).max(axis=0))[1])
        assert e.dtype == np.frexp(1.0)[1].dtype
        np.testing.assert_array_equal(As, np.ldexp(A, -e))
        y = A[:, 0] if k else rng.normal(size=n)
        ey = _pow2_scaled(y)[1]  # a vector has one exponent
        assert np.ndim(ey) == 0 and ey == np.frexp(np.abs(y).max(axis=0))[1]


    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_design_is_the_scaled_stack_in_fortran_order(self, seed):
        # _design scales in place what _pow2_scaled scales into a copy: the same bits
        rng = np.random.default_rng(seed)
        data = random_regression(rng)
        cols = [data.controls * 10.0 ** rng.integers(-200, 200, data.controls.shape[1]), data.D]
        data = RegressionData(Y=data.Y, D=cols[1], controls=cols[0], scheme=data.scheme)
        Z, e = regression._design(data)
        Zs, es = _pow2_scaled(np.column_stack([data.controls, data.D]))
        assert Z.flags.f_contiguous
        assert Z.tobytes() == Zs.tobytes() and e.tobytes() == es.tobytes()

class TestThetaInference:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fwl_and_variance_path_identities(self, seed):
        rng = np.random.default_rng(seed)
        data = random_regression(rng)
        index = build_index(data.scheme)
        res = theta_inference(data, index)
        beta = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
        assert res.theta_hat == pytest.approx(beta[0], rel=1e-8, abs=1e-12)
        # the residuals are those of the long regression
        long_resid = data.Y - data.X @ beta
        scale = max(1.0, np.abs(long_resid).max())
        assert np.abs(res.residuals - long_resid).max() <= 1e-8 * scale
        # sandwich (1,1) equals the residualized variance
        assert res.V_hat[0, 0] == pytest.approx(res.sigma_sq, rel=1e-8, abs=1e-15)

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.lists(st.integers(min_value=-8, max_value=8), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_equivariance_in_d(self, seed, powers):
        # d and each control rescaled by 10^k: the rank decision, the sandwich
        # cross-check and the t statistic do not depend on units
        rng = np.random.default_rng(seed)
        data = random_regression(rng)
        index = build_index(data.scheme)
        base = theta_inference(data, index)
        c_d, *c_w = 10.0 ** np.array(powers)
        K = data.controls.shape[1]
        scaled = RegressionData(
            Y=data.Y, D=c_d * data.D, controls=data.controls * c_w[:K], scheme=data.scheme
        )
        res = theta_inference(scaled, index)
        assert res.theta_hat == pytest.approx(base.theta_hat / c_d, rel=1e-9)
        assert res.sigma_sq == pytest.approx(base.sigma_sq / c_d**2, rel=1e-9)  # may be negative
        assert res.t_stat == pytest.approx(base.t_stat, rel=1e-9)  # None when it is

    def test_hand_computed_small_case(self):
        # n=4, intercept-only controls, symmetric D
        D = np.array([-1.0, -1.0, 1.0, 1.0])
        Y = np.array([0.0, 1.0, 2.0, 3.0])
        data = make_data(Y, D, np.ones((4, 1)), np.arange(4), np.arange(4))
        res = theta_inference(data, build_index(data.scheme))
        # slope = cov/var = (sum D_i Y_i)/4 = ( -0 -1 + 2 + 3 )/4 = 1
        assert res.theta_hat == pytest.approx(1.0, abs=1e-12)
        # residuals (+-0.5 pattern), singleton clusters: HC0 formula
        u = Y - Y.mean() - (D - D.mean()) * 1.0
        expect = float((u**2 * D**2).sum() / (D @ D) ** 2)
        assert res.sigma_sq == pytest.approx(expect, rel=1e-12)

    @staticmethod
    def zero_variance_fit(y_exp=0, d_exp=0):
        """theta_inference on three rows whose scores sum to zero in every cluster, Y and D scaled by 2^k."""
        Y, D = np.ldexp([1.0, 2.0, 3.0], y_exp), np.ldexp([1.0, 3.0, 2.0], d_exp)
        data = make_data(Y, D, np.ones((3, 1)), ["a", "a", "b"], ["b", "b", "c"])
        return theta_inference(data, build_index(data.scheme))

    def test_zero_clustered_variance_passes_the_cross_check(self):
        # sigma_sq and V_hat[0, 0] are rounding alone, far below the 1e-8 tolerance of the squared
        # scores' variance, which floors the check's scale; at scores near 1e155 their sum of squares
        # overflows, the floor does not, and every number scales exactly
        base = self.zero_variance_fit()
        assert abs(base.sigma_sq) < 1e-29 and abs(base.V_hat[0, 0]) < 1e-14
        res = self.zero_variance_fit(258, 257)
        scores = res.residuals * res.D_tilde
        with np.errstate(over="ignore"):
            assert np.abs(scores).max() > 1e154 and np.sum(scores**2) == np.inf
        assert (res.theta_hat, res.sigma_sq, res.V_hat[0, 0]) == (
            np.ldexp(base.theta_hat, 1), np.ldexp(base.sigma_sq, 2), np.ldexp(base.V_hat[0, 0], 2)
        )

    def test_rounding_level_variance_is_unresolved(self):
        # at both scales sigma_sq is far below 1e-8 of the squared scores' variance: no t or interval
        for res in (self.zero_variance_fit(), self.zero_variance_fit(258, 257)):
            assert res.unresolved_variance and not res.negative_variance
            assert (res.sigma_hat, res.t_stat, res.ci_95) == (None, None, None)
            assert res.warnings == [regression.UNRESOLVED_VARIANCE]
        # a negative variance of that size is not called negative: its sign is rounding too
        fin = regression._finish_scalar(np.ones(2), 0.5, -1e-31, np.ones(3), np.ones(3), unresolved=True)
        assert not fin.negative_variance and fin.warnings == [regression.UNRESOLVED_VARIANCE]

    @pytest.mark.parametrize("share, unresolved", [(0.5e-8, True), (2e-8, False)])
    def test_unresolved_below_1e_8_of_the_squared_scores_variance(self, monkeypatch, share, unresolved):
        # both routes moved by the same share of the floor, Sum (u D~)^2 / ssd^2 = 0.125 here
        base = self.zero_variance_fit()
        scores = base.residuals * base.D_tilde
        floor = float(scores @ scores) / float(base.D_tilde @ base.D_tilde) ** 2
        assert floor == pytest.approx(0.125, rel=1e-12)
        slope_variance, sandwich = regression._slope_variance, regression._sandwich

        def shifted_sandwich(*args):
            V = sandwich(*args)
            V[0, 0] += share * floor
            return V

        monkeypatch.setattr(regression, "_slope_variance", lambda q, ssd: slope_variance(q, ssd) + share * floor)
        monkeypatch.setattr(regression, "_sandwich", shifted_sandwich)
        res = self.zero_variance_fit()
        assert res.unresolved_variance is unresolved
        assert (res.ci_95 is None) is unresolved

    @pytest.mark.parametrize("share, fails", [(1e-12, False), (1e-6, True)])
    def test_cross_check_scale_where_the_squared_scores_overflow(self, monkeypatch, share, fails):
        # V_hat[0, 0] moved by a share of the squared scores' variance (0.5 at these scales): within
        # the tolerance the check passes, beyond it it fails; an infinite floor would pass both
        base = self.zero_variance_fit()
        floor = 4.0 * float(np.sum((base.residuals * base.D_tilde) ** 2)) / float(base.D_tilde @ base.D_tilde) ** 2
        assert floor == pytest.approx(0.5, rel=1e-12)
        sandwich = regression._sandwich

        def shifted(*args):
            V = sandwich(*args)
            V[0, 0] += share * floor
            return V

        monkeypatch.setattr(regression, "_sandwich", shifted)
        if fails:
            with pytest.raises(FloatingPointError, match="disagree beyond tolerance"):
                self.zero_variance_fit(258, 257)
        else:
            assert self.zero_variance_fit(258, 257).V_hat[0, 0] >= share * floor

    def test_builds_the_design_matrix_once(self, monkeypatch):
        # one n-by-k design matrix per fit, the scaled [controls | D] that the QR, the
        # sandwich's bread and the scores share; the unscaled data.X is never built whole
        data = random_regression(np.random.default_rng(4))
        calls = []
        X = RegressionData.X
        monkeypatch.setattr(RegressionData, "X", property(lambda self: calls.append("X") or X.fget(self)))
        design = regression._design
        monkeypatch.setattr(regression, "_design", lambda data: calls.append("design") or design(data))
        for inference in (theta_inference, stochastic_design_inference):
            calls.clear()
            inference(data, build_index(data.scheme))
            assert calls == ["design"]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_carries_score_pair_sum_and_rank_lambda(self, seed):
        # the data-mode diagnostics read these two numbers off the result
        rng = np.random.default_rng(seed)
        data = random_regression(rng)
        index = build_index(data.scheme)
        res = theta_inference(data, index)
        scores = WeightedSample(W=(res.residuals * res.D_tilde)[:, None], omega=np.ones(data.n))
        assert res.score_pair_sum == pytest.approx(
            cgm_raw(scores, index).Q_hat[0, 0], rel=1e-12, abs=1e-300
        )
        assert res.rank_lambda == smallest_eigenvalue(data.X.T @ data.X / data.n)
        full = stochastic_design_inference(data, index)
        np.testing.assert_allclose(res.V_hat, full.V_hat, rtol=1e-12, atol=1e-15)
        assert full.rank_lambda == res.rank_lambda
        assert fixed_design_inference(data, index).score_pair_sum == pytest.approx(
            res.score_pair_sum, rel=1e-12
        )


class TestMemory:
    @pytest.mark.parametrize("inference", [theta_inference, stochastic_design_inference])
    def test_holds_one_scaled_copy_of_the_design(self, inference):
        # n = 2e5 rows, k = 4 columns (D, an intercept, two controls) and 4000 x 400
        # labels, so that most cells hold one row and the cell sums are about as long
        # as the scores. theta_inference peaks in the pair sum, at 18.8 n-vectors:
        # keeping the design alive there, or one more copy of the stacked scores or
        # of their cell sums, would exceed the bound; each inference read 30.5 when
        # the design was copied three times
        rng = np.random.default_rng(17)
        n = 200_000
        controls = np.column_stack([np.ones(n), rng.normal(size=n), rng.uniform(-1.0, 1.0, n)])
        D = rng.normal(size=n) + 0.2 * controls[:, 1]
        Y = D + controls @ [0.5, 0.3, -0.2] + rng.normal(size=n)
        data = make_data(Y, D, controls, rng.integers(0, 4000, n), rng.integers(0, 400, n))
        index = build_index(data.scheme)
        tracemalloc.start()
        try:
            inference(data, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 8 * n
