"""OLS with partialling-out and cluster-robust inference.

The slope's clustered variance from the residualized (FWL) regression equals
the (1,1) element of the full two-way sandwich. ``theta_inference`` fits once
and forms one pair sum over the stacked scores [u_hat * D_tilde | X_s * u]: its
first diagonal entry gives the residualized variance, the rest the sandwich
meat, and the two routes are cross-checked. X_s is X with each column scaled
by a power of two, so the sandwich is formed in no particular units and
unscaled exactly. A fit holds one such scaled copy of the design (``_design``),
which the QR, the Gram matrix and the scores share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mwclust.clusters import ClusterScheme, NeighborhoodIndex, WeightedSample, _row_dots
from mwclust.variance import cgm_raw, smallest_eigenvalue

# N(0,1) 97.5% quantile; no small-sample df adjustment.
Z_CRIT_95 = 1.959964

RANK_LAMBDA_MIN = 1e-10
NO_RESIDUAL_VARIATION = "regressor of interest has no residual variation after partialling out controls"
UNRESOLVED_VARIANCE = "estimated variance is within the rounding of its scores; confidence interval suppressed"
RANK_LAMBDA_OVERFLOW = "rank_lambda unavailable: X'X/n overflows double precision in the units of the data"


class SingularDesignError(ValueError):
    """Design matrix is rank deficient; the message names the offending column."""


@dataclass(frozen=True)
class RegressionData:
    """Outcome, regressor of interest, controls, and a two-way cluster scheme."""

    Y: np.ndarray
    D: np.ndarray
    controls: np.ndarray  # n x (K-1); may be empty
    scheme: ClusterScheme
    column_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float).ravel()
        D = np.asarray(self.D, dtype=float).ravel()
        Wc = np.asarray(self.controls, dtype=float)
        if Wc.size == 0:
            Wc = np.empty((Y.size, 0))
        Wc = np.atleast_2d(Wc)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "controls", Wc)
        if D.shape != Y.shape or Wc.shape[0] != Y.size:
            raise ValueError("Y, D and controls must agree on n")
        if self.scheme.n != Y.size:
            raise ValueError("cluster scheme does not match n")
        if not self.column_names:
            names = ("D",) + tuple(f"control{j}" for j in range(Wc.shape[1]))
            object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.Y.size

    @property
    def X(self) -> np.ndarray:
        return np.column_stack([self.D, self.controls])


@dataclass
class InferenceResult:
    beta_hat: np.ndarray
    theta_hat: float
    sigma_sq: float
    sigma_hat: float | None
    V_hat: np.ndarray | None
    t_stat: float | None
    ci_95: tuple[float, float] | None
    residuals: np.ndarray
    D_tilde: np.ndarray
    negative_variance: bool = False
    unresolved_variance: bool = False  # sigma_sq is within the rounding of its scores: t and the interval withheld
    warnings: list[str] = field(default_factory=list)
    score_pair_sum: float | None = None  # pair sum of u_hat * D_tilde, sigma_sq's numerator
    rank_lambda: float | None = None  # smallest eigenvalue of X'X/n


def _pow2_exponents(A: np.ndarray):
    """Per column of A (one for a vector), the power of two that takes its largest magnitude into [0.5, 1)."""
    # one reduction per column: numpy's strided axis-0 max is several times slower
    peak = np.abs(A).max() if A.ndim == 1 else [np.abs(col).max() for col in A.T]
    return np.frexp(peak)[1]


def _pow2_scaled(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A with each column divided by a power of two, to a largest magnitude in [0.5, 1), and the exponents.

    The division is exact, and sums of squares of the scaled columns cannot overflow.
    """
    e = _pow2_exponents(A)
    return np.ldexp(A, -e), e


def _design(data: RegressionData) -> tuple[np.ndarray, np.ndarray]:
    """Z = [controls | D], Fortran-ordered, each column scaled in place as by ``_pow2_scaled``; and e.

    The one n-by-k copy of the regressors that a fit holds: the QR, the
    orthogonality check, the Gram matrix and the scores all read it.
    """
    n, p = data.controls.shape
    Z = np.empty((n, p + 1), order="F")
    Z[:, :p] = data.controls
    Z[:, p] = data.D
    e = _pow2_exponents(Z)
    np.ldexp(Z, -e, out=Z)
    return Z, e


def _residuals(data: RegressionData, beta: np.ndarray) -> np.ndarray:
    """Y - X beta, with X = ``data.X`` formed a block of rows at a time.

    Each row's product with beta is computed from that row alone, so the
    blocks give the bits of the whole product without holding X.
    """
    rows = 8192  # a block of X is a few hundred kB
    u = np.empty(data.n)
    for lo in range(0, data.n, rows):
        part = slice(lo, lo + rows)
        block = np.column_stack([data.D[part], data.controls[part]])
        np.subtract(data.Y[part], block @ beta, out=u[part])
    return u


def _fit(data: RegressionData, design: tuple[np.ndarray, np.ndarray] | None = None):
    """(beta, D_tilde, ssd, u_hat) from one QR of the design [controls | D].

    The rank decision does not depend on units: each column is scaled by a
    power of two, which is exact and keeps its sum of squares finite, and
    column j fails when its squared residual on the earlier columns, r_jj^2,
    is at most ``RANK_LAMBDA_MIN`` times its squared norm; so does a column
    past the last row. The slope is the residualized one, D_tilde'Y / ssd,
    with D_tilde the residual of D on the controls' Q columns; the control
    coefficients come from the triangular solve given the slope. Without
    controls D_tilde is D itself, so an exact fit leaves exactly zero residuals.
    ``design`` is ``_design(data)``, from a caller that reads it after the fit too.
    """
    Z, e = _design(data) if design is None else design
    n, k = Z.shape
    q, r = np.linalg.qr(Z)
    ssq = np.einsum("ij,ij->j", Z, Z)[: min(n, k)]
    bad = np.flatnonzero(np.diag(r) ** 2 <= RANK_LAMBDA_MIN * ssq)
    if bad.size or n < k:
        col = int(bad[0]) if bad.size else n
        if col == k - 1:
            raise SingularDesignError(NO_RESIDUAL_VARIATION)
        names = data.column_names
        name = names[col + 1] if col + 1 < len(names) else f"column {col + 1}"
        raise SingularDesignError(f"design matrix is rank deficient at column {name!r}")
    Qw = q[:, :-1]
    D_tilde = data.D - Qw @ (Qw.T @ data.D)
    QwY = Qw.T @ data.Y
    del q, Qw  # Q is as large as the design; only R is read from here on
    ssd = float(D_tilde @ D_tilde)
    if not ssd < np.inf:
        raise FloatingPointError(
            "sum of squares of the residualized regressor overflows double precision"
        )
    if ssd < np.finfo(float).tiny:
        raise FloatingPointError(
            "sum of squares of the residualized regressor underflows double precision"
        )
    theta = float(D_tilde @ data.Y) / ssd
    gamma = np.linalg.solve(r[:-1, :-1], QwY - r[:-1, -1] * np.ldexp(theta, e[-1]))
    beta = np.concatenate([[theta], np.ldexp(gamma, -e[:-1])])  # in the order of data.X
    u_hat = _residuals(data, beta)
    Ys, ey = _pow2_scaled(data.Y)  # on scaled columns X'Y cannot overflow
    ref = np.linalg.norm(Z.T @ Ys)
    if not (ref < np.inf and (ref == 0 or np.linalg.norm(Z.T @ np.ldexp(u_hat, -ey)) <= 1e-8 * ref)):
        raise FloatingPointError("normal-equation residual orthogonality check failed")
    return beta, D_tilde, ssd, u_hat


def _pair_sum(scores: np.ndarray, index: NeighborhoodIndex) -> np.ndarray:
    """Pair sum of the per-observation scores (n-by-K); they overflow on extreme data."""
    if not np.isfinite(scores).all():
        raise FloatingPointError("regression scores overflow double precision")
    return cgm_raw(WeightedSample(W=scores, omega=np.ones(scores.shape[0])), index).Q_hat


def _slope_variance(pair_sum: float, ssd: float) -> float:
    """Residualized slope variance: the pair sum of u_i Dt_i u_j Dt_j over (sum Dt^2)^2."""
    return pair_sum / ssd / ssd  # (sum Dt^2)^2 can leave the double range; dividing twice does not


def _gram(Z: np.ndarray, e: np.ndarray):
    """((X_s'X_s)^-1, e, smallest eigenvalue of X'X/n) from ``_design``'s Z and e.

    X_s is Z's columns in the order of ``data.X``, [D | controls]; so are e
    and the k-by-k results. The eigenvalue is reported in the units of X, and
    is None when X'X/n overflows there; ``_fit`` decides rank, and the
    sandwich is formed on X_s.
    """
    order = np.roll(np.arange(Z.shape[1]), 1)  # [controls | D] -> [D | controls]
    S = (Z.T @ Z)[np.ix_(order, order)]
    e = e[order]
    with np.errstate(over="ignore"):  # an overflow only withholds the eigenvalue
        raw = np.ldexp(S, np.add.outer(e, e)) / Z.shape[0]
    rank_lambda = smallest_eigenvalue(raw) if np.isfinite(raw).all() else None
    try:
        return np.linalg.inv(S), e, rank_lambda
    except np.linalg.LinAlgError as exc:
        raise FloatingPointError(f"X'X is not invertible in double precision: {exc}") from None


def _sandwich(S_inv: np.ndarray, Q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Covariance of the coefficients from the scaled bread S^-1 and meat Q of ``_gram``'s X_s.

    With X = X_s 2^e, the entry (i, j) of S^-1 Q S^-1 is exactly 2^(e_i + e_j)
    times that of the covariance.
    """
    V = np.ldexp(S_inv @ Q @ S_inv, -np.add.outer(e, e))
    if not np.isfinite(V).all():
        raise FloatingPointError("sandwich variance overflows double precision")
    return V


def _finish_scalar(
    beta, theta, sigma_sq, u_hat, D_tilde, V_hat=None, unresolved=False, **health
) -> InferenceResult:
    """Standard error, t statistic and 95% interval of the slope from its variance.

    A negative variance can occur in finite samples; it is surfaced, not
    clipped, and no interval is formed. Nor is one for an ``unresolved``
    variance, whose size and sign are rounding; it is not called negative.
    A ``rank_lambda`` passed as None is named in a warning.
    """
    if not np.isfinite(sigma_sq):
        raise FloatingPointError("slope variance overflows double precision")
    negative = sigma_sq < 0 and not unresolved
    sigma = None if negative or unresolved else float(np.sqrt(sigma_sq))
    warnings = ["estimated variance is negative; confidence interval suppressed"] if negative else []
    if unresolved:
        warnings.append(UNRESOLVED_VARIANCE)
    if "rank_lambda" in health and health["rank_lambda"] is None:
        warnings.append(RANK_LAMBDA_OVERFLOW)
    return InferenceResult(
        beta_hat=beta, theta_hat=theta, sigma_sq=sigma_sq, sigma_hat=sigma, V_hat=V_hat,
        t_stat=theta / sigma if sigma else None,
        ci_95=None if sigma is None else (theta - Z_CRIT_95 * sigma, theta + Z_CRIT_95 * sigma),
        residuals=u_hat, D_tilde=D_tilde, negative_variance=negative, unresolved_variance=unresolved,
        warnings=warnings,
        **health,
    )


def intercept_only_slope(
    D: np.ndarray, Y: np.ndarray, index: NeighborhoodIndex
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the B-by-n blocks D and Y, (theta_hat, sigma_sq) of the slope of D with an intercept.

    Each row's pair is the residualized slope of ``_fit`` and its pair-sum
    variance, to rounding. Partialling out the intercept is demeaning, to Dt
    and Yt; ``_fit``'s rank rule reads Dt'Dt <= ``RANK_LAMBDA_MIN`` D'D.
    sigma_sq is ``_slope_variance`` of the pair sum of the scores
    (Yt - theta Dt) Dt. Each row's values are those of that row alone; the
    first row that fails raises.
    """
    Dt = D - D.mean(axis=1, keepdims=True)
    Yt = Y - Y.mean(axis=1, keepdims=True)
    ssd = _row_dots(Dt, Dt)
    singular = ~(ssd > RANK_LAMBDA_MIN * _row_dots(D, D))
    with np.errstate(divide="ignore", invalid="ignore"):  # in rows that raise below
        theta = _row_dots(Dt, Yt) / ssd
        sigma_sq = _slope_variance(index.row_pair_sums((Yt - theta[:, None] * Dt) * Dt), ssd)
    failed = singular | ~np.isfinite(sigma_sq)
    if failed.any():
        if singular[np.argmax(failed)]:
            raise SingularDesignError(NO_RESIDUAL_VARIATION)
        raise FloatingPointError("slope variance overflows double precision")
    return theta, sigma_sq


def stochastic_design_inference(data: RegressionData, index: NeighborhoodIndex) -> InferenceResult:
    """Full sandwich inference treating the regressors as random: ``theta_inference``'s sandwich.

    The slope's variance is the sandwich's (1,1) element, which the pass has
    cross-checked against the residualized one; it is unresolved when that one is.
    """
    res = theta_inference(data, index)
    return _finish_scalar(
        res.beta_hat, res.theta_hat, float(res.V_hat[0, 0]), res.residuals, res.D_tilde,
        V_hat=res.V_hat, unresolved=res.unresolved_variance, rank_lambda=res.rank_lambda,
    )


def theta_inference(data: RegressionData, index: NeighborhoodIndex) -> InferenceResult:
    """Slope inference via the residualized route, cross-checked against the sandwich.

    One fit and one pair sum over the stacked scores [u_hat * D_tilde | X_s * u];
    asserts the numeric identity between the (1,1) element of the full
    sandwich and the residualized variance formula.
    """
    Z, e = _design(data)
    beta, D_tilde, ssd, u_hat = _fit(data, (Z, e))
    S_inv, e, rank_lambda = _gram(Z, e)
    scores = np.empty((e.size + 1, data.n))  # one score per row: u_hat * D_tilde, then X_s * u in _gram's order
    np.multiply(u_hat, D_tilde, out=scores[0])
    np.multiply(Z[:, -1], u_hat, out=scores[1])
    np.multiply(Z[:, :-1].T, u_hat, out=scores[2:])
    del Z  # the pair sum holds the scores and their weighted copy
    Q = _pair_sum(scores.T, index)  # a view whose columns cluster_sums reads without a copy
    pair_sum = float(Q[0, 0])
    sigma_sq = _slope_variance(pair_sum, ssd)
    V_hat = _sandwich(S_inv, Q[1:, 1:], e)
    s, e_s = _pow2_scaled(scores[0])  # the scale's floor: the squared scores' variance, both routes' rounding
    with np.errstate(over="ignore"):  # from scaled scores it overflows only past the double range; capped there
        floor = min((np.ldexp(np.sqrt(s @ s), e_s) / ssd) ** 2, np.finfo(float).max)
    scale = max(abs(sigma_sq), abs(float(V_hat[0, 0])), floor, 1e-300)
    if not abs(sigma_sq - float(V_hat[0, 0])) <= 1e-8 * scale:  # NaN fails too
        raise FloatingPointError(
            "residualized variance and sandwich (1,1) element disagree beyond tolerance"
        )
    return _finish_scalar(
        beta, float(beta[0]), sigma_sq, u_hat, D_tilde, V_hat=V_hat,
        unresolved=bool(abs(sigma_sq) <= 1e-8 * floor),  # inside the check's own tolerance of zero
        score_pair_sum=pair_sum, rank_lambda=rank_lambda,
    )
