"""OLS with partialling-out and cluster-robust inference.

The slope of interest is always recoverable from the residualized
regression; the clustered variance of that slope agrees numerically with
the (1,1) element of the full sandwich, and both identities are asserted
where cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from mwclust.clusters import ClusterScheme, NeighborhoodIndex, WeightedSample
from mwclust.variance import cgm_raw, smallest_eigenvalue

# N(0,1) 97.5% quantile; no small-sample df adjustment.
Z_CRIT_95 = 1.959964

PIVOT_RTOL = 1e-10
RANK_LAMBDA_MIN = 1e-10


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
        if Wc.shape[0] != Y.size and Wc.shape[1] == Y.size:
            Wc = Wc.T
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
    warnings: list[str] = field(default_factory=list)


def _solve_pivoted(X: np.ndarray, Y: np.ndarray, names) -> np.ndarray:
    """Least squares via column-pivoted QR with rank diagnosis."""
    q, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = PIVOT_RTOL * (diag.max() if diag.size else 0.0)
    bad = np.flatnonzero(diag <= tol)
    if diag.size == 0 or bad.size or diag.size < X.shape[1]:
        # with fewer rows than columns, the columns pivoted past the last row are dependent
        col = int(piv[bad[0] if bad.size else diag.size]) if diag.size else 0
        name = names[col] if col < len(names) else f"column {col}"
        raise SingularDesignError(f"design matrix is rank deficient at column {name!r}")
    beta_perm = scipy.linalg.solve_triangular(r, q.T @ Y)
    beta = np.empty_like(beta_perm)
    beta[piv] = beta_perm
    return beta


def ols_fit(data: RegressionData) -> np.ndarray:
    """Full-regression coefficient vector (slope of interest first)."""
    X = data.X
    beta = _solve_pivoted(X, data.Y, data.column_names)
    resid = data.Y - X @ beta
    ref = np.linalg.norm(X.T @ data.Y)
    if ref > 0 and np.linalg.norm(X.T @ resid) > 1e-8 * ref:
        raise FloatingPointError("normal-equation residual orthogonality check failed")
    return beta


def fwl_residualize(data: RegressionData):
    """Residualize D and Y against the controls.

    With no controls this is the identity. Returns (D_tilde, Y_tilde).
    """
    Wc = data.controls
    if Wc.shape[1] == 0:
        return data.D.copy(), data.Y.copy()
    names = data.column_names[1:]
    gamma_d = _solve_pivoted(Wc, data.D, names)
    gamma_y = _solve_pivoted(Wc, data.Y, names)
    return data.D - Wc @ gamma_d, data.Y - Wc @ gamma_y


def _score_sample(scores: np.ndarray) -> WeightedSample:
    """Per-observation scores (n-by-K) as a unit-weight sample; they overflow on extreme data."""
    if not np.isfinite(scores).all():
        raise FloatingPointError("regression scores overflow double precision")
    return WeightedSample(W=scores, omega=np.ones(scores.shape[0]))


def _clustered_slope_variance(u, D_tilde, index: NeighborhoodIndex) -> float:
    """Pair sum of u_i u_j Dt_i Dt_j over neighborhoods, over (sum Dt^2)^2."""
    num = float(cgm_raw(_score_sample((u * D_tilde)[:, None]), index).Q_hat[0, 0])
    denom = float(D_tilde @ D_tilde)
    try:
        return num / denom**2
    except OverflowError:  # denom**2 is out of range; dividing twice is not
        return num / denom / denom


def _residual_ssd(data: RegressionData, D_tilde) -> float:
    """Sum of squares of the residualized regressor; raises when it vanishes."""
    ssd = float(D_tilde @ D_tilde)
    if ssd <= RANK_LAMBDA_MIN * max(1.0, float(data.D @ data.D)):
        raise SingularDesignError(
            "regressor of interest has no residual variation after partialling out controls"
        )
    return ssd


def fixed_design_inference(data: RegressionData, index: NeighborhoodIndex) -> InferenceResult:
    """Slope inference treating the regressors as nonstochastic."""
    beta = ols_fit(data)
    D_tilde, Y_tilde = fwl_residualize(data)
    ssd = _residual_ssd(data, D_tilde)
    theta = float(D_tilde @ Y_tilde / ssd)
    u_hat = Y_tilde - D_tilde * theta
    sigma_sq = _clustered_slope_variance(u_hat, D_tilde, index)
    return _finish_scalar(beta, theta, sigma_sq, u_hat, D_tilde)


def _finish_scalar(beta, theta, sigma_sq, u_hat, D_tilde, V_hat=None) -> InferenceResult:
    warnings = []
    if sigma_sq < 0:
        # Estimated variance can be negative in finite samples; surface it,
        # do not clip, and refuse to form a CI.
        warnings.append("estimated variance is negative; confidence interval suppressed")
        return InferenceResult(
            beta_hat=beta,
            theta_hat=theta,
            sigma_sq=sigma_sq,
            sigma_hat=None,
            V_hat=V_hat,
            t_stat=None,
            ci_95=None,
            residuals=u_hat,
            D_tilde=D_tilde,
            negative_variance=True,
            warnings=warnings,
        )
    sigma = float(np.sqrt(sigma_sq))
    t_stat = theta / sigma if sigma > 0 else None
    return InferenceResult(
        beta_hat=beta,
        theta_hat=theta,
        sigma_sq=sigma_sq,
        sigma_hat=sigma,
        V_hat=V_hat,
        t_stat=t_stat,
        ci_95=(theta - Z_CRIT_95 * sigma, theta + Z_CRIT_95 * sigma),
        residuals=u_hat,
        D_tilde=D_tilde,
        warnings=warnings,
    )


def stochastic_design_inference(data: RegressionData, index: NeighborhoodIndex) -> InferenceResult:
    """Full sandwich inference treating the regressors as random."""
    X = data.X
    n = data.n
    S = X.T @ X
    if smallest_eigenvalue(S / n) <= RANK_LAMBDA_MIN:
        raise SingularDesignError("X'X/n is near singular; rank condition fails")
    beta = ols_fit(data)
    u_hat = data.Y - X @ beta
    Q_hat = cgm_raw(_score_sample(X * u_hat[:, None]), index).Q_hat
    S_inv = np.linalg.inv(S)
    V_hat = S_inv @ Q_hat @ S_inv
    D_tilde, _ = fwl_residualize(data)
    return _finish_scalar(beta, float(beta[0]), float(V_hat[0, 0]), u_hat, D_tilde, V_hat=V_hat)


def theta_inference(data: RegressionData, index: NeighborhoodIndex) -> InferenceResult:
    """Slope inference via the residualized route, cross-checked against the sandwich.

    Asserts the numeric identity between the (1,1) element of the full
    sandwich and the residualized variance formula.
    """
    fixed = fixed_design_inference(data, index)
    full = stochastic_design_inference(data, index)
    scale = max(abs(fixed.sigma_sq), abs(full.sigma_sq), 1e-300)
    if not abs(fixed.sigma_sq - full.sigma_sq) <= 1e-8 * scale:  # NaN fails too
        raise FloatingPointError(
            "residualized variance and sandwich (1,1) element disagree beyond tolerance"
        )
    fixed.V_hat = full.V_hat
    return fixed
