"""Plug-in variance estimation over dependent pairs.

Two independent computation paths are kept for cross-checking: direct
enumeration of neighborhoods, and inclusion-exclusion over the two one-way
cluster sums minus the intersection-cell sum. The inclusion-exclusion path
reads the cluster sums from ``NeighborhoodIndex.cluster_sums``, the kernel
that the bias term and the bounds share; pair enumeration shares none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from mwclust.clusters import NeighborhoodIndex, SchemaError, WeightedSample


class DegenerateWeightsError(ValueError):
    """Weight sum is zero, so no weighted mean exists."""


@dataclass(frozen=True)
class VarianceEstimate:
    """Symmetric K-by-K pair-sum variance matrix with provenance."""

    Q_hat: np.ndarray
    lambda_min: float
    method: str
    demeaned: bool
    psd_projected: bool = False


def symmetric_eigh(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (as columns) of a symmetric matrix.

    LAPACK through numpy. Raises ValueError on non-square or asymmetric input
    and FloatingPointError on a non-finite entry, such as an overflowed sum.
    """
    a = np.array(M, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite matrix entry: the data overflow double precision")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance 1e-12")
    return np.linalg.eigh(0.5 * (a + a.T))


def smallest_eigenvalue(M) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = np.asarray(M, dtype=float)
    if a.shape == (1, 1):
        # the entry itself, as LAPACK returns it, without the call
        return float(a[0, 0])
    vals, _ = symmetric_eigh(a)
    return float(vals[0])


def weighted_mean(sample: WeightedSample) -> np.ndarray:
    """Weighted average of the sample rows."""
    total = sample.omega.sum()
    if total == 0:
        raise DegenerateWeightsError("weights sum to zero")
    return sample.omega @ sample.W / total


def _pair_enum(W, omega, index: NeighborhoodIndex) -> np.ndarray:
    # Kahan-compensated accumulation: up to ~n * max N_i terms of mixed sign.
    K = W.shape[1]
    acc = np.zeros((K, K))
    comp = np.zeros((K, K))
    V = omega[:, None] * W
    for i in range(index.n):
        nbrs = index.neighborhood(i)
        term = np.outer(V[i], V[nbrs].sum(axis=0))
        y = term - comp
        s = acc + y
        comp = (s - acc) - y
        acc = s
    return acc


def _inclusion_exclusion(W, omega, index: NeighborhoodIndex) -> np.ndarray:
    s_g, s_h, s_cell = index.cluster_sums(omega[:, None] * W)
    return s_g.T @ s_g + s_h.T @ s_h - s_cell.T @ s_cell


_METHODS = {
    "pair-enum": _pair_enum,
    "inclusion-exclusion": _inclusion_exclusion,
}


def dof_factor(index: NeighborhoodIndex) -> float:
    """Product over dimensions of C/(C-1), skipping dimensions with one cluster."""
    factor = 1.0
    for sizes in index.cluster_sizes:
        C = sizes.size
        if C > 1:
            factor *= C / (C - 1.0)
    return factor


def cgm_raw(
    sample: WeightedSample, index: NeighborhoodIndex, method: str = "inclusion-exclusion"
) -> VarianceEstimate:
    """Sum omega_i omega_j W_i W_j' over all dependent ordered pairs.

    No small-sample factor is applied; ``dof_factor`` gives the C/(C-1) one.
    """
    if index.n != sample.n:
        raise SchemaError(f"index has n={index.n} but sample has n={sample.n}")
    try:
        Q = _METHODS[method](sample.W, sample.omega, index)
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    Q = 0.5 * (Q + Q.T)
    return VarianceEstimate(
        Q_hat=Q,
        lambda_min=smallest_eigenvalue(Q),
        method=method,
        demeaned=False,
    )


def cgm_demeaned(sample: WeightedSample, index: NeighborhoodIndex, method: str = "inclusion-exclusion"):
    """Recentre at the weighted mean, then apply the raw pair-sum estimator.

    Returns (mean, VarianceEstimate).
    """
    mean = weighted_mean(sample)
    centered = WeightedSample(W=sample.W - mean, omega=sample.omega)
    est = cgm_raw(centered, index, method=method)
    return mean, replace(est, demeaned=True)


def psd_clip(M) -> np.ndarray:
    """Clip the negative eigenvalues of a symmetric matrix at zero. Idempotent."""
    vals, vecs = symmetric_eigh(M)
    Q = vecs @ np.diag(np.clip(vals, 0.0, None)) @ vecs.T
    return 0.5 * (Q + Q.T)


def psd_project(est: VarianceEstimate) -> VarianceEstimate:
    """Clip negative eigenvalues of the estimate at zero. Idempotent."""
    Q = psd_clip(est.Q_hat)
    return replace(
        est,
        Q_hat=Q,
        lambda_min=max(0.0, smallest_eigenvalue(Q)),
        psd_projected=True,
    )
