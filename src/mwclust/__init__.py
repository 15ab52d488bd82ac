"""Inference under multi-way cluster dependence with heterogeneous clusters."""

from mwclust.clusters import (
    ClusterScheme,
    NeighborhoodIndex,
    WeightedSample,
    build_index,
    pair_weight_sums,
)
from mwclust.variance import (
    VarianceEstimate,
    cgm_demeaned,
    cgm_raw,
    smallest_eigenvalue,
    weighted_mean,
)
from mwclust.regression import (
    InferenceResult,
    RegressionData,
    SingularDesignError,
    stochastic_design_inference,
    theta_inference,
)
from mwclust.diagnostics import (
    DiagnosticsReport,
    assumption_ratios,
    leverage_L,
)
from mwclust.dgp import DgpSpec, MomentOracle, structure, true_bias_term
from mwclust.stein import BoundReport, kolmogorov_bound, wasserstein_bound
from mwclust.harness import McReport, ks_statistic, run_consistency, run_coverage

__all__ = [
    "BoundReport",
    "ClusterScheme",
    "DgpSpec",
    "DiagnosticsReport",
    "InferenceResult",
    "McReport",
    "MomentOracle",
    "NeighborhoodIndex",
    "RegressionData",
    "SingularDesignError",
    "VarianceEstimate",
    "WeightedSample",
    "assumption_ratios",
    "build_index",
    "cgm_demeaned",
    "cgm_raw",
    "kolmogorov_bound",
    "ks_statistic",
    "leverage_L",
    "pair_weight_sums",
    "run_consistency",
    "run_coverage",
    "smallest_eigenvalue",
    "stochastic_design_inference",
    "structure",
    "theta_inference",
    "true_bias_term",
    "wasserstein_bound",
    "weighted_mean",
]
