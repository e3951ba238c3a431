"""Spatially-informed causal estimation and probabilistic forecasting
for regional panel time series."""

from .causal import (
    AdjustedPanel,
    DidEstimate,
    Panel,
    adjust_panel,
    build_design_matrix,
    estimate_ols_given_rho,
    estimate_rho_iv,
    fit_did,
    parameter_report,
)
from .config import RunConfig, load_run_config
from .forecaster import ForecastDistribution, ForecastModel, ModelConfig
from .metrics import (
    ScoreReport,
    coverage,
    crps_from_samples,
    energy_score,
    quantile,
    score_report,
    weighted_quantile_loss,
)
from .pipeline import run_pipeline
from .spatial import (
    Region,
    RegionSet,
    SpatialMatrix,
    build_spatial_matrix,
    spatial_lag,
)
from .synth import GeneratorSpec, generate
from .transforms import TargetTransform, fit_target_transform

__version__ = "0.1.0"

__all__ = [
    "AdjustedPanel",
    "DidEstimate",
    "ForecastDistribution",
    "ForecastModel",
    "GeneratorSpec",
    "ModelConfig",
    "Panel",
    "Region",
    "RegionSet",
    "RunConfig",
    "ScoreReport",
    "SpatialMatrix",
    "TargetTransform",
    "adjust_panel",
    "build_design_matrix",
    "build_spatial_matrix",
    "coverage",
    "crps_from_samples",
    "energy_score",
    "estimate_ols_given_rho",
    "estimate_rho_iv",
    "fit_did",
    "fit_target_transform",
    "generate",
    "load_run_config",
    "parameter_report",
    "quantile",
    "run_pipeline",
    "score_report",
    "spatial_lag",
    "weighted_quantile_loss",
]
