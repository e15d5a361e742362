"""Ensemble adjustment Kalman filter with exact posterior-covariance consistency.

The package provides the deterministic perturbation update built from a
rank-revealing SVD and a null-space-ordered eigendecomposition, an
independent dense Kalman-filter oracle for certifying the update, and
harness tooling (random-instance verification, the misordering pitfall
demonstration, file-based assimilation, a cycled twin experiment).
"""

from .ensemble import (
    ForecastEnsemble,
    ObservationModel,
    PerturbationMatrix,
    forecast_cov,
    perturbation_matrix,
    reconstruct_members,
)
from .linalg import (
    RANK_TOL,
    OrderedEigen,
    SvdFactors,
    ordered_eig_psd,
    pinv_rect_diag,
    svd_full,
)
from .oracle import (
    ComparisonReport,
    compare_cov,
    posterior_cov_direct,
    posterior_cov_reduced,
    posterior_cov_woodbury,
)
from .twin import TwinConfig, run_twin
from .update import (
    AnalysisResult,
    adjustment_matrix,
    analyze,
    kalman_gain,
    project_observations,
)
from .verify import VerifyConfig, run_verify

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "ComparisonReport",
    "ForecastEnsemble",
    "ObservationModel",
    "OrderedEigen",
    "PerturbationMatrix",
    "RANK_TOL",
    "SvdFactors",
    "TwinConfig",
    "VerifyConfig",
    "adjustment_matrix",
    "analyze",
    "compare_cov",
    "forecast_cov",
    "kalman_gain",
    "ordered_eig_psd",
    "perturbation_matrix",
    "pinv_rect_diag",
    "posterior_cov_direct",
    "posterior_cov_reduced",
    "posterior_cov_woodbury",
    "project_observations",
    "reconstruct_members",
    "run_twin",
    "run_verify",
    "svd_full",
]
