"""Well-conditioned linear MMSE filtering.

A numpy/scipy library for linear minimum-mean-square-error estimation
when the input covariance is large and ill-conditioned: the classical
unconstrained filter, rank-truncated filters, truncations of the joint
covariance eigenbasis whose construction never inverts anything larger
than L x L, weighted-trace and determinant objectives, and an
experiment harness for time-series prediction benchmarks.
"""

from .diagnostics import (
    ScalingStudy,
    analytic_mse,
    best_l_search,
    det_objective,
    error_covariance,
    filter_power_loss,
    scaling_study,
    truncation_power_loss,
    weighted_trace_objective,
)
from .dataio import (
    ExperimentResult,
    load_csv,
    normalized_rms,
    window_samples,
)
from .errors import (
    DegenerateDataError,
    DimensionError,
    InsufficientDataError,
    InvalidSpectrumError,
    InvalidWeightError,
    ModelError,
    NumericInputError,
    RankError,
    SingularMatrixError,
    UndefinedConditionError,
    WclmmseError,
)
from .filters import (
    FilterKind,
    LinearFilter,
    Prefilter,
    csw,
    det_optimal_weight,
    is_l_well_conditioned,
    jpc,
    jpc_simplified,
    lrw,
    lsjpc,
    lsjpc_simplified,
    weighted_filter,
    wiener,
    wiener_structured,
)
from .harness import (
    LPolicy,
    run_condition_report,
    run_l_sweep,
    run_m_sweep,
)
from .linalg import (
    SymEig,
    condition_number,
    factor_spd,
    inv_sqrt_spd,
    matrix_norm,
    nuclear_norm,
    solve_spd,
    sym_eig,
)
from .model import (
    CovarianceModel,
    SpectralCache,
    estimate_covariance,
    geometric_spectrum,
    sample_from_model,
    series_covariance,
    synthetic_model,
)

__version__ = "0.1.0"

__all__ = [
    "ScalingStudy", "analytic_mse", "best_l_search", "det_objective",
    "error_covariance", "filter_power_loss", "scaling_study", "truncation_power_loss",
    "weighted_trace_objective",
    "ExperimentResult", "load_csv", "normalized_rms", "window_samples",
    "DegenerateDataError", "DimensionError", "InsufficientDataError",
    "InvalidSpectrumError", "InvalidWeightError", "ModelError",
    "NumericInputError", "RankError", "SingularMatrixError",
    "UndefinedConditionError", "WclmmseError",
    "FilterKind", "LinearFilter", "Prefilter", "SpectralCache", "csw",
    "det_optimal_weight", "is_l_well_conditioned", "jpc", "jpc_simplified",
    "lrw", "lsjpc", "lsjpc_simplified", "weighted_filter", "wiener",
    "wiener_structured",
    "LPolicy", "run_condition_report", "run_l_sweep", "run_m_sweep",
    "SymEig", "condition_number", "factor_spd", "inv_sqrt_spd",
    "matrix_norm", "nuclear_norm", "solve_spd", "sym_eig",
    "CovarianceModel", "estimate_covariance",
    "geometric_spectrum", "sample_from_model", "series_covariance", "synthetic_model",
    "__version__",
]
