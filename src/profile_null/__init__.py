"""Provider quality profiling with an individualized empirical null.

Standardizes center-level quality measures against a size-dependent
empirical null distribution, combines them into correlation-weighted
composite scores with outlier flagging, and ships a reproducible simulation
harness for method comparison.
"""

from ._kernels import backend
from .baselines import (
    MomFit,
    fit_method_of_moments,
    mom_phi,
    winsorize,
)
from .composite import (
    CompositeConfig,
    CompositeResult,
    capped_corr_weights,
    composite_score,
    composite_table,
    correlation_matrix,
    flag,
    inverse_corr_weights,
    published_weights,
)
from .empirical_null import (
    EnConfig,
    NullFit,
    control_limits,
    fit_empirical_null,
    initial_phi,
    null_loglik,
    z_empirical_null,
)
from .errors import ConvergenceError, FittingError, InputError, ProfileNullError
from .measures import (
    CenterTable,
    MeasureSpec,
    group_variance_diagnostic,
    measure_ratio,
    z_fixed_effects,
)
from .numerics import (
    OptimResult,
    RobustLocationScale,
    nelder_mead_minimize,
    robust_intercept_scale,
    std_normal_cdf,
    std_normal_quantile,
)
from .simulation import (
    SimConfig,
    SimDataset,
    SweepResult,
    TuningResult,
    expected_en_z,
    gamma2_for_null_composite,
    gen_single_measure,
    run_composite_experiment,
    run_flagging_experiment,
    run_tuning_sensitivity,
)

__version__ = "0.1.0"

__all__ = [
    "backend",
    "MomFit", "fit_method_of_moments", "mom_phi", "winsorize",
    "CompositeConfig", "CompositeResult", "capped_corr_weights",
    "composite_score", "composite_table", "correlation_matrix",
    "flag", "inverse_corr_weights", "published_weights",
    "EnConfig", "NullFit", "control_limits", "fit_empirical_null",
    "initial_phi", "null_loglik", "z_empirical_null",
    "ConvergenceError", "FittingError", "InputError", "ProfileNullError",
    "CenterTable", "MeasureSpec", "group_variance_diagnostic",
    "measure_ratio", "z_fixed_effects",
    "OptimResult", "RobustLocationScale", "nelder_mead_minimize",
    "robust_intercept_scale", "std_normal_cdf", "std_normal_quantile",
    "SimConfig", "SimDataset", "SweepResult", "TuningResult", "expected_en_z",
    "gamma2_for_null_composite", "gen_single_measure",
    "run_composite_experiment", "run_flagging_experiment",
    "run_tuning_sensitivity",
    "__version__",
]
