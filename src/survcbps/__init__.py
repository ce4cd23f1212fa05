"""Treatment effect estimation for right-censored outcomes.

Propensity scores are fitted by penalized empirical likelihood so that the
chosen covariates are balanced across arms and the censoring-adjusted
weights are calibrated. Baseline estimators (plain inverse probability
weighting, unpenalized balancing, augmented IPW) and a simulation harness
are included for comparison studies.
"""

from .baselines import (
    fit_aipw,
    fit_cbps_unpenalized,
    fit_naive_ipw,
)
from .censoring import CensorSurvival, fit_censoring_km
from .data import Dataset, SummaryStats, parse_csv, summarize, write_csv
from .errors import (
    ConfigError,
    DegenerateArmError,
    DumpFormatError,
    FitError,
    InfeasibleBalanceError,
    InputError,
    RowParseError,
    SchemaError,
    SelectionError,
    SingularMatrixError,
    SurvCbpsError,
)
from .inference import (
    ATEResult,
    ate_with_ci,
    weighted_median,
)
from .moments import PropensityParams, jacobian_g, propensity, stack_g
from .scad import ScadParams, lqa_weight, scad_derivative, scad_value
from .simulation import (
    SimConfig,
    SimReport,
    generate_dataset,
    load_config,
    load_dump,
    run_study,
    true_ate,
    write_outputs,
)
from .solver import (
    PELFit,
    default_tau_grid,
    fit_pel,
    select_tau,
    solve_inner_dual,
)

__version__ = "0.1.0"

__all__ = [
    "ATEResult",
    "CensorSurvival",
    "ConfigError",
    "Dataset",
    "DegenerateArmError",
    "DumpFormatError",
    "FitError",
    "InfeasibleBalanceError",
    "InputError",
    "PELFit",
    "PropensityParams",
    "RowParseError",
    "ScadParams",
    "SchemaError",
    "SelectionError",
    "SimConfig",
    "SimReport",
    "SingularMatrixError",
    "SummaryStats",
    "SurvCbpsError",
    "ate_with_ci",
    "default_tau_grid",
    "fit_aipw",
    "fit_cbps_unpenalized",
    "fit_naive_ipw",
    "fit_pel",
    "fit_censoring_km",
    "generate_dataset",
    "jacobian_g",
    "load_config",
    "load_dump",
    "lqa_weight",
    "parse_csv",
    "propensity",
    "run_study",
    "scad_derivative",
    "scad_value",
    "select_tau",
    "solve_inner_dual",
    "stack_g",
    "summarize",
    "true_ate",
    "weighted_median",
    "write_csv",
    "write_outputs",
]
