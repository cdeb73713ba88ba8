"""natbeta: natural-asset-beta estimation and sustainability exchange pricing.

From a yearly panel of industry gross value and natural-resource flow the
toolkit builds a per-unit opportunity-cost price series, estimates the
resource-vs-firm asset beta with a control-function regression, chains it to
the market beta and the natural rate of return, solves the log-linear
supply/demand equilibrium for the sustainability-consistent exchange price
and quantity, and propagates the regression uncertainty to all derived
quantities with deterministic Monte Carlo.
"""

__version__ = "0.1.0"

from .beta_algebra import (
    BetaAlgebraError,
    BetaSet,
    ReturnSet,
    beta_from_slope,
    build_beta_set,
    build_return_set,
    chain_to_market,
    natural_return,
)
from .econometrics import (
    ControlFunctionFit,
    FitResult,
    NormalityResult,
    RegressionError,
    ResetResult,
    control_function_fit,
    jarque_bera,
    lagged_instruments,
    ols,
    reset_test,
    t_confidence_interval,
)
from .market_curves import (
    CurveError,
    EquilibriumPoint,
    ShockModel,
    curve_samples,
    elasticities,
    equilibrium_deviation,
    equilibrium_levels,
    shocked_equilibrium,
    zero_sum_integral,
)
from .panel_io import PanelFormatError, RawPanel, parse_panel, serialize_panel
from .pipeline import EstimateReport, StageError, render_report, run_estimate
from .preprocess import (
    CenteredLogSeries,
    PreprocessError,
    PriceSeries,
    center_log,
    describe_log_series,
    unit_price_series,
)
from .simulator import ScenarioConfig, SimulatorError, simulate_equilibria, synthesize_panel
from .uncertainty import (
    BetaDraws,
    IntervalReport,
    UncertaintyError,
    derived_intervals,
    sample_betas,
)

__all__ = [
    "__version__",
    "BetaAlgebraError", "BetaSet", "ReturnSet", "beta_from_slope",
    "build_beta_set", "build_return_set", "chain_to_market", "natural_return",
    "ControlFunctionFit", "FitResult", "NormalityResult", "RegressionError",
    "ResetResult", "control_function_fit", "jarque_bera", "lagged_instruments",
    "ols", "reset_test", "t_confidence_interval",
    "CurveError", "EquilibriumPoint", "ShockModel", "curve_samples",
    "elasticities", "equilibrium_deviation", "equilibrium_levels",
    "shocked_equilibrium", "zero_sum_integral",
    "PanelFormatError", "RawPanel", "parse_panel", "serialize_panel",
    "EstimateReport", "StageError", "render_report", "run_estimate",
    "CenteredLogSeries", "PreprocessError", "PriceSeries", "center_log",
    "describe_log_series", "unit_price_series",
    "ScenarioConfig", "SimulatorError", "simulate_equilibria", "synthesize_panel",
    "BetaDraws", "IntervalReport", "UncertaintyError", "derived_intervals",
    "sample_betas",
]
