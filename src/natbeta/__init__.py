"""natbeta: natural-asset-beta estimation and sustainability exchange pricing.

From a yearly panel of industry gross value and natural-resource flow the
toolkit builds a per-unit opportunity-cost price series, estimates the
resource-vs-firm asset beta with a control-function regression, chains it to
the market beta and the natural rate of return, solves the log-linear
supply/demand equilibrium for the sustainability-consistent exchange price
and quantity, and propagates the regression uncertainty to all derived
quantities with deterministic Monte Carlo.

Importing the package loads none of its submodules.  Each public name below
is imported from its submodule on first access (PEP 562), so a command
compiles and runs only the modules of the stages it uses.
"""

import importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them: each submodule's __all__.
_EXPORTS = {
    "beta_algebra": ("BetaAlgebraError", "beta_from_slope", "chain_products", "market_chain"),
    "econometrics": (
        "ControlFunctionFit", "FitResult", "NormalityResult", "RegressionError",
        "ResetResult", "control_fit_to_dict", "control_function_fit", "fit_to_dict",
        "jarque_bera", "lagged_instruments", "ols", "reset_test", "t_confidence_interval",
    ),
    "market_curves": (
        "CurveError", "EquilibriumPoint", "ShockModel", "branch", "curve_samples",
        "elasticities", "equilibrium_deviation", "equilibrium_levels",
        "observed_range_warnings", "shocked_equilibrium", "zero_sum_integral",
    ),
    "panel_io": ("PanelFormatError", "RawPanel", "parse_panel", "serialize_panel"),
    "pipeline": ("EstimateReport", "StageError", "render_report", "run_estimate"),
    "preprocess": (
        "CenteredLogSeries", "PreprocessError", "PriceSeries", "center_log",
        "describe_log_series", "unit_price_series",
    ),
    "simulator": ("ScenarioConfig", "SimulatorError", "ground_truth", "simulate_equilibria",
                  "synthesize_panel"),
    "uncertainty": (
        "BetaDraws", "IntervalReport", "UncertaintyError", "derived_intervals",
        "sample_betas",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name):
    # An AttributeError for any other name lets ``from natbeta import
    # econometrics`` fall back to importing the submodule.
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
