"""natbeta: natural-asset-beta estimation and sustainability exchange pricing.

From a yearly panel of industry gross value and natural-resource flow the
toolkit builds a per-unit opportunity-cost price series, estimates the
resource-vs-firm asset beta with a control-function regression, chains it to
the market beta and the natural rate of return, solves the log-linear
supply/demand equilibrium for the sustainability-consistent exchange price
and quantity, and propagates the regression uncertainty to all derived
quantities with deterministic Monte Carlo.

Importing the package loads none of its submodules, so a command compiles
and runs only the modules of the stages it uses.  Import each name from its
module, e.g. ``from natbeta.pipeline import run_estimate``.
"""

__version__ = "0.1.0"
