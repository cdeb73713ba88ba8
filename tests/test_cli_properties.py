"""Property test of the CLI boundary for ``ci``, the ``estimate`` stub and
``equilibrium``.

Every run either prints a report whose numbers are finite floats (interval
bounds and point values; for ``estimate`` also the slope, its SE and every
beta, return and equilibrium field), or exits nonzero with
``error: <stage>: `` and nothing else on stderr: no traceback and no warning.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from natbeta.cli import main

STAGES = ("panel_io", "preprocess", "econometrics", "beta_algebra", "market_curves",
          "uncertainty")
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 1e-308, -1e-308]

numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0))
levels = st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0))
draws = st.integers(0, 2000)
seeds = st.integers(-1, 2**64)


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


def leaves(node):
    """Every leaf value of a JSON object, depth first."""
    if isinstance(node, dict):
        return [leaf for child in node.values() for leaf in leaves(child)]
    return [node]


def interval_values(intervals):
    if intervals is None:
        return []
    return [v for pair in intervals["bounds"].values() for v in pair] + leaves(intervals["point"])


def report_values(doc):
    return ([doc["slope"], doc["slope_se"]] + leaves(doc["betas"]) + leaves(doc["returns"])
            + leaves(doc["equilibrium"]) + interval_values(doc["intervals"]))


def check(argv, values_of):
    code, out, err = run(argv)
    if code == 0:
        assert err == ""
        values = values_of(json.loads(out, parse_constant=reject_constant))
        assert all(isinstance(v, float) and math.isfinite(v) for v in values), values
    else:
        assert any(err.startswith(f"error: {stage}: ") for stage in STAGES), err
        assert "Traceback" not in err and "Warning" not in err, err


def flags(**values):
    # --flag=value, so that argparse does not read "-1e+308" as an option
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(beta_xq=numbers, beta_xq_se=numbers, beta_qm=numbers, r_m=numbers,
       mean_ln_flow=numbers, mean_ln_price=numbers, level=levels, draws=draws, seed=seeds)
# the point row overflows in beta * beta
@example(beta_xq=1e308, beta_xq_se=1e300, beta_qm=1.0, r_m=0.029, mean_ln_flow=2.0,
         mean_ln_price=2.0, level=0.9, draws=1000, seed=1)
def test_ci_reports_finite_intervals_or_a_stage_error(**values):
    check(["ci", "--format", "json"] + flags(**values), interval_values)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(slope=numbers, slope_se=numbers, beta_qm=numbers, r_m=numbers,
       mean_ln_flow=numbers, mean_ln_price=numbers, level=levels, draws=draws, seed=seeds)
# a positive slope whose square underflows to 0 rescales the se by 1/0
@example(slope=1e-200, slope_se=0.1, beta_qm=1.0, r_m=0.03, mean_ln_flow=1.0,
         mean_ln_price=1.0, level=0.9, draws=0, seed=1)
@example(slope=1e-200, slope_se=0.1, beta_qm=1.0, r_m=0.03, mean_ln_flow=1.0,
         mean_ln_price=1.0, level=0.9, draws=10, seed=1)
# without draws nothing but the report's own slope_se field sees a NaN se
@example(slope=-0.919, slope_se=math.nan, beta_qm=5.0, r_m=0.03, mean_ln_flow=1.0,
         mean_ln_price=1.0, level=0.9, draws=0, seed=1)
def test_estimate_stub_reports_finite_intervals_or_a_stage_error(**values):
    check(["estimate", "--format", "json"] + flags(**values), report_values)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(beta_xq=numbers, mean_ln_flow=numbers, mean_ln_price=numbers)
def test_equilibrium_reports_finite_fields_or_a_stage_error(**values):
    check(["equilibrium", "--format", "json"] + flags(**values), leaves)
