"""Property test of the CLI boundary for ``ci`` and the ``estimate`` stub.

Every run either prints a report whose interval bounds and point values are
finite floats, or exits nonzero with ``error: <stage>: `` and nothing else
on stderr: no traceback and no warning.
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


def check(argv, intervals_of):
    code, out, err = run(argv)
    if code == 0:
        assert err == ""
        intervals = intervals_of(json.loads(out, parse_constant=reject_constant))
        if intervals is None:
            return
        values = [v for pair in intervals["bounds"].values() for v in pair]
        values += list(intervals["point"].values())
        assert all(isinstance(v, float) and math.isfinite(v) for v in values), intervals
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
    check(["ci", "--format", "json"] + flags(**values), lambda doc: doc)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(slope=numbers, slope_se=numbers, beta_qm=numbers, r_m=numbers,
       mean_ln_flow=numbers, mean_ln_price=numbers, level=levels, draws=draws, seed=seeds)
# a positive slope whose square underflows to 0 rescales the se by 1/0
@example(slope=1e-200, slope_se=0.1, beta_qm=1.0, r_m=0.03, mean_ln_flow=1.0,
         mean_ln_price=1.0, level=0.9, draws=0, seed=1)
@example(slope=1e-200, slope_se=0.1, beta_qm=1.0, r_m=0.03, mean_ln_flow=1.0,
         mean_ln_price=1.0, level=0.9, draws=10, seed=1)
def test_estimate_stub_reports_finite_intervals_or_a_stage_error(**values):
    check(["estimate", "--format", "json"] + flags(**values), lambda doc: doc["intervals"])
