"""Property test of the CLI boundary for ``ci``, the ``estimate`` stub,
``estimate --input``, ``equilibrium``, ``describe``, ``simulate`` and
``curves``.

Every run either prints a report whose numbers are finite floats (interval
bounds and point values; for ``estimate`` also the slope, its SE and every
beta, return, equilibrium and elasticity field, and with ``--input`` every
field of the report, none of them null; every statistic of
``describe``; every panel cell of ``simulate``, whose value and flow are
also positive, and every float of its truth file; every curve sample and
equilibrium field of ``curves``), or exits nonzero with ``error: <stage>: ``
and nothing else on stderr: no traceback and no warning (and, for
``simulate``, no truth file).
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from natbeta.cli import main
from natbeta.panel_io import parse_panel

STAGES = ("panel_io", "preprocess", "econometrics", "beta_algebra", "market_curves",
          "uncertainty", "simulator")
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 1e-308, -1e-308]

numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0))
draws = st.integers(0, 2000)
seeds = st.integers(-1, 2**64)


def mostly(ordinary, odds=4, special=SPECIAL):
    """``ordinary``, but a ``special`` value about once in ``odds`` draws, so
    that a command with many such arguments still often exits 0."""
    return st.integers(1, odds).flatmap(
        lambda k: st.sampled_from(special) if k == 1 else ordinary)


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch("sys.stdin", io.StringIO(stdin)), \
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
            + leaves(doc["equilibrium"]) + leaves(doc["elasticities"])
            + interval_values(doc["intervals"]))


def describe_values(doc):
    return [v for row in doc.values() for key, v in row.items() if key != "n_obs"]


def describe_text_values(out):
    """Mean, SD, min and max of each row of the text table."""
    return [float(cell) for line in out.splitlines()[1:] for cell in line.split()[2:]]


def curves_values(out):
    """Every curve sample of the CSV table and every equilibrium field."""
    table, block = out.split("\n\n")
    samples = [float(cell) for line in table.splitlines()[1:] for cell in line.split(",")[1:]]
    return samples + leaves(json.loads(block, parse_constant=reject_constant))


def simulate_values(out):
    """Every panel cell; value and flow must also be positive."""
    panel = parse_panel(out)
    assert (panel.value > 0).all() and (panel.flow > 0).all()
    return [float(v) for column in (panel.value, panel.flow, *panel.instruments.values())
            for v in column]


def check(argv, values_of, stdin="", parse=lambda out: json.loads(
        out, parse_constant=reject_constant)):
    code, out, err = run(argv, stdin)
    if code == 0:
        assert err == ""
        values = values_of(parse(out))
        assert all(isinstance(v, float) and math.isfinite(v) for v in values), values
    else:
        assert any(err.startswith(f"error: {stage}: ") for stage in STAGES), err
        assert "Traceback" not in err and "Warning" not in err, err
    return code


def flags(**values):
    # --flag=value, so that argparse does not read "-1e+308" as an option
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]


# Each float argument of ``ci`` and the ``estimate`` stub is SPECIAL about
# once in 12 draws and otherwise ordinary, mostly in a range the command
# accepts, so that both the report and the stage errors are reached often.
def ordinary(lo, hi):
    return mostly(st.floats(lo, hi), odds=12)


sampled_mean = ordinary(-1.0, 10.0)
sampled_se = ordinary(0.0, 1.0)
log_mean = ordinary(-10.0, 10.0)
market = {"beta_qm": ordinary(0.0, 10.0), "r_m": ordinary(-0.1, 0.2),
          "mean_ln_flow": log_mean, "mean_ln_price": log_mean,
          "level": mostly(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), odds=12),
          "draws": draws, "seed": seeds}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(beta_xq=sampled_mean, beta_xq_se=sampled_se, **market)
# the point row overflows in beta * beta
@example(beta_xq=1e308, beta_xq_se=1e300, beta_qm=1.0, r_m=0.029, mean_ln_flow=2.0,
         mean_ln_price=2.0, level=0.9, draws=1000, seed=1)
# about a sixth of the first-pass draws are non-positive and redrawn
@example(beta_xq=0.1, beta_xq_se=0.1, beta_qm=5.0, r_m=0.03, mean_ln_flow=1.0,
         mean_ln_price=1.0, level=0.9, draws=2000, seed=1)
def test_ci_reports_finite_intervals_or_a_stage_error(**values):
    check(["ci", "--format", "json"] + flags(**values), interval_values)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(slope=sampled_mean, slope_se=sampled_se, **market)
# beta_qx = 1/beta overflows
@example(slope=-5e-324, slope_se=0.0, beta_qm=1.0, r_m=0.03, mean_ln_flow=0.0,
         mean_ln_price=0.0, level=0.9, draws=0, seed=1)
# a positive slope whose square underflows to 0 rescales the se by 1/0
@example(slope=1e-200, slope_se=0.1, beta_qm=1.0, r_m=0.03, mean_ln_flow=1.0,
         mean_ln_price=1.0, level=0.9, draws=0, seed=1)
@example(slope=1e-200, slope_se=0.1, beta_qm=1.0, r_m=0.03, mean_ln_flow=1.0,
         mean_ln_price=1.0, level=0.9, draws=10, seed=1)
# r_q and r_x overflow
@example(slope=-1.0, slope_se=0.0, beta_qm=1e308, r_m=10.0, mean_ln_flow=0.0,
         mean_ln_price=0.0, level=0.9, draws=0, seed=1)
# without draws nothing but the report's own slope_se field sees a NaN se
@example(slope=-0.919, slope_se=math.nan, beta_qm=5.0, r_m=0.03, mean_ln_flow=1.0,
         mean_ln_price=1.0, level=0.9, draws=0, seed=1)
def test_estimate_stub_reports_finite_intervals_or_a_stage_error(**values):
    check(["estimate", "--format", "json"] + flags(**values), report_values)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(beta_xq=numbers, mean_ln_flow=numbers, mean_ln_price=numbers)
def test_equilibrium_reports_finite_fields_or_a_stage_error(**values):
    check(["equilibrium", "--format", "json"] + flags(**values), leaves)


# duplicate or unsorted years and non-finite cells must end as panel_io errors,
# non-positive or overflowing ones as preprocess errors
cells = mostly(st.floats(0.0, 1e3), odds=12)
panel_rows = st.lists(st.tuples(st.integers(1998, 2005), cells, cells), max_size=6)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(rows=panel_rows, ordered=st.booleans(), fmt=st.sampled_from(["json", "text"]))
# both norms overflow
@example(rows=[(2001, 1e308, 1e308), (2002, 1e308, 1.0), (2003, 1.0, 1e308)], ordered=False,
         fmt="json")
def test_describe_reports_finite_statistics_or_a_stage_error(rows, ordered, fmt):
    if ordered:
        rows = sorted({year: (year, v, q) for year, v, q in rows}.values())
    text = "year,value,flow\n" + "".join(f"{y},{v!r},{q!r}\n" for y, v, q in rows)
    if fmt == "json":
        check(["describe", "--input=-", "--format=json"], describe_values, stdin=text)
    else:
        check(["describe", "--input=-"], describe_text_values, stdin=text, parse=str)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(beta_xq=mostly(st.floats(0.01, 10.0)), mean_ln_flow=mostly(st.floats(-10.0, 10.0)),
       mean_ln_price=mostly(st.floats(-10.0, 10.0)), sigma_s=mostly(st.floats(0.0, 1.0)),
       sigma_d=mostly(st.floats(0.0, 1.0)), iv_noise_sd=mostly(st.floats(0.0, 1.0)),
       n=st.integers(4, 40), seed=seeds, shock_mode=st.sampled_from(["general", "paper"]))
# the levels underflow to 0
@example(beta_xq=1.0, mean_ln_flow=-800.0, mean_ln_price=0.0, sigma_s=0.0, sigma_d=0.05,
         iv_noise_sd=0.02, n=19, seed=1, shock_mode="general")
# paper mode never reads sigma_s, which would reach only the truth file
@example(beta_xq=0.919, mean_ln_flow=2.113, mean_ln_price=2.828, sigma_s=math.nan,
         sigma_d=0.05, iv_noise_sd=0.02, n=19, seed=1, shock_mode="paper")
def test_simulate_prints_a_positive_finite_panel_or_a_stage_error(shock_mode, **values):
    # the truth file too holds only finite floats, and a stage error writes none
    with tempfile.TemporaryDirectory() as tmp:
        truth = os.path.join(tmp, "truth.json")
        code = check(["simulate", "--out=-", f"--truth-out={truth}",
                      f"--shock-mode={shock_mode}"] + flags(**values),
                     simulate_values, parse=str)
        if code == 0:
            with open(truth) as f:
                doc = json.load(f, parse_constant=reject_constant)
            assert all(math.isfinite(v) for v in leaves(doc) if isinstance(v, float)), doc
        else:
            assert not os.path.exists(truth)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(beta_xq=mostly(st.floats(0.01, 10.0)), x_min=mostly(st.floats(-10.0, 0.0)),
       x_max=mostly(st.floats(0.0, 10.0)),
       count=st.one_of(st.integers(1, 60), st.sampled_from([10**6 + 1, 10**11, 10**20])),
       mean_ln_flow=mostly(st.floats(-10.0, 10.0)),
       mean_ln_price=mostly(st.floats(-10.0, 10.0)))
# the grid step overflows; a supply y overflows
@example(beta_xq=0.5, x_min=-1e308, x_max=1e308, count=5, mean_ln_flow=0.0,
         mean_ln_price=0.0)
@example(beta_xq=1e300, x_min=-1e10, x_max=1e10, count=5, mean_ln_flow=0.0,
         mean_ln_price=0.0)
def test_curves_print_finite_samples_or_a_stage_error(**values):
    check(["curves"] + flags(**values), curves_values, parse=str)


def full_report_values(doc):
    """Every float of an ``estimate --input`` report, the regression block
    included; no field but ``intervals`` (without draws) may be null."""
    if doc["intervals"] is None:
        del doc["intervals"]
    found = leaves(doc)
    assert None not in found, doc
    return [v for v in found if isinstance(v, float)]


# panels on stdin for ``estimate --input``: years consecutive, value and flow
# mostly positive and instrument cells mostly ordinary; a cell is SPECIAL
# (subnormals included) about once in 12 or in 1000 draws, so that a panel of
# up to 30 rows still often reaches the control-function fit
PANEL_SPECIAL = SPECIAL + [5e-324, -5e-324]


@st.composite
def estimate_inputs(draw):
    """Panel text and an instrument selection: ``auto``, ``lags:0`` to
    ``lags:4`` or a subset of the panel's ``iv_`` columns."""
    names = ["iv_a", "iv_b", "iv_c"][:draw(st.integers(0, 3))]
    odds = draw(st.sampled_from([12, 1000]))
    positive = mostly(st.floats(0.01, 1e3), odds, PANEL_SPECIAL)
    ordinary = mostly(st.floats(-10.0, 10.0), odds, PANEL_SPECIAL)
    n = draw(st.integers(0, 30))
    start = draw(st.integers(1950, 2000))
    rows = draw(st.lists(st.tuples(positive, positive, *[ordinary] * len(names)),
                         min_size=n, max_size=n))
    text = ",".join(["year", "value", "flow"] + names) + "\n" + "".join(
        ",".join([str(start + i)] + [repr(v) for v in cells]) + "\n"
        for i, cells in enumerate(rows))
    instruments = draw(st.one_of(
        st.sampled_from(["auto"] + [f"lags:{k}" for k in range(5)]),
        st.lists(st.sampled_from(names or ["iv_a"]), min_size=1, unique=True).map(",".join)))
    return text, instruments


NULL_T_PANEL = ("year,value,flow,iv_a,iv_b\n2000,10.5,3.25,0.1,0.1\n2001,13.5,4.25,0.4,0.8\n"
                "2002,16.5,5.25,0.7,0.5\n2003,12.5,6.25,0.1,1e308\n2004,15.5,3.25,0.3,0.9\n"
                "2005,11.5,4.25,0.6,0.6\n2006,14.5,5.25,0.9,0.3\n2007,10.5,6.25,0.2,0.1\n")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=estimate_inputs(), draws=st.sampled_from([0, 200]))
# the standard error of iv_b underflows to 0, so its t-value is unbounded
@example(case=(NULL_T_PANEL, "auto"), draws=0)
def test_estimate_input_reports_finite_fields_or_a_stage_error(case, draws):
    text, instruments = case
    check(["estimate", "--input=-", "--format=json", "--beta-qm=5.36", "--r-m=0.029",
           "--seed=1", f"--draws={draws}", f"--instruments={instruments}"],
          full_report_values, stdin=text)
