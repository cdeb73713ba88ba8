import ast
import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import natbeta
from natbeta import beta_algebra, econometrics, kernels, market_curves, pipeline
from natbeta.cli import main
from natbeta.market_curves import CurveError, ShockModel
from natbeta.panel_io import parse_panel
from natbeta.pipeline import StageError, _json_text, render_report, run_estimate
from natbeta.simulator import ScenarioConfig, SimulatorError, synthesize_panel
from natbeta.uncertainty import BetaDraws, UncertaintyError, derived_intervals, sample_betas

from conftest import PAPER, make_config


def paper_stub_report(paper, **overrides):
    kwargs = dict(
        beta_qm=paper["beta_qm"],
        r_m=paper["r_m"],
        slope=paper["slope"],
        slope_se=paper["slope_se"],
        mean_ln_flow=paper["mean_ln_flow"],
        mean_ln_price=paper["mean_ln_price"],
        draws=20_000,
        seed=99,
    )
    kwargs.update(overrides)
    return run_estimate(None, **kwargs)


def test_stub_chains_published_values(paper):
    report = paper_stub_report(paper)
    assert report.betas["beta_xm"] == pytest.approx(4.93, abs=0.01)
    assert report.returns["r_x"] == pytest.approx(0.143, abs=0.001)
    assert report.equilibrium["ln_price"] == pytest.approx(2.782, abs=0.002)
    assert report.equilibrium["ln_quantity"] == pytest.approx(2.155, abs=0.002)
    assert report.equilibrium["ln_user_cost"] == pytest.approx(4.937, abs=0.003)
    assert report.provenance["regression_stub"] is True
    assert report.regression is None


def test_simulated_panel_self_consistency():
    panel = synthesize_panel(make_config(beta=0.919, n=19, seed=21))
    report = run_estimate(panel, beta_qm=5.36, r_m=0.029, draws=10_000, seed=5)
    slope = report.slope
    second = report.regression["second_stage"]["coefficients"]["price_dev"]
    assert second["ci_low"] <= slope <= second["ci_high"]
    lo, hi = report.intervals["bounds"]["beta_xm"]
    assert lo <= report.betas["beta_xm"] <= hi
    assert report.betas["beta_xq"] == pytest.approx(0.919, abs=1e-6)


def test_all_stub_and_panel_paths_share_field_names(paper):
    report = paper_stub_report(paper)
    data = report.to_jsonable()
    assert data["schema_version"] == 1
    assert set(data["betas"]) == {"beta_xq", "beta_qx", "beta_qm", "beta_xm"}
    assert set(data["returns"]) == {"r_m", "r_q", "r_x"}
    assert set(data["equilibrium"]) == {
        "x_e", "y_e", "ln_quantity", "ln_price", "quantity", "price", "ln_user_cost"
    }
    assert set(data["intervals"]["bounds"]) == {
        "ln_price", "ln_quantity", "ln_user_cost", "beta_xm", "r_x"
    }


# The first non-positive entry is reported: lowest row first, flow before
# value within a row.
@pytest.mark.parametrize("rows,expected", [
    ("2001,2,1\n2002,8,0\n", "row 2, column flow (0.0)"),
    ("2001,2,1\n2002,-8,2\n", "row 2, column value (-8.0)"),
    ("2001,-2,-1\n2002,8,2\n", "row 1, column flow (-1.0)"),
    ("2001,-2,1\n2002,8,-2\n", "row 1, column value (-2.0)"),
], ids=["zero-flow-row-2", "negative-value-row-2", "value-and-flow-row-1",
        "value-row-1-flow-row-2"])
def test_zero_flow_panel_reports_preprocess_stage(rows, expected):
    panel = parse_panel("year,value,flow\n" + rows + "2003,9,2\n2004,12,3\n2005,20,4\n")
    with pytest.raises(StageError) as err:
        run_estimate(panel, beta_qm=5.36, r_m=0.029, draws=0)
    assert err.value.stage == "preprocess"
    assert f"non-positive value at {expected}" in str(err.value)


def test_small_panel_reports_panel_stage():
    panel = parse_panel("year,value,flow\n2001,2,1\n2002,8,2\n")
    with pytest.raises(StageError) as err:
        run_estimate(panel, beta_qm=5.36, r_m=0.029, draws=0)
    assert err.value.stage == "panel_io"


def test_missing_means_with_stub_reports_preprocess(paper):
    with pytest.raises(StageError) as err:
        run_estimate(None, beta_qm=5.36, r_m=0.029, slope=-0.9, draws=0)
    assert err.value.stage == "preprocess"


def test_missing_seed_reports_uncertainty_stage(paper):
    with pytest.raises(StageError) as err:
        paper_stub_report(paper, seed=None)
    assert err.value.stage == "uncertainty"


@pytest.mark.parametrize("bad", [1000.5, 1000.0, True, "3", np.float64(3.0)])
@pytest.mark.parametrize("argument", ["draws", "seed"])
def test_draws_and_seed_that_are_not_integers_report_uncertainty(paper, argument, bad):
    # any value operator.index refuses, and bool: a float seed would run
    # truncated and be recorded so in the provenance
    with pytest.raises(StageError, match=rf"^uncertainty: {argument} must be an integer, got "):
        paper_stub_report(paper, **{argument: bad})
    if argument == "seed":  # checked even where no draws use it
        with pytest.raises(StageError, match=r"^uncertainty: seed must be an integer, got "):
            paper_stub_report(paper, draws=0, seed=bad)
    # a NumPy integer is an integer
    paper_stub_report(paper, **{"draws": 10, "seed": 1, argument: np.int64(3)})


# every other count or seed argument of the library: its name, its module's
# error and an integer it accepts.  run_estimate's are checked above, and
# sample_betas' by tests/test_uncertainty.py, with values of the same kinds.
INTEGER_ARGUMENTS = {
    "ScenarioConfig n": (lambda v: make_config(n=v), "n", SimulatorError, 5),
    "ScenarioConfig seed": (lambda v: make_config(seed=v), "seed", SimulatorError, 3),
    "curve_samples count": (lambda v: market_curves.curve_samples(1.0, (-1.0, 1.0), v),
                            "count", market_curves.CurveError, 3),
}


@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_every_count_and_seed_takes_integers_alone(entry):
    call, name, error, good = INTEGER_ARGUMENTS[entry]
    for bad in (2.5, 3.0, True, "3", np.float64(3.0)):
        with pytest.raises(error, match=rf"{name} must be an integer, got "):
            call(bad)
    call(np.int64(good))  # a NumPy integer is an integer


def stub(**overrides):
    """The paper stub's report at 10 draws, with ``overrides``."""
    return paper_stub_report(PAPER, draws=10, seed=1, **overrides)


def interval_report(**overrides):
    """``derived_intervals`` of 10 draws of the paper's beta, with ``overrides``."""
    arguments = dict(beta_qm=5.36, r_m=0.029, mean_ln_flow=2.113, mean_ln_price=2.828)
    return derived_intervals(sample_betas(0.919, 0.018, 10, seed=1), **{**arguments, **overrides})


BOTH, HALF, ONE = (1.0, 0.5), (0.5,), (1.0,)
# every float argument of the library's entry points: a call that passes a
# value to it, the module's error, the stage that reads it (run_estimate
# alone), whether None is refused (it is not where None is the default that
# means "not given"), and the floats of 1.0 and 0.5 that lie in its range
REAL_ARGUMENTS = {
    "run_estimate beta_qm": (lambda v: stub(beta_qm=v), StageError, "beta_algebra", True, BOTH),
    "run_estimate r_m": (lambda v: stub(r_m=v), StageError, "beta_algebra", True, BOTH),
    "run_estimate level": (lambda v: stub(level=v), StageError, "uncertainty", True, HALF),
    "run_estimate slope": (lambda v: stub(slope=v), StageError, "beta_algebra", False, BOTH),
    "run_estimate slope_se": (lambda v: stub(slope_se=v), StageError, "econometrics", False,
                              BOTH),
    "run_estimate mean_ln_flow": (lambda v: stub(mean_ln_flow=v), StageError, "market_curves",
                                  False, BOTH),
    "run_estimate mean_ln_price": (lambda v: stub(mean_ln_price=v), StageError,
                                   "market_curves", False, BOTH),
    "beta_from_slope slope": (lambda v: beta_algebra.beta_from_slope(v, 0.1),
                              beta_algebra.BetaAlgebraError, None, True, BOTH),
    "beta_from_slope slope_se": (lambda v: beta_algebra.beta_from_slope(-0.9, v),
                                 beta_algebra.BetaAlgebraError, None, True, BOTH),
    "market_chain beta_xq": (lambda v: beta_algebra.market_chain(v, 5.36, 0.029),
                             beta_algebra.BetaAlgebraError, None, True, BOTH),
    "market_chain beta_qm": (lambda v: beta_algebra.market_chain(0.919, v, 0.029),
                             beta_algebra.BetaAlgebraError, None, True, BOTH),
    "market_chain r_m": (lambda v: beta_algebra.market_chain(0.919, 5.36, v),
                         beta_algebra.BetaAlgebraError, None, True, BOTH),
    "sample_betas mean": (lambda v: sample_betas(v, 0.1, 10, seed=1), UncertaintyError, None,
                          True, BOTH),
    "sample_betas se": (lambda v: sample_betas(5.0, v, 10, seed=1), UncertaintyError, None,
                        True, BOTH),
    "derived_intervals beta_qm": (lambda v: interval_report(beta_qm=v), UncertaintyError, None,
                                  True, BOTH),
    "derived_intervals r_m": (lambda v: interval_report(r_m=v), UncertaintyError, None, True,
                              BOTH),
    "derived_intervals mean_ln_flow": (lambda v: interval_report(mean_ln_flow=v),
                                       UncertaintyError, None, True, BOTH),
    "derived_intervals mean_ln_price": (lambda v: interval_report(mean_ln_price=v),
                                        UncertaintyError, None, True, BOTH),
    "derived_intervals level": (lambda v: interval_report(level=v), UncertaintyError, None,
                                True, HALF),
    "BetaDraws.from_values mean": (lambda v: BetaDraws.from_values([0.5, 0.6], v, 0.1),
                                   UncertaintyError, None, True, BOTH),
    "BetaDraws.from_values se": (lambda v: BetaDraws.from_values([0.5, 0.6], 1.0, v),
                                 UncertaintyError, None, True, BOTH),
    "equilibrium_deviation beta_xq": (lambda v: market_curves.equilibrium_deviation(v),
                                      CurveError, None, True, BOTH),
    "equilibrium_levels beta_xq": (lambda v: market_curves.equilibrium_levels(v, 2.0, 2.0),
                                   CurveError, None, True, BOTH),
    "equilibrium_levels mean_ln_flow": (
        lambda v: market_curves.equilibrium_levels(1.0, v, 2.0), CurveError, None, True, BOTH),
    "equilibrium_levels mean_ln_price": (
        lambda v: market_curves.equilibrium_levels(1.0, 2.0, v), CurveError, None, True, BOTH),
    "elasticities beta_xq": (lambda v: market_curves.elasticities(v), CurveError, None, True,
                             BOTH),
    "curve_samples beta_xq": (lambda v: market_curves.curve_samples(v, (-1.0, 1.0), 3).tolist(),
                              CurveError, None, True, BOTH),
    "curve_samples x_range[0]": (
        lambda v: market_curves.curve_samples(1.0, (v, 2.0), 3).tolist(), CurveError, None,
        True, BOTH),
    "curve_samples x_range[1]": (
        lambda v: market_curves.curve_samples(1.0, (-1.0, v), 3).tolist(), CurveError, None,
        True, BOTH),
    "zero_sum_integral upper": (lambda v: market_curves.zero_sum_integral(v), CurveError, None,
                                True, ONE),
    "zero_sum_integral tolerance": (lambda v: market_curves.zero_sum_integral(2.0, v),
                                    CurveError, None, True, BOTH),
    "shocked_equilibrium beta_xq": (lambda v: market_curves.shocked_equilibrium(v, 0.0, 0.1),
                                    CurveError, None, True, BOTH),
    "shocked_equilibrium eps_s": (lambda v: market_curves.shocked_equilibrium(1.0, v, 0.1),
                                  CurveError, None, True, BOTH),
    "shocked_equilibrium eps_d": (lambda v: market_curves.shocked_equilibrium(1.0, 0.1, v),
                                  CurveError, None, True, BOTH),
    "ShockModel sigma_s": (lambda v: ShockModel(sigma_s=v), CurveError, None, True, BOTH),
    "ShockModel sigma_d": (lambda v: ShockModel(sigma_d=v), CurveError, None, True, BOTH),
    "ScenarioConfig beta_xq": (lambda v: make_config(beta=v), SimulatorError, None, True, BOTH),
    "ScenarioConfig mean_ln_flow": (
        lambda v: ScenarioConfig(beta_xq=0.919, mean_ln_flow=v, mean_ln_price=2.0),
        SimulatorError, None, True, BOTH),
    "ScenarioConfig mean_ln_price": (
        lambda v: ScenarioConfig(beta_xq=0.919, mean_ln_flow=2.0, mean_ln_price=v),
        SimulatorError, None, True, BOTH),
    "ScenarioConfig iv_noise_sd": (lambda v: make_config(iv_noise_sd=v), SimulatorError, None,
                                   True, BOTH),
    "propagate_beta_draws mean_ln_flow": (
        lambda v: kernels.propagate_beta_draws([1.5], v, 2.0).tolist(), ValueError, None, True,
        BOTH),
    "propagate_beta_draws mean_ln_price": (
        lambda v: kernels.propagate_beta_draws([1.5], 2.0, v).tolist(), ValueError, None, True,
        BOTH),
    "equilibria_from_shocks beta": (
        lambda v: [a.tolist() for a in kernels.equilibria_from_shocks(v, [0.1], [0.1])],
        ValueError, None, True, BOTH),
    "student_t_quantile p": (lambda v: kernels.student_t_quantile(v, 16), ValueError, None,
                             True, HALF),
    "student_t_quantile df": (lambda v: kernels.student_t_quantile(0.9, v), ValueError, None,
                              True, BOTH),
    "t_confidence_interval coef": (lambda v: econometrics.t_confidence_interval(v, 0.1, 16, 0.95),
                                   econometrics.RegressionError, None, True, BOTH),
    "t_confidence_interval se": (lambda v: econometrics.t_confidence_interval(0.0, v, 16, 0.95),
                                 econometrics.RegressionError, None, True, BOTH),
    "t_confidence_interval df": (lambda v: econometrics.t_confidence_interval(0.0, 1.0, v, 0.95),
                                 econometrics.RegressionError, None, True, ONE),
    "t_confidence_interval level": (
        lambda v: econometrics.t_confidence_interval(0.0, 1.0, 16, v),
        econometrics.RegressionError, None, True, HALF),
}
# The values each float argument refuses: a bool, a string, NaN, +-inf and an
# int beyond the float range; and the values that stand for a float and
# must give its bits.
NOT_REAL = (True, np.bool_(True), "1.0", math.nan, math.inf, -math.inf, 10**400)
SAME_FLOAT = {1.0: (1, np.int64(1)), 0.5: (np.float64(0.5),)}


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_every_float_argument_takes_real_numbers_alone(entry):
    call, error, stage, refuses_none, floats = REAL_ARGUMENTS[entry]
    for bad in NOT_REAL + (None,) * refuses_none:
        with pytest.raises(error, match=r" must be (a real number|finite|in \(0, 1\))") as err:
            call(bad)
        assert getattr(err.value, "stage", None) == stage, bad
    # repr shows each float's shortest round-trip digits and its type
    for number in floats:
        expected = repr(call(number))
        for value in SAME_FLOAT[number]:
            assert repr(call(value)) == expected, value


@pytest.mark.parametrize("call, error, stage", [
    (lambda: derived_intervals(None, 5.36, 0.029, 2.0, 2.0), UncertaintyError, None),
    (lambda: market_curves.curve_samples(1.0, (1.0,), 3), CurveError, None),
    (lambda: market_curves.curve_samples(1.0, None, 3), CurveError, None),
    (lambda: run_estimate("x", beta_qm=5, r_m=0.03, draws=0), StageError, "panel_io"),
    (lambda: ScenarioConfig(beta_xq=1.0, mean_ln_flow=1.0, mean_ln_price=1.0, shocks=None),
     SimulatorError, None),
], ids=["derived_intervals draws", "curve_samples short range", "curve_samples no range",
        "run_estimate panel", "ScenarioConfig shocks"])
def test_arguments_that_are_not_numbers_raise_the_modules_error(call, error, stage):
    # not a bare AttributeError, IndexError or TypeError, nor accepted
    with pytest.raises(error, match=r" must be a (BetaDraws table|pair of real numbers|RawPanel"
                                    r"|ShockModel), got ") as err:
        call()
    assert getattr(err.value, "stage", None) == stage


def test_numpy_float_arguments_render_the_bytes_of_their_floats(paper):
    expected = render_report(paper_stub_report(paper), "json")
    assert render_report(paper_stub_report(paper, r_m=np.float64(0.029)), "json") == expected
    floats = {name: np.float64(paper[name]) for name in (
        "beta_qm", "r_m", "slope", "slope_se", "mean_ln_flow", "mean_ln_price")}
    report = paper_stub_report(paper, level=np.float64(0.9), **floats)
    assert render_report(report, "json") == expected


# Functions that convert or test a parameter by hand, each for its reason:
HAND_CHECKED = {
    "kernels._real",  # the one check itself
    "cli.parse_rate",  # the text argparse hands over for --r-m
    "pipeline._pct",  # a rate of a finished report
    "beta_algebra._finite",  # a value market_chain formed from checked betas
    "econometrics._t_test",  # a fit's coefficient, SE and df
}
HAND_CHECKS = {"float", "math.isfinite", "math.isinf", "math.isnan"}


def hand_checks(source: str, module: str) -> list[str]:
    """Each call of a ``HAND_CHECKS`` function on a parameter of the function
    around it, or on a field ``self.x`` in a ``__post_init__``, as
    ``module.function: call``."""
    found = []

    def visit(node, where, parameters, post_init):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                name = getattr(child, "name", "<lambda>")
                visit(child, f"{where}.{name}",
                      {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs},
                      name == "__post_init__")
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, f"{where}.{child.name}", set(), False)
                continue
            if (isinstance(child, ast.Call) and ast.unparse(child.func) in HAND_CHECKS
                    and len(child.args) == 1):
                arg = child.args[0]
                if (isinstance(arg, ast.Name) and arg.id in parameters
                        or post_init and isinstance(arg, ast.Attribute)
                        and ast.unparse(arg.value) == "self"):
                    found.append(f"{where}: {ast.unparse(child)}")
            visit(child, where, parameters, post_init)

    visit(ast.parse(source), module, set(), False)
    return found


def test_hand_checks_finds_parameters_and_fields():
    source = """
import math
def f(p, *, q):
    r = float(q)
    return math.isnan(r) or float(p[0]) or math.isinf(p)
class C:
    def __post_init__(self):
        math.isfinite(self.x)
    def g(self):
        return float(self.x)
"""
    assert hand_checks(source, "m") == [
        "m.f: float(q)", "m.f: math.isinf(p)", "m.C.__post_init__: math.isfinite(self.x)"]


def test_every_float_argument_goes_through_the_one_check():
    # kernels._real is the one check; a float() or isfinite of a parameter
    # elsewhere is a check written by hand, or none at all
    found = [site for path in sorted(Path(natbeta.__file__).parent.glob("*.py"))
             for site in hand_checks(path.read_text(), path.stem)]
    assert [site for site in found if site.split(":")[0] not in HAND_CHECKED] == []
    # each exemption is still needed
    assert {site.split(":")[0] for site in found} == HAND_CHECKED


def test_bad_beta_qm_reports_beta_algebra():
    with pytest.raises(StageError) as err:
        run_estimate(None, beta_qm=-2.0, r_m=0.029, slope=-0.9, draws=0,
                     mean_ln_flow=0.0, mean_ln_price=0.0)
    assert err.value.stage == "beta_algebra"


def test_zero_slope_reports_beta_algebra(paper):
    with pytest.raises(StageError) as err:
        paper_stub_report(paper, slope=0.0, draws=0, seed=None)
    assert err.value.stage == "beta_algebra"


@pytest.mark.parametrize("instruments", [None, 3, ["iv_sup1"]])
def test_instruments_that_are_no_selection_report_econometrics(instruments):
    panel = synthesize_panel(make_config(n=30, seed=2))
    with pytest.raises(StageError, match="instruments must be 'auto', 'lags:N' or column "
                                         "names") as err:
        run_estimate(panel, beta_qm=2.0, r_m=0.03, draws=0, instruments=instruments)
    assert err.value.stage == "econometrics"


@pytest.mark.parametrize("n,diagnostics", [
    (5, []), (6, ["reset"]), (7, ["reset"]), (8, ["jarque_bera", "reset"]),
])
def test_each_diagnostic_needs_the_rows_its_test_admits(n, diagnostics):
    # stage two fits three coefficients and RESET adds two: five rows leave
    # it no degree of freedom, six leave one; Jarque-Bera needs eight
    # residuals, so seven rows leave it out of the diagnostics
    panel = synthesize_panel(make_config(n=n, seed=2))
    report = run_estimate(panel, beta_qm=2.0, r_m=0.03, draws=0, instruments="iv_sup1")
    assert sorted(report.regression["diagnostics"]) == diagnostics


def test_instrument_selection_named_and_missing():
    panel = synthesize_panel(make_config(n=30, seed=2))
    report = run_estimate(panel, beta_qm=2.0, r_m=0.03, draws=0,
                          instruments="iv_sup2,iv_sup1")
    assert report.regression["instruments"] == "panel columns iv_sup2,iv_sup1"
    with pytest.raises(StageError) as err:
        run_estimate(panel, beta_qm=2.0, r_m=0.03, draws=0, instruments="iv_nope")
    assert err.value.stage == "econometrics"


def test_instrument_selection_lags():
    panel = synthesize_panel(make_config(n=40, seed=3))
    report = run_estimate(panel, beta_qm=2.0, r_m=0.03, draws=0, instruments="lags:4")
    assert report.regression["instruments"] == "lags:4"
    assert report.regression["second_stage"]["n_obs"] == 36


def test_auto_instruments_need_iv_columns():
    # lags of iid-shocked prices are irrelevant instruments: a fallback to
    # lags:4 reported beta_xq 0.325 for this panel's true 0.919, with no
    # warning about the instruments
    shocked = synthesize_panel(make_config(sigma_s=0.05, sigma_d=0.05, n=19, seed=0))
    panel = dataclasses.replace(shocked, instruments={})
    with pytest.raises(StageError) as err:
        run_estimate(panel, beta_qm=2.0, r_m=0.03, draws=0, instruments="auto")
    assert err.value.stage == "econometrics"
    assert "--instruments lags:N" in err.value.hint
    report = run_estimate(panel, beta_qm=2.0, r_m=0.03, draws=0, instruments="lags:2")
    assert report.regression["instruments"] == "lags:2"


def test_auto_instruments_on_a_simulated_panel_are_the_two_supply_shifters():
    panel = synthesize_panel(make_config(sigma_s=0.05, sigma_d=0.05, n=19, seed=0))
    report = run_estimate(panel, beta_qm=2.0, r_m=0.03, draws=0, instruments="auto")
    assert report.regression["instruments"] == "panel columns iv_sup1,iv_sup2"


def test_weak_first_stage_warns():
    # the supply shifters are strong at n=200, a lag of iid-shocked prices is not
    panel = synthesize_panel(make_config(sigma_s=0.05, sigma_d=0.05, n=200, seed=0))
    for selection, weak in (("iv_sup1,iv_sup2", False), ("lags:1", True)):
        report = run_estimate(panel, beta_qm=2.0, r_m=0.03, draws=0, instruments=selection)
        first_f = report.regression["first_stage"]["f_stat"]
        assert (first_f < 10) is weak
        assert any(w.startswith("weak_instruments:") for w in report.warnings) is weak


def test_regression_level_flag_restates_the_econometrics_level(paper):
    assert pipeline.REGRESSION_LEVEL == econometrics.LEVEL
    report = paper_stub_report(paper, draws=0)
    assert report.provenance["flags"]["regression_level"] == econometrics.LEVEL


def test_positive_slope_branch_rescales_se(paper):
    # reciprocal rule: beta = 1/slope, se scaled by the delta method
    report = paper_stub_report(paper, slope=2.0, slope_se=0.1, draws=0, seed=None)
    assert report.betas["beta_xq"] == pytest.approx(0.5)
    report2 = paper_stub_report(paper, slope=2.0, slope_se=0.1, draws=5_000, seed=3)
    lo, hi = report2.intervals["bounds"]["beta_xm"]
    half_width = (hi - lo) / 2
    assert half_width == pytest.approx(1.645 * (0.1 / 4.0) * paper["beta_qm"], rel=0.05)


@pytest.mark.parametrize("slope", [1e-200, 1e-160])
def test_positive_slope_whose_se_overflows_names_the_reciprocal_branch(paper, slope):
    # slope**2 underflows to 0 at 1e-200, and se/slope**2 overflows at
    # 1e-160; without draws the se goes unused
    with pytest.raises(StageError, match=rf"^uncertainty: the beta's se, se/slope\*\*2 for "
                                         rf"the reciprocal of positive slope {slope:g}, "
                                         rf"overflows to inf$"):
        paper_stub_report(paper, slope=slope, slope_se=0.1, draws=10, seed=1)
    assert paper_stub_report(paper, slope=slope, slope_se=0.1, draws=0).intervals is None


def test_json_round_trip(paper):
    report = paper_stub_report(paper)
    text = render_report(report, "json")
    assert json.loads(text) == report.to_jsonable()


def test_numpy_integer_seed_renders_the_bytes_of_its_int(paper):
    report = paper_stub_report(paper, seed=np.int64(7))
    assert render_report(report, "json") == render_report(paper_stub_report(paper, seed=7), "json")


def test_json_byte_determinism(paper):
    a = render_report(paper_stub_report(paper), "json")
    b = render_report(paper_stub_report(paper), "json")
    assert a == b
    c = render_report(paper_stub_report(paper, seed=100), "json")
    assert a != c


def test_text_contains_interval_table_when_present(paper):
    text = render_report(paper_stub_report(paper), "text")
    assert "90% confidence interval" in text
    for name in ("ln_price", "ln_quantity", "ln_user_cost", "beta_xm", "r_x"):
        assert name in text
    assert "14.3%" in text  # rates rendered as percent


def test_text_omits_interval_table_without_draws(paper):
    text = render_report(paper_stub_report(paper, draws=0, seed=None), "text")
    assert "confidence interval of estimates" not in text


def test_csv_render(paper):
    text = render_report(paper_stub_report(paper), "csv")
    lines = text.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "betas.beta_xm" in keys
    assert "equilibrium.ln_price" in keys


def test_csv_render_bytes_are_pinned(capsys):
    # SHA-256 of the paper stub's CSV report; its rows follow the report's
    # field order, which the JSON digests (sorted keys) do not pin
    code = main(["estimate", "--beta-qm", "5.36", "--r-m", "2.9%", "--mean-ln-flow", "2.113",
                 "--mean-ln-price", "2.828", "--slope", "-0.919", "--slope-se", "0.018",
                 "--seed", "7", "--draws", "100000", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cacd8da0602ebb5b7647c2ee35b341d605a4c666496724e86e15a06b01d019ba")


def test_unknown_format_rejected(paper):
    with pytest.raises(ValueError, match="format"):
        render_report(paper_stub_report(paper), "yaml")


def test_out_of_range_equilibrium_warns():
    panel = synthesize_panel(make_config(beta=3.0, sigma_d=0.01, n=50, seed=4))
    report = run_estimate(panel, beta_qm=2.0, r_m=0.03, draws=0)
    assert any("outside observed range" in w for w in report.warnings)
    text = render_report(report, "text")
    assert "warning:" in text


def test_report_warnings_are_pinned_in_order():
    # the README's simulated panel misses beta by 3.4 SE, so its equilibrium
    # leaves both observed ranges, and 10 draws leave 0.5 beyond each endpoint
    sparse_tail = ("sparse_tail: 0.5 of 10 draws lie beyond each endpoint of the 0.9 "
                   "interval (< 10); increase draws")
    panel = synthesize_panel(make_config(beta=0.919, sigma_s=0.05, sigma_d=0.05, n=19, seed=42))
    report = run_estimate(panel, beta_qm=5.36, r_m=0.029, draws=10, seed=1)
    assert report.warnings == [
        "equilibrium ln quantity 2.4423 outside observed range [2.0627, 2.1664]",
        "equilibrium ln price 1.8474 outside observed range [2.7044, 2.9066]",
        sparse_tail,
    ]
    # lags of iid-shocked prices are weak instruments, whose warning comes first
    report = run_estimate(panel, beta_qm=5.36, r_m=0.029, draws=10, seed=1,
                          instruments="lags:2")
    assert report.warnings == [
        "weak_instruments: first-stage F 0.739 < 10; the slope's interval may undercover",
        "equilibrium ln quantity 2.4317 outside observed range [2.0627, 2.1664]",
        "equilibrium ln price 1.3966 outside observed range [2.7044, 2.9066]",
        sparse_tail,
    ]
    assert render_report(report, "text").splitlines()[-4:] == [
        f"warning: {w}" for w in report.warnings]


def test_range_warnings_compare_the_equilibrium_with_the_observed_logs():
    # at beta 3 and both log means 2: ln quantity 1.6704, ln price 2.1099
    equilibrium = dict(vars(market_curves.equilibrium_levels(3.0, 2.0, 2.0)))

    def warnings(lo, hi):
        bounds = {"min": lo, "max": hi}
        return pipeline._report_warnings({"descriptives": {"ln_flow": bounds, "ln_price": bounds},
                                          "equilibrium": equilibrium})

    assert warnings(-10.0, 10.0) == []
    assert warnings(1.95, 2.05) == [
        "equilibrium ln quantity 1.6704 outside observed range [1.9500, 2.0500]",
        "equilibrium ln price 2.1099 outside observed range [1.9500, 2.0500]",
    ]


def test_report_numeric_fields_finite(paper):
    data = paper_stub_report(paper).to_jsonable()

    def walk(obj):
        if isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)
        elif isinstance(obj, float):
            assert np.isfinite(obj)

    walk(data)


JSON_FLOATS = [-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]
json_scalars = (st.none() | st.booleans()
                | st.integers() | st.sampled_from([10**40, -(2**64)])
                | st.floats() | st.sampled_from(JSON_FLOATS)
                | st.floats().map(np.float64)
                | st.text(st.characters(max_codepoint=0x2FFF), max_size=6))
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(json_values)
@example({"a": [], "b": {}, "c": (), "d": [{}, [[]]]})
@example(["\u00e9\u2603", "\x00\x1f\"\\\n", "\ud83d\ude00"])
@example([10**40, -(2**64), True, False, None, 0])
@example({"x": JSON_FLOATS})
@example({"z": 1, "a": {"y": 2.5, "b": [1e-7, 123456789.0]}})
def test_json_text_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


# obj5-obj8 were non-string-key cases; they and the tuple key that obj3 held
# are in test_json_text_takes_only_string_keys
@pytest.mark.parametrize("obj", [
    np.int64(3), {"a": np.float32(1.0)}, [np.bool_(True)], {1, 2}, {1: "a", "b": 2}, object(),
], ids=["obj0", "obj1", "obj2", "obj3", "obj4", "obj9"])
def test_json_text_keeps_json_dumps_types_and_errors(obj):
    try:
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except TypeError as exc:
        with pytest.raises(TypeError, match=f"^{re.escape(str(exc))}$"):
            _json_text(obj)
    else:
        assert _json_text(obj) == expected


@pytest.mark.parametrize("obj", [
    {(1,): 2}, {1.5: 1, True: 2, -(10**30): 3, math.inf: 4}, {None: 1}, {False: None},
    {b"k": 1},
], ids=["tuple", "numbers", "none", "bool", "bytes"])
def test_json_text_takes_only_string_keys(obj):
    # json.dumps turns int, float, bool and None keys into strings; no
    # natbeta block has a key that is not a string
    with pytest.raises(TypeError):
        _json_text(obj)
