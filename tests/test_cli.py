import dataclasses
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import natbeta
from natbeta import cli, kernels, market_curves, uncertainty
from natbeta.cli import main, parse_rate
from natbeta.panel_io import parse_panel, serialize_panel
from natbeta.simulator import synthesize_panel

from conftest import STUB_SEED_TWO_PAST_ONE, make_config

PAPER_STUB = [
    "estimate",
    "--beta-qm", "5.36",
    "--r-m", "2.9%",
    "--slope", "-0.919",
    "--slope-se", "0.018",
    "--mean-ln-flow", "2.113",
    "--mean-ln-price", "2.828",
    "--seed", "17",
    "--draws", "20000",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this natbeta."""
    src = str(Path(natbeta.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_loads_no_test_or_scipy_modules():
    # importing scipy.special alone adds about 0.33 s of CPU to a cold start
    code = ("import natbeta.cli, sys; "
            "print(sorted({'scipy', 'mpmath', 'hypothesis'} & {m.split('.')[0] for m in sys.modules}))")
    assert fresh_python(code) == "[]\n"


# Prints, as JSON, the natbeta submodules, ``csv`` and ``numpy.polynomial``
# loaded after ``import natbeta`` and after running the JSON-encoded argv
# through ``cli.main``.
LOADED_MODULES = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("natbeta.") or m in ("csv", "numpy.polynomial"))

import natbeta
bare = loaded()
from natbeta.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(json.loads(sys.argv[1])) == 0
print(json.dumps([bare, loaded()]))
"""


def test_each_command_loads_only_the_modules_of_its_stages(tmp_path):
    # a cold process compiles every module it imports when no bytecode is cached
    panel = tmp_path / "panel.csv"
    panel.write_text(serialize_panel(synthesize_panel(make_config(n=19, seed=31))))
    stub = PAPER_STUB[:-2] + ["--draws", "1000"]
    bare, after_stub = json.loads(fresh_python(LOADED_MODULES, json.dumps(stub)))
    assert bare == []
    assert "natbeta.uncertainty" in after_stub
    for module in ("natbeta.econometrics", "natbeta.preprocess", "natbeta.panel_io",
                   "natbeta.simulator", "csv", "numpy.polynomial"):
        assert module not in after_stub
    panel_run = ["estimate", "--input", str(panel), "--beta-qm", "5.36", "--r-m", "2.9%",
                 "--draws", "0"]
    _, after_panel = json.loads(fresh_python(LOADED_MODULES, json.dumps(panel_run)))
    assert "natbeta.econometrics" in after_panel
    assert "natbeta.uncertainty" not in after_panel
    assert "natbeta.simulator" not in after_panel
    # importing it adds about 5 ms to a cold start; only zero_sum_integral needs it
    assert "numpy.polynomial" not in after_panel


# Prints the minor page faults per op of the stub at the slope, slope SE and
# draw count given as arguments, over 20 ops after 5 warm-up ones.
MINOR_FAULTS = """
import resource, sys
from natbeta import pipeline

slope, slope_se, draws = float(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3])

def op(seed):
    report = pipeline.run_estimate(None, beta_qm=5.36, r_m=0.029, slope=slope, slope_se=slope_se,
                                   mean_ln_flow=2.113, mean_ln_price=2.828, draws=draws,
                                   seed=seed)
    pipeline.render_report(report, "json")

for seed in range(5):
    op(seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(5, 25):
    op(seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="glibc's heap trimming is what the fault count shows")
def test_paper_stub_ops_fault_no_heap_back_in():
    # About 0.05 faults per op at the paper stub and 0.5 at the inputs of
    # the truncated_20k benchmark workload.  One more n-long array alive per
    # op made glibc trim the heap and fault it back in each time, 358 per op
    # at 100k draws and ~200 at 20k, as the per-draw table of ln_quantity did
    # at the truncated_20k inputs before its endpoints came from rank windows.
    for argv in (("-0.919", "0.018", "100000"), ("-0.1", "0.1", "20000")):
        assert float(fresh_python(MINOR_FAULTS, *argv)) < 50, argv


@pytest.mark.parametrize("module", [
    "beta_algebra", "econometrics", "kernels", "market_curves", "panel_io", "pipeline",
    "preprocess", "simulator", "uncertainty",
])
def test_each_modules_all_names_what_it_defines(module):
    # callers import each public name from the module that defines it
    defining = importlib.import_module(f"natbeta.{module}")
    names = defining.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(defining, name).__module__ == defining.__name__, name


def test_parse_rate_forms():
    assert parse_rate("0.029") == 0.029
    assert parse_rate("2.9%") == pytest.approx(0.029)
    assert parse_rate(" 14.3% ") == pytest.approx(0.143)


def test_estimate_stub_json(capsys):
    code, out, err = run_cli(capsys, PAPER_STUB + ["--format", "json"])
    assert code == 0, err
    data = json.loads(out)
    assert data["betas"]["beta_xm"] == pytest.approx(4.93, abs=0.01)
    assert data["returns"]["r_x"] == pytest.approx(0.143, abs=0.001)
    assert data["provenance"]["regression_stub"] is True


def test_estimate_byte_determinism(capsys):
    code1, out1, _ = run_cli(capsys, PAPER_STUB + ["--format", "json"])
    code2, out2, _ = run_cli(capsys, PAPER_STUB + ["--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_sparse_tail_warning(capsys):
    code, out, err = run_cli(capsys, PAPER_STUB + ["--level", "0.999", "--draws", "10",
                                                   "--format", "json"])
    assert code == 0, err
    warnings = json.loads(out)["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith("sparse_tail:")


def test_paper_stub_100k_json_matches_numpy_quantile_bounds(capsys, monkeypatch):
    argv = PAPER_STUB + ["--draws", "100000", "--format", "json"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert json.loads(out)["warnings"] == []

    sorted_bounds = uncertainty.derived_intervals

    def quantile_bounds(draws, beta_qm, r_m, mean_ln_flow, mean_ln_price, level):
        betas = draws.betas(draws.values)
        report = sorted_bounds(draws, beta_qm, r_m, mean_ln_flow, mean_ln_price, level=level)
        beta_xm = betas * beta_qm
        table = np.column_stack([
            kernels.propagate_beta_draws(betas, mean_ln_flow, mean_ln_price),
            beta_xm, beta_xm * r_m])
        lo_q = 0.5 * (1.0 - level)
        q = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
        bounds = {name: (float(q[0, j]), float(q[1, j]))
                  for j, name in enumerate(uncertainty.QUANTITY_NAMES)}
        return dataclasses.replace(report, bounds=bounds)

    monkeypatch.setattr(uncertainty, "derived_intervals", quantile_bounds)
    code, reference, err = run_cli(capsys, argv)
    assert code == 0, err
    assert out == reference


STUB_MARKET = ["--beta-qm", "5.36", "--mean-ln-flow", "2.113", "--mean-ln-price", "2.828"]


@pytest.mark.parametrize("argv,digest", [
    pytest.param(["estimate", *STUB_MARKET, "--r-m", "2.9%", "--slope", "-0.919",
                  "--slope-se", "0.018", "--seed", "7", "--draws", "100000"],
                 "154bce61da59e0268b4d4069433476ce0ac117c3ab6c23c20b2496d9df5f563b",
                 id="paper-stub-100k"),
    # two of these draws lie past b = 1, where ln_user_cost turns
    pytest.param(["estimate", *STUB_MARKET, "--r-m", "2.9%", "--slope", "-0.919", "--slope-se",
                  "0.018", "--seed", str(STUB_SEED_TWO_PAST_ONE), "--draws", "100000"],
                 "df39744e23a382bace6a042066ca1aa64790372ad0d92d33b02a5b762e1958c3",
                 id="paper-stub-100k-past-a-turning-point"),
    # the inputs of the truncated_20k benchmark workload: ~16% redrawn
    pytest.param(["estimate", *STUB_MARKET, "--r-m", "2.9%", "--slope", "-0.1",
                  "--slope-se", "0.1", "--seed", "7", "--draws", "20000"],
                 "94b49edef5efb53ab646499f2eab2ece3a81d7fbb0f1b057655cb7b4b92d71a0",
                 id="truncated-20k"),
    pytest.param(["estimate", *STUB_MARKET, "--r-m=-3%", "--slope", "-0.919",
                  "--slope-se", "0.018", "--seed", "7", "--draws", "20000"],
                 "c685d6c7b5f64946b9629307c0b8aa141a6f4a0ab8c9761664dfa744f14d5a18",
                 id="negative-r-m"),
    # a positive slope: the reciprocal beta and the delta-method se/slope^2
    pytest.param(["estimate", *STUB_MARKET, "--r-m", "2.9%", "--slope", "2.0",
                  "--slope-se", "0.1", "--seed", "7", "--draws", "20000"],
                 "a55105c537a4a352383b577461380382673556b86852759a48b20e454878908d",
                 id="positive-slope"),
    pytest.param(["estimate", "--input", "panel.csv", "--beta-qm", "5.36", "--r-m", "0.029",
                  "--seed", "2"],
                 "b6ea5685c05b4d96929ffece9cf2b35ce4a4ed5a7bff7cbd959d3071f3e39a9b",
                 id="panel-input"),
    pytest.param(["equilibrium", "--beta-xq", "1"],
                 "cbf1852613e9a5f4ef315a7a52952aab8197f4d61b5d7bbcfdf24e8a52bab3d0",
                 id="equilibrium-unit-beta"),
    # draws that straddle the turning point of ln_price (b ~ 1.895), and of
    # ln_quantity and ln_user_cost (b ~ 0.301 and 1) with r_x descending
    pytest.param(["ci", "--beta-xq", "1.9", "--beta-xq-se", "0.3", *STUB_MARKET,
                  "--r-m", "2.9%", "--seed", "7", "--draws", "100000"],
                 "54e97c60b7f66ddae41288361eec7276877ef19b1e785e594932532366347316",
                 id="ci-price-turning-point"),
    pytest.param(["ci", "--beta-xq", "1.0", "--beta-xq-se", "0.05", *STUB_MARKET,
                  "--r-m=-3%", "--seed", "7", "--draws", "100000"],
                 "38fc1ec46d172582ca9f61964bb11b1d9d72437cbb869655a0d2c869676ae643",
                 id="ci-user-cost-turning-point"),
    # draws past the turning points of ln_user_cost (b = 1 and ~ 4.716) whose
    # values fall among the others': a descending quantity whose endpoints
    # come from windows of the beta's order statistics on both sides
    pytest.param(["ci", "--beta-xq", "3.0", "--beta-xq-se", "0.8", *STUB_MARKET,
                  "--r-m", "2.9%", "--seed", "7", "--draws", "20000"],
                 "28c16858b9f963d7a6578e5b284470e5c9d28cf911380c7a10942875be0e07bf",
                 id="ci-descending-windows"),
    # the two cells of the coverage_sweep benchmark workload: both shocks,
    # the supply-shifter instruments
    pytest.param(["estimate", "--input", "shocked19.csv", "--beta-qm", "5.36", "--r-m", "0.029",
                  "--instruments", "iv_sup1,iv_sup2", "--draws", "0"],
                 "d366eda9cfdffda70a6d7953fd9152fb2becfec72daa62345e90422248f40a1e",
                 id="coverage-panel-19"),
    pytest.param(["estimate", "--input", "shocked200.csv", "--beta-qm", "5.36", "--r-m", "0.029",
                  "--instruments", "iv_sup1,iv_sup2", "--draws", "0"],
                 "dd0568c62d04de27217aceef26cfb9c914123021af2a8914b649b0e23a9c32c8",
                 id="coverage-panel-200"),
])
def test_json_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, digest):
    # SHA-256 of each report, so that a refactor that should keep every
    # bit shows any change of a bit here; CHANGES.md records why each
    # digest was last renewed
    monkeypatch.chdir(tmp_path)
    panel = synthesize_panel(make_config(beta=0.919, n=19, seed=31))
    (tmp_path / "panel.csv").write_text(serialize_panel(panel))
    for n in (19, 200):
        shocked = synthesize_panel(make_config(beta=0.919, sigma_s=0.05, sigma_d=0.05,
                                               n=n, seed=31))
        (tmp_path / f"shocked{n}.csv").write_text(serialize_panel(shocked))
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("spaced,joined", [
    (["--r-m", "-3%", "--slope", "-0.919"], ["--r-m=-3%", "--slope", "-0.919"]),
    (["--r-m", "2.9%", "--slope", "-5e-1"], ["--r-m", "2.9%", "--slope=-5e-1"]),
])
def test_negative_values_in_exponent_or_percent_form_follow_their_flag(capsys, spaced, joined):
    # a token that starts with '-' and a digit is a value, as the joined form is
    rest = [*STUB_MARKET, "--slope-se", "0.018", "--seed", "7", "--draws", "1000",
            "--format", "json"]
    code, out, err = run_cli(capsys, ["estimate", *spaced, *rest])
    assert code == 0, err
    assert (code, out, err) == run_cli(capsys, ["estimate", *joined, *rest])


def test_a_flag_before_another_flag_still_lacks_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", *STUB_MARKET, "--r-m", "2.9%", "--slope", "--draws", "5"])
    assert exc.value.code == 2
    assert "argument --slope: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("fmt,digest", [
    pytest.param("csv", "2de6c006ead48dafc67d809e87985999c239b1843a826f16c2da265d5876aff8",
                 id="csv"),
    pytest.param("text", "8ad4c6226cdd41367f0e961e5d7c861ec662851e117c54b2070dc23f2e485a59",
                 id="text"),
])
def test_panel_report_csv_and_text_bytes_are_pinned(tmp_path, monkeypatch, capsys, fmt, digest):
    # SHA-256 of the coverage-panel-19 report as CSV and text; the CSV rows
    # follow the regression block's key order (coefficient rows, then the
    # diagnostics), which the sorted-key JSON digests do not pin
    monkeypatch.chdir(tmp_path)
    shocked = synthesize_panel(make_config(beta=0.919, sigma_s=0.05, sigma_d=0.05,
                                           n=19, seed=31))
    (tmp_path / "shocked19.csv").write_text(serialize_panel(shocked))
    code, out, err = run_cli(capsys, [
        "estimate", "--input", "shocked19.csv", "--beta-qm", "5.36", "--r-m", "0.029",
        "--instruments", "iv_sup1,iv_sup2", "--draws", "0", "--format", fmt])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_estimate_on_panel_file(tmp_path, capsys):
    panel = synthesize_panel(make_config(beta=0.919, n=19, seed=31))
    path = tmp_path / "panel.csv"
    path.write_text(serialize_panel(panel))
    code, out, err = run_cli(capsys, [
        "estimate", "--input", str(path), "--beta-qm", "5.36", "--r-m", "0.029",
        "--seed", "2", "--format", "json",
    ])
    assert code == 0, err
    data = json.loads(out)
    assert data["betas"]["beta_xq"] == pytest.approx(0.919, abs=1e-6)
    assert data["descriptives"]["ln_flow"]["n_obs"] == 19
    assert data["regression"]["second_stage"]["n_obs"] == 19


def test_estimate_stage_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("year,value,flow\n2001,2,1\n2002,8,0\n2003,9,2\n2004,1,1\n2005,2,2\n")
    code, out, err = run_cli(capsys, [
        "estimate", "--input", str(path), "--beta-qm", "5.36", "--r-m", "0.029",
        "--draws", "0",
    ])
    assert code == 1
    assert "preprocess" in err
    assert "non-positive value at row 2" in err


def test_repeated_instrument_column_is_a_stage_error(tmp_path, capsys):
    panel = synthesize_panel(make_config(beta=0.919, sigma_s=0.05, n=19, seed=31))
    path = tmp_path / "panel.csv"
    path.write_text(serialize_panel(panel))
    code, out, err = run_cli(capsys, [
        "estimate", "--input", str(path), "--beta-qm", "5.36", "--r-m", "0.029",
        "--instruments", "iv_sup1,iv_sup1", "--draws", "0",
    ])
    assert (code, out) == (1, "")
    assert err.startswith("error: econometrics: instrument column selected more than once: "
                          "iv_sup1\n")


# Stand for panel files, one whose flow in row 1 is -1.0, one whose value
# and flow norms overflow, an empty one, one whose header repeats an iv_
# column and a valid 6-row one, and for a path in a missing directory.
BAD_PANEL = "<non-positive panel>"
OVERFLOW_PANEL = "<overflowing panel>"
EMPTY_PANEL = "<empty panel>"
DUPLICATE_IV_PANEL = "<duplicate iv_ header>"
SIX_ROW_PANEL = "<valid 6-row panel>"
UNWRITABLE = "<unwritable path>"
PANEL_ESTIMATE = ["estimate", "--beta-qm=1", "--r-m=0.03", "--draws=0", "--input"]


# each case names the failing stage, or the stage and the whole message
@pytest.mark.parametrize("argv,error", [
    (PAPER_STUB + ["--beta-qm", "nan"], "beta_algebra"),
    (PAPER_STUB + ["--draws", "-5"], "uncertainty"),
    (["ci", "--beta-xq", "0.919", "--beta-xq-se", "0.018", "--beta-qm", "inf",
      "--r-m", "2.9%", "--mean-ln-flow", "2.113", "--mean-ln-price", "2.828",
      "--draws", "2000", "--seed", "12"], "uncertainty"),
    (["equilibrium", "--beta-xq", "0.5", "--mean-ln-price", "800"], "market_curves"),
    (["curves", "--beta-xq", "0.5", "--mean-ln-price", "800"], "market_curves"),
    (PAPER_STUB + ["--mean-ln-price", "800"], "market_curves"),
    (PAPER_STUB + ["--draws", "0", "--level", "nan"], "uncertainty"),
    (PAPER_STUB + ["--draws", "0", "--level", "1.5"], "uncertainty"),
    (["ci", "--beta-xq", "2", "--beta-xq-se", "0.1", "--beta-qm", "1e308",
      "--r-m", "0.03", "--mean-ln-flow", "1", "--mean-ln-price", "1",
      "--seed", "1", "--draws", "1000", "--format", "json"], "uncertainty"),
    (["describe", "--input", BAD_PANEL, "--format", "json"], "preprocess"),
    (["describe", "--input", BAD_PANEL, "--format", "text"], "preprocess"),
    (["equilibrium", "--beta-xq", "0.5", "--mean-ln-price", "-800", "--format", "text"],
     "market_curves"),
    (["curves", "--beta-xq", "0.5", "--mean-ln-price", "-800"], "market_curves"),
    (PAPER_STUB + ["--mean-ln-price", "-800"], "market_curves"),
    (PAPER_STUB + ["--slope-se=nan", "--draws=0"], "econometrics"),
    (PAPER_STUB + ["--slope-se=inf", "--draws=0"], "econometrics"),
    (["simulate", "--beta-xq=1", "--sigma-s=1e308", "--seed=1", "--out=-"], "simulator"),
    (["describe", "--input", OVERFLOW_PANEL, "--format", "json"], "preprocess"),
    (["estimate", "--input", OVERFLOW_PANEL, "--beta-qm=1", "--r-m=0.03", "--draws=0"],
     "preprocess"),
    (["curves", "--beta-xq=0.5", "--x-min=-1e308", "--x-max=1e308"], "market_curves"),
    (["curves", "--beta-xq=1e300", "--x-min=-1e10", "--x-max=1e10"], "market_curves"),
    (["curves", "--beta-xq=1", "--count=100000000000"], "market_curves"),
    (["curves", "--beta-xq=1", "--count=100000000000000000000"], "market_curves"),
    (["simulate", "--beta-xq=1", "--mean-ln-flow=-800", "--seed=1", "--out=-"], "simulator"),
    (["simulate", "--beta-xq=1", "--seed=1", "--out", UNWRITABLE], "panel_io"),
    (["simulate", "--beta-xq=0.9", "--n=1000000000000000", "--seed=1", "--out=-"], "simulator"),
    (["curves", "--beta-xq=1", "--out", UNWRITABLE], "panel_io"),
    (["ci", "--beta-xq", "0.9", "--beta-xq-se", "0.01", "--beta-qm", "5", "--r-m", "0.03",
      "--mean-ln-flow", "1", "--mean-ln-price", "1", "--seed", "1",
      "--draws", "100000000000"], "uncertainty"),
    (PAPER_STUB + ["--draws", "100000000000"], "uncertainty"),
    (["estimate", "--slope=-1", "--slope-se=0", "--beta-qm=1e308", "--r-m=10",
      "--mean-ln-flow=0", "--mean-ln-price=0", "--draws=0", "--format=json"], "beta_algebra"),
    (["estimate", "--slope=-0.01", "--slope-se=0.001", "--beta-qm=1e308", "--r-m=10",
      "--mean-ln-flow=0", "--mean-ln-price=0", "--draws=1000", "--seed=1", "--format=json"],
     "beta_algebra"),
    (["estimate", "--slope", "1e-200", "--slope-se", "0.1", "--beta-qm", "1", "--r-m", "0.03",
      "--mean-ln-flow", "1", "--mean-ln-price", "1", "--seed", "1", "--draws", "10"],
     "uncertainty"),
    (PANEL_ESTIMATE + [EMPTY_PANEL], "panel_io: empty input: missing header row"),
    (PANEL_ESTIMATE + [DUPLICATE_IV_PANEL], "panel_io: duplicate instrument column names"),
    (PANEL_ESTIMATE + [SIX_ROW_PANEL, "--instruments", "lags:x"],
     "econometrics: bad lag spec 'lags:x'"),
    (PANEL_ESTIMATE + [SIX_ROW_PANEL, "--instruments", "lags:0"],
     "econometrics: n_lags must be >= 1"),
    (PANEL_ESTIMATE + [SIX_ROW_PANEL, "--instruments", ","],
     "econometrics: empty instrument selection"),
    (["equilibrium", "--beta-xq", "1e-310"],
     "market_curves: supply elasticity 1/beta overflows at beta 1e-310"),
], ids=["estimate-beta-qm-nan", "estimate-negative-draws", "ci-beta-qm-inf",
        "equilibrium-overflow", "curves-overflow", "estimate-overflow",
        "estimate-level-nan-no-draws", "estimate-level-above-one-no-draws",
        "ci-beta-xm-overflow", "describe-non-positive-json", "describe-non-positive-text",
        "equilibrium-underflow", "curves-underflow", "estimate-underflow",
        "estimate-slope-se-nan-no-draws", "estimate-slope-se-inf-no-draws",
        "simulate-shock-overflow", "describe-norm-overflow", "estimate-norm-overflow",
        "curves-grid-overflow", "curves-sample-overflow", "curves-count-above-cap",
        "curves-count-beyond-int64", "simulate-level-underflow", "simulate-unwritable-out",
        "simulate-rows-above-cap",
        "curves-unwritable-out", "ci-draws-above-cap", "estimate-draws-above-cap",
        "estimate-returns-overflow", "estimate-r-q-overflow-with-draws",
        "estimate-reciprocal-se-overflow", "estimate-empty-panel",
        "estimate-duplicate-iv-header", "estimate-bad-lag-spec", "estimate-zero-lags",
        "estimate-empty-instrument-selection", "equilibrium-supply-elasticity-overflow"])
def test_non_finite_or_negative_inputs_exit_nonzero(tmp_path, capsys, argv, error):
    paths = {UNWRITABLE: tmp_path / "missing" / "x.csv"}
    for placeholder, text in (
            (BAD_PANEL, "year,value,flow\n2001,2.5,-1.0\n2002,8.0,2.0\n2003,9.0,2.5\n"
                        "2004,12.0,3.0\n2005,20.0,4.0\n2006,23.0,4.5\n"),
            (OVERFLOW_PANEL, "year,value,flow\n2001,1e308,1e308\n2002,1e308,1\n"
                             "2003,1,1e308\n2004,2,2\n2005,3,3\n"),
            (EMPTY_PANEL, ""),
            (DUPLICATE_IV_PANEL, "year,value,flow,iv_a,iv_a\n2001,1,1,0.1,0.2\n"),
            (SIX_ROW_PANEL, "year,value,flow,iv_a\n2001,10,2.0,0.1\n2002,14,2.5,-0.09\n"
                            "2003,16,3.0,0.12\n2004,20,3.5,-0.07\n2005,22,4.0,0.14\n"
                            "2006,26,4.5,-0.05\n")):
        paths[placeholder] = tmp_path / f"panel{len(paths)}.csv"
        paths[placeholder].write_text(text)
    argv = [str(paths.get(arg, arg)) for arg in argv]
    code, out, err = run_cli(capsys, argv)
    assert code != 0
    stage, _, message = error.partition(": ")
    assert err.startswith(f"error: {stage}: ")
    if message:
        assert err.splitlines()[0] == f"error: {error}"
    assert "Traceback" not in err and "Warning" not in err


def test_estimate_missing_file(capsys):
    code, out, err = run_cli(capsys, [
        "estimate", "--input", "/nonexistent.csv", "--beta-qm", "1", "--r-m", "0.02",
        "--draws", "0",
    ])
    assert code == 1
    assert "panel_io" in err


def test_too_long_panel_field_is_a_panel_io_error(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("year,value,flow\n2001,1," + "9" * 200_000 + "\n")
    code, out, err = run_cli(capsys, ["describe", "--input", str(path)])
    assert code == 1 and out == ""
    assert err == "error: panel_io: line 2: field larger than field limit (131072)\n"


BAD_UTF8 = b"year,value,flow\n2001,1,\xff\n"


def test_panel_file_that_is_not_utf8_is_a_panel_io_error(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(BAD_UTF8)
    code, out, err = run_cli(capsys, ["describe", "--input", str(path)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: panel_io: cannot read {path}: 'utf-8' codec can't decode "
                          "byte 0xff")


def test_panel_on_stdin_that_is_not_utf8_is_a_panel_io_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(BAD_UTF8), encoding="utf-8"))
    code, out, err = run_cli(capsys, ["estimate", "--input", "-", "--beta-qm", "1",
                                      "--r-m", "0.02", "--draws", "0"])
    assert code == 1 and out == ""
    assert err.startswith("error: panel_io: cannot read -: 'utf-8' codec can't decode byte 0xff")


def test_unbounded_t_value_is_an_econometrics_error(tmp_path, capsys):
    # iv_b's 1e308 cell makes its standard error underflow to 0
    path = tmp_path / "p.csv"
    path.write_text("year,value,flow,iv_a,iv_b\n" + "".join(
        f"{2000 + i},{10.5 + i % 4},{3.25 + i % 3},{0.1 * (i + 1)},{iv_b}\n"
        for i, iv_b in enumerate([0.8, 0.7, 0.6, 1e308, 0.4, 0.3, 0.2, 0.1])))
    code, out, err = run_cli(capsys, ["estimate", "--input", str(path), "--beta-qm", "5.36",
                                      "--r-m", "0.029", "--draws", "0", "--format", "json"])
    assert code == 1 and out == ""
    assert err.startswith("error: econometrics: first-stage coefficient 'iv_b' has standard "
                          "error 0, so its t-value is unbounded\n")


def test_flat_price_panel_is_an_econometrics_error(monkeypatch, capsys):
    # without shocks every year sits at the equilibrium, so the prices do not
    # vary and no instrument identifies the slope
    code, panel_csv, err = run_cli(capsys, ["simulate", "--beta-xq", "0.919", "--sigma-s", "0",
                                            "--sigma-d", "0", "--seed", "3", "--out", "-"])
    assert code == 0, err
    monkeypatch.setattr("sys.stdin", io.StringIO(panel_csv))
    code, out, err = run_cli(capsys, ["estimate", "--input", "-", "--beta-qm", "5.36",
                                      "--r-m", "0.029", "--seed", "1"])
    assert code == 1 and out == ""
    assert err == ("error: econometrics: the price series is flat: its logs span 0 (< 1e-09), "
                   "so the flow-on-price slope is not identified\n"
                   "hint: the slope needs prices that vary over the sample\n")


def test_describe(tmp_path, capsys):
    panel = synthesize_panel(make_config(n=19, seed=4))
    path = tmp_path / "p.csv"
    path.write_text(serialize_panel(panel))
    code, out, err = run_cli(capsys, ["describe", "--input", str(path)])
    assert code == 0
    assert "ln_flow" in out and "ln_price" in out
    assert "Std. Dev." in out
    code, out, err = run_cli(capsys, ["describe", "--input", str(path), "--format", "json"])
    data = json.loads(out)
    assert data["ln_flow"]["n_obs"] == 19


def test_equilibrium_subcommand(capsys):
    code, out, err = run_cli(capsys, [
        "equilibrium", "--beta-xq", "0.919",
        "--mean-ln-flow", "2.113", "--mean-ln-price", "2.828",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["ln_price"] == pytest.approx(2.782, abs=0.002)
    assert data["ln_quantity"] == pytest.approx(2.155, abs=0.002)
    assert data["elasticities"]["demand"] == pytest.approx(0.919)


def test_equilibrium_rejects_bad_beta(capsys):
    code, out, err = run_cli(capsys, ["equilibrium", "--beta-xq", "-1"])
    assert code == 1
    assert "market_curves" in err


def test_curves_stdout_csv_plus_json(capsys):
    code, out, err = run_cli(capsys, [
        "curves", "--beta-xq", "1.0", "--x-min", "-1", "--x-max", "1", "--count", "3",
    ])
    assert code == 0
    csv_part, json_part = out.split("\n\n", 1)
    lines = csv_part.splitlines()
    assert lines[0] == "curve,x,y"
    assert lines[1].startswith("supply,")
    assert any(line.startswith("demand,") for line in lines)
    assert len(lines) == 1 + 2 * 3
    eq = json.loads(json_part)
    assert eq["x_e"] == 0.0 and eq["y_e"] == 0.0


def test_curves_file_output(tmp_path, capsys):
    out_path = tmp_path / "curves.csv"
    code, out, err = run_cli(capsys, [
        "curves", "--beta-xq", "2.0", "--count", "11", "--out", str(out_path),
    ])
    assert code == 0
    assert out_path.read_text().startswith("curve,x,y")
    eq = json.loads(out)
    assert eq["elasticities"]["supply"] == pytest.approx(0.5)


def test_curves_out_dash_prints_what_plain_curves_prints(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["curves", "--beta-xq", "2.0", "--count", "11"]
    code, plain, err = run_cli(capsys, argv)
    assert code == 0, err
    code, dashed, err = run_cli(capsys, argv + ["--out=-"])
    assert code == 0, err
    assert dashed == plain
    assert list(tmp_path.iterdir()) == []


def test_curves_csv_bytes_are_the_same_on_every_path(tmp_path, capsys):
    # three blocks, the last holding one row
    count = 2 * cli.CSV_BLOCK_ROWS + 1
    argv = ["curves", "--beta-xq", "0.7", "--x-min=-3", "--x-max", "2", "--count", str(count)]
    code, plain, err = run_cli(capsys, argv)
    assert code == 0, err
    code, dashed, err = run_cli(capsys, argv + ["--out=-"])
    assert code == 0, err
    out_path = tmp_path / "curves.csv"
    code, block, err = run_cli(capsys, argv + ["--out", str(out_path)])
    assert code == 0, err
    csv_text = out_path.read_text()
    assert plain == dashed == csv_text + "\n" + block
    samples = market_curves.curve_samples(0.7, (-3.0, 2.0), count)
    lines = ["curve,x,y"] + [f"{name},{x:.17g},{y:.17g}"
                             for name, column in (("supply", 1), ("demand", 2))
                             for x, y in samples[:, [0, column]]]
    assert csv_text == "\n".join(lines) + "\n"


def test_curves_unwritable_out_prints_nothing(tmp_path, capsys):
    path = tmp_path / "missing" / "curves.csv"
    code, out, err = run_cli(capsys, ["curves", "--beta-xq=1", "--count=5000", "--out", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: panel_io: cannot write {path}: ")


CI_PAPER = ["ci", "--beta-xq", "0.919", "--beta-xq-se", "0.018", "--beta-qm", "5.36",
            "--r-m", "2.9%", "--mean-ln-flow", "2.113", "--mean-ln-price", "2.828"]


@pytest.mark.parametrize("extra,codes", [
    (["--seed", "17", "--draws", "20000"], []),
    (["--seed", "1", "--level", "0.999", "--draws", "10"], ["sparse_tail"]),
], ids=["20k-draws", "level-0.999-10-draws"])
def test_ci_matches_estimate_intervals_and_warnings(capsys, extra, codes):
    estimate = PAPER_STUB[:-4] + extra
    code, est_text, err = run_cli(capsys, estimate)
    assert code == 0, err
    code, ci_text, err = run_cli(capsys, CI_PAPER + extra)
    assert code == 0, err
    # the interval block and the warning lines close the estimate report
    block = ci_text.splitlines()
    assert block[0].endswith("confidence interval of estimates")
    assert est_text.splitlines()[-len(block):] == block

    code, est_json, err = run_cli(capsys, estimate + ["--format", "json"])
    assert code == 0, err
    code, ci_json, err = run_cli(capsys, CI_PAPER + extra + ["--format", "json"])
    assert code == 0, err
    report = json.loads(est_json)
    expected = {**report["intervals"], "warnings": report["warnings"]}
    assert ci_json == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert [w.split(":")[0] for w in expected["warnings"]] == codes


@pytest.mark.parametrize("argv", [
    PAPER_STUB + ["--level", "0.999", "--draws", "10"],
    CI_PAPER + ["--seed", "1", "--level", "0.999", "--draws", "10"],
], ids=["estimate", "ci"])
def test_interval_table_title_keeps_the_level_digits(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert "99.9% confidence interval of estimates" in out.splitlines()


# Overflowing inputs: NumPy must not warn, whether the run ends in a report
# or in an uncertainty error.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("se,exit_code", [("1e300", 0), ("1e308", 1)])
def test_overflow_in_uncertainty_stage_does_not_warn(capsys, se, exit_code):
    code, out, err = run_cli(capsys, [
        "ci", "--beta-xq", "1e308", "--beta-xq-se", se, "--beta-qm", "1", "--r-m", "0.029",
        "--mean-ln-flow", "2", "--mean-ln-price", "2", "--draws", "1000", "--seed", "1",
    ])
    assert code == exit_code
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: uncertainty: ")


def test_estimate_text_shows_huge_finite_betas_and_rates_compactly(capsys):
    # 100 * r_q overflows a double; the JSON holds the finite 3e+306
    argv = ["estimate", "--slope", "-0.919", "--slope-se", "0.018", "--mean-ln-flow", "2",
            "--mean-ln-price", "2", "--beta-qm", "1e308", "--r-m", "0.03", "--draws", "0"]
    code, out, err = run_cli(capsys, argv + ["--format", "text"])
    assert code == 0, err
    lines = out.splitlines()
    assert "beta_xq = 0.919   beta_qx = 1.088   beta_qm = 1e+308   beta_xm = 9.19e+307" in lines
    assert "r_m = 3.0%   r_q = 3e+308%   r_x = 2.76e+308%" in lines
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert json.loads(out)["returns"]["r_q"] == 3e306


def test_text_shows_huge_slopes_and_elasticities_compactly(capsys):
    code, out, err = run_cli(capsys, ["equilibrium", "--beta-xq", "1e-300", "--format", "text"])
    assert code == 0, err
    assert out.splitlines()[-1] == "elasticities: supply 1e+300, demand 0.0000"
    code, out, err = run_cli(capsys, [
        "estimate", "--slope", "-1e300", "--mean-ln-flow", "2.113", "--mean-ln-price", "2.828",
        "--beta-qm", "1e-300", "--r-m", "0.029", "--draws", "0"])
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "[regression stub: slope -1e+300, se 0.000]"
    assert lines[-1] == "Elasticities: supply = 0.000, demand = 1e+300"


def test_ci_text_shows_huge_finite_rate_bounds_compactly(capsys):
    argv = ["ci", "--beta-xq", "1", "--beta-xq-se", "0.1", "--beta-qm", "5", "--r-m", "1e307",
            "--mean-ln-flow", "2", "--mean-ln-price", "2", "--draws", "1000", "--seed", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert "inf" not in out
    lows, highs = out.splitlines()[2:4]
    assert lows.endswith("    4.23e+309%") and highs.endswith("    5.81e+309%")
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    r_x = json.loads(out)["bounds"]["r_x"]
    assert r_x[0] == pytest.approx(4.235e307, rel=1e-3) and r_x[1] == pytest.approx(5.81e307, rel=1e-3)


def test_ci_subcommand_text_and_json(capsys):
    base = [
        "ci", "--beta-xq", "0.919", "--beta-xq-se", "0.018",
        "--beta-qm", "5.36", "--r-m", "2.9%",
        "--mean-ln-flow", "2.113", "--mean-ln-price", "2.828",
        "--draws", "20000", "--seed", "12",
    ]
    code, out, err = run_cli(capsys, base)
    assert code == 0
    assert "90% confidence interval" in out
    assert "Minimum" in out and "Maximum" in out
    code, out, err = run_cli(capsys, base + ["--format", "json"])
    data = json.loads(out)
    assert data["bounds"]["beta_xm"][0] == pytest.approx(4.77, abs=0.1)
    assert data["seed"] == 12


def test_simulate_writes_panel_and_truth(tmp_path, capsys):
    out_path = tmp_path / "sim.csv"
    code, out, err = run_cli(capsys, [
        "simulate", "--beta-xq", "0.919", "--n", "19", "--seed", "42",
        "--out", str(out_path),
    ])
    assert code == 0, err
    panel = parse_panel(out_path.read_text())
    assert panel.n == 19
    assert len(panel.instruments) == 2
    truth = json.loads((tmp_path / "sim.csv.truth.json").read_text())
    assert truth["beta_xq"] == 0.919
    assert truth["seed"] == 42


def test_simulate_stdout(capsys):
    code, out, err = run_cli(capsys, [
        "simulate", "--beta-xq", "1.0", "--n", "6", "--seed", "1", "--out", "-",
    ])
    assert code == 0
    panel = parse_panel(out)
    assert panel.n == 6


def test_simulate_to_stdout_writes_the_truth_file_it_is_given(tmp_path, capsys):
    argv = ["simulate", "--beta-xq", "0.919", "--n", "19", "--seed", "42"]
    code, out, err = run_cli(capsys, [*argv, "--out", "-", "--truth-out",
                                      str(tmp_path / "stdout.truth.json")])
    assert code == 0, err
    assert parse_panel(out).n == 19
    code, _, err = run_cli(capsys, [*argv, "--out", str(tmp_path / "sim.csv"), "--truth-out",
                                    str(tmp_path / "file.truth.json")])
    assert code == 0, err
    assert ((tmp_path / "stdout.truth.json").read_bytes()
            == (tmp_path / "file.truth.json").read_bytes())


@pytest.mark.parametrize("sigma_s", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_shock_scale_that_paper_mode_never_reads(
        tmp_path, capsys, sigma_s):
    # paper mode ties eps_s to -eps_d, so sigma_s would reach only the truth
    # file, as a NaN or Infinity that is not JSON
    out_path = tmp_path / "sim.csv"
    code, _, err = run_cli(capsys, [
        "simulate", "--beta-xq", "0.919", "--sigma-s", sigma_s, "--shock-mode", "paper",
        "--seed", "1", "--out", str(out_path)])
    assert code == 1
    assert err.startswith("error: simulator: shock standard deviations must be finite"), err
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_panel_and_truth_both_on_stdout(capsys):
    code, out, err = run_cli(capsys, ["simulate", "--beta-xq", "0.919", "--seed", "42",
                                      "--out", "-", "--truth-out", "-"])
    assert code != 0
    assert out == ""
    assert "--out and --truth-out cannot both be stdout" in err


def test_simulate_then_estimate_round_trip(tmp_path, capsys):
    out_path = tmp_path / "sim.csv"
    assert main(["simulate", "--beta-xq", "2.0", "--n", "200", "--seed", "9",
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, [
        "estimate", "--input", str(out_path), "--beta-qm", "1.0", "--r-m", "0.05",
        "--draws", "0", "--format", "json",
    ])
    assert code == 0, err
    data = json.loads(out)
    assert data["betas"]["beta_xq"] == pytest.approx(2.0, abs=1e-6)
