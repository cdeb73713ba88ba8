import dataclasses
import json

import numpy as np
import pytest

from natbeta import kernels, uncertainty
from natbeta.cli import main, parse_rate
from natbeta.panel_io import parse_panel, serialize_panel
from natbeta.simulator import synthesize_panel

from conftest import make_config

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
        report = sorted_bounds(draws, beta_qm, r_m, mean_ln_flow, mean_ln_price, level=level)
        table = kernels.propagate_beta_draws(draws.values, mean_ln_flow, mean_ln_price,
                                             beta_qm, r_m)
        lo_q = 0.5 * (1.0 - level)
        q = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
        bounds = {name: (float(q[0, j]), float(q[1, j]))
                  for j, name in enumerate(uncertainty.QUANTITY_NAMES)}
        return dataclasses.replace(report, bounds=bounds)

    monkeypatch.setattr(uncertainty, "derived_intervals", quantile_bounds)
    code, reference, err = run_cli(capsys, argv)
    assert code == 0, err
    assert out == reference


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


# Stands for a panel file whose flow in row 1 is -1.0.
BAD_PANEL = "<non-positive panel>"


@pytest.mark.parametrize("argv,stage", [
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
], ids=["estimate-beta-qm-nan", "estimate-negative-draws", "ci-beta-qm-inf",
        "equilibrium-overflow", "curves-overflow", "estimate-overflow",
        "estimate-level-nan-no-draws", "estimate-level-above-one-no-draws",
        "ci-beta-xm-overflow", "describe-non-positive-json", "describe-non-positive-text",
        "equilibrium-underflow", "curves-underflow", "estimate-underflow",
        "estimate-slope-se-nan-no-draws", "estimate-slope-se-inf-no-draws",
        "simulate-shock-overflow"])
def test_non_finite_or_negative_inputs_exit_nonzero(tmp_path, capsys, argv, stage):
    bad_panel = tmp_path / "bad.csv"
    bad_panel.write_text("year,value,flow\n2001,2.5,-1.0\n2002,8.0,2.0\n2003,9.0,2.5\n"
                         "2004,12.0,3.0\n2005,20.0,4.0\n2006,23.0,4.5\n")
    argv = [str(bad_panel) if arg == BAD_PANEL else arg for arg in argv]
    code, out, err = run_cli(capsys, argv)
    assert code != 0
    assert err.startswith(f"error: {stage}: ")
    assert "Traceback" not in err and "Warning" not in err


def test_estimate_missing_file(capsys):
    code, out, err = run_cli(capsys, [
        "estimate", "--input", "/nonexistent.csv", "--beta-qm", "1", "--r-m", "0.02",
        "--draws", "0",
    ])
    assert code == 1
    assert "panel_io" in err


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
    assert len(panel.instruments) == 4
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
