"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.  Timed criteria time plain NumPy/Python code with
nothing to compile; criterion 1 runs its call once untimed first, so
only the second call is timed.
"""

import functools
import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from natbeta import econometrics as em
from natbeta.cli import main
from natbeta.market_curves import (
    equilibrium_deviation,
    equilibrium_levels,
    shocked_equilibrium,
    zero_sum_integral,
)
from natbeta.panel_io import RawPanel, serialize_panel
from natbeta.pipeline import run_estimate
from natbeta.simulator import synthesize_panel
from natbeta.uncertainty import derived_intervals, sample_betas

from conftest import PAPER, estimate_beta_from_panel, make_config
from test_econometrics import mp_normal_equations, random_problem


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL {number}: {description}")
                raise
            print(f"ACCEPTANCE PASS {number}: {description}")

        return wrapper

    return decorate


@criterion(1, "chained point estimates from the published slope, < 10 ms")
def test_criterion_1_chained_point_estimates():
    kwargs = dict(
        beta_qm=PAPER["beta_qm"], r_m=PAPER["r_m"],
        slope=PAPER["slope"], slope_se=PAPER["slope_se"],
        mean_ln_flow=PAPER["mean_ln_flow"], mean_ln_price=PAPER["mean_ln_price"],
        draws=0,
    )
    run_estimate(None, **kwargs)  # warm any lazy paths
    start = time.perf_counter()
    report = run_estimate(None, **kwargs)
    elapsed = time.perf_counter() - start
    assert report.betas["beta_xm"] == pytest.approx(4.93, abs=0.01)
    assert report.returns["r_x"] == pytest.approx(0.143, abs=0.001)
    assert report.equilibrium["ln_price"] == pytest.approx(2.782, abs=0.002)
    assert report.equilibrium["ln_quantity"] == pytest.approx(2.155, abs=0.002)
    assert report.equilibrium["ln_user_cost"] == pytest.approx(4.937, abs=0.003)
    assert elapsed < 0.010, f"took {elapsed * 1e3:.2f} ms"


@criterion(2, "95% slope confidence interval matches the published row")
def test_criterion_2_ci_reproduction():
    lo, hi = em.t_confidence_interval(-0.919, 0.018, 16, 0.95)
    assert lo == pytest.approx(-0.958, abs=0.001)
    assert hi == pytest.approx(-0.881, abs=0.001)


@criterion(3, "Monte Carlo interval table reproduction, < 2 s")
def test_criterion_3_interval_table():
    start = time.perf_counter()
    draws = sample_betas(0.919, 0.018, 100_000, seed=2024)
    report = derived_intervals(
        draws, PAPER["beta_qm"], PAPER["r_m"],
        PAPER["mean_ln_flow"], PAPER["mean_ln_price"], level=0.90,
    )
    elapsed = time.perf_counter() - start
    tolerances = {"ln_price": 0.02, "ln_quantity": 0.02, "ln_user_cost": 0.02,
                  "beta_xm": 0.15, "r_x": 0.004}
    for name, (lo_ref, hi_ref) in PAPER["fig3"].items():
        lo, hi = report.bounds[name]
        assert lo == pytest.approx(lo_ref, abs=tolerances[name]), name
        assert hi == pytest.approx(hi_ref, abs=tolerances[name]), name
    assert elapsed < 2.0, f"took {elapsed:.2f} s"


@criterion(4, "estimator recovery on simulated panels, < 30 s total")
def test_criterion_4_estimator_recovery():
    start = time.perf_counter()
    for beta_true in (0.5, 0.919, 2.0):
        hits = 0
        for seed in range(100):
            panel = synthesize_panel(
                make_config(beta=beta_true, sigma_s=0.0, sigma_d=0.05,
                            n=500, seed=seed)
            )
            beta_hat, _ = estimate_beta_from_panel(panel)
            hits += abs(beta_hat - beta_true) < 0.05
        assert hits >= 95, f"beta {beta_true}: only {hits}/100 within 0.05"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


@criterion(5, "analytic identities: curve residuals, unit beta, zero-sum integral")
def test_criterion_5_analytic_identities():
    for beta in np.logspace(-3, 3, 1000):
        x_e, y_e = equilibrium_deviation(beta)
        assert abs(y_e - (beta * x_e + math.log(beta))) <= 1e-12
        assert abs(x_e + beta * y_e) <= 1e-12
    point = equilibrium_levels(1.0, 2.113, 2.828)
    assert point.ln_quantity == 2.113 and point.ln_price == 2.828
    assert point.x_e == 0.0 and point.y_e == 0.0
    for upper in (2.0, 10.0, 1e3):
        assert abs(zero_sum_integral(upper, 1e-8)) <= 1e-8


@criterion(6, "beta estimate invariant to value and flow rescaling")
def test_criterion_6_pipeline_invariances():
    rng = np.random.default_rng(1234)
    for trial in range(20):
        panel = synthesize_panel(
            make_config(
                beta=float(rng.uniform(0.3, 2.5)),
                sigma_s=float(rng.uniform(0.0, 0.05)),
                sigma_d=float(rng.uniform(0.01, 0.08)),
                n=60,
                seed=int(rng.integers(0, 2**31)),
            )
        )
        beta_base, _ = estimate_beta_from_panel(panel)
        for c in (1e-6, 3.7, 1e6):
            scaled_value = RawPanel(panel.years, c * panel.value, panel.flow,
                                    dict(panel.instruments))
            beta_v, _ = estimate_beta_from_panel(scaled_value)
            assert abs(beta_v - beta_base) < 1e-9
            scaled_flow = RawPanel(panel.years, panel.value, c * panel.flow,
                                   dict(panel.instruments))
            beta_q, _ = estimate_beta_from_panel(scaled_flow)
            assert abs(beta_q - beta_base) < 1e-9


@criterion(7, "paper shock mode equals general mode with opposed shocks")
def test_criterion_7_shock_mode_equivalence():
    betas = np.logspace(-1, 1, 10)
    deltas = np.linspace(-0.4, 0.4, 10)
    for beta in betas:
        for delta in deltas:
            x_p, y_p = shocked_equilibrium(beta, 0.0, delta, mode="paper")
            x_g, y_g = shocked_equilibrium(beta, -delta, delta, mode="general")
            assert abs(x_p - x_g) <= 1e-12
            assert abs(y_p - y_g) <= 1e-12


@criterion(8, "byte-identical JSON for identical flags and seed")
def test_criterion_8_determinism(tmp_path, capsys):
    panel = synthesize_panel(make_config(beta=0.919, n=19, seed=77))
    path = tmp_path / "panel.csv"
    path.write_text(serialize_panel(panel))
    argv = [
        "estimate", "--input", str(path), "--beta-qm", "5.36", "--r-m", "0.029",
        "--seed", "11", "--draws", "20000", "--format", "json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["betas"]["beta_xq"] == pytest.approx(0.919, abs=1e-6)


@criterion(9, "OLS matches the extended-precision normal-equations oracle")
def test_criterion_9_ols_oracle():
    for seed in range(50):
        X, y = random_problem(seed, n=19, k=3)
        coef_ref, se_ref = mp_normal_equations(X, y)
        fit = em.ols(y, {"a": X[:, 0], "b": X[:, 1]}, include_constant=True)
        np.testing.assert_allclose(fit.coefficients, coef_ref, atol=1e-8)
        np.testing.assert_allclose(fit.standard_errors, se_ref, atol=1e-8)
