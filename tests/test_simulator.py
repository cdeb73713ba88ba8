import dataclasses
import math

import numpy as np
import pytest

from natbeta import preprocess as pp
from natbeta import simulator
from natbeta.market_curves import CurveError, ShockModel, equilibrium_deviation
from natbeta.panel_io import serialize_panel
from natbeta.pipeline import _json_text
from natbeta.simulator import (
    ScenarioConfig,
    SimulatorError,
    ground_truth,
    simulate_equilibria,
    synthesize_panel,
)

from conftest import estimate_beta_from_panel, make_config


def test_zero_shocks_collapse_to_deterministic_point():
    cfg = make_config(beta=2.0, sigma_s=0.0, sigma_d=0.0, n=50, seed=1)
    x, y = simulate_equilibria(cfg)
    np.testing.assert_allclose(x, 0.0, atol=1e-15)
    np.testing.assert_allclose(y, 0.0, atol=1e-15)


def test_unit_beta_general_mode_demand_shock_splits_evenly():
    # at beta = 1 a demand shock moves quantity and price half-and-half
    cfg = make_config(beta=1.0, sigma_s=0.0, sigma_d=0.1, n=100, seed=2)
    x, y = simulate_equilibria(cfg)
    np.testing.assert_allclose(x, y, atol=1e-15)
    assert np.std(x) > 0.01


def test_unit_beta_paper_mode_moves_quantity_only():
    # with eps_s = -eps_d the price equation contributions cancel at
    # beta = 1: y stays at zero and x carries the demand shock
    cfg = make_config(beta=1.0, sigma_d=0.1, n=100, seed=3, mode="paper")
    x, y = simulate_equilibria(cfg)
    np.testing.assert_allclose(y, 0.0, atol=1e-15)
    assert np.std(x) == pytest.approx(0.1, abs=0.03)


def test_deviations_are_centered():
    cfg = make_config(beta=0.7, sigma_s=0.03, sigma_d=0.05, n=333, seed=4)
    x, y = simulate_equilibria(cfg)
    assert abs(x.mean()) <= 333 * 1e-18 + 1e-15
    assert abs(y.mean()) <= 333 * 1e-18 + 1e-15


def test_round_trip_through_pipeline_hundred_configs():
    rng = np.random.default_rng(99)
    for trial in range(100):
        cfg = ScenarioConfig(
            beta_xq=float(rng.uniform(0.2, 3.0)),
            mean_ln_flow=float(rng.uniform(-2, 4)),
            mean_ln_price=float(rng.uniform(-2, 4)),
            shocks=ShockModel(sigma_s=float(rng.uniform(0, 0.1)),
                              sigma_d=float(rng.uniform(0, 0.1))),
            n=int(rng.integers(5, 60)),
            seed=int(rng.integers(0, 2**31)),
        )
        x_sim, y_sim = simulate_equilibria(cfg)
        panel = synthesize_panel(cfg)
        prices = pp.unit_price_series(panel.value, panel.flow)
        x_rec = pp.center_log(panel.flow).deviations
        y_rec = pp.center_log(prices.values).deviations
        np.testing.assert_allclose(x_rec, x_sim, atol=1e-9)
        np.testing.assert_allclose(y_rec, y_sim, atol=1e-9)


def test_seed_determinism_bytes():
    cfg = make_config(beta=0.919, n=19, seed=123)
    assert serialize_panel(synthesize_panel(cfg)) == serialize_panel(synthesize_panel(cfg))
    other = serialize_panel(synthesize_panel(make_config(beta=0.919, n=19, seed=124)))
    assert serialize_panel(synthesize_panel(cfg)) != other


@pytest.mark.parametrize("mode,sigma_s", [("general", 0.0), ("general", 0.05),
                                           ("general", 0.3), ("paper", 0.0)])
def test_supply_shifters_carry_the_shocks_drawn_once(monkeypatch, mode, sigma_s):
    draws = []
    draw = simulator._draw_shocks

    def counting_draw(config, rng):
        draws.append(config)
        return draw(config, rng)

    monkeypatch.setattr(simulator, "_draw_shocks", counting_draw)
    for seed in range(4):
        cfg = make_config(sigma_s=sigma_s, n=19, seed=seed, mode=mode)
        panel = synthesize_panel(cfg)
        # the shocks the equilibria saw, redrawn from a fresh stream 0, and
        # the shifter noise of stream 1, the first n normals to iv_sup1
        eps_s, _ = draw(cfg, simulator._rng(cfg))
        noise = simulator._rng(cfg, stream=1)
        for j in (1, 2):
            expected = eps_s + cfg.iv_noise_sd * noise.standard_normal(cfg.n)
            assert np.array_equal(panel.instruments[f"iv_sup{j}"], expected)
    assert len(draws) == 4


def test_panel_has_exactly_the_two_supply_shifters():
    panel = synthesize_panel(make_config(n=19, seed=5))
    assert list(panel.instruments) == ["iv_sup1", "iv_sup2"]
    assert panel.n == 19
    assert all(len(col) == 19 for col in panel.instruments.values())


def test_paper_calibrated_descriptives():
    cfg = make_config(beta=0.919, n=19, seed=7)
    panel = synthesize_panel(cfg)
    flow_stats = pp.describe_log_series(pp.center_log(panel.flow))
    prices = pp.unit_price_series(panel.value, panel.flow)
    price_stats = pp.describe_log_series(pp.center_log(prices.values))
    # re-centering puts the flow log mean exactly on target; the price log
    # mean is shifted by ln(cosine), a sub-0.001 factor for calibrated shocks
    assert flow_stats["mean"] == pytest.approx(2.113, abs=1e-12)
    assert price_stats["mean"] == pytest.approx(2.828 + np.log(prices.cosine), abs=1e-12)
    assert price_stats["mean"] == pytest.approx(2.828, abs=0.01)


def test_estimator_consistency_error_shrinks_with_sample():
    # with valid shifters the 2SLS error shrinks like 1/sqrt(n): n=8000
    # predicts a median error a quarter of n=500's, well inside the bound of
    # half; fixed seeds keep this deterministic
    def median_error(n):
        errs = []
        for seed in range(50):
            panel = synthesize_panel(
                make_config(beta=0.919, sigma_s=0.05, sigma_d=0.05, n=n,
                            seed=seed, iv_noise_sd=0.1)
            )
            beta_hat, _ = estimate_beta_from_panel(panel)
            errs.append(abs(beta_hat - 0.919))
        return float(np.median(errs))

    assert median_error(8000) <= 0.5 * median_error(500)


def test_config_validation():
    with pytest.raises(SimulatorError):
        make_config(beta=-1.0)
    with pytest.raises(SimulatorError):
        make_config(n=4)
    with pytest.raises(SimulatorError):
        make_config(seed=-1)
    with pytest.raises(SimulatorError):
        ScenarioConfig(beta_xq=1.0, mean_ln_flow=float("inf"), mean_ln_price=0.0)


@pytest.mark.parametrize("scale", [math.nan, math.inf, -0.1])
def test_noise_and_shock_scales_must_be_finite_and_non_negative(scale):
    with pytest.raises(SimulatorError, match="iv_noise_sd"):
        make_config(iv_noise_sd=scale)
    for sigma in ({"sigma_s": scale}, {"sigma_d": scale}):
        with pytest.raises(CurveError, match="shock standard deviations"):
            ShockModel(**sigma)


def test_overflow_reported():
    cfg = ScenarioConfig(beta_xq=1.0, mean_ln_flow=400.0, mean_ln_price=0.0,
                         shocks=ShockModel(), n=10, seed=0)
    with pytest.raises(SimulatorError, match="overflow"):
        synthesize_panel(cfg)


def test_ground_truth_sidecar_fields():
    cfg = make_config(beta=0.919, n=19, seed=11)
    truth = ground_truth(cfg)
    assert truth["beta_xq"] == 0.919
    assert truth["seed"] == 11
    assert truth["shock_mode"] == "general"
    assert set(truth) >= {"mean_ln_flow", "mean_ln_price", "sigma_s", "sigma_d", "n"}


def test_truth_record_holds_every_scenario_field():
    cfg = make_config(sigma_s=0.03, sigma_d=0.04, mode="paper", iv_noise_sd=0.01)
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(ScenarioConfig)}
    del fields["shocks"]
    assert ground_truth(cfg) == {**fields, "sigma_s": 0.03, "sigma_d": 0.04,
                                 "shock_mode": "paper"}


def test_n_and_seed_are_stored_as_ints():
    # the truth file records the seed that ran (a float seed used to run as
    # its int); test_pipeline's integer test holds the refused values
    cfg = make_config(n=np.int64(19), seed=np.int64(3))
    assert (type(cfg.n), type(cfg.seed)) == (int, int)
    plain = make_config(n=19, seed=3)
    assert _json_text(ground_truth(cfg)) == _json_text(ground_truth(plain))
    assert serialize_panel(synthesize_panel(cfg)) == serialize_panel(synthesize_panel(plain))


def test_zero_shock_panel_constant_price_ratio():
    cfg = make_config(beta=1.3, sigma_s=0.0, sigma_d=0.0, n=12, seed=8)
    panel = synthesize_panel(cfg)
    ratio = panel.value / panel.flow
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
    prices = pp.unit_price_series(panel.value, panel.flow)
    np.testing.assert_allclose(pp.center_log(prices.values).deviations, 0.0, atol=1e-12)


def test_equilibrium_offset_matches_curve_module():
    # deterministic part of the simulated data sits at the analytic point
    cfg = make_config(beta=2.0, sigma_s=0.0, sigma_d=0.0, n=10, seed=9)
    panel = synthesize_panel(cfg)
    x_e, y_e = equilibrium_deviation(2.0)
    assert np.log(panel.flow[0]) == pytest.approx(cfg.mean_ln_flow + 0.0, abs=1e-12)
    # zero-shock deviations re-center to zero; levels sit at the means
    assert np.log(panel.flow).mean() == pytest.approx(cfg.mean_ln_flow, abs=1e-12)
