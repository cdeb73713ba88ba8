import pytest

from natbeta import econometrics as em
from natbeta import preprocess as pp
from natbeta.beta_algebra import beta_from_slope
from natbeta.market_curves import ShockModel
from natbeta.simulator import ScenarioConfig, synthesize_panel

# Published point estimates the downstream stages chain from.
PAPER = {
    "slope": -0.919,
    "slope_se": 0.018,
    "beta_qm": 5.36,
    "r_m": 0.029,
    "mean_ln_flow": 2.113,
    "mean_ln_price": 2.828,
    "beta_xm": 4.93,
    "r_x": 0.143,
    "ln_price": 2.782,
    "ln_quantity": 2.155,
    "ln_user_cost": 4.937,
    "ci_slope_95": (-0.958, -0.881),
    "fig3": {
        "ln_price": (2.76, 2.81),
        "ln_quantity": (2.14, 2.17),
        "ln_user_cost": (4.93, 4.94),
        "beta_xm": (4.80, 5.15),
        "r_x": (0.139, 0.149),
    },
}

# Seeds picked for a rare event of the Monte Carlo stream, shared by the tests
# that rely on it.  tests/test_uncertainty.py checks each event straight from
# sample_betas, so a change of stream cannot quietly hollow out a case.
STUB_SEED_NONE_PAST_ONE = 0  # the paper stub at 100 000 draws: no draw >= 1
STUB_SEED_TWO_PAST_ONE = 6  # the same: exactly two draws >= 1, where ln_user_cost turns
NEAR_BUDGET_SEED = 3  # (0.043, 0.1) at 10 000 draws: 4 500 to 5 000 redraws
TRUNCATED_N7_SEED = 0  # (0.1, 0.1) at 7 draws: at most three rejected, so no abort


@pytest.fixture(scope="session")
def paper():
    return PAPER


@pytest.fixture
def small_panel_text():
    return (
        "year,value,flow\n"
        "2001,2.5,1.0\n"
        "2002,8.0,2.0\n"
        "2003,9.0,2.5\n"
        "2004,12.0,3.0\n"
        "2005,20.0,4.0\n"
        "2006,23.0,4.5\n"
    )


def make_config(beta=0.919, sigma_s=0.0, sigma_d=0.05, n=500, seed=0,
                mode="general", iv_noise_sd=0.02):
    return ScenarioConfig(
        beta_xq=beta,
        mean_ln_flow=PAPER["mean_ln_flow"],
        mean_ln_price=PAPER["mean_ln_price"],
        shocks=ShockModel(sigma_s=sigma_s, sigma_d=sigma_d, mode=mode),
        n=n,
        seed=seed,
        iv_noise_sd=iv_noise_sd,
    )


def estimate_beta_from_panel(panel):
    """Full estimation path: preprocess, control-function fit, sign rule."""
    prices = pp.unit_price_series(panel.value, panel.flow)
    flow_dev = pp.center_log(panel.flow).deviations
    price_dev = pp.center_log(prices.values).deviations
    cf = em.control_function_fit(flow_dev, price_dev, dict(panel.instruments))
    return beta_from_slope(cf.slope, cf.slope_se)[0], cf


@pytest.fixture
def simulated_panel():
    return synthesize_panel(make_config())
