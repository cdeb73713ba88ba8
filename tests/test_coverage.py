"""Coverage of reported intervals in simulation.

Each cell draws estimates with known truth, runs the estimate on each, and
counts the reports whose interval covers the truth.  The slope cell
simulates panels under both supply and demand shocks; the stub cells draw
the slope itself, ``b_hat = beta + se * z``, and check one Monte Carlo
interval of the report.  The seeds are fixed, so each share is exact.  A
cell whose fault has not been mended is ``xfail(strict=True)``, so it
fails once the fault is mended and the mark must go.
"""

import numpy as np
import pytest

from natbeta.market_curves import TURNING_POINTS, equilibrium_levels
from natbeta.pipeline import StageError, run_estimate
from natbeta.simulator import synthesize_panel

from conftest import PAPER, make_config


def test_slope_interval_covers_at_nominal_rate():
    # 95% intervals, 200 panels: 0.90 is about 3 binomial SDs below 0.95.
    # The conventional OLS standard error of the control-function slope,
    # which ignores the generated regressor, covered 87 of these 200.
    beta = 0.919
    covered = 0
    for seed in range(200):
        panel = synthesize_panel(make_config(beta=beta, sigma_s=0.05, sigma_d=0.05,
                                             n=200, seed=seed))
        report = run_estimate(panel, beta_qm=5.36, r_m=0.029, draws=0,
                              instruments="iv_sup1,iv_sup2")
        row = report.regression["second_stage"]["coefficients"]["price_dev"]
        covered += row["ci_low"] <= -beta <= row["ci_high"]
    assert covered / 200 >= 0.90


STUB_REPLICATIONS = 300
# Each map rises to its first turning point, so at that beta the truth is the
# map's maximum and the upper end of a percentile interval falls below it.
AT_A_PEAK = pytest.mark.xfail(strict=True, reason=(
    "0 of 300 cover: the truth is the map's maximum, above the percentile "
    "interval's upper end; the projected bounds of ROADMAP item 9b mend it"))


@pytest.mark.parametrize("quantity,beta,se", [
    pytest.param("ln_user_cost", 0.919, 0.1, id="ln_user_cost-0.919"),
    pytest.param("ln_user_cost", TURNING_POINTS["ln_user_cost"][0], 0.1,
                 id="ln_user_cost-turning-point", marks=AT_A_PEAK),
    pytest.param("ln_price", TURNING_POINTS["ln_price"][0], 0.3,
                 id="ln_price-turning-point", marks=AT_A_PEAK),
])
def test_stub_interval_covers_the_equilibrium_truth(quantity, beta, se):
    # 90% Monte Carlo intervals at 4000 draws, 300 stub estimates: 0.85 is
    # about 2.9 binomial SDs below 0.90, and the control at 0.919 covers 288.
    # A stage error counts as a miss.
    truth = getattr(equilibrium_levels(beta, PAPER["mean_ln_flow"], PAPER["mean_ln_price"]),
                    quantity)
    rng = np.random.default_rng(12345)
    covered = 0
    for seed, z in enumerate(rng.standard_normal(STUB_REPLICATIONS)):
        try:
            report = run_estimate(None, slope=-(beta + se * z), slope_se=se,
                                  beta_qm=PAPER["beta_qm"], r_m=PAPER["r_m"],
                                  mean_ln_flow=PAPER["mean_ln_flow"],
                                  mean_ln_price=PAPER["mean_ln_price"],
                                  level=0.9, draws=4000, seed=seed)
        except StageError:
            continue
        lo, hi = report.intervals["bounds"][quantity]
        covered += lo <= truth <= hi
    assert covered / STUB_REPLICATIONS >= 0.85
