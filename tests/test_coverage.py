"""Coverage of reported intervals in simulation.

Each cell simulates panels with known truth under both supply and demand
shocks, runs the full estimate on each, and counts the reports whose
interval covers the truth.  The seeds are fixed, so each share is exact.
"""

from natbeta.pipeline import run_estimate
from natbeta.simulator import synthesize_panel

from conftest import make_config


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
