"""Econometrics tests.

The least-squares oracle solves the normal equations in 50-digit mpmath
arithmetic; the Jarque-Bera p-value is checked against mpmath's incomplete
gamma here, the other distribution-tail oracles live in test_kernels.  Diagnostic
size/power checks run over fixed counter-based seed sets so they are
deterministic.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natbeta import econometrics as em
from natbeta import kernels
from natbeta import preprocess as pp
from natbeta.beta_algebra import beta_from_slope
from natbeta.pipeline import _preprocess_stage, render_report, run_estimate

from conftest import estimate_beta_from_panel, make_config
from natbeta.simulator import synthesize_panel


def mp_normal_equations(X, y):
    """Extended-precision normal-equations solve -> (coefficients, ses)."""
    with mp.workdps(50):
        Xm = mp.matrix([[mp.mpf(v) for v in row] for row in X])
        ym = mp.matrix([mp.mpf(v) for v in y])
        xtx = Xm.T * Xm
        coef = mp.lu_solve(xtx, Xm.T * ym)
        resid = ym - Xm * coef
        n, k = X.shape
        ssr = mp.fsum(r**2 for r in resid)
        sigma2 = ssr / (n - k)
        xtx_inv = xtx**-1
        ses = [mp.sqrt(sigma2 * xtx_inv[i, i]) for i in range(k)]
        return [float(c) for c in coef], [float(s) for s in ses]


def random_problem(seed, n=19, k=3):
    rng = np.random.Generator(np.random.Philox(key=np.array([99, seed], dtype=np.uint64)))
    X = np.column_stack([rng.normal(0, 2, n) for _ in range(k - 1)] + [np.ones(n)])
    beta = rng.normal(0, 1, k)
    y = X @ beta + rng.normal(0, 0.5, n)
    return X, y


def _column(fit, key):
    """One statistic of every coefficient row of a fit's block, in name order."""
    return np.array([row[key] for row in fit.block["coefficients"].values()])


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------


def test_ols_exact_line():
    y_dev = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    x_dev = -2.0 * y_dev
    fit = em.ols(x_dev, {"price_dev": y_dev})
    assert fit.coefficient("price_dev") == pytest.approx(-2.0, abs=1e-12)
    assert fit.coefficient("constant") == pytest.approx(0.0, abs=1e-12)
    assert fit.block["r_squared"] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)


def test_ols_constant_regressand():
    y = np.full(10, 3.5)
    x = np.arange(10.0)
    fit = em.ols(y, {"x": x})
    assert fit.coefficient("x") == pytest.approx(0.0, abs=1e-12)
    assert fit.block["r_squared"] == 0.0
    assert fit.block["f_stat"] == 0.0


def test_ols_matches_extended_precision_oracle():
    X, y = random_problem(0)
    coef_ref, se_ref = mp_normal_equations(X, y)
    fit = em.ols(y, {"a": X[:, 0], "b": X[:, 1]}, include_constant=True)
    np.testing.assert_allclose(fit.coefficients, coef_ref, atol=1e-8)
    np.testing.assert_allclose(fit.standard_errors, se_ref, atol=1e-8)


def test_ols_fifty_random_problems_against_oracle():
    for seed in range(50):
        X, y = random_problem(seed)
        coef_ref, se_ref = mp_normal_equations(X, y)
        fit = em.ols(y, {"a": X[:, 0], "b": X[:, 1]}, include_constant=True)
        np.testing.assert_allclose(fit.coefficients, coef_ref, atol=1e-8)
        np.testing.assert_allclose(fit.standard_errors, se_ref, atol=1e-8)


def test_ols_invariants():
    X, y = random_problem(3)
    fit = em.ols(y, {"a": X[:, 0], "b": X[:, 1]})
    n = fit.block["n_obs"]
    assert fit.block["df_residual"] == n - len(fit.names)
    mask = fit.standard_errors > 0
    np.testing.assert_allclose(
        _column(fit, "t_value")[mask], fit.coefficients[mask] / fit.standard_errors[mask],
        atol=1e-10
    )
    assert abs(fit.residuals.sum()) <= n * 1e-10
    # residual orthogonality, scaled by column norms
    for j in range(fit.design.shape[1]):
        col = fit.design[:, j]
        denom = np.linalg.norm(col) * np.linalg.norm(fit.residuals)
        if denom > 0:
            assert abs(col @ fit.residuals) / denom <= 1e-8


def test_ols_aic_bic_convention():
    X, y = random_problem(4)
    fit = em.ols(y, {"a": X[:, 0], "b": X[:, 1]})
    ssr = float(fit.residuals @ fit.residuals)
    k, n = 3, fit.block["n_obs"]
    aic, bic = fit.block["aic"], fit.block["bic"]
    assert aic == pytest.approx(n * math.log(ssr / n) + 2 * k, rel=1e-12)
    assert bic == pytest.approx(n * math.log(ssr / n) + k * math.log(n), rel=1e-12)
    assert bic - aic == pytest.approx(k * (math.log(n) - 2), rel=1e-9)


def test_ols_rank_deficiency():
    x = np.arange(8.0)
    with pytest.raises(em.RegressionError, match="rank"):
        em.ols(x + 1, {"a": x, "b": 2 * x})


def test_ols_sample_too_small():
    with pytest.raises(em.RegressionError, match="too small"):
        em.ols([1.0, 2.0], {"a": [1.0, 2.0]})


def test_ols_permutation_invariance():
    X, y = random_problem(5)
    fit = em.ols(y, {"a": X[:, 0], "b": X[:, 1]})
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(y))
    fit_p = em.ols(y[perm], {"a": X[perm, 0], "b": X[perm, 1]})
    np.testing.assert_allclose(fit_p.coefficients, fit.coefficients, atol=1e-10)
    np.testing.assert_allclose(fit_p.standard_errors, fit.standard_errors, atol=1e-10)
    f_stat = fit.block["f_stat"]
    assert fit_p.block["r_squared"] == pytest.approx(fit.block["r_squared"], abs=1e-10)
    assert fit_p.block["f_stat"] == pytest.approx(f_stat, abs=1e-10 * max(1, f_stat))


@pytest.mark.parametrize("c", [1e-3, 2.0, 1e4])
def test_ols_regressand_rescaling(c):
    X, y = random_problem(6)
    base = em.ols(y, {"a": X[:, 0], "b": X[:, 1]})
    scaled = em.ols(c * y, {"a": X[:, 0], "b": X[:, 1]})
    np.testing.assert_allclose(scaled.coefficients, c * base.coefficients, rtol=1e-9)
    np.testing.assert_allclose(scaled.standard_errors, c * base.standard_errors, rtol=1e-9)
    np.testing.assert_allclose(_column(scaled, "t_value"), _column(base, "t_value"), rtol=1e-9)
    np.testing.assert_allclose(_column(scaled, "p_value"), _column(base, "p_value"), atol=1e-9)
    assert scaled.block["r_squared"] == pytest.approx(base.block["r_squared"], abs=1e-9)
    assert scaled.block["f_stat"] == pytest.approx(base.block["f_stat"], rel=1e-9)


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------


def test_t_confidence_interval_matches_published_row(paper):
    lo, hi = em.t_confidence_interval(paper["slope"], paper["slope_se"], 16, 0.95)
    assert lo == pytest.approx(paper["ci_slope_95"][0], abs=1e-3)
    assert hi == pytest.approx(paper["ci_slope_95"][1], abs=1e-3)


def test_t_confidence_interval_degenerate_se():
    assert em.t_confidence_interval(1.7, 0.0, 12, 0.9) == (1.7, 1.7)


def test_t_confidence_interval_zero_center_quantile():
    lo, hi = em.t_confidence_interval(0.0, 1.0, 16, 0.95)
    assert hi == pytest.approx(2.1199052992212547, abs=1e-9)  # quadrature-checked
    assert lo == pytest.approx(-hi, abs=1e-12)


def test_t_confidence_interval_validation():
    with pytest.raises(ValueError):
        em.t_confidence_interval(0.0, 1.0, 0, 0.95)
    with pytest.raises(ValueError):
        em.t_confidence_interval(0.0, 1.0, 5, 1.2)
    with pytest.raises(ValueError):
        em.t_confidence_interval(0.0, -1.0, 5, 0.9)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=1, max_value=200),
)
def test_ci_nesting(coef, se, df):
    lo90, hi90 = em.t_confidence_interval(coef, se, df, 0.90)
    lo95, hi95 = em.t_confidence_interval(coef, se, df, 0.95)
    assert lo95 <= lo90 <= hi90 <= hi95


# ---------------------------------------------------------------------------
# Control function
# ---------------------------------------------------------------------------


def test_control_function_noiseless_demand_relation():
    rng = np.random.default_rng(1)
    y_dev = rng.normal(0, 1, 60)
    y_dev -= y_dev.mean()
    x_dev = -2.0 * y_dev
    instruments = {"z1": np.roll(y_dev, 1), "z2": rng.normal(0, 1, 60)}
    cf = em.control_function_fit(x_dev, y_dev, instruments)
    assert cf.slope == pytest.approx(-2.0, abs=1e-10)
    assert cf.second_stage.coefficient("control_fn") == pytest.approx(0.0, abs=1e-10)
    assert beta_from_slope(cf.slope, cf.slope_se)[0] == pytest.approx(2.0, abs=1e-10)


def test_control_function_second_stage_has_three_rows():
    rng = np.random.default_rng(2)
    y = rng.normal(0, 1, 40)
    x = -0.5 * y + 0.01 * rng.normal(0, 1, 40)
    cf = em.control_function_fit(x, y, {"z": np.roll(y, 2)})
    assert cf.second_stage.names == ("price_dev", "control_fn", "constant")


def test_control_function_requires_instruments():
    with pytest.raises(em.RegressionError, match="non-empty"):
        em.control_function_fit(np.zeros(10), np.zeros(10), {})


@pytest.mark.parametrize("case,message", [
    ("short flow", r"regressor 'price_dev' has wrong length: shape \(40,\), regressand length 39"),
    ("2-d flow", "regressand must be 1-d"),
    ("short iv", "regressor 'iv' has wrong length"),
    ("2-d iv", "regressor 'iv' has wrong length"),
])
def test_control_function_rejects_series_of_the_wrong_shape(case, message):
    # ols checks each regressor against the length of its regressand
    rng = np.random.default_rng(2)
    y = rng.normal(0, 1, 40)
    series = {"flow": -0.5 * y + 0.01 * rng.normal(0, 1, 40), "iv": np.roll(y, 2)}
    shape, name = case.split()
    series[name] = series[name][:39] if shape == "short" else series[name][:, None]
    with pytest.raises(em.RegressionError, match=message):
        em.control_function_fit(series["flow"], y, {"iv": series["iv"]})


def test_simulated_demand_shocks_recover_beta_two():
    # demand shocks trace the supply relation: the flow-on-price slope is
    # +1/beta and the sign rule maps it back to beta
    panel = synthesize_panel(make_config(beta=2.0, sigma_d=0.05, n=500, seed=12))
    beta_hat, cf = estimate_beta_from_panel(panel)
    assert cf.slope == pytest.approx(0.5, abs=1e-6)
    assert beta_hat == pytest.approx(2.0, abs=1e-6)


def test_simulated_supply_shocks_give_negative_slope():
    panel = synthesize_panel(
        make_config(beta=2.0, sigma_s=0.05, sigma_d=0.0, n=500, seed=12)
    )
    beta_hat, cf = estimate_beta_from_panel(panel)
    assert cf.slope == pytest.approx(-2.0, abs=1e-6)
    assert beta_hat == pytest.approx(2.0, abs=1e-6)


def test_simulated_two_shock_control_function_recovery():
    # with both shocks active the control function leans on the supply
    # shifter instruments; tolerance matches the estimator-recovery oracle
    panel = synthesize_panel(
        make_config(beta=0.919, sigma_s=0.05, sigma_d=0.05, n=500, seed=3)
    )
    beta_hat, cf = estimate_beta_from_panel(panel)
    assert cf.slope < 0
    assert beta_hat == pytest.approx(0.919, abs=0.05)


def test_control_fit_report_layout(simulated_panel):
    _, cf = estimate_beta_from_panel(simulated_panel)
    table = cf.block
    rows = table["second_stage"]["coefficients"]
    assert list(rows) == ["price_dev", "control_fn", "constant"]
    for row in rows.values():
        assert set(row) == {"coef", "std_err", "t_value", "p_value", "ci_low", "ci_high"}
    for key in ("r_squared", "f_stat", "f_p", "aic", "bic", "n_obs"):
        assert key in table["second_stage"]
    report = run_estimate(simulated_panel, beta_qm=5.36, r_m=0.029, draws=0)
    text = render_report(report, "text")
    for fragment in ("y^(e)", "Control fn", "Constant", "Mean dependent var",
                     "R-squared", "F-test", "Prob > F", "AIC", "BIC", "2SLS St.Err.",
                     "Control fn: conventional St.Err. (endogeneity test)"):
        assert fragment in text


def _reference_fit_dict(fit):
    """A fit's block recomputed from its arrays with the documented formulas:
    t- and p-values from indexed NumPy scalars, the interval at ``LEVEL``
    from ``kernels.student_t_quantile``, R-squared and the F-test against
    the centred (or, without a constant, the raw) sum of squares, the
    concentrated-Gaussian AIC and BIC with ``np.log``, and the regressand's
    mean and sample SD."""
    y, resid = fit.regressand, fit.residuals
    n, k = fit.design.shape
    df = n - k
    q = kernels.student_t_quantile(0.5 * (1.0 + em.LEVEL), float(df))
    rows = {}
    for i, name in enumerate(fit.names):
        coef, se = fit.coefficients[i], fit.standard_errors[i]
        if se > 0.0:
            t = float(coef / se)
            p = kernels.f_upper_tail(t * t, 1.0, float(df))
        elif coef == 0.0:
            t, p = 0.0, 1.0
        else:
            t, p = (np.inf if coef > 0 else -np.inf), 0.0
        rows[name] = {
            "coef": float(coef),
            "std_err": float(se),
            "t_value": float(t),
            "p_value": float(p),
            "ci_low": float(coef - q * se),
            "ci_high": float(coef + q * se),
        }
    ssr = float(resid @ resid)
    if "constant" in fit.names:
        sst, n_slopes = float(np.sum((y - y.mean()) ** 2)), k - 1
    else:
        sst, n_slopes = float(y @ y), k
    r_squared = 1.0 - ssr / sst if sst > 0.0 else 0.0
    if n_slopes == 0 or sst == 0.0:
        f_stat, f_p = 0.0, 1.0
    elif ssr == 0.0:
        f_stat, f_p = math.inf, 0.0
    else:
        f_stat = ((sst - ssr) / n_slopes) / (ssr / df)
        f_p = kernels.f_upper_tail(f_stat, float(n_slopes), float(df))
    if ssr > 0.0:
        aic = float(n * np.log(ssr / n) + 2.0 * k)
        bic = float(n * np.log(ssr / n) + k * np.log(n))
    else:
        aic = bic = -math.inf
    return {
        "coefficients": rows, "conf_level": em.LEVEL, "r_squared": r_squared,
        "f_stat": f_stat, "f_p": f_p, "aic": aic, "bic": bic,
        "n_obs": n, "df_residual": df,
        "mean_dependent": float(y.mean()),
        "sd_dependent": float(y.std(ddof=1)),
    }


def _reference_control_dict(cf):
    """The control-function block recomputed from the stages' reference
    blocks, with the slope row's statistics replaced by the fit's 2SLS ones
    at df n-2, the RESET block built from the augmented
    oracle fit, and the normality test gated, as before, on a separate
    ``np.var(residuals) > 0`` pass."""
    out = {"second_stage": _reference_fit_dict(cf.second_stage),
           "first_stage": _reference_fit_dict(cf.first_stage),
           "diagnostics": {}}
    df = cf.second_stage.regressand.size - 2
    if cf.slope_se > 0.0:
        t = cf.slope / cf.slope_se
        p = kernels.f_upper_tail(t * t, 1.0, float(df))
    elif cf.slope == 0.0:
        t, p = 0.0, 1.0
    else:
        t, p = (np.inf if cf.slope > 0 else -np.inf), 0.0
    ci_low, ci_high = em.t_confidence_interval(cf.slope, cf.slope_se, df, 0.95)
    out["second_stage"]["coefficients"]["price_dev"].update(
        std_err=cf.slope_se, t_value=t, p_value=p, ci_low=ci_low, ci_high=ci_high)
    fit = cf.second_stage
    try:
        stat = _reset_via_augmented_ols(fit)
    except em.RegressionError:
        pass
    else:
        n, k = fit.design.shape
        reset_p = kernels.f_upper_tail(stat, 2.0, float(n - k - 2))
        out["diagnostics"]["reset"] = {"statistic": stat, "p_value": reset_p,
                                       "rejected": reset_p < em.ALPHA, "alpha": em.ALPHA,
                                       "powers": [2, 3]}
    residuals = fit.residuals
    if residuals.size >= 8 and float(np.var(residuals)) > 0.0:
        out["diagnostics"]["jarque_bera"] = em.jarque_bera(residuals)
    return out


def _two_stage_least_squares_slope(x, y, instruments):
    """Oracle: the 2SLS slope and its standard error from the textbook
    matrices, ``V = s^2 (Xhat'Xhat)^-1`` with ``Xhat = [yhat, 1]`` and the
    residual formed with the observed ``y``."""
    Z = np.column_stack([*instruments.values(), np.ones(len(y))])
    y_hat = Z @ np.linalg.lstsq(Z, y, rcond=None)[0]
    X_hat = np.column_stack([y_hat, np.ones(len(y))])
    coef = np.linalg.lstsq(X_hat, x, rcond=None)[0]
    u = x - np.column_stack([y, np.ones(len(y))]) @ coef
    V = (u @ u) / (len(y) - 2) * np.linalg.inv(X_hat.T @ X_hat)
    return coef[0], math.sqrt(V[0, 0])


def test_slope_statistics_are_the_two_stage_least_squares_ones():
    for seed in range(20):
        panel = synthesize_panel(make_config(beta=0.919, sigma_s=0.05, sigma_d=0.05,
                                             n=19, seed=seed))
        _, cf = estimate_beta_from_panel(panel)
        x, y = cf.second_stage.regressand, cf.second_stage.design[:, 0]
        slope, se = _two_stage_least_squares_slope(x, y, panel.instruments)
        assert cf.slope == pytest.approx(slope, rel=1e-9)
        assert cf.slope_se == pytest.approx(se, rel=1e-9)
        # the OLS standard error of the same row ignores the generated regressor
        assert cf.slope_se != cf.second_stage.standard_errors[0]
        df = cf.second_stage.block["n_obs"] - 2
        row = cf.block["second_stage"]["coefficients"]["price_dev"]
        assert row["std_err"] == cf.slope_se
        assert row["t_value"] == cf.slope / cf.slope_se
        assert row["p_value"] == kernels.f_upper_tail(row["t_value"] ** 2, 1.0, df)
        assert (row["ci_low"], row["ci_high"]) == em.t_confidence_interval(
            cf.slope, cf.slope_se, df, 0.95)


def _reference_describe(series):
    logs = np.log(np.asarray(series, dtype=np.float64))
    return {"n_obs": int(logs.size), "mean": float(logs.mean()),
            "sd": float(logs.std(ddof=1)) if logs.size > 1 else 0.0,
            "min": float(logs.min()), "max": float(logs.max())}


def _assert_bitwise_equal(got, ref):
    # repr tells -0.0 from 0.0 and shows the key order the CSV report keeps
    assert repr(got) == repr(ref)


@pytest.mark.parametrize("n", [19, 200])
def test_panel_fit_and_descriptives_equal_the_recomputed_reference(n):
    for seed in range(50):
        panel = synthesize_panel(make_config(beta=0.919, sigma_s=0.05, sigma_d=0.05,
                                             n=n, seed=seed))
        descriptives, flow_logs, price_logs = _preprocess_stage(panel)
        prices = pp.unit_price_series(panel.value, panel.flow)
        _assert_bitwise_equal(descriptives, {
            "ln_flow": _reference_describe(panel.flow),
            "ln_price": _reference_describe(prices.values),
            "alignment_cosine": prices.cosine,
        })
        instruments = {k: panel.instruments[k] for k in ("iv_sup1", "iv_sup2")}
        cf = em.control_function_fit(flow_logs.deviations, price_logs.deviations, instruments)
        assert "jarque_bera" in cf.block["diagnostics"]
        _assert_bitwise_equal(cf.block, _reference_control_dict(cf))


def test_fit_without_constant_equals_the_recomputed_reference():
    X, y = random_problem(5)
    fit = em.ols(y, {f"x{j}": X[:, j] for j in range(X.shape[1])}, include_constant=False)
    _assert_bitwise_equal(fit.block, _reference_fit_dict(fit))


def test_zero_residual_variance_fit_equals_the_recomputed_reference():
    # a zero regressand is fitted exactly: zero coefficients, standard errors
    # and residuals, so neither RESET nor the normality test is reported
    panel = synthesize_panel(make_config(beta=0.919, sigma_s=0.05, sigma_d=0.05, n=19))
    price_dev = pp.center_log(panel.value / panel.flow).deviations
    cf = em.control_function_fit(np.zeros(19), price_dev,
                                 {"iv_sup1": panel.instruments["iv_sup1"]})
    assert "jarque_bera" not in cf.block["diagnostics"]
    assert not cf.second_stage.residuals.any()
    _assert_bitwise_equal(cf.block, _reference_control_dict(cf))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def _philox(tag, seed):
    return np.random.Generator(np.random.Philox(key=np.array([tag, seed], dtype=np.uint64)))


def test_reset_size_on_linear_data():
    rejections = 0
    for seed in range(500):
        rng = _philox(123, seed)
        x = rng.standard_normal(100)
        y = 1.0 + 2.0 * x + rng.standard_normal(100)
        fit = em.ols(y, {"x": x})
        rejections += em.reset_test(fit)["p_value"] < 0.05
    rate = rejections / 500
    band = 3 * math.sqrt(0.05 * 0.95 / 500)
    assert abs(rate - 0.05) <= band


def test_reset_power_on_cubic_data():
    rng = _philox(7, 0)
    x = rng.standard_normal(200)
    y = 1.0 + x + 2.0 * x**3 + 0.5 * rng.standard_normal(200)
    fit = em.ols(y, {"x": x})
    result = em.reset_test(fit)
    assert result["p_value"] < 0.01
    assert result["rejected"]


def _reset_via_augmented_ols(fit):
    # Oracle: the RESET statistic from a full inference fit of the augmented design.
    aug = {f"x{i}": fit.design[:, i] for i in range(fit.design.shape[1])}
    aug["fitted_pow2"] = fit.fitted**2
    aug["fitted_pow3"] = fit.fitted**3
    full = em.ols(fit.regressand, aug, include_constant=False)
    ssr_restricted = float(fit.residuals @ fit.residuals)
    ssr_full = float(full.residuals @ full.residuals)
    df_full = full.block["df_residual"]
    return max(((ssr_restricted - ssr_full) / 2) / (ssr_full / df_full), 0.0)


def test_reset_matches_augmented_ols_reference(simulated_panel):
    _, cf = estimate_beta_from_panel(simulated_panel)
    rng = _philox(7, 0)
    x = rng.standard_normal(200)
    cubic = em.ols(1.0 + x + 2.0 * x**3 + 0.5 * rng.standard_normal(200), {"x": x})
    for fit in (cf.second_stage, cubic):
        assert em.reset_test(fit)["statistic"] == _reset_via_augmented_ols(fit)


def test_reset_degenerate_fitted_values():
    fit = em.ols(np.full(30, 2.0), {"x": np.arange(30.0)})
    with pytest.raises(em.RegressionError, match="rank"):
        em.reset_test(fit)


def test_jarque_bera_size_on_normal_data():
    rejections = 0
    for seed in range(500):
        rng = _philox(77, seed)
        rejections += em.jarque_bera(rng.standard_normal(5000))["p_value"] < 0.05
    rate = rejections / 500
    band = 3 * math.sqrt(0.05 * 0.95 / 500)
    assert abs(rate - 0.05) <= band


def test_jarque_bera_power_on_skewed_data():
    rng = _philox(78, 0)
    result = em.jarque_bera(rng.exponential(1.0, 500))
    assert result["p_value"] < 0.01
    assert result["rejected"]


def test_jarque_bera_constant_residuals():
    with pytest.raises(em.RegressionError, match="variance"):
        em.jarque_bera(np.zeros(20))


@pytest.mark.parametrize("residuals", [
    np.full(8, np.nan),
    np.array([1e200, -1e200] * 4),  # the squares overflow
    np.array([np.inf] + [1.0] * 7),
], ids=["nan", "overflow", "inf"])
def test_jarque_bera_rejects_a_variance_that_is_not_finite(residuals):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(em.RegressionError, match="not positive and finite"):
            em.jarque_bera(residuals)


@pytest.mark.parametrize("residuals, word", [
    ([1e100, -1e100] * 4, "overflows"),  # the squared variance overflows
    ([1e80, -1e80] + [0.0] * 6, "overflows"),  # so do the fourth powers
    ([1.5e77] + [0.0] * 7, "overflows"),  # a fourth power overflows, the squared variance not
    ([1e-100, -1e-100] * 4, "underflows"),  # the squared variance is 0
    ([1e-80, -1e-80] + [0.0] * 6, "underflows"),  # it is subnormal: kurtosis loses bits
], ids=["overflow", "overflow-powers", "overflow-fourth-power", "underflow", "subnormal"])
def test_jarque_bera_names_a_fourth_moment_out_of_the_float_range(residuals, word):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(em.RegressionError, match=f"fourth moment {word}"):
            em.jarque_bera(np.array(residuals))


def test_reset_names_fitted_powers_that_overflow():
    rng = _philox(79, 0)
    x = rng.standard_normal(30)
    fit = em.ols(1e120 * (2.0 * x + rng.standard_normal(30)), {"x": 1e120 * x})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(em.RegressionError, match=r"fitted\*\*3 overflows"):
            em.reset_test(fit)


def test_reset_names_fitted_powers_that_underflow():
    rng = _philox(79, 0)
    x = rng.standard_normal(30)
    y = 2.0 * x + rng.standard_normal(30)
    for scale in (1e-110, 1e-120):
        fit = em.ols(scale * y, {"x": scale * x})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(em.RegressionError, match=r"fitted\*\*3 underflows"):
                em.reset_test(fit)


@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 3.0, 10.0, 80.0])
def test_jarque_bera_p_value_matches_the_mpmath_oracle(x):
    # 49 pairs +-1 and one pair +-a have no skew and an excess kurtosis k
    # that rises with a; a solves 50 (a^4 + 49) = (3 + k) (a^2 + 49)^2 for
    # k = sqrt(24 x / 100), so that JB = 100/24 k^2 = x
    pairs, ones, kappa = 50.0, 49.0, 3.0 + math.sqrt(24.0 * x / 100.0)
    a2 = (kappa * ones + pairs * math.sqrt(ones * (kappa - 1.0))) / (pairs - kappa)
    jb = em.jarque_bera(np.array([math.sqrt(a2), -math.sqrt(a2)] + [1.0, -1.0] * 49))
    assert jb["statistic"] == pytest.approx(x, rel=1e-9)
    oracle = mp.gammainc(1, mp.mpf(jb["statistic"]) / 2, mp.inf, regularized=True)
    assert jb["p_value"] == pytest.approx(float(oracle), rel=1e-15)


def test_jarque_bera_needs_eight_points():
    with pytest.raises(em.RegressionError, match="n >= 8"):
        em.jarque_bera(np.arange(7.0))


# ---------------------------------------------------------------------------
# Tail probabilities
# ---------------------------------------------------------------------------


def test_tail_probability_t_zero():
    t = 0.0
    assert kernels.f_upper_tail(t * t, 1.0, 7.0) == 1.0


def test_tail_probability_published_t_statistic():
    t = -50.36
    p = kernels.f_upper_tail(t * t, 1.0, 16.0)
    assert p < 1e-15
    assert f"{p:.3f}" == "0.000"


# ---------------------------------------------------------------------------
# Default instruments
# ---------------------------------------------------------------------------


def test_lagged_instruments_align():
    y = np.arange(20.0)
    inst, offset = em.lagged_instruments(y, 4)
    assert offset == 4
    assert list(inst) == ["lag1", "lag2", "lag3", "lag4"]
    np.testing.assert_array_equal(inst["lag1"], y[3:19])
    np.testing.assert_array_equal(inst["lag4"], y[0:16])
    assert all(len(v) == 16 for v in inst.values())


def test_lagged_instruments_sample_too_small():
    with pytest.raises(em.RegressionError, match="too small"):
        em.lagged_instruments(np.arange(9.0), 4)
