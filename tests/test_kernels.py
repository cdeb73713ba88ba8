"""Oracle tests for the numeric kernels.

Reference values come from mpmath: the regularized incomplete beta/gamma
directly, the Student-t CDF from adaptive quadrature of the density, and
the Student-t quantile from the root of the incomplete-beta form of the
CDF.  The vectorized batch
kernels are compared bit for bit against plain per-element Python loops.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from natbeta import kernels

mp.mp.dps = 40


def oracle_inc_beta(a, b, x):
    return float(mp.betainc(a, b, 0, x, regularized=True))


def oracle_upper_gamma(a, x):
    return float(mp.gammainc(a, x, mp.inf, regularized=True))


def oracle_t_cdf(t, df):
    c = mp.gamma((df + 1) / mp.mpf(2)) / (mp.sqrt(df * mp.pi) * mp.gamma(df / mp.mpf(2)))
    density = lambda u: c * (1 + u**2 / df) ** (-(df + 1) / mp.mpf(2))
    return float(mp.quad(density, [-mp.inf, t]))


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 3.0), (8.0, 0.5), (2.5, 7.5), (30.0, 30.0)])
@pytest.mark.parametrize("x", [1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-6])
def test_reg_inc_beta_grid(a, b, x):
    assert kernels.reg_inc_beta(a, b, x) == pytest.approx(oracle_inc_beta(a, b, x), abs=1e-10)


def test_reg_inc_beta_bounds():
    assert kernels.reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert kernels.reg_inc_beta(2.0, 3.0, 1.0) == 1.0


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 8.0, 50.0])
@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 3.0, 10.0, 80.0])
def test_reg_upper_gamma_grid(a, x):
    assert kernels.reg_upper_gamma(a, x) == pytest.approx(oracle_upper_gamma(a, x), abs=1e-10)


@pytest.mark.parametrize("df", [1, 4, 16, 100])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.5, -2.5, 5.0])
def test_student_t_cdf_quadrature(t, df):
    assert kernels.student_t_cdf(t, df) == pytest.approx(oracle_t_cdf(t, df), abs=1e-10)


@pytest.mark.parametrize("df", [2, 16, 40])
@pytest.mark.parametrize("p", [0.025, 0.1, 0.5, 0.9, 0.975, 0.995])
def test_student_t_quantile_inverts_cdf(p, df):
    q = kernels.student_t_quantile(p, df)
    assert kernels.student_t_cdf(q, df) == pytest.approx(p, abs=1e-12)


def oracle_t_quantile(p, df):
    # The CDF is strictly increasing, so its root is unique and starting the
    # secant at the value under test cannot bias the reference.
    start = mp.mpf(kernels.student_t_quantile(p, df))
    p, df = mp.mpf(p), mp.mpf(df)

    def cdf(t):
        x = df / (df + t * t)
        half_tail = mp.betainc(df / 2, mp.mpf(1) / 2, 0, x, regularized=True) / 2
        return 1 - half_tail if t >= 0 else half_tail

    return mp.findroot(lambda t: cdf(t) - p, start)


@pytest.mark.parametrize("p,df", [
    *((p, df) for df in [1, 2, 3, 5, 16, 195, 495, 10000]
      for p in [0.0005, 0.05, 0.6, 0.9, 0.975, 0.995, 0.999999]),
    # next to the median, where the CDF must not subtract from 1
    (0.5 - 1e-7, 5), (0.5 + 1e-7, 5), (0.5 - 1e-7, 16), (0.5 + 1e-7, 16),
])
def test_student_t_quantile_oracle(p, df):
    ref = oracle_t_quantile(p, df)
    assert kernels.student_t_quantile(p, df) == pytest.approx(float(ref), rel=1e-10)


def test_f_upper_matches_beta_identity():
    # F tail written through the t: F(1, df) tail at t^2 equals two-sided t
    for t_val, df in [(1.3, 9), (2.7, 21)]:
        assert kernels.f_upper_tail(t_val**2, 1, df) == pytest.approx(
            kernels.student_t_two_sided(t_val, df), rel=1e-12
        )


def test_chi_square_df2_closed_form():
    for x in [0.3, 1.0, 4.0, 12.0]:
        assert kernels.chi_square_upper_tail(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)


@pytest.mark.parametrize("upper", [2.0, 10.0, 1e3])
def test_zero_sum_quadrature_tight(upper):
    assert abs(kernels.log_beta_weight_integral(upper, 1e-10)) <= 1e-8


def test_zero_sum_quadrature_wide_oracle():
    # high-precision reference for the widest interval
    ref = mp.quad(lambda b: mp.log(b) / (1 + b**2), [mp.mpf(10) ** -6, 1, mp.mpf(10) ** 6])
    assert abs(float(ref)) < 1e-12
    assert abs(kernels.log_beta_weight_integral(1e6, 1e-7)) <= 1e-6


def reference_propagate(betas, mean_ln_flow, mean_ln_price, beta_qm, r_m):
    """Per-draw loop over the closed-form equilibrium (the removed loop kernel)."""
    out = np.empty((betas.shape[0], 5))
    for i in range(betas.shape[0]):
        b = betas[i]
        y_e = np.log(b) / (1.0 + b * b)
        x_e = -b * y_e
        ln_price = mean_ln_price + y_e
        ln_quantity = mean_ln_flow + x_e
        beta_xm = b * beta_qm
        out[i, 0] = ln_price
        out[i, 1] = ln_quantity
        out[i, 2] = ln_price + ln_quantity
        out[i, 3] = beta_xm
        out[i, 4] = beta_xm * r_m
    return out


def reference_equilibria(beta, eps_s, eps_d):
    """Per-shock loop over the shocked solve (the removed loop kernel)."""
    lnb = np.log(beta)
    denom = 1.0 + beta * beta
    out_x = np.empty_like(eps_s)
    out_y = np.empty_like(eps_s)
    for i in range(eps_s.shape[0]):
        y = (lnb + beta * eps_d[i] + eps_s[i]) / denom
        out_y[i] = y
        out_x[i] = -beta * y + eps_d[i]
    return out_x, out_y


def test_propagate_matches_loop_reference():
    rng = np.random.default_rng(5)
    # two full row blocks of propagate_beta_draws and a partial third
    betas = np.exp(rng.normal(0.0, 0.4, size=2 * 8192 + 37))
    betas[0] = 1.0
    expected = reference_propagate(betas, 2.113, 2.828, 5.36, 0.029)
    assert np.array_equal(kernels.propagate_beta_draws(betas, 2.113, 2.828, 5.36, 0.029),
                          expected)


@pytest.mark.parametrize("beta", [0.919, 1 / 0.919, 2.0, 0.1, 1.0])
def test_equilibria_match_loop_reference(beta):
    rng = np.random.default_rng(6)
    eps_s = rng.normal(0, 0.05, size=2048)
    eps_d = rng.normal(0, 0.05, size=2048)
    x_ref, y_ref = reference_equilibria(beta, eps_s, eps_d)
    x, y = kernels.equilibria_from_shocks(beta, eps_s, eps_d)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(y, y_ref)


def test_solve_equilibrium_broadcasts():
    betas = np.array([0.1, 0.919, 1.0, 2.0])
    eps_d = np.array([-0.1, 0.0, 0.05])
    x_e, y_e = kernels.solve_equilibrium(betas[:, None], 0.02, eps_d)
    assert x_e.shape == y_e.shape == (4, 3)
    for i, b in enumerate(betas):
        for j, d in enumerate(eps_d):
            assert (x_e[i, j], y_e[i, j]) == kernels.solve_equilibrium(b, 0.02, d)
