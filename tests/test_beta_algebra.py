import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natbeta.beta_algebra import BetaAlgebraError, beta_from_slope, market_chain


def test_published_slope_maps_to_magnitude(paper):
    beta, se = beta_from_slope(paper["slope"], paper["slope_se"])
    assert beta == pytest.approx(0.919, abs=1e-12)
    assert se == paper["slope_se"]


def test_negative_unit_slope():
    assert beta_from_slope(-1.0, 0.1) == (1.0, 0.1)


def test_positive_slope_takes_reciprocal():
    beta, se = beta_from_slope(0.5, 0.1)
    assert beta == pytest.approx(2.0, abs=1e-12)
    assert se == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("slope,se", [(-0.919, 0.018), (-3.0, 0.0), (-1e-300, 7.5)])
def test_negative_branch_keeps_the_slope_se(slope, se):
    assert beta_from_slope(slope, se) == (-slope, se)


@pytest.mark.parametrize("slope,se", [(2.0, 0.1), (0.919, 0.018), (1e-100, 1e-3), (3.0, 0.0)])
def test_positive_branch_scales_the_se_by_the_squared_slope(slope, se):
    # delta method for 1/a: |d(1/a)/da| * se = se / a^2, bit for bit
    assert beta_from_slope(slope, se) == (1.0 / slope, se / (slope * slope))


@pytest.mark.parametrize("se", [0.0, 0.1])
def test_positive_slope_whose_square_underflows_has_an_unbounded_se(se):
    assert beta_from_slope(1e-200, se) == (1e200, math.inf)


def test_zero_slope_is_an_error():
    with pytest.raises(BetaAlgebraError):
        beta_from_slope(0.0, 0.1)


def test_non_finite_slope_is_an_error():
    with pytest.raises(BetaAlgebraError):
        beta_from_slope(float("nan"), 0.1)
    with pytest.raises(BetaAlgebraError):
        beta_from_slope(float("inf"), 0.1)


@pytest.mark.parametrize("se", [math.nan, math.inf, -0.1])
def test_non_finite_or_negative_slope_se_is_an_error(se):
    with pytest.raises(BetaAlgebraError, match="slope se"):
        beta_from_slope(-0.919, se)


def test_chain_to_market_published(paper):
    betas, _ = market_chain(0.919, paper["beta_qm"], paper["r_m"])
    assert betas["beta_xm"] == pytest.approx(4.93, abs=0.005)


def test_chain_to_market_identity_and_half():
    assert market_chain(1.0, 3.3, 0.05)[0]["beta_xm"] == 3.3
    assert market_chain(0.5, 2.0, 0.05)[0]["beta_xm"] == 1.0


def test_chain_rejects_non_positive():
    with pytest.raises(BetaAlgebraError):
        market_chain(-1.0, 2.0, 0.05)
    with pytest.raises(BetaAlgebraError):
        market_chain(1.0, 0.0, 0.05)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_betas_reject_nan_and_inf(bad):
    with pytest.raises(BetaAlgebraError, match="beta_xq"):
        market_chain(bad, 2.0, 0.05)
    with pytest.raises(BetaAlgebraError, match="beta_qm"):
        market_chain(1.0, bad, 0.05)


def test_natural_return_published(paper):
    _, returns = market_chain(4.93, 1.0, paper["r_m"])
    assert returns["r_x"] == pytest.approx(0.143, abs=1e-3)


def test_natural_return_edges():
    assert market_chain(2.0, 1.0, 0.0)[1]["r_x"] == 0.0
    assert market_chain(1.0, 1.0, 0.07)[1]["r_x"] == 0.07
    with pytest.raises(BetaAlgebraError):
        market_chain(0.0, 1.0, 0.05)
    # a product of two positive betas that underflows leaves beta_xm non-positive
    with pytest.raises(BetaAlgebraError, match="beta_xm underflows"):
        market_chain(1e-200, 1e-200, 0.05)


@pytest.mark.parametrize("beta_xq,beta_qm,r_m,formed", [
    (5e-324, 1.0, 0.03, "beta_qx"),
    (1e200, 1e200, 0.05, "beta_xm"),
    (1.0, 1e308, 10.0, "r_q"),
    (0.01, 1e308, 10.0, "r_q"),
    (1.0, 1e308, -10.0, "r_q"),
    (10.0, 1e307, 2.0, "r_x"),
])
def test_a_formed_value_that_overflows_is_an_error(beta_xq, beta_qm, r_m, formed):
    with pytest.raises(BetaAlgebraError, match=f"^{formed} overflows"):
        market_chain(beta_xq, beta_qm, r_m)


nonzero_slopes = st.floats(min_value=1e-6, max_value=1e6).flatmap(
    lambda m: st.sampled_from([m, -m])
)


@settings(max_examples=100, deadline=None)
@given(nonzero_slopes)
def test_world_swap_involution(alpha):
    # the opposite-correlation world has slope 1/alpha; its beta is the
    # reciprocal, and swapping twice returns the original beta
    beta, _ = beta_from_slope(alpha, 0.0)
    swapped, _ = beta_from_slope(1.0 / alpha, 0.0)
    assert beta * swapped == pytest.approx(1.0, rel=1e-12)
    assert beta_from_slope(1.0 / (1.0 / alpha), 0.0)[0] == pytest.approx(beta, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=1e-4, max_value=0.5),
)
def test_monotonicity_in_beta_xq(b1, b2, beta_qm, r_m):
    if b1 == b2:
        return
    lo, hi = sorted((b1, b2))
    betas_lo, returns_lo = market_chain(lo, beta_qm, r_m)
    betas_hi, returns_hi = market_chain(hi, beta_qm, r_m)
    assert betas_lo["beta_xm"] < betas_hi["beta_xm"]
    assert returns_lo["r_x"] < returns_hi["r_x"]


def test_beta_set_invariants(paper):
    betas, returns = market_chain(0.919, paper["beta_qm"], paper["r_m"])
    assert list(betas) == ["beta_xq", "beta_qx", "beta_qm", "beta_xm"]
    assert list(returns) == ["r_m", "r_q", "r_x"]
    assert betas["beta_xq"] * betas["beta_qx"] == pytest.approx(1.0, abs=1e-12)
    assert betas["beta_xm"] == pytest.approx(betas["beta_xq"] * betas["beta_qm"], abs=1e-12)
    assert returns["r_x"] == pytest.approx(betas["beta_xq"] * returns["r_q"], abs=1e-12)


def test_returns_require_finite_rate():
    with pytest.raises(BetaAlgebraError, match="market rate"):
        market_chain(1.0, 1.0, math.inf)
    with pytest.raises(BetaAlgebraError, match="market rate"):
        market_chain(1.0, 1.0, math.nan)
