import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natbeta.beta_algebra import (
    BetaAlgebraError,
    beta_from_slope,
    build_beta_set,
    build_return_set,
    chain_to_market,
    natural_return,
)


def test_published_slope_maps_to_magnitude(paper):
    assert beta_from_slope(paper["slope"]) == pytest.approx(0.919, abs=1e-12)


def test_negative_unit_slope():
    assert beta_from_slope(-1.0) == 1.0


def test_positive_slope_takes_reciprocal():
    assert beta_from_slope(0.5) == pytest.approx(2.0, abs=1e-12)


def test_zero_slope_is_an_error():
    with pytest.raises(BetaAlgebraError):
        beta_from_slope(0.0)


def test_non_finite_slope_is_an_error():
    with pytest.raises(BetaAlgebraError):
        beta_from_slope(float("nan"))
    with pytest.raises(BetaAlgebraError):
        beta_from_slope(float("inf"))


def test_chain_to_market_published(paper):
    assert chain_to_market(0.919, paper["beta_qm"]) == pytest.approx(4.93, abs=0.005)


def test_chain_to_market_identity_and_half():
    assert chain_to_market(1.0, 3.3) == 3.3
    assert chain_to_market(0.5, 2.0) == 1.0


def test_chain_rejects_non_positive():
    with pytest.raises(BetaAlgebraError):
        chain_to_market(-1.0, 2.0)
    with pytest.raises(BetaAlgebraError):
        chain_to_market(1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_betas_reject_nan_and_inf(bad):
    with pytest.raises(BetaAlgebraError):
        chain_to_market(bad, 2.0)
    with pytest.raises(BetaAlgebraError):
        build_beta_set(1.0, bad)
    with pytest.raises(BetaAlgebraError):
        natural_return(bad, 0.05)


def test_natural_return_published(paper):
    assert natural_return(4.93, paper["r_m"]) == pytest.approx(0.143, abs=1e-3)


def test_natural_return_edges():
    assert natural_return(2.0, 0.0) == 0.0
    assert natural_return(1.0, 0.07) == 0.07
    with pytest.raises(BetaAlgebraError):
        natural_return(0.0, 0.05)


nonzero_slopes = st.floats(min_value=1e-6, max_value=1e6).flatmap(
    lambda m: st.sampled_from([m, -m])
)


@settings(max_examples=100, deadline=None)
@given(nonzero_slopes)
def test_world_swap_involution(alpha):
    # the opposite-correlation world has slope 1/alpha; its beta is the
    # reciprocal, and swapping twice returns the original beta
    beta = beta_from_slope(alpha)
    swapped = beta_from_slope(1.0 / alpha)
    assert beta * swapped == pytest.approx(1.0, rel=1e-12)
    assert beta_from_slope(1.0 / (1.0 / alpha)) == pytest.approx(beta, rel=1e-12)


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
    set_lo = build_beta_set(lo, beta_qm)
    set_hi = build_beta_set(hi, beta_qm)
    assert set_lo.beta_xm < set_hi.beta_xm
    assert build_return_set(set_lo, r_m).r_x < build_return_set(set_hi, r_m).r_x


def test_beta_set_invariants(paper):
    betas = build_beta_set(0.919, paper["beta_qm"])
    assert betas.beta_xq * betas.beta_qx == pytest.approx(1.0, abs=1e-12)
    assert betas.beta_xm == pytest.approx(betas.beta_xq * betas.beta_qm, abs=1e-12)
    returns = build_return_set(betas, paper["r_m"])
    assert returns.r_x == pytest.approx(betas.beta_xq * returns.r_q, abs=1e-12)


def test_returns_require_finite_rate():
    betas = build_beta_set(1.0, 1.0)
    with pytest.raises(BetaAlgebraError):
        build_return_set(betas, math.inf)
