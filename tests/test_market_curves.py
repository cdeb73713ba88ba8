"""Curve and equilibrium tests.

The analytic equilibrium is cross-checked against an independent 2x2
linear-system solve; curve-sample intersections against a linear
interpolation oracle; each half of the zero-sum integral and the turning
points against mpmath.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natbeta import beta_algebra, kernels, market_curves, pipeline, uncertainty
from natbeta.market_curves import (
    CurveError,
    EquilibriumPoint,
    MAX_CURVE_SAMPLES,
    TURNING_POINTS,
    curve_samples,
    elasticities,
    equilibrium_deviation,
    equilibrium_levels,
    shocked_equilibrium,
    zero_sum_integral,
)


def solve_curve_system(beta):
    """Independent oracle: solve {y = b x + ln b, x = -b y} as a 2x2 system."""
    A = np.array([[-beta, 1.0], [1.0, beta]])
    rhs = np.array([math.log(beta), 0.0])
    x, y = np.linalg.solve(A, rhs)
    return x, y


def test_equilibrium_at_unit_beta_is_origin():
    assert equilibrium_deviation(1.0) == (0.0, 0.0)


def test_equilibrium_published_beta(paper):
    x_e, y_e = equilibrium_deviation(0.919)
    assert y_e == pytest.approx(-0.0458, abs=2e-4)
    assert x_e == pytest.approx(0.0421, abs=2e-4)


@pytest.mark.parametrize("beta", [math.e, 0.2, 0.919, 3.7, 42.0])
def test_equilibrium_matches_linear_system_oracle(beta):
    x_ref, y_ref = solve_curve_system(beta)
    x_e, y_e = equilibrium_deviation(beta)
    assert x_e == pytest.approx(x_ref, abs=1e-12)
    assert y_e == pytest.approx(y_ref, abs=1e-12)
    assert y_e == pytest.approx(math.log(beta) / (1 + beta**2), abs=1e-14)


def test_equilibrium_rejects_bad_beta():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(CurveError):
            equilibrium_deviation(bad)


def test_levels_published_chain(paper):
    point = equilibrium_levels(0.919, paper["mean_ln_flow"], paper["mean_ln_price"])
    assert point.ln_price == pytest.approx(paper["ln_price"], abs=2e-3)
    assert point.ln_quantity == pytest.approx(paper["ln_quantity"], abs=2e-3)
    assert point.ln_user_cost == pytest.approx(paper["ln_user_cost"], abs=3e-3)
    assert point.price == pytest.approx(math.exp(point.ln_price), rel=1e-12)
    assert point.quantity == pytest.approx(math.exp(point.ln_quantity), rel=1e-12)


def test_levels_at_unit_beta_equal_means():
    point = equilibrium_levels(1.0, -0.7, 1.9)
    assert point.ln_quantity == -0.7
    assert point.ln_price == 1.9
    assert point.ln_user_cost == pytest.approx(1.2, abs=1e-15)


def test_levels_derived_two_zero_means():
    point = equilibrium_levels(2.0, 0.0, 0.0)
    x_ref, y_ref = solve_curve_system(2.0)
    assert point.ln_price == pytest.approx(math.log(2) / 5, abs=1e-12)
    assert point.ln_quantity == pytest.approx(-2 * math.log(2) / 5, abs=1e-12)
    assert point.ln_quantity == pytest.approx(x_ref, abs=1e-12)


def test_levels_require_finite_means():
    with pytest.raises(CurveError):
        equilibrium_levels(1.0, math.nan, 0.0)


def test_elasticities_values(paper):
    assert elasticities(1.0) == (1.0, 1.0)
    sup, dem = elasticities(2.0)
    assert (sup, dem) == (0.5, 2.0)
    assert dem > 1.0  # demand elastic for beta > 1
    sup, dem = elasticities(0.919)
    assert sup == pytest.approx(1.0881, abs=1e-3)
    assert dem == pytest.approx(0.919, abs=1e-12)
    assert sup == pytest.approx(1.0 / dem, rel=1e-12)


def test_curve_specs_and_samples():
    table = curve_samples(1.0, (-1.0, 1.0), 3)
    np.testing.assert_allclose(table[:, :2], [[-1, -1], [0, 0], [1, 1]], atol=1e-15)
    x, _, demand_y = curve_samples(2.0, (-1.0, 1.0), 3)[2]
    assert (x, demand_y) == (1.0, pytest.approx(-0.5))


def test_curve_samples_validation():
    with pytest.raises(CurveError):
        curve_samples(1.0, (0.0, 0.0), 5)
    with pytest.raises(CurveError):
        curve_samples(1.0, (-1.0, 1.0), 1)
    with pytest.raises(CurveError, match="count must be <="):
        curve_samples(1.0, (-1.0, 1.0), MAX_CURVE_SAMPLES + 1)
    # the grid step overflows, then a supply y; no NumPy warning either way
    with pytest.raises(CurveError, match="not finite"):
        curve_samples(0.5, (-1e308, 1e308), 5)
    with pytest.raises(CurveError, match="not finite"):
        curve_samples(1e300, (-1e10, 1e10), 5)


def test_sampled_curves_intersect_at_equilibrium():
    # linear-interpolation intersection oracle on dense samples
    beta = 0.919
    x_e, y_e = equilibrium_deviation(beta)
    sup = curve_samples(beta, (x_e - 0.1, x_e + 0.1), 201)
    gap = sup[:, 1] - sup[:, 2]
    sign_change = np.flatnonzero(np.diff(np.sign(gap)))
    assert sign_change.size >= 1
    i = int(sign_change[0])
    t = gap[i] / (gap[i] - gap[i + 1])
    x_cross = sup[i, 0] + t * (sup[i + 1, 0] - sup[i, 0])
    y_cross = sup[i, 1] + t * (sup[i + 1, 1] - sup[i, 1])
    grid_tol = (sup[1, 0] - sup[0, 0])
    assert x_cross == pytest.approx(x_e, abs=grid_tol)
    assert y_cross == pytest.approx(y_e, abs=grid_tol)


def test_curve_consistency_over_log_grid():
    betas = np.logspace(-3, 3, 1000)
    for beta in betas:
        x_e, y_e = equilibrium_deviation(beta)
        assert abs(y_e - (beta * x_e + math.log(beta))) <= 1e-12
        assert abs(x_e - (-beta * y_e)) <= 1e-12


def test_sign_laws():
    for beta in (1.5, 2.0, 10.0):
        x_e, y_e = equilibrium_deviation(beta)
        assert y_e > 0 and x_e < 0
    for beta in (0.1, 0.5, 0.99):
        x_e, y_e = equilibrium_deviation(beta)
        assert y_e < 0 and x_e > 0
    assert equilibrium_deviation(1.0) == (0.0, 0.0)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_reciprocal_beta_identity(beta):
    # y_e(1/b) computed from the formula equals -ln(b)/(1 + 1/b^2)
    _, y_swap = equilibrium_deviation(1.0 / beta)
    assert y_swap == pytest.approx(-math.log(beta) / (1.0 + beta**-2), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("upper", [2.0, 10.0, 1e3])
def test_zero_sum_integral_tight(upper):
    assert abs(zero_sum_integral(upper, 1e-8)) <= 1e-8


def test_zero_sum_integral_wide():
    assert abs(zero_sum_integral(1e6, 1e-6)) <= 1e-6


def test_zero_sum_integral_unit_interval():
    assert zero_sum_integral(1.0) == 0.0


def test_zero_sum_integral_validation():
    with pytest.raises(CurveError):
        zero_sum_integral(0.5)
    with pytest.raises(CurveError):
        zero_sum_integral(2.0, tolerance=0.0)
    # a non-finite bound, and a tolerance below the rule's accuracy
    for upper, tolerance in [(math.inf, 1e-8), (math.nan, 1e-8), (2.0, math.nan),
                             (2.0, 1e-15)]:
        with pytest.raises(CurveError):
            zero_sum_integral(upper, tolerance)


@pytest.mark.parametrize("upper", [2.0, 10.0, 1e3])
def test_zero_sum_quadrature_tight(upper):
    assert abs(zero_sum_integral(upper, 1e-10)) <= 1e-8


def test_zero_sum_quadrature_wide_oracle():
    # high-precision reference for the widest interval: at mpmath's default
    # 15 digits the quadrature itself reads -2.95e-11
    with mp.workdps(40):
        ref = mp.quad(lambda b: mp.log(b) / (1 + b**2), [mp.mpf(10) ** -6, 1, mp.mpf(10) ** 6])
    assert abs(float(ref)) < 1e-12
    assert abs(zero_sum_integral(1e6, 1e-7)) <= 1e-6


@pytest.mark.parametrize("upper", [1 + 2**-40, 2.0, 10.0, 1e3, 1e6, 1e41, 1e42, 1e100,
                                   1e300, 1.7e308])
def test_zero_sum_halves_match_mpmath(upper):
    # each half is +-0.9160 (Catalan's constant) for a wide interval, so a
    # sum near 0 alone would not show a wrong half
    log_upper = math.log(upper)
    with mp.workdps(40):
        u_max = mp.mpf(log_upper)
        cuts = [u for u in (10, 50) if u < u_max]
        half = mp.quad(lambda u: u / (mp.exp(u) + mp.exp(-u)), [0, *cuts, u_max])
        assert abs(market_curves._weight_integral(0.0, log_upper) - half) <= 1e-15
        assert abs(market_curves._weight_integral(-log_upper, 0.0) + half) <= 1e-15


def test_turning_points_are_where_the_finite_differences_change_sign():
    # each map rises from b -> 0 and turns at each of its turning points,
    # and nowhere else on a dense log grid
    b = np.geomspace(1e-3, 1e3, 2_000_001)
    x_e, y_e = kernels.solve_equilibrium(b)
    for name, values in (("ln_price", y_e), ("ln_quantity", x_e), ("ln_user_cost", x_e + y_e)):
        rising = np.diff(values) > 0.0
        turns = np.flatnonzero(rising[1:] != rising[:-1]) + 1
        assert rising[0], name
        assert len(turns) == len(TURNING_POINTS[name]), name
        for i, t in zip(turns, TURNING_POINTS[name]):
            assert b[i - 1] < t < b[i + 1], (name, t)


def test_turning_points_are_roots_of_the_derivative_to_the_last_bits():
    # the literal's residual: the 40-digit derivative is ~0 at each turning point
    # and changes sign within 4 ulps of it
    def y_e(b):
        return mp.log(b) / (1 + b * b)

    maps = {"ln_price": y_e, "ln_quantity": lambda b: -b * y_e(b),
            "ln_user_cost": lambda b: (1 - b) * y_e(b)}
    assert TURNING_POINTS["ln_user_cost"][0] == 1.0
    with mp.workdps(40):
        for name, turns in TURNING_POINTS.items():
            for t in map(mp.mpf, turns):
                assert abs(mp.diff(maps[name], t)) < 1e-15, (name, t)
                below, above = (mp.diff(maps[name], t * (1 + d * 8.9e-16)) for d in (-1, 1))
                assert below * above < 0, (name, t)


def test_each_map_alternates_direction_at_every_turning_point_past_the_margin():
    # On a log grid and a dense grid around each turning point, each map
    # rises from b -> 0 to its first turning point and moves the other way
    # past each one, at every grid point the Monte Carlo stage's margin or
    # more from a turning point: its direction on a piece is the parity of
    # the piece's index
    margin = uncertainty._TURN_MARGIN
    turns = [t for points in TURNING_POINTS.values() for t in points]
    grid = np.unique(np.concatenate([
        np.geomspace(1e-3, 1e3, 401),
        *(t * (1.0 + margin * np.linspace(-3.0, 3.0, 121)) for t in turns),
        *([t * (1.0 - margin), t * (1.0 + margin)] for t in turns)]))
    x_e, y_e = kernels.solve_equilibrium(grid)
    for name, values in (("ln_price", y_e), ("ln_quantity", x_e), ("ln_user_cost", x_e + y_e)):
        ends = (0.0, *TURNING_POINTS[name], math.inf)
        for i, (low, high) in enumerate(zip(ends, ends[1:])):
            inside = (low * (1.0 + margin) <= grid) & (grid <= high * (1.0 - margin))
            sign = -1.0 if i % 2 else 1.0
            assert np.count_nonzero(inside) > 100, (name, i)
            assert np.all(sign * np.diff(values[inside]) > 0.0), (name, i)


def test_turning_points_list_the_reported_quantities_with_the_maps_that_turn_first(paper):
    # one table owns the quantity set: its keys are a stub report's interval
    # names, in order, and its maps that turn, the equilibrium kernel's
    # columns, come before the products of the beta
    report = pipeline.run_estimate(None, beta_qm=paper["beta_qm"], r_m=paper["r_m"], level=0.9,
                                   draws=1000, seed=0, slope=paper["slope"],
                                   slope_se=paper["slope_se"], mean_ln_flow=paper["mean_ln_flow"],
                                   mean_ln_price=paper["mean_ln_price"])
    assert list(TURNING_POINTS) == list(report.intervals["bounds"])
    assert uncertainty.QUANTITY_NAMES == tuple(TURNING_POINTS)
    turns = [bool(points) for points in TURNING_POINTS.values()]
    assert turns == sorted(turns, reverse=True)
    assert sum(turns) == kernels.propagate_beta_draws(np.ones(1), 0.0, 0.0).shape[1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=2.0**-1074, max_value=1e150), min_size=2, max_size=40),
       st.floats(min_value=2.0**-1074, max_value=1e150),
       st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e6, max_value=1e6)))
def test_products_of_the_beta_are_monotone_to_the_last_bit(betas, beta_qm, r_m):
    # the maps without turning points: over ascending positive betas
    # beta_xm never falls, and r_x moves the way of r_m's sign, which it
    # carries, so at r_m = +-0 every r_x is a zero of that sign
    beta_xm, r_x = beta_algebra.chain_products(np.sort(betas), beta_qm, r_m)
    sign = math.copysign(1.0, r_m)
    assert np.all(np.diff(beta_xm) >= 0.0)
    assert np.all(sign * np.diff(r_x) >= 0.0)
    assert np.all(np.signbit(r_x) == (sign < 0.0))


def test_shocked_equilibrium_no_shock_is_equilibrium():
    for beta in (0.5, 1.0, 2.0):
        assert shocked_equilibrium(beta, 0.0, 0.0) == equilibrium_deviation(beta)


def test_shocked_equilibrium_unit_beta_plug_in():
    x_e, y_e = shocked_equilibrium(1.0, 0.0, 0.1, mode="general")
    assert y_e == pytest.approx(0.05, abs=1e-15)
    assert x_e == pytest.approx(0.05, abs=1e-15)


def test_paper_mode_matches_general_with_opposed_shocks():
    betas = np.logspace(-1, 1, 10)
    deltas = np.linspace(-0.5, 0.5, 10)
    for beta in betas:
        for delta in deltas:
            paper_pt = shocked_equilibrium(beta, 123.0, delta, mode="paper")  # eps_s ignored
            general_pt = shocked_equilibrium(beta, -delta, delta, mode="general")
            assert paper_pt[0] == pytest.approx(general_pt[0], abs=1e-12)
            assert paper_pt[1] == pytest.approx(general_pt[1], abs=1e-12)


def test_paper_mode_reproduces_shock_form():
    # x_e = unshocked value + eps_d * (1 + b) / (1 + b^2)
    for beta in (0.5, 0.919, 2.0):
        delta = 0.07
        x0, _ = equilibrium_deviation(beta)
        x_e, _ = shocked_equilibrium(beta, 0.0, delta, mode="paper")
        assert x_e == pytest.approx(x0 + delta * (1 + beta) / (1 + beta**2), abs=1e-14)


def test_shocked_equilibrium_validation():
    with pytest.raises(CurveError):
        shocked_equilibrium(-1.0, 0.0, 0.0)
    with pytest.raises(CurveError):
        shocked_equilibrium(1.0, 0.0, 0.0, mode="weird")
