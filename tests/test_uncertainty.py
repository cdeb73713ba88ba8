import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import truncnorm

from natbeta import beta_algebra, kernels, market_curves, uncertainty
from natbeta.uncertainty import (
    MAX_DRAWS,
    QUANTITY_NAMES,
    BetaDraws,
    UncertaintyError,
    derived_intervals,
    sample_betas,
)

from conftest import (NEAR_BUDGET_SEED, STUB_SEED_NONE_PAST_ONE, STUB_SEED_TWO_PAST_ONE,
                      TRUNCATED_N7_SEED)


def normal_quantile(p):
    """Oracle: invert the normal CDF by bisection on erfc."""
    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fixed_draws(values):
    """BetaDraws holding the given positive betas themselves: at se 0 the map
    from stored values to betas is the identity."""
    values = np.array(values, dtype=np.float64)
    return BetaDraws(values=values, n_redrawn=0, seed=0, mean=float(values.mean()))


def test_zero_se_gives_constant_draws():
    draws = sample_betas(0.9, 0.0, 1000, seed=1)
    assert np.all(draws.values == 0.9)
    assert draws.n_redrawn == 0


def test_quantiles_match_normal_oracle():
    draws = sample_betas(0.919, 0.018, 1_000_000, seed=2024)
    lo, hi = np.quantile(draws.betas(draws.values), [0.05, 0.95])
    z = normal_quantile(0.95)
    assert lo == pytest.approx(0.919 - z * 0.018, abs=1e-3)
    assert hi == pytest.approx(0.919 + z * 0.018, abs=1e-3)
    assert draws.n_redrawn == 0  # positivity is 51 sigma away


def test_excessive_truncation_raises():
    # the first pass alone rejects 8462 of the 10 000 draws, and aborts with
    # the message of the redraw rounds (test_redraw_abort_matches_per_index_philox)
    with pytest.raises(UncertaintyError,
                       match=r"^excessive truncation: more than half of 10000 draws rejected$"):
        sample_betas(-1.0, 1.0, 10_000, seed=0)


def test_mild_truncation_redraws_and_counts():
    draws = sample_betas(0.5, 0.25, 50_000, seed=4)
    assert np.all(draws.betas(draws.values) > 0)
    # P(draw <= 0) = Phi(-2) ~ 2.3%, so some redraws must have happened
    assert 0 < draws.n_redrawn < 0.5 * 50_000


def base_uniforms(seed, n):
    """The first ``n`` uniforms of the SFC64 generator seeded from seed mod 2**64."""
    return np.random.Generator(np.random.SFC64(seed & ((1 << 64) - 1))).random(n)


REDRAW_CASES = pytest.mark.parametrize("mean, se, draws, seed", [
    (0.1, 0.1, 20_000, 7),
    (0.5, 0.25, 50_000, 4),
    (0.043, 0.1, 10_000, NEAR_BUDGET_SEED),  # near the budget of 5000 redraws
    (0.1, 0.1, 20_000, 2**64 - 1),  # key word >= 2**63
])


@REDRAW_CASES
def test_positive_first_pass_draws_keep_their_bits(mean, se, draws, seed):
    got = sample_betas(mean, se, draws, seed)
    first = base_uniforms(seed, draws)
    kept = first > uncertainty._truncation_floor(mean, se)
    assert got.values[kept].tobytes() == first[kept].tobytes()
    assert got.n_redrawn > 0


@REDRAW_CASES
def test_redraws_continue_the_base_stream(mean, se, draws, seed):
    got = sample_betas(mean, se, draws, seed)
    floor = uncertainty._truncation_floor(mean, se)
    candidates = base_uniforms(seed, draws + got.n_redrawn)
    assert np.all(got.values > floor)
    assert np.all(got.betas(got.values) > 0.0)
    redrawn = candidates[:draws] <= floor
    assert np.isin(got.values[redrawn], candidates[draws:]).all()
    # every candidate above the floor is kept and every other one counted as rejected
    assert np.count_nonzero(candidates > floor) == draws


@pytest.mark.parametrize("mean, se", [
    (1e-300, 1.0), (0.01, 0.1), (0.1, 0.1), (1.0, 0.25), (5.0, 1.0), (8.2, 1.0), (9.0, 1.0),
    (37.0, 1.0), (38.5, 1.0), (40.0, 1.0), (1e10, 1.0), (1.0, 1e-300), (1e300, 1e-10),
    # subnormal betas, where se * Q(u) rounds by half the least subnormal
    (5e-324, 5e-324), (1e-323, 5e-324), (5e-324, 1e-323), (1e-320, 3e-321), (1e-310, 1e-310),
])
def test_every_uniform_above_the_truncation_floor_maps_to_a_positive_beta(mean, se):
    # from tiny to huge mean/se, where the floor underflows to 0: the grid
    # points of Generator.random just above the floor, and the next floats
    floor = uncertainty._truncation_floor(mean, se)
    grid = (math.floor(floor * 2.0**53) + np.arange(1, 65)) * 2.0**-53
    nexts = [math.nextafter(floor, 1.0)]
    for _ in range(63):
        nexts.append(math.nextafter(nexts[-1], 1.0))
    u = np.concatenate([grid, nexts])
    u = u[(u > floor) & (u < 1.0)]
    draws = BetaDraws(values=u, n_redrawn=0, seed=0, mean=mean, se=se)
    assert u.size and np.all(draws.betas(u) > 0.0)


def test_redraws_near_budget_case_is_near_budget():
    n_redrawn = sample_betas(0.043, 0.1, 10_000, NEAR_BUDGET_SEED).n_redrawn
    assert 0.9 * 5_000 <= n_redrawn <= 5_000


def test_seeds_picked_for_a_rare_event_keep_it():
    # the premises of the cases that count the paper stub's draws past b = 1,
    # and of the 7-draw truncated case; the near-budget seed's is the test above
    for seed, n_past in ((STUB_SEED_NONE_PAST_ONE, 0), (STUB_SEED_TWO_PAST_ONE, 2)):
        draws = sample_betas(0.919, 0.018, 100_000, seed)
        assert np.count_nonzero(draws.betas(draws.values) >= 1.0) == n_past, seed
    assert sample_betas(0.1, 0.1, 7, TRUNCATED_N7_SEED).n_redrawn <= 3


def test_redrawn_betas_follow_the_truncated_normal():
    mean, se, n = 0.1, 0.1, 200_000
    draws = sample_betas(mean, se, n, seed=7)
    values = np.sort(draws.betas(draws.values))

    def upper_tail(x):
        return 0.5 * math.erfc((x - mean) / (se * math.sqrt(2)))

    mass = upper_tail(0.0)
    cdf = np.array([1.0 - upper_tail(x) / mass for x in values.tolist()])
    ranks = np.arange(1, n + 1) / n
    d = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n)))
    assert d < 1.628 / math.sqrt(n)  # Kolmogorov-Smirnov, 1% level


@pytest.mark.parametrize("mean, se, n", [
    (0.919, 0.018, 100_000),  # the paper stub
    (0.1, 0.1, 20_000),  # the truncated_20k inputs: ~16% of first-pass draws redrawn
    (0.9, 0.03, 20_000),  # beside the turning point of ln_user_cost at b = 1
    (1.6, 0.1, 20_000),  # between it and the turning point of ln_price at b ~ 1.895
])
def test_endpoints_lie_near_their_exact_limits(paper, mean, se, n):
    # sample_betas draws N(mean, se) truncated to (0, inf), whose q-quantile
    # Q(q) and density p come from scipy.  On a monotone map f, a type-7
    # endpoint tends to f(Q(q)), with SD sqrt(q(1-q)/n) / p(Q(q)) * |f'(Q(q))|
    # (the normal limit of a sample quantile).  Every endpoint checked lies
    # within 4 such SDs at each of 20 seeds.  The np.quantile checks read the
    # same draws as the code under test; this one fails on draws from the
    # wrong law: a biased redraw round, a wrong truncation, a mis-keyed
    # stream.  An equilibrium quantity is checked only where no turning
    # point lies within 6 se of the mean.
    level = 0.9
    means = (paper["mean_ln_flow"], paper["mean_ln_price"])
    q = np.array([0.5 * (1.0 - level), 0.5 * (1.0 + level)])
    a = -mean / se
    beta_q = truncnorm.ppf(q, a, np.inf, loc=mean, scale=se)
    beta_sd = np.sqrt(q * (1.0 - q) / n) / truncnorm.pdf(beta_q, a, np.inf, loc=mean, scale=se)

    def f(betas):
        # every quantity at each beta, in QUANTITY_NAMES order
        return np.column_stack([kernels.propagate_beta_draws(betas, *means),
                                *beta_algebra.chain_products(betas, paper["beta_qm"],
                                                             paper["r_m"])])

    h = 1e-6 * beta_q
    slope = (f(beta_q + h) - f(beta_q - h)) / (2.0 * h[:, None])
    limit, sd = f(beta_q), beta_sd[:, None] * np.abs(slope)
    # a falling quantity takes its lower endpoint from the beta's upper quantile
    falling = slope[0] < 0.0
    limit[:, falling], sd[:, falling] = limit[::-1, falling], sd[::-1, falling]
    checked = [name for name in QUANTITY_NAMES
               if all(abs(t - mean) > 6.0 * se for t in market_curves.TURNING_POINTS.get(name, ()))]
    columns = [QUANTITY_NAMES.index(name) for name in checked]
    z = np.array([
        [derived_intervals(sample_betas(mean, se, n, seed), paper["beta_qm"], paper["r_m"],
                           *means, level=level).bounds[name] for name in checked]
        for seed in range(20)
    ]).transpose(0, 2, 1)  # seed, endpoint, quantity
    z = (z - limit[:, columns]) / sd[:, columns]
    worst = np.unravel_index(np.abs(z).argmax(), z.shape)
    assert np.abs(z).max() < 4.0, (checked[worst[2]], int(worst[0]), float(z[worst]))


def test_seeds_are_masked_to_64_bits():
    got = sample_betas(0.1, 0.1, 20_000, 2**64 + 5)
    ref = sample_betas(0.1, 0.1, 20_000, 5)
    assert got.values.tobytes() == ref.values.tobytes()
    assert got.n_redrawn == ref.n_redrawn
    top = sample_betas(0.1, 0.1, 20_000, 2**64 - 1)
    assert np.all(top.betas(top.values) > 0.0)


def test_redraw_abort_matches_per_index_philox():
    # the first pass rejects fewer than half the draws; the redraw rounds
    # then cross the budget and abort with the message the per-index
    # Philox redraw loop gave for these arguments, which the SFC64 rounds keep
    with pytest.raises(UncertaintyError) as got:
        sample_betas(0.01, 0.1, 10_000, 3)
    assert str(got.value) == "excessive truncation: more than half of 10000 draws rejected"


def test_draws_above_the_cap_raise_before_allocating():
    for draws in (MAX_DRAWS + 1, 10**11):
        with pytest.raises(UncertaintyError, match=rf"^draws must be <= {MAX_DRAWS}, got {draws}$"):
            sample_betas(0.9, 0.1, draws, seed=1)


def test_determinism_bitwise():
    a = sample_betas(0.5, 0.25, 20_000, seed=9)
    b = sample_betas(0.5, 0.25, 20_000, seed=9)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.n_redrawn == b.n_redrawn
    c = sample_betas(0.5, 0.25, 20_000, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_sample_validation():
    with pytest.raises(UncertaintyError):
        sample_betas(1.0, 0.1, 0, seed=0)
    with pytest.raises(UncertaintyError):
        sample_betas(1.0, -0.1, 10, seed=0)
    with pytest.raises(UncertaintyError):
        sample_betas(1.0, 0.1, 10, seed=-3)
    with pytest.raises(UncertaintyError):
        sample_betas(-1.0, 0.0, 10, seed=0)


def test_single_draw_degenerate_intervals(paper):
    report = derived_intervals(
        fixed_draws([0.919]), paper["beta_qm"], paper["r_m"],
        paper["mean_ln_flow"], paper["mean_ln_price"], level=0.9,
    )
    assert report.draws_used == 1
    for name in QUANTITY_NAMES:
        lo, hi = report.bounds[name]
        assert lo == hi


def test_paper_inputs_reproduce_interval_table(paper):
    draws = sample_betas(0.919, 0.018, 100_000, seed=77)
    report = derived_intervals(
        draws, paper["beta_qm"], paper["r_m"],
        paper["mean_ln_flow"], paper["mean_ln_price"], level=0.90,
    )
    fig3 = paper["fig3"]
    tol = {"ln_price": 0.02, "ln_quantity": 0.02, "ln_user_cost": 0.02,
           "beta_xm": 0.15, "r_x": 0.004}
    for name, (lo_ref, hi_ref) in fig3.items():
        lo, hi = report.bounds[name]
        assert lo == pytest.approx(lo_ref, abs=tol[name]), name
        assert hi == pytest.approx(hi_ref, abs=tol[name]), name
    assert draws.seed == 77
    assert report.draws_used == 100_000


def test_point_estimate_inside_bounds(paper):
    draws = sample_betas(0.919, 0.018, 50_000, seed=5)
    report = derived_intervals(
        draws, paper["beta_qm"], paper["r_m"],
        paper["mean_ln_flow"], paper["mean_ln_price"], level=0.90,
    )
    for name in QUANTITY_NAMES:
        lo, hi = report.bounds[name]
        assert lo <= report.point[name] <= hi


def test_intervals_widen_with_level(paper):
    draws = sample_betas(0.919, 0.018, 50_000, seed=6)
    args = (paper["beta_qm"], paper["r_m"], paper["mean_ln_flow"], paper["mean_ln_price"])
    narrow = derived_intervals(draws, *args, level=0.80)
    wide = derived_intervals(draws, *args, level=0.95)
    for name in QUANTITY_NAMES:
        assert wide.bounds[name][0] <= narrow.bounds[name][0]
        assert wide.bounds[name][1] >= narrow.bounds[name][1]


def test_monotone_map_equals_mapped_quantiles(paper):
    # beta_xm and r_x are monotone in beta, so each endpoint is the lerp of
    # the beta's mapped order statistics, bit for bit; a negative rate
    # reverses the order of r_x
    draws = sample_betas(0.919, 0.018, 200_000, seed=8)
    lo_q = 0.5 * (1.0 - 0.90)
    beta_xm = np.sort(draws.betas(draws.values)) * paper["beta_qm"]
    for r_m in (paper["r_m"], -0.03):
        report = derived_intervals(
            draws, paper["beta_qm"], r_m,
            paper["mean_ln_flow"], paper["mean_ln_price"], level=0.90,
        )
        for name, mapped in (("beta_xm", beta_xm), ("r_x", beta_xm * r_m)):
            expected = [float(q) for q in np.quantile(mapped, [lo_q, 1.0 - lo_q])]
            assert report.bounds[name] == expected, (name, r_m)


def test_non_monotone_price_map_needs_per_draw_evaluation(paper):
    # ln(b)/(1+b^2) peaks near b = 1.9: with draws spanning the turning
    # point, mapping the beta interval endpoints understates the upper
    # price quantile; the per-draw empirical quantile is authoritative
    draws = sample_betas(1.9, 0.3, 200_000, seed=11)
    report = derived_intervals(
        draws, paper["beta_qm"], paper["r_m"], 0.0, 0.0, level=0.90,
    )
    beta_lo, beta_hi = np.quantile(draws.betas(draws.values), [0.05, 0.95])
    mapped = sorted(
        (math.log(b) / (1 + b * b) for b in (beta_lo, beta_hi))
    )
    empirical_hi = report.bounds["ln_price"][1]
    assert empirical_hi > mapped[1] + 0.004
    peak = math.log(1.9) / (1 + 1.9**2)
    assert empirical_hi <= peak + 1e-9


def test_derived_intervals_validation(paper):
    good = fixed_draws([1.0, 1.1])
    with pytest.raises(UncertaintyError):
        derived_intervals(good, -1.0, 0.03, 0.0, 0.0)
    with pytest.raises(UncertaintyError):
        derived_intervals(good, 1.0, 0.03, 0.0, 0.0, level=1.5)


def test_draws_that_are_not_float64_raise():
    # float32 values read as uint64 keys would be taken two at a time
    for size in (100, 101):
        draws = BetaDraws(values=np.full(size, 0.9, dtype=np.float32), n_redrawn=0, seed=0,
                          mean=0.9)
        with pytest.raises(UncertaintyError, match=r"^draws must hold float64 values"):
            derived_intervals(draws, 1.0, 0.03, 0.0, 0.0)


@pytest.mark.parametrize("bad", [-0.5, -1e-300, 0.0, -0.0, math.nan, -math.inf])
@pytest.mark.parametrize("n", [10, 200, 20_000])
def test_draws_holding_a_non_positive_or_nan_value_raise(paper, bad, n):
    # Read as uint64 keys, 0.0 orders first and every negative value and
    # NaN last, so one such value among the uniforms, or among betas held
    # at se 0, is an extreme key
    draws = sample_betas(0.919, 0.018, n, seed=n)
    for count in (1, n // 10, n // 2):
        at = np.random.default_rng(count).choice(n, count, replace=False)
        for values, se in ((draws.values.copy(), draws.se), (draws.betas(draws.values), 0.0)):
            values[at] = bad
            hand_built = BetaDraws(values=values, n_redrawn=0, seed=0, mean=draws.mean, se=se)
            with np.errstate(invalid="ignore", divide="ignore"), \
                    pytest.raises(UncertaintyError):
                derived_intervals(hand_built, paper["beta_qm"], paper["r_m"],
                                  paper["mean_ln_flow"], paper["mean_ln_price"])


positive_floats = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=True),
    st.integers(1, 2**53 - 1).map(lambda k: k * 2.0**-53),  # the uniforms' grid
    st.integers(1, 2**52 - 1).map(lambda k: k * 2.0**-1074),  # subnormals
    st.just(math.inf),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), pool=st.lists(positive_floats, min_size=1, max_size=40))
def test_positive_floats_select_as_uint64_keys(data, pool):
    # values drawn from a small pool, so most rows hold ties
    a = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300)))
    ranks = data.draw(st.sets(st.integers(0, a.size - 1), min_size=1))
    expected = np.sort(a)
    stats, splits = uncertainty._order_stats(a.view(np.uint64), ranks)
    assert set(stats) == ranks
    got = np.fromiter(stats.values(), np.uint64).view(np.float64)
    assert got.tobytes() == expected[list(stats)].tobytes()
    assert np.array_equal(np.sort(a), expected)  # a permutation
    for x in splits - {0, a.size}:
        assert a[:x].max() <= a[x:].min()


@pytest.mark.parametrize("level,n", [
    *itertools.product([0.0001, 0.5, 0.9, 0.99, 0.999999], [1, 2, 3, 1000, 100_000]),
    # both endpoints share their two rows at n = 2 (every level) and at
    # n = 1000, level 0.0001.  At n = 5, level 0.5 the virtual indices are
    # the integers 1 and 3, so a descending r_x needs the beta's rank 0,
    # which no ascending endpoint selects; at n = 101, level 0.9 they fall
    # a rounding step from the integers 5 and 95.  At n = 1001, level 0.5
    # they are the integers 250 and 750, whose mirrors are 750 and 250 but
    # whose neighbours 251 and 751 mirror to 749 and 249.  At n = 7, level
    # 0.9 the upper endpoint takes rank n - 1.
    (0.5, 5), (0.9, 101), (0.5, 1001), (0.9, 7),
])
# a negative rate makes r_x descending; -0.0 makes every r_x a negative zero
@pytest.mark.parametrize("r_m", [0.029, 0.0, -0.03, -0.0])
def test_sorted_column_bounds_equal_numpy_quantile(paper, level, n, r_m):
    for mean, se, seed in [
        # the paper stub: every equilibrium quantity is mapped from the
        # beta's order statistics; at STUB_SEED_TWO_PAST_ONE two of 100 000
        # draws lie past b = 1, where ln_user_cost turns, and are evaluated
        # per draw
        (0.919, 0.018, n), (0.919, 0.018, STUB_SEED_TWO_PAST_ONE),
        # needed betas that straddle the turning point of ln_price
        # (b ~ 1.895), both of ln_quantity (b ~ 0.301, ~ 3.319) and both of
        # ln_user_cost (b = 1, ~ 4.716): that quantity is selected by the
        # K-rank rule, from the lowest, the highest and the uniforms beside
        # each turning point's u-rank
        (1.9, 0.3, n), (0.3013, 0.05, n), (3.3, 0.1, n), (1.0, 0.05, n), (4.7, 0.2, n),
        # tail blocks alone that straddle the minimum of ln_quantity
        # (b ~ 3.319), the maximum of ln_price, both turning points of
        # ln_quantity and of ln_user_cost (b ~ 4.716): their draws past it
        # are evaluated, and those beyond the nearest endpoint's value
        # make the quantity fall back
        (2.5, 0.4, n), (1.81, 0.04, n), (0.32, 0.008, n), (3.17, 0.07, n),
        (0.96, 0.02, n), (4.9, 0.09, n),
        # tails whose draws past a turning point take values among the
        # others': such an endpoint is selected from those values and a
        # window of the beta's order statistics beside its rank.  Between
        # them both directions, both tails and both signs of the shift; at
        # up to 1001 draws, which windows reach already.  At 7 draws seed 7
        # rejects too many of (0.1, 0.1), so that case takes another seed
        *[(mean, se, TRUNCATED_N7_SEED if (n, mean) == (7, 0.1) else n)
          for mean, se in [(0.1, 0.1), (0.6, 0.3), (0.9, 0.08), (1.6, 0.5), (2.5, 0.9),
                           (3.0, 0.8), (4.0, 1.0)] if n < 100_000],
    ]:
        draws = sample_betas(mean, se, n, seed=seed)
        # the per-draw reference, from the betas mapped before derived_intervals
        # partitions the uniforms
        betas = draws.betas(draws.values)
        table = kernels.propagate_beta_draws(betas, paper["mean_ln_flow"], paper["mean_ln_price"])
        assert table.shape == (n, 3)
        beta_xm = betas * paper["beta_qm"]
        table = np.column_stack([table, beta_xm, beta_xm * r_m])
        lo_q = 0.5 * (1.0 - level)
        expected = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
        report = derived_intervals(draws, paper["beta_qm"], r_m, paper["mean_ln_flow"],
                                   paper["mean_ln_price"], level=level)
        for j, name in enumerate(QUANTITY_NAMES):
            # compared as bytes, so the sign of a zero bound counts
            assert np.array(report.bounds[name]).tobytes() == expected[:, j].tobytes(), \
                (name, mean, se)


def test_nan_column_bounds_are_not_finite():
    # inf * 0 (or * -0.0) puts one NaN in the r_x column, at the largest beta
    draws = fixed_draws([0.9] * 99 + [2.0])
    for r_m in (0.0, -0.0):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(UncertaintyError, match=r"^interval bounds of r_x are not finite$"):
            derived_intervals(draws, 1e308, r_m, 0.0, 0.0)


@pytest.mark.parametrize("r_m", [-0.03, 0.0, -0.0])
def test_overflowed_endpoints_are_not_finite(r_m):
    # beta_xm overflows at the six largest betas, past the upper endpoint's
    # rows; r_x follows it to -inf, NaN or NaN
    draws = fixed_draws([0.9] * 94 + [2.0] * 6)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(UncertaintyError,
                          match=r"^interval bounds of beta_xm, r_x are not finite$"):
        derived_intervals(draws, 1e308, r_m, 0.0, 0.0)


@pytest.mark.parametrize("at", [0, 12_345, 99_999])
def test_one_infinite_beta_makes_equilibrium_bounds_not_finite(paper, at):
    # an infinite beta puts a NaN (inf/inf) in every equilibrium row, which
    # the K-rank rule selects as the largest value of each quantity
    draws = sample_betas(0.919, 0.018, 100_000, seed=7)
    values = draws.betas(draws.values)
    values[at] = math.inf
    for r_m in (paper["r_m"], -0.03):
        with np.errstate(invalid="ignore"), pytest.raises(
                UncertaintyError,
                match=r"^interval bounds of ln_price, ln_quantity, ln_user_cost are not finite$"):
            derived_intervals(fixed_draws(values), paper["beta_qm"], r_m,
                              paper["mean_ln_flow"], paper["mean_ln_price"])


def record_work(monkeypatch):
    """Record each row ``_order_stats`` selects from, and a copy of each
    argument of ``kernels.normal_quantile`` and of the equilibrium kernel."""
    selections, mapped, passed = [], [], []
    order_stats = uncertainty._order_stats
    quantile, propagate = kernels.normal_quantile, kernels.propagate_beta_draws

    def recording_selection(row, ranks):
        selections.append(row)
        return order_stats(row, ranks)

    def recording_quantile(u):
        mapped.append(np.array(u))
        return quantile(u)

    def recording_propagation(betas, *args):
        passed.append(np.array(betas))
        return propagate(betas, *args)

    monkeypatch.setattr(uncertainty, "_order_stats", recording_selection)
    monkeypatch.setattr(kernels, "normal_quantile", recording_quantile)
    monkeypatch.setattr(kernels, "propagate_beta_draws", recording_propagation)
    return selections, mapped, passed


def test_paper_stub_selects_only_the_beta_from_no_cuts(monkeypatch, paper):
    # The report's bits cannot tell mapped order statistics from per-draw
    # selection, so record the work: the uniforms alone are selected, in
    # place; the normal quantile maps their six selected order statistics
    # and the tail draws at or past the uniform of the guard of b = 1 (where
    # ln_user_cost turns); the kernel sees the four needed betas, those
    # draws, here the ones past b = 1, and the mean.
    selections, mapped, passed = record_work(monkeypatch)
    for seed, n_past in ((STUB_SEED_NONE_PAST_ONE, 0), (STUB_SEED_TWO_PAST_ONE, 2)):
        draws = sample_betas(0.919, 0.018, 100_000, seed=seed)
        uniforms = np.sort(draws.values)
        ordered = np.sort(draws.betas(draws.values))
        selections.clear()
        mapped.clear()
        passed.clear()
        derived_intervals(draws, paper["beta_qm"], paper["r_m"],
                          paper["mean_ln_flow"], paper["mean_ln_price"])
        assert len(selections) == 1 and selections[0].base is draws.values
        assert np.array_equal(np.sort(draws.values), uniforms)  # a permutation
        [u] = mapped
        assert u[:6].tobytes() == uniforms[[0, 4_999, 5_000, 94_999, 95_000, 99_999]].tobytes()
        assert u.size == 6 + n_past and np.all(u[6:] > uniforms[95_000])
        [betas] = passed
        past = ordered[ordered >= 1.0]
        assert past.size == n_past
        assert betas.size == 4 + n_past + 1
        assert betas[:4].tobytes() == ordered[[4_999, 5_000, 94_999, 95_000]].tobytes()
        assert np.sort(betas[4:-1]).tobytes() == past.tobytes()
        assert betas[-1] == 0.919


def test_tail_draws_past_a_turning_point_select_from_rank_windows(monkeypatch, paper):
    # At the truncated_20k inputs about 530 of 20 000 draws lie past
    # b ~ 0.3013, where ln_quantity turns, and some of their values fall
    # among the others' below the upper endpoint.  That endpoint is selected
    # from them and one window of the beta's order statistics beside its
    # ranks: the kernel sees the needed betas, the past draws and the mean,
    # then the window, never an n-long array, and only the uniforms are
    # selected.  The normal quantile maps as few: the selected order
    # statistics with the draws at or past the guard's uniform, then the
    # window.
    selections, mapped, passed = record_work(monkeypatch)
    means = (paper["mean_ln_flow"], paper["mean_ln_price"])
    lo_q = 0.5 * (1.0 - 0.90)
    guard = market_curves.TURNING_POINTS["ln_quantity"][0] * (1.0 - uncertainty._TURN_MARGIN)
    for seed in range(10):
        draws = sample_betas(0.1, 0.1, 20_000, seed=seed)
        betas = draws.betas(draws.values)
        beta_xm = betas * paper["beta_qm"]
        table = np.column_stack([kernels.propagate_beta_draws(betas, *means), beta_xm,
                                 beta_xm * paper["r_m"]])
        expected = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
        selections.clear()
        mapped.clear()
        passed.clear()
        report = derived_intervals(draws, paper["beta_qm"], paper["r_m"], *means)
        assert len(selections) == 1 and selections[0].base is draws.values
        assert len(passed) == 2 and sum(map(len, passed)) < 1_500, seed
        assert len(mapped) == 2 and sum(map(len, mapped)) < 1_500, seed
        assert passed[0].size - 5 == np.count_nonzero(draws.values >= draws.u_at(guard))
        for j, name in enumerate(QUANTITY_NAMES):
            assert np.array(report.bounds[name]).tobytes() == expected[:, j].tobytes(), \
                (name, seed)


def test_needed_betas_inside_the_turn_margin_go_to_the_k_rank_rule(monkeypatch, paper):
    # The five largest of 100 fixed betas, the upper needed ones among
    # them, sit 2**-20 (relative) on either side of the guard 2**-10 below
    # the turning point of ln_price (b ~ 1.895).  Outside the margin every
    # quantity is evaluated at the needed betas alone, in one kernel call;
    # inside it ln_price goes to the K-rank rule, a second call on its
    # candidates.  Both give the bounds of the table of every draw.
    _, _, passed = record_work(monkeypatch)
    means = (paper["mean_ln_flow"], paper["mean_ln_price"])
    lo_q = 0.5 * (1.0 - 0.90)
    guard = market_curves.TURNING_POINTS["ln_price"][0] * (1.0 - 2.0**-10)
    for side, calls in ((-1.0, 1), (1.0, 2)):
        values = np.concatenate([np.linspace(1.1, 1.5, 95), [guard * (1.0 + side * 2.0**-20)] * 5])
        beta_xm = values * paper["beta_qm"]
        table = np.column_stack([kernels.propagate_beta_draws(values, *means), beta_xm,
                                 beta_xm * paper["r_m"]])
        expected = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
        passed.clear()
        report = derived_intervals(fixed_draws(values), paper["beta_qm"], paper["r_m"], *means)
        assert len(passed) == calls, side
        for j, name in enumerate(QUANTITY_NAMES):
            assert np.array(report.bounds[name]).tobytes() == expected[:, j].tobytes(), \
                (name, side)


def test_a_draw_at_a_guards_uniform_gives_the_tables_bounds(paper):
    # One of 100 uniforms lies exactly at the uniform of a guard of
    # ln_quantity, 2**-10 inside b ~ 0.3013, or a grid step (2**-53) to
    # either side; the others lie well clear of it.  That draw is a needed
    # rank or the most extreme one, a past draw: the high guard of the
    # rising piece in the upper tail, the low guard of the falling piece in
    # the lower.  Every case gives the bounds of the table of every draw.
    turn = market_curves.TURNING_POINTS["ln_quantity"][0]
    lo_q = 0.5 * (1.0 - 0.90)
    for mean, se, guard, lower, upper, ranks in [
        (0.1, 0.1, turn * (1.0 - 2.0**-10), (0.3, 0.97), (0.985, 0.995), (95, 99)),
        (0.5, 0.1, turn * (1.0 + 2.0**-10), (0.005, 0.015), (0.03, 0.7), (4, 0)),
    ]:
        at = BetaDraws(values=np.empty(0), n_redrawn=0, seed=0, mean=mean, se=se).u_at(guard)
        for rank, step in itertools.product(ranks, (-1, 0, 1)):
            values = np.concatenate([np.linspace(*lower, rank), [at + step * 2.0**-53],
                                     np.linspace(*upper, 99 - rank)])
            draws = BetaDraws(values=values, n_redrawn=0, seed=0, mean=mean, se=se)
            betas = draws.betas(values)
            beta_xm = betas * paper["beta_qm"]
            table = np.column_stack([
                kernels.propagate_beta_draws(betas, paper["mean_ln_flow"], paper["mean_ln_price"]),
                beta_xm, beta_xm * paper["r_m"]])
            expected = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
            report = derived_intervals(draws, paper["beta_qm"], paper["r_m"],
                                       paper["mean_ln_flow"], paper["mean_ln_price"])
            for j, name in enumerate(QUANTITY_NAMES):
                assert np.array(report.bounds[name]).tobytes() == expected[:, j].tobytes(), \
                    (name, mean, rank, step)


def test_straddled_turning_point_maps_a_quarter_of_the_draws_at_most(monkeypatch, paper):
    # At the stub (1.0, 0.1) the needed betas straddle b = 1, where
    # ln_user_cost turns, so that quantity is selected by the K-rank rule:
    # from the 5 001 lowest and highest uniforms and 5 002 on each side of
    # the u-rank of b = 1.  Neither the normal quantile nor the kernel is
    # given more than a quarter of the draws, and the bounds are those of
    # the table of every draw.
    selections, mapped, passed = record_work(monkeypatch)
    means = (paper["mean_ln_flow"], paper["mean_ln_price"])
    lo_q = 0.5 * (1.0 - 0.90)
    draws = sample_betas(1.0, 0.1, 100_000, seed=5)
    betas = draws.betas(draws.values)
    beta_xm = betas * paper["beta_qm"]
    table = np.column_stack([kernels.propagate_beta_draws(betas, *means), beta_xm,
                             beta_xm * paper["r_m"]])
    expected = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
    mapped.clear()
    passed.clear()
    report = derived_intervals(draws, paper["beta_qm"], paper["r_m"], *means)
    assert passed and max(map(len, mapped)) <= 25_000 and max(map(len, passed)) <= 25_000
    for j, name in enumerate(QUANTITY_NAMES):
        assert np.array(report.bounds[name]).tobytes() == expected[:, j].tobytes(), name


def test_rank_windows_stop_at_the_draws_past_the_guards():
    # Draws past both turning points of ln_user_cost (b = 1 and ~ 4.716)
    # whose values fall so far among the others' that the window beside an
    # endpoint would reach into their own beta ranks, below the lower guard
    # in the first case and above the upper one in the second: it stops at
    # the guards, or a past draw would be counted twice
    for below, inside, above, level in [
        (np.geomspace(1e-3, 0.99, 5), np.linspace(1.01, 4.6, 64), np.geomspace(4.8, 1e7, 20), 0.5),
        (np.linspace(0.01, 0.04, 4), np.linspace(1.01, 4.0, 93), np.linspace(4.75, 5.5, 4), 0.9),
    ]:
        values = np.concatenate([below, inside, above])
        lo_q = 0.5 * (1.0 - level)
        expected = np.quantile(kernels.propagate_beta_draws(values, 0.0, 0.0), [lo_q, 1.0 - lo_q],
                               axis=0)
        report = derived_intervals(fixed_draws(values), 1.0, 0.029, 0.0, 0.0, level=level)
        assert np.array(report.bounds["ln_user_cost"]).tobytes() == expected[:, 2].tobytes()


def test_overflow_beyond_the_endpoints_leaves_descending_bounds_finite():
    # one overflowed beta_xm is r_x's -inf minimum, outside both endpoints
    draws = fixed_draws([0.9] * 99 + [2.0])
    with np.errstate(over="ignore"):
        report = derived_intervals(draws, 1e308, -0.03, 0.0, 0.0)
    assert report.bounds["beta_xm"] == [0.9 * 1e308] * 2
    assert report.bounds["r_x"] == [0.9 * 1e308 * -0.03] * 2
