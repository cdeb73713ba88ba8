import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.stats import truncnorm

from natbeta import kernels, market_curves, uncertainty
from natbeta.uncertainty import (
    MAX_DRAWS,
    QUANTITY_NAMES,
    BetaDraws,
    UncertaintyError,
    derived_intervals,
    sample_betas,
)

from conftest import (NEAR_BUDGET_SEED, STUB_SEED_NONE_PAST_ONE, STUB_SEED_TWO_PAST_ONE,
                      TRUNCATED_N7_SEED, reference_table)


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
    """A table of the given positive betas themselves, every block given: at
    se 0 the map from stored values to betas is the identity."""
    values = np.array(values, dtype=np.float64)
    return BetaDraws.from_values(values, mean=values.mean())


def test_zero_se_gives_constant_draws():
    draws = sample_betas(0.9, 0.0, 3000, seed=1)
    assert np.all(draws.values() == 0.9)
    assert draws.low == draws.high == 0.9 and np.all(draws.knots == 0.9)
    assert draws.n_redrawn == 0


def test_quantiles_match_normal_oracle():
    draws = sample_betas(0.919, 0.018, 1_000_000, seed=2024)
    lo, hi = np.quantile(draws.betas(draws.values()), [0.05, 0.95])
    z = normal_quantile(0.95)
    assert lo == pytest.approx(0.919 - z * 0.018, abs=1e-3)
    assert hi == pytest.approx(0.919 + z * 0.018, abs=1e-3)
    assert draws.n_redrawn == 0  # positivity is 51 sigma away


def test_excessive_truncation_raises():
    # about 84% of candidates are rejected, so the negative binomial count of
    # rejections far exceeds the budget of 5 000
    with pytest.raises(UncertaintyError,
                       match=r"^excessive truncation: more than half of 10000 draws rejected$"):
        sample_betas(-1.0, 1.0, 10_000, seed=0)


def test_mild_truncation_redraws_and_counts():
    draws = sample_betas(0.5, 0.25, 50_000, seed=4)
    assert np.all(draws.betas(draws.values()) > 0)
    # P(draw <= 0) = Phi(-2) ~ 2.3%, so some redraws must have happened
    assert 0 < draws.n_redrawn < 0.5 * 50_000


REDRAW_CASES = pytest.mark.parametrize("mean, se, draws, seed", [
    (0.1, 0.1, 20_000, 7),
    (0.5, 0.25, 50_000, 4),
    (0.043, 0.1, 10_000, NEAR_BUDGET_SEED),  # near the budget of 5000 redraws
    (0.1, 0.1, 20_000, 2**64 - 1),  # the largest seed kept by the mask
])


@REDRAW_CASES
def test_positive_first_pass_draws_keep_their_bits(mean, se, draws, seed):
    # where candidates are rejected, the block boundaries sample_betas draws
    # at once lie strictly between the floor and 1, map to positive betas, and
    # are held bit for bit at the last rank of each block of the table
    got = sample_betas(mean, se, draws, seed)
    floor = uncertainty._truncation_floor(mean, se)
    assert got.n_redrawn > 0
    assert got.knots.size == (draws - 1) // 1024
    assert np.all((floor < got.knots) & (got.knots < 1.0))
    assert np.all(got.betas(got.knots) > 0.0)
    assert got.values()[1023:-1:1024].tobytes() == got.knots.tobytes()


@REDRAW_CASES
def test_redraws_continue_the_base_stream(mean, se, draws, seed):
    # the rejection count is drawn from the stream right after the
    # boundary spacings, and every uniform of the table lies strictly
    # between the floor and 1, ascending, and maps to a positive beta
    got = sample_betas(mean, se, draws, seed)
    floor = uncertainty._truncation_floor(mean, se)
    stream = np.random.Generator(np.random.PCG64(seed & ((1 << 64) - 1)))
    knots = (draws - 1) // 1024
    stream.standard_gamma(1024.0, knots)
    stream.standard_gamma(draws + 1 - 1024 * knots)
    assert got.n_redrawn == stream.negative_binomial(draws, 1.0 - floor) > 0
    table = got.values()
    assert table.size == draws and np.all(np.diff(table) >= 0.0)
    assert floor < table[0] and table[-1] < 1.0
    assert np.all(got.betas(table) > 0.0)


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
    draws = BetaDraws.from_values(u, mean, se)
    assert u.size and np.all(draws.betas(u) > 0.0)


def test_redraws_near_budget_case_is_near_budget():
    n_redrawn = sample_betas(0.043, 0.1, 10_000, NEAR_BUDGET_SEED).n_redrawn
    assert 0.9 * 5_000 <= n_redrawn <= 5_000


def test_seeds_picked_for_a_rare_event_keep_it():
    # the premises of the cases that count the paper stub's draws past b = 1,
    # and of the 7-draw truncated case; the near-budget seed's is the test above
    for seed, n_past in ((STUB_SEED_NONE_PAST_ONE, 0), (STUB_SEED_TWO_PAST_ONE, 2)):
        draws = sample_betas(0.919, 0.018, 100_000, seed)
        assert np.count_nonzero(draws.betas(draws.values()) >= 1.0) == n_past, seed
    assert sample_betas(0.1, 0.1, 7, TRUNCATED_N7_SEED).n_redrawn <= 3


def test_redrawn_betas_follow_the_truncated_normal():
    mean, se, n = 0.1, 0.1, 200_000
    draws = sample_betas(mean, se, n, seed=7)
    values = np.sort(draws.betas(draws.values()))

    def upper_tail(x):
        return 0.5 * math.erfc((x - mean) / (se * math.sqrt(2)))

    mass = upper_tail(0.0)
    cdf = np.array([1.0 - upper_tail(x) / mass for x in values.tolist()])
    ranks = np.arange(1, n + 1) / n
    d = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n)))
    assert d < 1.628 / math.sqrt(n)  # Kolmogorov-Smirnov, 1% level


@pytest.mark.parametrize("mean, n, ranks", [
    # a floor of about 0.006: with 7 draws a floor of 0.159 would abort
    # at some of the seeds
    (0.25, 7, [0, 3, 6]),
    (0.1, 1_000, [0, 499, 999]),  # a floor of about 0.159, as below
    # block boundaries (ranks 1 023, 50 175 and the last, 99 327), then
    # interior ranks of the first, a middle and the last block
    (0.1, 100_000, [1_023, 50_175, 99_327, 0, 5_000, 99_999]),
])
def test_each_rank_follows_the_law_of_a_uniform_order_statistic(mean, n, ranks):
    # Rank k of n iid uniforms on (floor, 1) is floor + (1 - floor) * X
    # with X ~ Beta(k + 1, n - k).  Over 300 seeds, the table's uniform at
    # each rank, rescaled, passes a Kolmogorov-Smirnov test of that law,
    # and every uniform read lies strictly between the floor and 1.
    se = 0.1
    floor = uncertainty._truncation_floor(mean, se)
    u = np.array([[draws.values(k, k + 1)[0] for k in ranks]
                  for draws in (sample_betas(mean, se, n, seed) for seed in range(300))])
    assert np.all((floor < u) & (u < 1.0))
    for column, k in zip((u - floor).T / (1.0 - floor), ranks):
        assert stats.kstest(column, stats.beta(k + 1, n - k).cdf).pvalue > 1e-3, k


@pytest.mark.parametrize("mean, se", [(0.1, 0.1), (0.5, 0.25)])
def test_rejection_count_follows_the_negative_binomial(mean, se):
    # A candidate is kept with probability 1 - floor, so the rejections
    # before 1 000 are kept follow NegBin(1 000, 1 - floor): a chi-square
    # test over 10 bins of about equal mass, at 400 seeds.
    n = 1_000
    law = stats.nbinom(n, 1.0 - uncertainty._truncation_floor(mean, se))
    counts = [sample_betas(mean, se, n, seed).n_redrawn for seed in range(400)]
    edges = np.unique(law.ppf(np.linspace(0.0, 1.0, 11)[1:-1]))
    observed = np.bincount(np.searchsorted(edges, counts), minlength=edges.size + 1)
    expected = np.diff(law.cdf(np.concatenate([[-1.0], edges, [np.inf]]))) * len(counts)
    assert stats.chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("n", [1, 1_023, 1_024, 1_025, 2_048, 100_000])
def test_the_table_is_drawn_from_the_stream_as_documented(n):
    # From PCG64(seed mod 2**64): the knots as the ratios of the cumulative
    # sums of n // 1024 Gamma(1024) spacings (one fewer where 1024 divides
    # n) to their total with the Gamma(n + 1 - 1024 * knots) rest, then the
    # rejection count; block j's interior from position 2**64 + 1024 * j
    mean, se, seed = 0.1, 0.1, 2**64 + 9
    got = sample_betas(mean, se, n, seed)
    stream = np.random.Generator(np.random.PCG64(9))
    knots = (n - 1) // 1024
    sums = np.cumsum([*stream.standard_gamma(1024.0, knots),
                      stream.standard_gamma(n + 1 - 1024 * knots)])
    floor = uncertainty._truncation_floor(mean, se)
    low, high = math.nextafter(floor, 1.0), math.nextafter(1.0, 0.0)
    assert got.n_redrawn == stream.negative_binomial(n, 1.0 - floor)
    assert (got.low, got.high) == (low, high)
    assert got.knots.tobytes() == (low + (high - low) * (sums[:-1] / sums[-1])).tobytes()
    j = knots  # the last block: no knot above it
    stream = np.random.Generator(np.random.PCG64(9))
    stream.bit_generator.advance(2**64 + 1024 * j)
    lo = got.knots[-1] if knots else low
    interior = np.sort(stream.random(n - 1024 * j)) * (high - lo) + lo
    assert got.values(1024 * j, n).tobytes() == np.minimum(interior, high).tobytes()


@pytest.mark.parametrize("mean, se, n", [
    (0.919, 0.018, 100_000), (0.1, 0.1, 20_000), (0.9, 0.0, 3_000), (0.9, 0.08, 7),
])
def test_each_rank_has_the_same_bits_whatever_is_read_first(mean, se, n):
    # a rank's uniform is a function of (seed, draws, floor, rank): read
    # alone from a fresh table, after other ranks and counts in reverse
    # order, or from the whole table, it has the same bits
    ranks = sorted({0, 1_022, 1_023, 1_024, 5_000, 12_345, n // 2, n - 1} & set(range(n)))
    alone = [sample_betas(mean, se, n, seed=11).values(k, k + 1) for k in ranks]
    draws = sample_betas(mean, se, n, seed=11)
    after = []
    for k in reversed(ranks):
        draws.searchsorted(draws.u_at(0.95))
        after.insert(0, draws.values(k, k + 1))
    whole = sample_betas(mean, se, n, seed=11).values()
    assert np.concatenate(alone).tobytes() == np.concatenate(after).tobytes() \
        == whole[ranks].tobytes()


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
    # wrong law: a biased block, a wrong truncation, a mis-keyed stream.
    # An equilibrium quantity is checked only where no turning point lies
    # within 6 se of the mean.
    level = 0.9
    means = (paper["mean_ln_flow"], paper["mean_ln_price"])
    q = np.array([0.5 * (1.0 - level), 0.5 * (1.0 + level)])
    a = -mean / se
    beta_q = truncnorm.ppf(q, a, np.inf, loc=mean, scale=se)
    beta_sd = np.sqrt(q * (1.0 - q) / n) / truncnorm.pdf(beta_q, a, np.inf, loc=mean, scale=se)

    def f(betas):
        return reference_table(betas, paper["beta_qm"], paper["r_m"], *means)

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
    assert got.values().tobytes() == ref.values().tobytes()
    assert got.n_redrawn == ref.n_redrawn
    top = sample_betas(0.1, 0.1, 20_000, 2**64 - 1)
    assert np.all(top.betas(top.values()) > 0.0)


def test_redraw_abort_matches_per_index_philox():
    # about 46% of candidates are rejected, so the rejection count crosses
    # the budget, with the message the per-index Philox redraw loop gave
    # for these arguments
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
    np.testing.assert_array_equal(a.values(), b.values())
    assert a.n_redrawn == b.n_redrawn
    c = sample_betas(0.5, 0.25, 20_000, seed=10)
    assert not np.array_equal(a.values(), c.values())


def test_sample_validation():
    with pytest.raises(UncertaintyError):
        sample_betas(1.0, 0.1, 0, seed=0)
    with pytest.raises(UncertaintyError):
        sample_betas(1.0, -0.1, 10, seed=0)
    with pytest.raises(UncertaintyError):
        sample_betas(1.0, 0.1, 10, seed=-3)
    with pytest.raises(UncertaintyError):
        sample_betas(-1.0, 0.0, 10, seed=0)


@pytest.mark.parametrize("bad", [1000.5, 1000.0, True, "3", None, np.float64(3.0)])
@pytest.mark.parametrize("argument", ["draws", "seed"])
def test_draws_and_seed_must_be_integers(argument, bad):
    # any value operator.index refuses, and bool: a float seed would run
    # truncated, and nothing allocates ``draws`` to reject a float
    args = {"draws": 1000, "seed": 1, argument: bad}
    with pytest.raises(UncertaintyError, match=rf"^{argument} must be an integer, got "):
        sample_betas(0.9, 0.1, **args)
    args[argument] = np.int64(3)  # a NumPy integer is an integer
    assert sample_betas(0.9, 0.1, **args).size == args["draws"]


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
    for r_m in (paper["r_m"], -0.03):
        report = derived_intervals(
            draws, paper["beta_qm"], r_m,
            paper["mean_ln_flow"], paper["mean_ln_price"], level=0.90,
        )
        # the full table, built after the call
        beta_xm = np.sort(draws.betas(draws.values())) * paper["beta_qm"]
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
    beta_lo, beta_hi = np.quantile(draws.betas(draws.values()), [0.05, 0.95])
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


@pytest.mark.parametrize("bad", [-0.5, -1e-300, 0.0, -0.0, math.nan, -math.inf])
@pytest.mark.parametrize("n", [10, 200, 20_000])
def test_draws_holding_a_non_positive_or_nan_value_raise(bad, n):
    # a hand-built table is checked when built: one such value among the
    # uniforms, or among betas held at se 0, is refused
    draws = sample_betas(0.919, 0.018, n, seed=n)
    for count in (1, n // 10, n // 2):
        at = np.random.default_rng(count).choice(n, count, replace=False)
        for values, se in ((draws.values().copy(), draws.se), (draws.betas(draws.values()), 0.0)):
            values[at] = bad
            with pytest.raises(UncertaintyError,
                               match=r"^draws must hold positive betas, or uniforms in \(0, 1\)$"):
                BetaDraws.from_values(values, draws.mean, se)
    for top in (1.0, 1.5, math.inf):  # a uniform must lie below 1
        with pytest.raises(UncertaintyError):
            BetaDraws.from_values([0.5, top], 0.9, 0.1)
    with pytest.raises(UncertaintyError):
        BetaDraws.from_values([], 0.9)


def test_uniforms_at_or_below_the_truncation_floor_are_refused():
    # uniform 1e-3 at N(0.3, 1) maps to beta -2.79: such a table is refused
    # when built, as is one holding the floor itself, and the next float
    # above the floor maps to a positive beta
    floor = uncertainty._truncation_floor(0.3, 1.0)
    for low in (1e-3, floor):
        with pytest.raises(UncertaintyError, match=r"^uniform .* is at or below the "
                                                   r"truncation floor 0\.38208"):
            BetaDraws.from_values([low, 0.5, 0.9], mean=0.3, se=1.0)
    above = math.nextafter(floor, 1.0)
    draws = BetaDraws.from_values([0.9, above, 0.5], mean=0.3, se=1.0)
    assert draws.low == above and draws.betas(draws.values())[0] > 0.0


positive_floats = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=True),
    st.integers(1, 2**53 - 1).map(lambda k: k * 2.0**-53),  # the uniforms' grid
    st.integers(1, 2**52 - 1).map(lambda k: k * 2.0**-1074),  # subnormals
    st.just(math.inf),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pool=st.lists(positive_floats, min_size=1, max_size=40),
       size=st.integers(1, 3 * uncertainty._BLOCK + 1), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_hand_built_tables_read_as_the_sorted_values(pool, size, seed, data):
    # values drawn from a small pool, so most rows hold ties, and long
    # enough to span up to four blocks: every range of ranks reads as the
    # sorted array, and searchsorted as NumPy's on it
    a = np.random.default_rng(seed).choice(np.array(pool), size)
    expected = np.sort(a)
    draws = BetaDraws.from_values(a, mean=1.0)
    assert draws.size == size
    assert draws.values().tobytes() == expected.tobytes()
    start = data.draw(st.integers(0, size - 1))
    stop = data.draw(st.integers(start + 1, size))
    assert draws.values(start, stop).tobytes() == expected[start:stop].tobytes()
    for x in (*pool, data.draw(positive_floats)):
        for side in ("left", "right"):
            assert draws.searchsorted(x, side) == np.searchsorted(expected, x, side)


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
        # up to 1001 draws, which windows reach already.  At 7 draws some
        # seeds reject too many of (0.1, 0.1), so that case takes one that
        # does not
        *[(mean, se, TRUNCATED_N7_SEED if (n, mean) == (7, 0.1) else n)
          for mean, se in [(0.1, 0.1), (0.6, 0.3), (0.9, 0.08), (1.6, 0.5), (2.5, 0.9),
                           (3.0, 0.8), (4.0, 1.0)] if n < 100_000],
    ]:
        draws = sample_betas(mean, se, n, seed=seed)
        report = derived_intervals(draws, paper["beta_qm"], r_m, paper["mean_ln_flow"],
                                   paper["mean_ln_price"], level=level)
        # the per-draw reference, from the full table built after the call
        table = reference_table(draws.betas(draws.values()), paper["beta_qm"], r_m,
                                paper["mean_ln_flow"], paper["mean_ln_price"])
        assert table.shape == (n, len(QUANTITY_NAMES))
        lo_q = 0.5 * (1.0 - level)
        expected = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
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


@pytest.mark.parametrize("r_m", [0.029, -0.03, 0.0, -0.0])
def test_one_infinite_beta_makes_equilibrium_bounds_not_finite(paper, r_m):
    # an infinite beta, the largest, puts a NaN (inf/inf) in every
    # equilibrium column of its row, and at r_m = +-0 one (inf * 0) in r_x
    draws = sample_betas(0.919, 0.018, 100_000, seed=7)
    values = draws.betas(draws.values())
    values[12_345] = math.inf
    names = "ln_price, ln_quantity, ln_user_cost" + (", r_x" if r_m == 0.0 else "")
    with np.errstate(invalid="ignore"), pytest.raises(
            UncertaintyError, match=rf"^interval bounds of {names} are not finite$"):
        derived_intervals(fixed_draws(values), paper["beta_qm"], r_m,
                          paper["mean_ln_flow"], paper["mean_ln_price"])


def record_work(monkeypatch):
    """Record the index of each block of a table drawn, and a copy of each
    argument of ``kernels.normal_quantile`` and of the equilibrium kernel."""
    blocks, mapped, passed = [], [], []
    sorted_uniforms = uncertainty._sorted_uniforms
    quantile, propagate = kernels.normal_quantile, kernels.propagate_beta_draws

    def recording_block(stream, j, *args):
        blocks.append(j)
        return sorted_uniforms(stream, j, *args)

    def recording_quantile(u):
        mapped.append(np.array(u))
        return quantile(u)

    def recording_propagation(betas, *args):
        passed.append(np.array(betas))
        return propagate(betas, *args)

    monkeypatch.setattr(uncertainty, "_sorted_uniforms", recording_block)
    monkeypatch.setattr(kernels, "normal_quantile", recording_quantile)
    monkeypatch.setattr(kernels, "propagate_beta_draws", recording_propagation)
    return blocks, mapped, passed


def test_paper_stub_selects_only_the_beta_from_no_cuts(monkeypatch, paper):
    # The report's bits cannot tell mapped order statistics from per-draw
    # selection, so record the work: four blocks of the table are drawn,
    # those of the six picked ranks (0, 4 999, 5 000, 94 999, 95 000 and
    # 99 999), which also hold every draw past the guard of b = 1 (where
    # ln_user_cost turns); the normal quantile maps the six uniforms and
    # those past the guard's uniform, few enough for its Python-float path
    # (at most kernels._FEW); the kernel, called once, sees the four
    # needed betas, the largest, those draws, here the ones past b = 1, and
    # the mean.  The work is the same at every sign of r_m: at +-0, where
    # r_x does not rise, it is still a product of the beta, never selected
    # by the K-rank rule.
    blocks, mapped, passed = record_work(monkeypatch)
    for (seed, n_past), r_m in itertools.product(
            ((STUB_SEED_NONE_PAST_ONE, 0), (STUB_SEED_TWO_PAST_ONE, 2)),
            (0.029, -0.03, 0.0, -0.0)):
        draws = sample_betas(0.919, 0.018, 100_000, seed=seed)
        blocks.clear()
        mapped.clear()
        passed.clear()
        derived_intervals(draws, paper["beta_qm"], r_m,
                          paper["mean_ln_flow"], paper["mean_ln_price"])
        assert sorted(blocks) == [0, 4, 92, 97]
        [u] = mapped
        [betas] = passed
        assert u.size <= kernels._FEW
        uniforms = draws.values()  # the full table, built after the call
        ordered = np.sort(draws.betas(uniforms))
        assert u[:6].tobytes() == uniforms[[0, 4_999, 5_000, 94_999, 95_000, 99_999]].tobytes()
        assert u.size == 6 + n_past and np.all(u[6:] > uniforms[95_000])
        past = ordered[ordered >= 1.0]
        assert past.size == n_past
        assert betas.size == 4 + 1 + n_past + 1
        assert betas[:5].tobytes() == ordered[[4_999, 5_000, 94_999, 95_000, 99_999]].tobytes()
        assert np.sort(betas[5:-1]).tobytes() == past.tobytes()
        assert betas[-1] == 0.919


def test_block_work_repeats_at_max_draws_and_the_truncated_inputs(monkeypatch, paper):
    # The paper stub at MAX_DRAWS draws the four blocks of its six picked
    # ranks, and holds no array near the 8e7 bytes of one value per draw.
    # At the truncated_20k inputs the upper endpoint also reads the ~530
    # draws past b ~ 0.3013, where ln_quantity turns, and one rank window.
    # Each count is the same on a second run.
    blocks, _, _ = record_work(monkeypatch)
    args = (paper["beta_qm"], paper["r_m"], paper["mean_ln_flow"], paper["mean_ln_price"])
    for (mean, se, n), expected in [((0.919, 0.018, MAX_DRAWS), [0, 488, 9277, 9765]),
                                    ((0.1, 0.1, 20_000), [0, 18, 19])]:
        for _ in range(2):
            blocks.clear()
            tracemalloc.start()
            derived_intervals(sample_betas(mean, se, n, seed=7), *args)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert sorted(blocks) == expected, n
            assert peak < 1e6, (n, peak)


def test_tail_draws_past_a_turning_point_select_from_rank_windows(monkeypatch, paper):
    # At the truncated_20k inputs about 530 of 20 000 draws lie past
    # b ~ 0.3013, where ln_quantity turns, and some of their values fall
    # among the others' below the upper endpoint.  That endpoint is selected
    # from them and one window of the beta's order statistics beside its
    # ranks: the kernel sees the needed betas, the largest beta, the past
    # draws and the mean, then the window, never an n-long array, and at
    # most 5 of the 20 blocks are drawn.  The normal quantile maps as few:
    # the picked order statistics with the draws at or past the guard's
    # uniform, then the window.
    blocks, mapped, passed = record_work(monkeypatch)
    means = (paper["mean_ln_flow"], paper["mean_ln_price"])
    lo_q = 0.5 * (1.0 - 0.90)
    guard = market_curves.TURNING_POINTS["ln_quantity"][0] * (1.0 - uncertainty._TURN_MARGIN)
    for seed in range(10):
        draws = sample_betas(0.1, 0.1, 20_000, seed=seed)
        blocks.clear()
        mapped.clear()
        passed.clear()
        report = derived_intervals(draws, paper["beta_qm"], paper["r_m"], *means)
        assert len(blocks) <= 5, seed
        assert len(passed) == 2 and sum(map(len, passed)) < 1_500, seed
        assert len(mapped) == 2 and sum(map(len, mapped)) < 1_500, seed
        # the per-draw reference, from the full table built after the call
        uniforms = draws.values()
        assert passed[0].size - 6 == np.count_nonzero(uniforms >= draws.u_at(guard))
        betas = draws.betas(uniforms)
        assert passed[0][4:5].tobytes() == betas[-1:].tobytes()  # after the four needed
        table = reference_table(betas, paper["beta_qm"], paper["r_m"], *means)
        expected = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
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
        table = reference_table(values, paper["beta_qm"], paper["r_m"], *means)
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
        at = uncertainty._normal_cdf((guard - mean) / se)  # the guard's uniform
        for rank, step in itertools.product(ranks, (-1, 0, 1)):
            values = np.concatenate([np.linspace(*lower, rank), [at + step * 2.0**-53],
                                     np.linspace(*upper, 99 - rank)])
            draws = BetaDraws.from_values(values, mean, se)
            table = reference_table(draws.betas(values), paper["beta_qm"], paper["r_m"],
                                    paper["mean_ln_flow"], paper["mean_ln_price"])
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
    # given more than a quarter of the draws, no more blocks are drawn than
    # a quarter of the draws fill, and the bounds are those of the table of
    # every draw.
    blocks, mapped, passed = record_work(monkeypatch)
    means = (paper["mean_ln_flow"], paper["mean_ln_price"])
    lo_q = 0.5 * (1.0 - 0.90)
    draws = sample_betas(1.0, 0.1, 100_000, seed=5)
    report = derived_intervals(draws, paper["beta_qm"], paper["r_m"], *means)
    assert passed and max(map(len, mapped)) <= 25_000 and max(map(len, passed)) <= 25_000
    assert len(set(blocks)) <= 25_000 // uncertainty._BLOCK
    # the per-draw reference, from the full table built after the call
    table = reference_table(draws.betas(draws.values()), paper["beta_qm"], paper["r_m"], *means)
    expected = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
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
