import math

import numpy as np
import pytest

from natbeta import kernels
from natbeta.uncertainty import (
    QUANTITY_NAMES,
    BetaDraws,
    UncertaintyError,
    derived_intervals,
    sample_betas,
)


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
    """BetaDraws holding the given positive betas, as sample_betas returns them."""
    values = np.array(values, dtype=np.float64)
    return BetaDraws(values=values, n_redrawn=0, seed=0, mean=float(values.mean()),
                     se=float(values.std()))


def test_zero_se_gives_constant_draws():
    draws = sample_betas(0.9, 0.0, 1000, seed=1)
    assert np.all(draws.values == 0.9)
    assert draws.n_redrawn == 0


def test_quantiles_match_normal_oracle():
    draws = sample_betas(0.919, 0.018, 1_000_000, seed=2024)
    lo, hi = np.quantile(draws.values, [0.05, 0.95])
    z = normal_quantile(0.95)
    assert lo == pytest.approx(0.919 - z * 0.018, abs=1e-3)
    assert hi == pytest.approx(0.919 + z * 0.018, abs=1e-3)
    assert draws.n_redrawn == 0  # positivity is 51 sigma away


def test_excessive_truncation_raises():
    with pytest.raises(UncertaintyError, match="truncation"):
        sample_betas(0.01, 0.1, 10_000, seed=3)


def test_mild_truncation_redraws_and_counts():
    draws = sample_betas(0.5, 0.25, 50_000, seed=4)
    assert np.all(draws.values > 0)
    # P(draw <= 0) = Phi(-2) ~ 2.3%, so some redraws must have happened
    assert 0 < draws.n_redrawn < 0.5 * 50_000


def reference_sample_betas(mean, se, draws, seed):
    """Oracle: the redraw loop with a fresh Philox built for every rejected index."""
    mask = (1 << 64) - 1

    def stream(index):
        key = np.array([seed & mask, (index + 1) & mask], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    values = mean + se * stream(-1).standard_normal(draws)
    bad = np.flatnonzero(values <= 0.0)
    rejected = int(bad.size)
    if rejected > 0.5 * draws:
        raise UncertaintyError(
            f"excessive truncation: {rejected} of {draws} draws non-positive"
        )
    for i in bad:
        sub = stream(int(i))
        while True:
            candidate = mean + se * sub.standard_normal()
            if candidate > 0.0:
                values[i] = candidate
                break
            rejected += 1
            if rejected > 0.5 * draws:
                raise UncertaintyError(
                    f"excessive truncation: more than half of {draws} draws rejected"
                )
    return values, rejected


@pytest.mark.parametrize("mean, se, draws, seed", [
    (0.1, 0.1, 20_000, 7),
    (0.5, 0.25, 50_000, 4),
    (0.043, 0.1, 10_000, 11),  # 4987 redraws of a 5000 budget
    (0.1, 0.1, 20_000, 2**64 - 1),  # key word >= 2**63 in the re-keyed state
])
def test_redraws_match_per_index_philox(mean, se, draws, seed):
    got = sample_betas(mean, se, draws, seed)
    values, n_redrawn = reference_sample_betas(mean, se, draws, seed)
    assert got.values.tobytes() == values.tobytes()
    assert got.n_redrawn == n_redrawn > 0


def test_redraws_near_budget_case_is_near_budget():
    n_redrawn = sample_betas(0.043, 0.1, 10_000, 11).n_redrawn
    assert 0.9 * 5_000 <= n_redrawn <= 5_000


def test_redraw_keys_are_masked_to_64_bits():
    got = sample_betas(0.1, 0.1, 20_000, 2**64 + 5)
    values, n_redrawn = reference_sample_betas(0.1, 0.1, 20_000, 5)
    assert got.values.tobytes() == values.tobytes()
    assert got.n_redrawn == n_redrawn


def test_redraw_abort_matches_per_index_philox():
    with pytest.raises(UncertaintyError) as ref:
        reference_sample_betas(0.01, 0.1, 10_000, 3)
    with pytest.raises(UncertaintyError) as got:
        sample_betas(0.01, 0.1, 10_000, 3)
    assert str(got.value) == str(ref.value)
    assert "more than half" in str(got.value)  # the abort inside the redraw loop


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
    # r_x is linear in beta, so its interval is the mapped beta interval
    draws = sample_betas(0.919, 0.018, 200_000, seed=8)
    report = derived_intervals(
        draws, paper["beta_qm"], paper["r_m"],
        paper["mean_ln_flow"], paper["mean_ln_price"], level=0.90,
    )
    beta_lo, beta_hi = np.quantile(draws.values, [0.05, 0.95])
    factor = paper["beta_qm"] * paper["r_m"]
    assert report.bounds["r_x"][0] == pytest.approx(beta_lo * factor, rel=1e-10)
    assert report.bounds["r_x"][1] == pytest.approx(beta_hi * factor, rel=1e-10)
    assert report.bounds["beta_xm"][0] == pytest.approx(beta_lo * paper["beta_qm"], rel=1e-10)


def test_non_monotone_price_map_needs_per_draw_evaluation(paper):
    # ln(b)/(1+b^2) peaks near b = 1.9: with draws spanning the turning
    # point, mapping the beta interval endpoints understates the upper
    # price quantile; the per-draw empirical quantile is authoritative
    draws = sample_betas(1.9, 0.3, 200_000, seed=11)
    report = derived_intervals(
        draws, paper["beta_qm"], paper["r_m"], 0.0, 0.0, level=0.90,
    )
    beta_lo, beta_hi = np.quantile(draws.values, [0.05, 0.95])
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


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 100_000])
# both endpoints share their two rows at n = 2 (every level) and at n = 1000, level 0.0001
@pytest.mark.parametrize("level", [0.0001, 0.5, 0.9, 0.99, 0.999999])
# a negative rate makes r_x descending; -0.0 makes every r_x a negative zero
@pytest.mark.parametrize("r_m", [0.029, 0.0, -0.03, -0.0])
def test_sorted_column_bounds_equal_numpy_quantile(paper, n, level, r_m):
    # N(1.9, 0.3) draws straddle the turning point of the ln-price map
    draws = sample_betas(1.9, 0.3, n, seed=n)
    args = (paper["mean_ln_flow"], paper["mean_ln_price"], paper["beta_qm"], r_m)
    table = kernels.propagate_beta_draws(draws.values, *args)
    assert table.shape == (n, 5)
    lo_q = 0.5 * (1.0 - level)
    expected = np.quantile(table, [lo_q, 1.0 - lo_q], axis=0)
    report = derived_intervals(draws, paper["beta_qm"], r_m, paper["mean_ln_flow"],
                               paper["mean_ln_price"], level=level)
    for j, name in enumerate(QUANTITY_NAMES):
        # compared as bytes, so the sign of a zero bound counts
        assert np.array(report.bounds[name]).tobytes() == expected[:, j].tobytes(), name


def test_nan_column_bounds_are_not_finite():
    # inf * 0 puts one NaN in the r_x column
    draws = fixed_draws([0.9] * 99 + [2.0])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(UncertaintyError, match=r"^interval bounds of r_x are not finite$"):
        derived_intervals(draws, 1e308, 0.0, 0.0, 0.0)
