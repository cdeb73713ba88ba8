"""Monte Carlo propagation of the beta uncertainty to derived quantities.

Betas are drawn from a normal distribution; non-positive draws are redrawn
in whole-array rounds from the same Philox stream as the first pass, so
the result depends only on the inputs and the seed.  The interval
endpoints follow NumPy's linear (Hyndman & Fan type-7) rule: two
neighbouring order statistics per endpoint, lerped in the quantity's own
values.  Every derived quantity is a function of the beta alone, and on a
branch where that function is monotone its order statistics are its values
at the beta's, in the same order or reversed (quantiles are equivariant
under monotone maps; Hyndman & Fan, Am. Stat. 50(4), 1996).  So the betas
alone are selected, in place by partitioning, never by sorting, and only a
few of them are evaluated.

``beta_xm`` and ``r_x`` are products of the beta, monotone everywhere.  The
equilibrium quantities turn at ``market_curves.TURNING_POINTS``.  Where
``market_curves.branch`` finds no turning point near the needed betas, such
a quantity is evaluated at them and at the draws past a turning point.
Where a past draw's value lies among the others, an endpoint is selected
from the past values and a window of the beta's order statistics beside its
rank: the map orders every other draw, so each lies on a known side of it.
Where the needed betas straddle a turning point or lie too close together
for the kernel's rounding to resolve, and for every quantity where a beta is
not finite, the quantity is evaluated per draw and selected from that row.
Every other endpoint equals the one selected per draw unless the kernel's
rounding reverses two draws within a few ulps of each other at a needed
rank.

The market-referenced beta and the market rate are treated as fixed
constants; only the resource-vs-firm beta is sampled.  Neither function
silences NumPy's overflow warnings; ``derived_intervals`` raises on every
non-finite bound instead.  ``natbeta.pipeline`` runs the two as one stage,
for ``estimate`` and ``ci`` alike, with those warnings silenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import beta_algebra, kernels, market_curves

__all__ = [
    "UncertaintyError",
    "BetaDraws",
    "IntervalReport",
    "sample_betas",
    "derived_intervals",
]

QUANTITY_NAMES = ("ln_price", "ln_quantity", "ln_user_cost", "beta_xm", "r_x")

MAX_DRAWS = 10**7  # largest draw count sample_betas allocates
# Least mean rise of a mapped quantity per rank between the needed betas,
# relative to its largest value there: 4096 ulps, far above the kernel's
# rounding.  Draws spaced more finely are selected per draw.
_RESOLUTION = 2.0**-40
_MASK64 = (1 << 64) - 1


class UncertaintyError(ValueError):
    """Raised for invalid sampling parameters or excessive truncation."""


@dataclass(frozen=True)
class BetaDraws:
    """Positive beta draws plus the redraw count and generating seed."""

    values: np.ndarray
    n_redrawn: int
    seed: int
    mean: float


@dataclass(frozen=True)
class IntervalReport:
    level: float
    bounds: dict[str, tuple[float, float]]
    point: dict[str, float]
    draws_used: int


def sample_betas(mean: float, se: float, draws: int, seed: int) -> BetaDraws:
    """Draw positive betas from N(mean, se), redrawing non-positive values.

    Every draw, first pass and redraws alike, comes from one Philox stream
    keyed (seed, 0), so the output depends only on (mean, se, draws, seed).
    The non-positive draws are redrawn together in rounds: each round draws
    one normal per index still non-positive, in index order, until none is
    left.  ``n_redrawn`` counts every rejected candidate, so the stream
    yields exactly ``draws + n_redrawn`` normals.  Raises when that count
    exceeds half the requested draws: the normal is then too inconsistent
    with the positivity restriction to represent the beta.
    """
    if draws < 1:
        raise UncertaintyError(f"draws must be >= 1, got {draws}")
    if draws > MAX_DRAWS:
        raise UncertaintyError(f"draws must be <= {MAX_DRAWS}, got {draws}")
    if se < 0:
        raise UncertaintyError(f"se must be >= 0, got {se}")
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise UncertaintyError("mean and se must be finite")
    seed = int(seed)
    if seed < 0:
        raise UncertaintyError("seed must be a non-negative integer")
    if se == 0.0:
        if mean <= 0.0:
            raise UncertaintyError(f"degenerate distribution at non-positive mean {mean}")
        return BetaDraws(values=np.full(draws, float(mean)), n_redrawn=0,
                         seed=seed, mean=float(mean))

    budget = 0.5 * draws
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    main = np.random.Generator(np.random.Philox(key=key))
    values = main.standard_normal(draws)
    values *= se  # in place: the same mean + se * z, without two n-long temporaries
    values += mean
    bad = np.flatnonzero(values <= 0.0)
    rejected = int(bad.size)
    if rejected > budget:
        raise UncertaintyError(
            f"excessive truncation: {rejected} of {draws} draws non-positive"
        )
    while bad.size:
        fresh = main.standard_normal(bad.size)
        fresh *= se
        fresh += mean
        values[bad] = fresh
        bad = bad[fresh <= 0.0]
        rejected += bad.size
        if rejected > budget:
            raise UncertaintyError(
                f"excessive truncation: more than half of {draws} draws rejected"
            )
    return BetaDraws(values=values, n_redrawn=rejected, seed=seed, mean=float(mean))


def _type7_rows(n: int, q: float) -> tuple[int, int, float]:
    """(below, above, weight) of NumPy's ``linear`` quantile ``q`` of ``n`` values.

    The virtual index is ``(n-1)*q``; ``below`` is its floor, ``above`` the
    next order statistic and the weight their distance.  Where the virtual
    index reaches the last row, NumPy pins both neighbours to row -1, so
    the weight is ``virtual - (-1)``.
    """
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return n - 1, n - 1, virtual + 1
    below = math.floor(virtual)
    return below, below + 1, virtual - below


def _order_stats(row: np.ndarray, ranks) -> tuple[dict[int, float], set[int]]:
    """Order statistics ``ranks`` of ``row``, selected in place.

    Each step partitions a span at the needed rank nearest its middle, then
    treats the two sides the same way; a side that needs only its own
    smallest or largest ranks takes them by a min or max scan.  For type-7
    endpoints the spans left are the short ones beyond each endpoint, so the
    work is two single-``kth`` partitions and scans of the tails (the
    bracketing of Floyd & Rivest, CACM 18(3), 1975).  Rank ``n - 1`` is NaN
    in a row that holds one: NaNs order last in a partition, and min and
    max propagate them.  Returns the statistics and the positions the row
    is now split at: no value before such a split exceeds any from it on.
    """
    stats = {}
    splits = {0, row.size}
    spans = [(0, row.size, sorted(set(ranks)))]
    while spans:
        start, stop, need = spans.pop()
        span = row[start:stop]
        if not set(need) - {start, stop - 1}:
            if start in need:
                stats[start] = span.min()
            if stop - 1 in need:
                stats[stop - 1] = span.max()
            continue
        k = min(need, key=lambda r: abs(2 * r - start - stop + 1))
        span.partition(k - start)
        stats[k] = row[k]
        splits |= {k, k + 1}
        spans.append((start, k, [r for r in need if r < k]))
        spans.append((k + 1, stop, [r for r in need if r > k]))
    return stats, splits


def _lerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Type-7 quantile between the order statistics ``a`` and ``b``.

    The two-sided lerp repeats NumPy's step for step, so the result equals
    ``np.quantile`` bit for bit on NaN-free columns that do not mix 0.0 and
    -0.0 (two selections may return either of those two; no derived column
    mixes them).
    """
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def derived_intervals(draws: BetaDraws, beta_qm: float, r_m: float, mean_ln_flow: float,
                      mean_ln_price: float, level: float = 0.90) -> IntervalReport:
    """Empirical ((1-level)/2, (1+level)/2) intervals of the derived quantities.

    ``draws`` comes from ``sample_betas``, so every beta is positive.  Its
    ``values`` are partitioned in place, so they are left a permutation of
    the draws; no second n-long array is held unless the needed betas
    straddle a turning point.  (Calls that held one made glibc trim the heap
    and fault it back in, about 360 minor faults per call at 100k draws.)  The point column
    evaluates the same maps at the sampling mean.  Raises when a bound is
    not finite or a quantity is NaN for some draw.
    """
    if not (math.isfinite(beta_qm) and beta_qm > 0.0):
        raise UncertaintyError(f"beta_qm must be finite and positive, got {beta_qm}")
    if not 0.0 < level < 1.0:
        raise UncertaintyError(f"level must be in (0, 1), got {level}")
    if not (math.isfinite(mean_ln_flow) and math.isfinite(mean_ln_price) and math.isfinite(r_m)):
        raise UncertaintyError("means and market rate must be finite")

    values = draws.values
    n = values.size
    lo_q = 0.5 * (1.0 - level)
    lo = _type7_rows(n, lo_q)
    hi = _type7_rows(n, 1.0 - lo_q)
    ends = {lo[0], lo[1], hi[0], hi[1]}
    # a quantity that descends in beta takes its rank k from the beta's rank n-1-k
    needed = sorted(ends | {n - 1 - k for k in ends})
    beta, splits = _order_stats(values, {*needed, 0, n - 1})
    # the branch of each equilibrium map that holds every needed beta, by column
    finite = np.isfinite(beta[0]) and np.isfinite(beta[n - 1])
    branches = {j: found for j, name in enumerate(QUANTITY_NAMES[:3]) if finite and (
        found := market_curves.branch(name, beta[needed[0]], beta[needed[-1]]))}
    # Tail draws past a guard, found by the extremes: all draws below the
    # lowest needed beta lie before the first split at or above its rank,
    # all above the highest from the last split at or below the next rank.
    below = above = values[:0]
    if branches:
        low = max(branch[1] for branch in branches.values())
        high = min(branch[2] for branch in branches.values())
        if beta[0] <= low:
            block = values[:min(x for x in splits if x >= needed[0])]
            below = block[block <= low]
        if beta[n - 1] >= high:
            block = values[max(x for x in splits if x <= needed[-1] + 1):]
            above = block[block >= high]
    at = np.concatenate([[beta[k] for k in needed], below, above, [draws.mean]])
    # every quantity at those betas, in QUANTITY_NAMES order
    rows = np.column_stack([kernels.propagate_beta_draws(at, mean_ln_flow, mean_ln_price),
                            *beta_algebra.chain_products(at, beta_qm, r_m)])
    m = len(needed)
    # Whether each mapped quantity descends in beta.  r_x = beta_xm * r_m
    # does where r_m is negative; at r_m = -0.0 every finite r_x is -0.0, so
    # either order gives the same bits.
    descending = {3: False, 4: r_m < 0.0}
    # by quantity and rank k where a past value lies among the others, the
    # beta ranks [a, c] that with the past draws hold rank k, and r
    windows = {}
    if branches:
        # a rise the kernel's rounding cannot blur, per rank between the needed betas
        resolved = _RESOLUTION * np.abs(rows[:m, :3]).max() * (needed[-1] - needed[0])
        for j, (sign, _, _) in branches.items():
            g = sign * rows[:-1, j]  # rises with the beta between the guards
            if g[m - 1] - g[0] > resolved:
                descending[j] = sign < 0.0
                # d at rank r: past values below g there less the draws below
                # the low guard.  The beta's rank r then holds rank r + d of g,
                # and rank r of g lies among the beta's ranks r to r - d
                shift = dict(zip(needed, np.sort(g[m:]).searchsorted(g[:m]) - below.size))
                for k in ends:
                    r = n - 1 - k if descending[j] else k
                    if shift[r]:
                        a, c = sorted((r, r - shift[r]))
                        windows[j, k] = (max(a, below.size), min(c, n - 1 - above.size), r)
    row_at = dict(zip(needed, rows))
    stats = []
    table = None
    for j in range(len(QUANTITY_NAMES)):
        if j in descending:
            # rank k is the value at the beta's rank k, or n-1-k where descending
            stats.append({k: row_at[n - 1 - k if descending[j] else k][j] for k in ends})
            continue
        # a turning point among the needed betas, or a beta not finite: the
        # row of every draw, selected from no splits
        if table is None:
            table = kernels.propagate_beta_draws(values, mean_ln_flow, mean_ln_price)
        stats.append(_order_stats(table[:, j], ends | {n - 1})[0])
    if windows:
        # Split the betas at each window's ends, each inside the span that
        # holds it, so that a window's positions hold its ranks; one kernel
        # call evaluates every window
        for x in {x for a, c, _ in windows.values() for x in (a, c + 1)}:
            start = max(y for y in splits if y <= x)
            if start < x:
                values[start:min(y for y in splits if y > x)].partition(x - start)
                splits |= {x, x + 1}
        spans = [values[a:c + 1] for a, c, _ in windows.values()]
        inside = kernels.propagate_beta_draws(np.concatenate(spans), mean_ln_flow, mean_ln_price)
        stops = np.cumsum([span.size for span in spans])[:-1]
        for ((j, k), (a, c, r)), window in zip(windows.items(), np.split(inside, stops)):
            # each value outside the window and P lies on one side of rank r
            # of g, a - p_b of them below it
            sign, i = branches[j][0], r - a + below.size
            g = sign * np.concatenate([window[:, j], rows[m:-1, j]])
            stats[j][k] = sign * np.partition(g, i)[i]

    def quantities(k: int) -> np.ndarray:
        # rank k of every quantity, in QUANTITY_NAMES order
        return np.array([at_rank[k] for at_rank in stats])

    lows = _lerp(quantities(lo[0]), quantities(lo[1]), lo[2])
    highs = _lerp(quantities(hi[0]), quantities(hi[1]), hi[2])
    # A NaN orders last.  A mapped equilibrium quantity is finite; beta_xm
    # and r_x can hold one (NaN * beta_qm, inf * 0) only at the largest beta.
    top = beta_algebra.chain_products(beta[n - 1], beta_qm, r_m)
    has_nan = [*(j not in descending and math.isnan(stats[j][n - 1]) for j in range(3)),
               *map(math.isnan, top)]
    overflowed = [name for j, name in enumerate(QUANTITY_NAMES)
                  if has_nan[j] or not (math.isfinite(lows[j]) and math.isfinite(highs[j]))]
    if overflowed:
        raise UncertaintyError(f"interval bounds of {', '.join(overflowed)} are not finite")
    bounds = {
        name: (float(lows[j]), float(highs[j]))
        for j, name in enumerate(QUANTITY_NAMES)
    }
    point = dict(zip(QUANTITY_NAMES, map(float, rows[-1])))
    return IntervalReport(level=float(level), bounds=bounds, point=point,
                          draws_used=int(n))
