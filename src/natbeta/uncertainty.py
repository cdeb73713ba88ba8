"""Monte Carlo propagation of the beta uncertainty to derived quantities.

Betas are drawn by inversion (Devroye 1986, *Non-Uniform Random Variate
Generation*, II.2): each draw is a uniform u from one SFC64 generator
seeded from the seed mod 2**64, and its beta is ``mean + se * Q(u)``, with
Q the normal quantile ``kernels.normal_quantile`` (Wichura's AS241).  The
uniforms of non-positive betas are redrawn in whole-array rounds from the
same generator, so the result depends only on the inputs and the seed.
The map from u to beta increases, so the betas' order statistics are the
mapped order statistics of the uniforms: the uniforms are selected, in
place by partitioning, never by sorting, and only the few that an endpoint
can come from are mapped to betas.

The interval endpoints follow NumPy's linear (Hyndman & Fan type-7) rule:
two neighbouring order statistics per endpoint, lerped in the quantity's
own values.  Every derived quantity is a function of the beta alone, and on
a branch where that function is monotone its order statistics are its
values at the beta's, in the same order or reversed (quantiles are
equivariant under monotone maps; Hyndman & Fan, Am. Stat. 50(4), 1996).

``beta_xm`` and ``r_x`` are products of the beta, monotone everywhere.  The
equilibrium quantities turn at ``market_curves.TURNING_POINTS``.  Where
``market_curves.branch`` finds no turning point near the needed betas, such
a quantity is evaluated at them and at the draws past a turning point.
Where a past draw's value lies among the others, an endpoint is selected
from the past values and one window of the beta's order statistics beside
its ranks: the map orders every other draw, so each lies on a known side of
it.  Where the needed betas straddle a turning point or lie too close
together for the kernel's rounding to resolve, and for every quantity where
a beta is not finite, the quantity is selected by the K-rank rule.  A
needed rank lies at most K - 2 places from an end of the quantity's order,
so a draw with K - 1 or more draws of its own monotone piece on each side
holds none.  The endpoint is selected from the K - 1 lowest uniforms, the
K - 1 highest and the K on each side of each turning point's u-rank (one
more there, since erfc's rounding may miss that rank by one); no path maps
or evaluates every draw.

Every endpoint equals the one selected from a table of every draw's value
unless rounding reverses two draws at a needed rank: the kernel's for two
betas within a few ulps of each other, or AS241's, whose Horner rounding is
not monotone at the last bit, for two uniforms a grid step (2**-53) apart.
The Monte Carlo fields therefore differ from those of versions that drew
normals, at the same seed.

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
# rounding.  Draws spaced more finely are selected by the K-rank rule.
_RESOLUTION = 2.0**-40
_MASK64 = (1 << 64) - 1
# Relative margin that raises the truncation bound P(beta <= 0): far above
# the rounding of erfc and of mean + se * Q(u) while the bound is a normal
# float.  Below that, every uniform from 2**-53 up maps to a positive beta:
# Q(2**-53) ~ -8.2 > -mean/se.
_TRUNCATION_MARGIN = 2.0**-20
_TINIEST = 2.0**-1074
# Every guard of every map's branches, ascending, and the slack of the
# uniform bound that prefilters a tail block at one.
_GUARDS = sorted({guard for found in market_curves.BRANCHES.values()
                  for _, *guards in found for guard in guards})
_GUARD_SLACK = 2.0**-30


class UncertaintyError(ValueError):
    """Raised for invalid sampling parameters or excessive truncation."""


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _truncation_floor(mean: float, se: float) -> float:
    """The largest uniform ``sample_betas`` rejects, at or above the
    uniform of every beta that rounds to 0 or below.  The threshold sits at
    the least subnormal, not at 0, since ``se * Q(u)`` may round by half of
    it; that moves no bit of the floor at a normal mean."""
    return _normal_cdf((_TINIEST - mean) / se) * (1.0 + _TRUNCATION_MARGIN)


@dataclass(frozen=True)
class BetaDraws:
    """Positive beta draws, each held as the uniform it is mapped from, plus
    the redraw count and generating seed.

    The beta of a stored value u is ``mean + se * Q(u)``, increasing in u;
    where ``se`` is 0 the stored values are the betas themselves.
    """

    values: np.ndarray
    n_redrawn: int
    seed: int
    mean: float
    se: float = 0.0

    def betas(self, u) -> np.ndarray:
        """The betas of the stored values ``u``, as a new array."""
        if self.se == 0.0:
            return np.array(u, dtype=np.float64)
        return self.mean + self.se * kernels.normal_quantile(u)

    def u_at(self, beta: float) -> float:
        """The stored value of a draw at ``beta``, to erfc's rounding."""
        if self.se == 0.0:
            return beta
        return _normal_cdf((beta - self.mean) / self.se)


@dataclass(frozen=True)
class IntervalReport:
    """The head of the report's ``intervals`` block: each bound a
    ``[low, high]`` list, in ``QUANTITY_NAMES`` order, and the fields in the
    order the CSV report writes them."""

    level: float
    bounds: dict[str, list[float]]
    point: dict[str, float]
    draws_used: int


def sample_betas(mean: float, se: float, draws: int, seed: int) -> BetaDraws:
    """Draw positive betas from N(mean, se) by inversion, redrawing the
    uniforms of non-positive values.

    Every uniform, first pass and redraws alike, comes from one SFC64
    generator seeded from ``seed mod 2**64``, so the output depends only on
    (mean, se, draws, seed).  A uniform is rejected where it is at most
    ``_truncation_floor``: P(beta <= 0) = Phi(-mean/se), raised by
    ``_TRUNCATION_MARGIN``, so every kept uniform maps to a positive beta
    despite rounding, and 0 is always rejected.  The rejected uniforms are
    redrawn together in rounds: each round draws one uniform per index
    still rejected, in index order, until none is left.  ``n_redrawn``
    counts every rejected candidate, so the stream yields exactly
    ``draws + n_redrawn`` uniforms.  Raises when that count exceeds half
    the requested draws: the normal is then too inconsistent with the
    positivity restriction to represent the beta.  Where se is 0 every beta
    is the mean.
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
    floor = _truncation_floor(mean, se)
    main = np.random.Generator(np.random.SFC64(seed & _MASK64))
    values = main.random(draws)
    bad = np.flatnonzero(values <= floor)
    rejected = int(bad.size)
    if rejected > budget:
        raise UncertaintyError(
            f"excessive truncation: {rejected} of {draws} draws non-positive"
        )
    while bad.size:
        fresh = main.random(bad.size)
        values[bad] = fresh
        bad = bad[fresh <= floor]
        rejected += bad.size
        if rejected > budget:
            raise UncertaintyError(
                f"excessive truncation: more than half of {draws} draws rejected"
            )
    return BetaDraws(values=values, n_redrawn=rejected, seed=seed, mean=float(mean),
                     se=float(se))


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
    the draws; no n-long array is mapped, evaluated or held beside them.
    (Calls that held one made glibc trim the heap and fault it back in,
    about 360 minor faults per call at 100k draws.)  The point column
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
    picked = sorted({*needed, 0, n - 1})
    u, splits = _order_stats(values, picked)
    # Tail draws that may lie past a guard, found by the extremes: all draws
    # below the lowest needed beta lie before the first split at or above
    # its rank, all above the highest from the last split at or below the
    # next rank.  Each block keeps the uniforms past the uniform of the
    # nearest guard of any map, with a slack; they are mapped with the
    # picked ranks, and the guards of the branches found decide on them.
    edges = [draws.u_at(guard) for guard in _GUARDS]  # ascending, as u_at rises
    below = above = np.empty(0)
    edge = max((x for x in edges if x <= u[needed[0]] + _GUARD_SLACK), default=-math.inf)
    if u[0] <= edge + _GUARD_SLACK:
        block = values[:min(x for x in splits if x >= needed[0])]
        below = block[block <= edge + _GUARD_SLACK]
    edge = min((x for x in edges if x >= u[needed[-1]] - _GUARD_SLACK), default=math.inf)
    if u[n - 1] >= edge - _GUARD_SLACK:
        block = values[max(x for x in splits if x <= needed[-1] + 1):]
        above = block[block >= edge - _GUARD_SLACK]
    mapped = draws.betas(np.concatenate([[u[k] for k in picked], below, above]))
    beta = dict(zip(picked, mapped))
    below, above = np.split(mapped[len(picked):], [below.size])
    # the branch of each equilibrium map that holds every needed beta, by column
    finite = np.isfinite(beta[0]) and np.isfinite(beta[n - 1])
    branches = {j: found for j, name in enumerate(QUANTITY_NAMES[:3]) if finite and (
        found := market_curves.branch(name, beta[needed[0]], beta[needed[-1]]))}
    if branches:
        below = below[below <= max(branch[1] for branch in branches.values())]
        above = above[above >= min(branch[2] for branch in branches.values())]
    else:
        below = above = below[:0]
    at = np.concatenate([[beta[k] for k in needed], below, above, [draws.mean]])
    # every quantity at those betas, in QUANTITY_NAMES order
    rows = np.column_stack([kernels.propagate_beta_draws(at, mean_ln_flow, mean_ln_price),
                            *beta_algebra.chain_products(at, beta_qm, r_m)])
    m = len(needed)
    # Whether each mapped quantity descends in beta.  r_x = beta_xm * r_m
    # does where r_m is negative; at r_m = -0.0 every finite r_x is -0.0, so
    # either order gives the same bits.
    descending = {3: False, 4: r_m < 0.0}
    # By quantity and endpoint where a past value lies among the others: the
    # one window of beta ranks [a, c] that with the past draws holds both of
    # the endpoint's ranks, and the rank r of g of each rank k of the
    # quantity that the past values move
    windows = {}
    if branches:
        # a rise the kernel's rounding cannot blur, per rank between the needed betas
        resolved = _RESOLUTION * np.abs(rows[:m, :3]).max() * (needed[-1] - needed[0])
        for j, (sign, own_low, own_high) in branches.items():
            g = sign * rows[:-1, j]  # rises with the beta between the guards
            if g[m - 1] - g[0] > resolved:
                descending[j] = sign < 0.0
                if not (np.any(below <= own_low) or np.any(above >= own_high)):
                    continue  # every past draw lies on this map's own piece
                # d at rank r: past values below g there less the draws below
                # the low guard.  The beta's rank r then holds rank r + d of g,
                # and rank r of g lies among the beta's ranks r to r - d
                shift = dict(zip(needed, np.sort(g[m:]).searchsorted(g[:m]) - below.size))
                for end in {lo[:2], hi[:2]}:
                    ranks = {k: n - 1 - k if descending[j] else k for k in end}
                    moved = {k: r for k, r in ranks.items() if shift[r]}
                    if moved:
                        a = min(min(r, r - shift[r]) for r in moved.values())
                        c = max(max(r, r - shift[r]) for r in moved.values())
                        windows[j, end] = (max(a, below.size), min(c, n - 1 - above.size), moved)
    # The K-rank rule, for a map that turns among the needed betas, rises
    # there by less than the kernel's rounding, or meets a beta that is not
    # finite.  A needed rank lies at most ``depth`` places from an end of the
    # quantity's order, so a draw with more than ``depth`` draws of its own
    # monotone piece of the map on each side holds none.  The candidates are
    # the depth + 1 lowest uniforms, the depth + 1 highest, and K = depth + 2
    # on each side of the u-rank of each turning point inside the draws,
    # which erfc's rounding may miss by one.  Any superset of them would do.
    turning = [j for j in range(3) if j not in descending]
    spans = []
    depth = max(min(k, n - 1 - k) for k in ends)
    if turning:
        cuts = [(0, depth + 1), (n - depth - 1, n)]
        for j in turning:
            for t in market_curves.TURNING_POINTS[QUANTITY_NAMES[j]]:
                if beta[0] < t < beta[n - 1]:
                    rank = int(np.count_nonzero(values < draws.u_at(t)))
                    cuts.append((rank - depth - 2, rank + depth + 2))
        for start, stop in sorted(cuts):
            start, stop = max(start, 0), min(stop, n)
            if spans and start <= spans[-1][1]:
                spans[-1] = (spans[-1][0], max(spans[-1][1], stop))
            else:
                spans.append((start, stop))
    row_at = dict(zip(needed, rows))
    # rank k is the value at the beta's rank k, or n-1-k where descending
    stats = [{k: row_at[n - 1 - k if descending[j] else k][j] for k in ends}
             if j in descending else None for j in range(len(QUANTITY_NAMES))]
    if spans or windows:
        # Split the uniforms at each span's and window's ends, each inside
        # the span of splits that holds it, so that their positions hold
        # their ranks; one mapping and one kernel call evaluate them all
        for x in {x for span in spans for x in span} | {
                x for a, c, _ in windows.values() for x in (a, c + 1)}:
            start = max(y for y in splits if y <= x)
            if start < x:
                values[start:min(y for y in splits if y > x)].partition(x - start)
                splits |= {x, x + 1}
        blocks = [values[a:b] for a, b in spans]
        blocks += [values[a:c + 1] for a, c, _ in windows.values()]
        inside = kernels.propagate_beta_draws(draws.betas(np.concatenate(blocks)),
                                              mean_ln_flow, mean_ln_price)
        size = sum(b - a for a, b in spans)
        # rank k of every draw is rank k of the candidates below the middle,
        # and the same rank from the top above it
        place = {k: k if k <= depth else k - n + size for k in ends | {n - 1}}
        for j in turning:
            selected = _order_stats(inside[:size, j], set(place.values()))[0]
            stats[j] = {k: selected[i] for k, i in place.items()}
        stops = np.cumsum([c + 1 - a for a, c, _ in windows.values()])[:-1]
        for ((j, _), (a, c, moved)), window in zip(windows.items(),
                                                   np.split(inside[size:], stops)):
            # each value outside the window and P lies on one side of rank r
            # of g, a - p_b of them below it
            sign, i = branches[j][0], below.size - a
            g = sign * np.concatenate([window[:, j], rows[m:-1, j]])
            g.partition(sorted({r + i for r in moved.values()}))
            for k, r in moved.items():
                stats[j][k] = sign * g[r + i]

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
        name: [float(lows[j]), float(highs[j])]
        for j, name in enumerate(QUANTITY_NAMES)
    }
    point = dict(zip(QUANTITY_NAMES, map(float, rows[-1])))
    return IntervalReport(level=float(level), bounds=bounds, point=point,
                          draws_used=int(n))
