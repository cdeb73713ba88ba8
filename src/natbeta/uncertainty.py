"""Monte Carlo propagation of the beta uncertainty to derived quantities.

Betas are drawn from a normal distribution; non-positive draws are redrawn
in whole-array rounds from the same Philox stream as the first pass, so
the result depends only on the inputs and the seed.  The interval
endpoints follow NumPy's linear (Hyndman & Fan type-7) rule: two
neighbouring order statistics per endpoint, selected in place by
partitioning, never by sorting.  The equilibrium quantities (log price,
log quantity, log user cost) are not monotone in beta everywhere, so they
are evaluated per draw and their own order statistics selected.  ``beta_xm``
and ``r_x`` are monotone products of the beta, so their order statistics
are the beta's, mapped: the same bits as selecting from per-draw values,
without computing them.  Interval endpoints themselves are never mapped,
only order statistics: endpoint mapping would be wrong for the price map.

The beta copy is partitioned first, and the equilibrium quantities are
evaluated on it in that order, so each of their rows arrives in the beta's
blocks (lower tail, middle, upper tail).  Where a map is monotone over the
draws, the row is partitioned at the beta's cuts too; min/max scans of the
blocks check it, and its endpoints are then selected inside the short tail
blocks alone (the bracketing of Floyd & Rivest, CACM 18(3), 1975).  Where
the check fails (a turning point among the draws, a NaN, two values that
rounding puts across a cut) the row is selected from no cuts.  The kernel
is elementwise, so a row's values do not depend on the order of the betas,
and either way every bound keeps its bits.

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

from . import kernels

__all__ = [
    "UncertaintyError",
    "BetaDraws",
    "IntervalReport",
    "sample_betas",
    "derived_intervals",
]

QUANTITY_NAMES = ("ln_price", "ln_quantity", "ln_user_cost", "beta_xm", "r_x")

MAX_DRAWS = 10**7  # largest draw count sample_betas allocates
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
    se: float


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
                         seed=seed, mean=float(mean), se=0.0)

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
    return BetaDraws(values=values, n_redrawn=rejected, seed=seed,
                     mean=float(mean), se=float(se))


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


def _order_stats(rows: np.ndarray, ranks, cuts=()) -> tuple[dict[int, np.ndarray], list[int]]:
    """Order statistics ``ranks`` of every row of ``rows``, selected in place.

    ``cuts`` are positions at which every row is already partitioned: no
    value before a cut exceeds the value at it, and none after it is
    smaller.  The spans between them are selected apart.  Each step
    partitions a span at the needed rank nearest its middle, then treats
    the two sides the same way; a side that needs only its own smallest or
    largest ranks takes them by a min or max scan.  From no cuts, for
    type-7 endpoints the spans left are the short ones beyond each
    endpoint, so the work is two single-``kth`` partitions and three scans
    of the tails; from those two cuts, it is the three scans alone.  Rank
    ``n - 1`` is NaN in a row that holds one: NaNs order last in a
    partition, and min and max propagate them.  Returns the statistics and
    every cut the rows are now partitioned at, ``cuts`` included, in order.
    """
    need = sorted(set(ranks))
    edges = [-1, *cuts, rows.shape[1]]
    stats = {k: rows[:, k] for k in cuts if k in need}
    spans = [(a + 1, b, [r for r in need if a < r < b]) for a, b in zip(edges, edges[1:])]
    made = list(cuts)
    while spans:
        start, stop, need = spans.pop()
        span = rows[:, start:stop]
        if not set(need) - {start, stop - 1}:
            if start in need:
                stats[start] = span.min(axis=1)
            if stop - 1 in need:
                stats[stop - 1] = span.max(axis=1)
            continue
        k = min(need, key=lambda r: abs(2 * r - start - stop + 1))
        span.partition(k - start, axis=1)
        stats[k] = rows[:, k]
        made.append(k)
        spans.append((start, k, [r for r in need if r < k]))
        spans.append((k + 1, stop, [r for r in need if r > k]))
    return stats, sorted(made)


def _partitioned_at(row: np.ndarray, cuts, descending: bool = False) -> bool:
    """Whether ``row`` is partitioned at every position of ``cuts``, in
    ascending or in descending order.

    Each block between two cuts is compared with the cut on either side of
    it, by a max or min scan, shortest blocks first: where a turning point
    lies among the draws, a short tail block usually shows it before the
    long middle one is read.  Scans run forwards: a reduction over a
    reversed view is several times slower.  False for a row that holds a
    NaN: min and max propagate it, and every comparison with it is false.
    """
    edges = [-1, *cuts, row.size]
    # (start, stop) of each block with the cut after it, then with the cut before it
    sides = [(edges[i] + 1, k, k) for i, k in enumerate(cuts)]
    sides += [(k + 1, edges[i + 2], k) for i, k in enumerate(cuts)]
    for start, stop, k in sorted(sides, key=lambda side: side[1] - side[0]):
        if start == stop:
            continue
        block = row[start:stop]
        # a block before its cut holds the smaller values when ascending
        if (stop == k) != descending:
            if not block.max() <= row[k]:
                return False
        elif not row[k] <= block.min():
            return False
    return True


def _row_order_stats(row: np.ndarray, ranks, cuts) -> dict[int, np.ndarray]:
    """Order statistics ``ranks`` of ``row``, whose values lie in the order of
    betas partitioned at ``cuts``.

    Where the map from beta to ``row`` is monotone over the draws, the row
    is partitioned at the beta's cuts too, ascending or descending, and the
    ranks are selected between them; a descending row through its reversed
    view, whose cuts are mirrored.  The check fails where a turning point
    lies inside the draws, the row holds a NaN, or rounding puts two values
    on the wrong sides of a cut; the row is then selected from no cuts.
    Either way the statistics are the row's own.
    """
    if _partitioned_at(row, cuts):
        return _order_stats(row[np.newaxis], ranks, cuts)[0]
    if _partitioned_at(row, cuts, descending=True):
        n = row.size
        return _order_stats(row[::-1][np.newaxis], ranks, [n - 1 - k for k in reversed(cuts)])[0]
    return _order_stats(row[np.newaxis], ranks)[0]


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

    ``draws`` comes from ``sample_betas``, so every beta is positive and all
    of them are propagated.  The point column evaluates the same maps at the
    sampling mean.  Raises when a bound is not finite or a quantity is NaN
    for some draw.
    """
    if not (math.isfinite(beta_qm) and beta_qm > 0.0):
        raise UncertaintyError(f"beta_qm must be finite and positive, got {beta_qm}")
    if not 0.0 < level < 1.0:
        raise UncertaintyError(f"level must be in (0, 1), got {level}")
    if not (math.isfinite(mean_ln_flow) and math.isfinite(mean_ln_price) and math.isfinite(r_m)):
        raise UncertaintyError("means and market rate must be finite")

    n = draws.values.size
    lo_q = 0.5 * (1.0 - level)
    lo = _type7_rows(n, lo_q)
    hi = _type7_rows(n, 1.0 - lo_q)
    ranks = {lo[0], lo[1], hi[0], hi[1], n - 1}
    # r_x = beta_xm * r_m descends in beta when r_m is negative: its rank k
    # is the beta's rank n-1-k.  At r_m = -0.0 every finite r_x is -0.0, so
    # either order gives the same bits.
    mirror = (lambda k: n - 1 - k) if r_m < 0.0 else (lambda k: k)
    # The betas are copied into the last column of the kernel's output and
    # partitioned there, so the copy takes no array of its own: the kernel
    # reads each block of betas before it writes the block's rows.  With
    # one more n-long array alive while the kernel runs, calls at ~20k
    # draws made glibc's malloc trim the heap and fault it back in each time.
    table = np.empty((3, n)).T
    betas = table[:, 2]
    np.copyto(betas, draws.values)
    beta, cuts = _order_stats(betas[np.newaxis], ranks | {mirror(k) for k in (*lo[:2], *hi[:2])})
    # beta_xm of the beta's order statistics, formed before the kernel
    # overwrites the column they are views of
    beta_xm = {k: b * beta_qm for k, b in beta.items()}
    # Every kernel step is elementwise, so a row's values do not depend on
    # the order of the betas: only where they lie.
    rows = [_row_order_stats(row, ranks, cuts) for row in kernels.propagate_beta_draws(
        betas, mean_ln_flow, mean_ln_price, out=table).T]
    equilibrium = {k: np.concatenate([stats[k] for stats in rows]) for k in ranks}

    def quantities(k: int) -> np.ndarray:
        # rank k of every quantity, in QUANTITY_NAMES order
        return np.concatenate([equilibrium[k], beta_xm[k], beta_xm[mirror(k)] * r_m])

    lows = _lerp(quantities(lo[0]), quantities(lo[1]), lo[2])
    highs = _lerp(quantities(hi[0]), quantities(hi[1]), hi[2])
    # A NaN orders last; in r_x one (inf * 0) can only come from the largest beta.
    top = beta_xm[n - 1]
    has_nan = np.isnan(np.concatenate([equilibrium[n - 1], top, top * r_m]))
    overflowed = [name for j, name in enumerate(QUANTITY_NAMES)
                  if has_nan[j] or not (math.isfinite(lows[j]) and math.isfinite(highs[j]))]
    if overflowed:
        raise UncertaintyError(f"interval bounds of {', '.join(overflowed)} are not finite")
    bounds = {
        name: (float(lows[j]), float(highs[j]))
        for j, name in enumerate(QUANTITY_NAMES)
    }
    mean = np.array([draws.mean])
    point_row = np.concatenate([
        kernels.propagate_beta_draws(mean, mean_ln_flow, mean_ln_price)[0],
        mean * beta_qm, mean * beta_qm * r_m])
    point = {name: float(point_row[j]) for j, name in enumerate(QUANTITY_NAMES)}
    return IntervalReport(level=float(level), bounds=bounds, point=point,
                          draws_used=int(n))
