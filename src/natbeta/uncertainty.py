"""Monte Carlo propagation of the beta uncertainty to derived quantities.

Betas are drawn by inversion (Devroye 1986, *Non-Uniform Random Variate
Generation*, II.2): each draw is a uniform u, and its beta is
``mean + se * Q(u)``, with Q the normal quantile ``kernels.normal_quantile``
(Wichura's AS241).  Uniforms at or below the truncation floor, those of
non-positive betas, are rejected and redrawn, so the kept ones are iid
uniform on (floor, 1).  The map from u to beta increases, so the betas'
order statistics are the mapped order statistics of the uniforms, and the
draws are held as those order statistics: a table of uniforms in ascending
order, in blocks of ``_BLOCK`` ranks, of which only the blocks an endpoint
reads are ever drawn.

Uniform order statistics are normalised sums of exponential spacings, and
given two of them the draws between are iid uniform on the gap (Devroye
1986, ch. V; Bentley & Saxe, "Generating sorted lists of random numbers",
ACM TOMS 6(3), 1980).  ``sample_betas`` draws the uniforms at the block
boundaries, ranks B - 1, 2B - 1, ..., at once, as normalised cumulative
``standard_gamma`` spacings, and the count of rejected candidates as a
negative binomial.  A block's other uniforms are drawn, sorted and cached
when a rank in it is first read, from the block's own position of one PCG64
stream seeded from the seed mod 2**64.  Every uniform is thus a fixed
function of (seed, draws, floor, rank), whatever is read and in whatever
order, and one seed gives common random numbers across levels and map
inputs.  The draws at or past a uniform are counted by bisecting the
boundaries and searching one block.

The interval endpoints follow NumPy's linear (Hyndman & Fan type-7) rule:
two neighbouring order statistics per endpoint, lerped in the quantity's
own values.  Every derived quantity is a function of the beta alone, and on
a piece where that function is monotone its order statistics are its
values at the beta's, in the same order or reversed (quantiles are
equivariant under monotone maps; Hyndman & Fan, Am. Stat. 50(4), 1996).

``market_curves.TURNING_POINTS`` lists the five quantities, in report
order, with the betas where each map turns: the three equilibrium maps
first, then ``beta_xm`` and ``r_x``, the beta times a constant, which turn
nowhere.  Every quantity is evaluated at the needed betas, and its
direction is the sign of its rise between the extreme ones.  A product is
monotone to the last bit, so where it does not rise (``r_m`` = +-0) its
needed values are equal and either order gives the same bits.  A map that
turns takes its direction only where the needed betas lie on one monotone
piece, between guards ``_TURN_MARGIN`` (relative) inside its turning
points, and it rises there by more than the kernel's rounding; it is then
also evaluated at the draws at or past a guard.  Every guard is decided on
the uniforms alone, against the guard's uniform: the map from u to beta
rises.  Where a past draw's value lies among the others, an endpoint is
selected from the past values and one window of the beta's order
statistics beside its ranks: the map orders every other draw, so each lies
on a known side of it.  Where the needed betas straddle a turning point or
lie too close together for the kernel's rounding to resolve, the quantity
is selected by the K-rank rule.  A needed rank lies at most K - 2 places
from an end of the quantity's order, so a draw with K - 1 or more draws of
its own monotone piece on each side holds none.  The endpoint is selected
from the K - 1 lowest uniforms, the K - 1 highest and the K on each side
of each turning point's u-rank (one more there, since erfc's rounding may
miss that rank by one); no path maps or evaluates every draw.

Every endpoint equals the one selected from the full table of every draw's
value unless rounding reverses two draws at a needed rank: the kernel's
for two betas within a few ulps of each other, or AS241's, whose Horner
rounding is not monotone at the last bit, for two uniforms a few ulps
apart.  The Monte Carlo fields therefore differ from those of versions that
drew every uniform, at the same seed.

The market-referenced beta and the market rate are treated as fixed
constants; only the resource-vs-firm beta is sampled.  Neither function
silences NumPy's overflow warnings; ``derived_intervals`` raises on every
non-finite bound instead.  A quantity is NaN only at an infinite beta
(inf / inf in the equilibrium) or where ``beta_xm`` overflows at
``r_m`` = +-0 (inf * 0 in ``r_x``), so at the largest beta if anywhere: one
row there, added to the kernel call, checks all five.  ``natbeta.pipeline`` runs the two as one stage,
for ``estimate`` and ``ci`` alike, with those warnings silenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import beta_algebra, kernels, market_curves

__all__ = [
    "UncertaintyError",
    "BetaDraws",
    "IntervalReport",
    "sample_betas",
    "derived_intervals",
]

QUANTITY_NAMES = tuple(market_curves.TURNING_POINTS)

# Largest draw count sample_betas accepts.  The sampler's own work grows
# only with the number of blocks, but the past-draw and K-rank paths of
# derived_intervals still read blocks in proportion to the draws.
MAX_DRAWS = 10**7
# Ranks per block of the table: the uniform at the last rank of each block
# but the last is drawn by sample_betas, the others when the block is read.
_BLOCK = 1 << 10
# Stream position of block 0's uniforms; the boundaries and the rejection
# count take the stream from position 0, far fewer than this many values.
_BLOCK_ORIGIN = 1 << 64
# Least acceptance probability 1 - floor that sample_betas draws a
# rejection count for.  Below it the negative binomial's mean overflows
# NumPy's Poisson step, and more than half the draws are rejected with
# probability above 1 - 2**-36, so the sampler aborts outright.
_LEAST_ACCEPTANCE = 2.0**-39
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
# Relative distance from a turning point within which a beta counts as past
# it: far beyond the root's error, and wide enough that the map is steep
# inside the guards, so erfc's rounding of a guard's uniform moves no
# endpoint.
_TURN_MARGIN = 2.0**-10


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


def _sorted_uniforms(stream: tuple, j: int, out: np.ndarray, lo: float, hi: float) -> None:
    """Fill ``out`` with iid uniforms on [lo, hi], ascending: the interior
    of block ``j``, drawn from the block's own position of ``stream``, a
    generator and the state it was seeded with.  ``lo + (hi - lo) * v``
    rounds to no less than lo, but may round past hi by an ulp."""
    generator, origin = stream
    generator.bit_generator.state = origin
    generator.bit_generator.advance(_BLOCK_ORIGIN + j * _BLOCK)
    generator.random(out=out)
    out.sort()
    out *= hi - lo
    out += lo
    np.minimum(out, hi, out=out)


@dataclass(frozen=True)
class BetaDraws:
    """Positive beta draws, each held as the uniform it is mapped from, in
    ascending order, plus the redraw count and generating seed.

    The table holds ``size`` stored values on [``low``, ``high``], in blocks
    of ``_BLOCK`` ranks; ``knots`` are the values at the last rank of every
    block but the last.  ``values`` and ``searchsorted`` read the table
    as NumPy would read the full sorted array, drawing a block the first
    time a rank in it is read.  The beta of a stored value u is
    ``mean + se * Q(u)``, increasing in u; where ``se`` is 0 the stored
    values are the betas themselves, and ``sample_betas`` gives the table
    with ``low = high = mean``.  ``from_values`` builds a table with every
    block given.
    """

    size: int
    knots: np.ndarray
    low: float
    high: float
    n_redrawn: int
    seed: int
    mean: float
    se: float = 0.0
    _stream: tuple | None = field(default=None, repr=False, compare=False)
    _blocks: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_values(cls, values, mean: float, se: float = 0.0) -> BetaDraws:
        """A table of the given stored values: positive betas where se is 0,
        else uniforms in (0, 1), which it sorts.  Raises on an empty table
        and on any other value, NaN included, and on a uniform at or below
        the truncation floor, whose beta need not be positive."""
        values = np.sort(np.array(values, dtype=np.float64))
        inside = values > 0.0 if se == 0.0 else (values > 0.0) & (values < 1.0)
        if not (values.size and inside.all()):
            raise UncertaintyError("draws must hold positive betas, or uniforms in (0, 1)")
        floor = _truncation_floor(mean, se) if se > 0.0 else 0.0
        if values[0] <= floor:
            raise UncertaintyError(
                f"uniform {float(values[0])!r} is at or below the truncation floor {floor!r}")
        values.flags.writeable = False
        return cls(size=values.size, knots=values[_BLOCK - 1:-1:_BLOCK], low=values[0],
                   high=values[-1], n_redrawn=0, seed=0, mean=float(mean), se=float(se),
                   _blocks={j: values[j * _BLOCK:(j + 1) * _BLOCK]
                            for j in range(-(-values.size // _BLOCK))})

    def _block(self, j: int) -> np.ndarray:
        """Block ``j`` of the table, drawn and cached on first use."""
        block = self._blocks.get(j)
        if block is None:
            top = j < self.knots.size  # the block ends at knot j
            lo = self.knots[j - 1] if j else self.low
            hi = self.knots[j] if top else self.high
            block = np.empty(min(_BLOCK, self.size - j * _BLOCK))
            _sorted_uniforms(self._stream, j, block[:block.size - top], lo, hi)
            if top:
                block[-1] = hi
            block.flags.writeable = False
            self._blocks[j] = block
        return block

    def values(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The stored values at ranks ``start`` to ``stop - 1``, ascending;
        by default the full table.  A range inside one block is a read-only
        view of it."""
        stop = self.size if stop is None else stop
        if start >= stop:
            return np.empty(0)
        first = start // _BLOCK
        blocks = [self._block(j) for j in range(first, (stop - 1) // _BLOCK + 1)]
        ordered = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        return ordered[start - first * _BLOCK:stop - first * _BLOCK]

    def searchsorted(self, x: float, side: str = "left") -> int:
        """The number of stored values below ``x``, or at or below it where
        ``side`` is "right": NumPy's ``searchsorted`` of the full table,
        from the knots and one block."""
        j = int(np.searchsorted(self.knots, x, side))
        return j * _BLOCK + int(np.searchsorted(self._block(j), x, side))

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
    uniforms of non-positive values, as a table of their uniforms.

    A uniform is rejected where it is at most ``_truncation_floor``:
    P(beta <= 0) = Phi(-mean/se), raised by ``_TRUNCATION_MARGIN``, so every
    kept uniform maps to a positive beta despite rounding.  The kept
    uniforms are iid uniform on (floor, 1); the table holds them on
    [nextafter(floor, 1), nextafter(1, 0)], so 0 and 1 never occur.  From
    one PCG64 generator seeded from ``seed mod 2**64`` it draws the block
    boundaries, as the ratios of the cumulative sums of ``draws // _BLOCK``
    standard_gamma(_BLOCK) spacings (one fewer where ``_BLOCK`` divides
    ``draws``) to their sum with one last spacing, the rest of the
    ``draws + 1`` exponentials, and then ``n_redrawn``, the count of
    rejected candidates before ``draws`` are kept: a negative binomial with
    ``draws`` successes of probability 1 - floor.  The output depends only
    on (mean, se, draws, seed).  Raises when that count exceeds half the
    requested draws: the normal is then too inconsistent with the
    positivity restriction to represent the beta.  Where se is 0 every beta
    is the mean: the same table with ``low = high = mean``.  ``draws`` and
    ``seed`` must be integers, not bools.
    """
    draws = kernels._integer(draws, "draws", UncertaintyError)
    if draws < 1:
        raise UncertaintyError(f"draws must be >= 1, got {draws}")
    if draws > MAX_DRAWS:
        raise UncertaintyError(f"draws must be <= {MAX_DRAWS}, got {draws}")
    if se < 0:
        raise UncertaintyError(f"se must be >= 0, got {se}")
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise UncertaintyError("mean and se must be finite")
    seed = kernels._integer(seed, "seed", UncertaintyError)
    if seed < 0:
        raise UncertaintyError("seed must be a non-negative integer")
    if se == 0.0 and mean <= 0.0:
        raise UncertaintyError(f"degenerate distribution at non-positive mean {mean}")

    blocks = -(-draws // _BLOCK)
    generator = np.random.Generator(np.random.PCG64(seed & _MASK64))
    stream = (generator, generator.bit_generator.state)
    sums = np.cumsum(np.append(generator.standard_gamma(float(_BLOCK), blocks - 1),
                               generator.standard_gamma(draws + 1 - (blocks - 1) * _BLOCK)))
    n_redrawn, low, high = 0, float(mean), float(mean)
    if se > 0.0:
        floor = _truncation_floor(mean, se)
        if 1.0 - floor >= _LEAST_ACCEPTANCE:
            n_redrawn = int(generator.negative_binomial(draws, 1.0 - floor))
        if 1.0 - floor < _LEAST_ACCEPTANCE or n_redrawn > 0.5 * draws:
            raise UncertaintyError(
                f"excessive truncation: more than half of {draws} draws rejected"
            )
        low, high = math.nextafter(floor, 1.0), math.nextafter(1.0, 0.0)
    knots = np.clip(low + (high - low) * (sums[:-1] / sums[-1]), low, high)
    return BetaDraws(size=draws, knots=knots, low=low, high=high, n_redrawn=n_redrawn,
                     seed=seed, mean=float(mean), se=float(se), _stream=stream)


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


def _order_stats(row: np.ndarray, ranks) -> dict[int, float]:
    """Order statistics ``ranks`` of ``row``, selected in place.

    Each step partitions a span at the needed rank nearest its middle, then
    treats the two sides the same way; a side that needs only its own
    smallest or largest ranks takes them by a min or max scan.  For type-7
    endpoints the spans left are the short ones beyond each endpoint, so the
    work is two single-``kth`` partitions and scans of the tails (the
    bracketing of Floyd & Rivest, CACM 18(3), 1975).
    """
    stats = {}
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
        spans.append((start, k, [r for r in need if r < k]))
        spans.append((k + 1, stop, [r for r in need if r > k]))
    return stats


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

    ``draws`` comes from ``sample_betas``, or ``BetaDraws.from_values``, so
    every beta is positive.  Only the blocks of the table that hold a
    picked rank, a past draw, a rank window or a K-rank span are drawn; no
    n-long array is mapped, evaluated or held.  The point column evaluates
    the same maps at the sampling mean.  Raises when a bound is not finite,
    or when a quantity is NaN for some draw.
    """
    if not (math.isfinite(beta_qm) and beta_qm > 0.0):
        raise UncertaintyError(f"beta_qm must be finite and positive, got {beta_qm}")
    if not 0.0 < level < 1.0:
        raise UncertaintyError(f"level must be in (0, 1), got {level}")
    if not (math.isfinite(mean_ln_flow) and math.isfinite(mean_ln_price) and math.isfinite(r_m)):
        raise UncertaintyError("means and market rate must be finite")

    n = draws.size
    lo_q = 0.5 * (1.0 - level)
    lo = _type7_rows(n, lo_q)
    hi = _type7_rows(n, 1.0 - lo_q)
    ends = {lo[0], lo[1], hi[0], hi[1]}
    # a quantity that descends in beta takes its rank k from the beta's rank n-1-k
    needed = sorted(ends | {n - 1 - k for k in ends})
    picked = sorted({*needed, 0, n - 1})
    u = {k: draws.values(k, k + 1)[0] for k in picked}
    # By quantity, the monotone piece of its map whose guards, _TURN_MARGIN
    # inside its turning points, hold every needed beta: the uniforms of its
    # guards.  u_at rises, so the uniforms decide every guard.  A product's
    # one piece holds every positive beta, so it moves neither edge below.
    pieces = {}
    for j, name in enumerate(QUANTITY_NAMES):
        turns = (0.0, *market_curves.TURNING_POINTS[name], math.inf)
        for low, high in zip(turns, turns[1:]):
            low = draws.u_at(low * (1.0 + _TURN_MARGIN))
            high = draws.u_at(high * (1.0 - _TURN_MARGIN))
            if low < u[needed[0]] and u[needed[-1]] < high:
                pieces[j] = (low, high)
                break
    # The draws at or past a piece's guard: all draws below the lowest
    # needed beta, or above the highest.  They are mapped with the picked
    # ranks.
    below = above = np.empty(0)
    if pieces:
        edge = max(piece[0] for piece in pieces.values())
        if u[0] <= edge:
            below = draws.values(0, draws.searchsorted(edge, "right"))
        edge = min(piece[1] for piece in pieces.values())
        if u[n - 1] >= edge:
            above = draws.values(draws.searchsorted(edge), n)
    mapped = draws.betas(np.concatenate([[u[k] for k in picked], below, above]))
    beta = dict(zip(picked, mapped))
    past = mapped[len(picked):]
    # Every quantity, in QUANTITY_NAMES order, at the needed betas, the
    # largest beta, the past draws and the mean.  The maps that turn come
    # first, as the kernel's columns.
    at = np.concatenate([[beta[k] for k in needed], [beta[n - 1]], past, [draws.mean]])
    kernel = kernels.propagate_beta_draws(at, mean_ln_flow, mean_ln_price)
    rows = np.column_stack([kernel, *beta_algebra.chain_products(at, beta_qm, r_m)])
    m = len(needed)
    # a rise the kernel's rounding cannot blur, per rank between the needed betas
    resolved = _RESOLUTION * np.abs(kernel[:m]).max() * (needed[-1] - needed[0])
    # Whether each quantity descends in beta: the sign of its rise between
    # the extreme needed betas.  A map that turns takes it where its piece
    # holds the needed betas and the rise is resolved; the K-rank rule
    # selects the others.  A product always takes it: where its rise is 0,
    # every needed value is the same, and either order gives the same bits.
    descending, turning = {}, []
    # By quantity and endpoint where a past value lies among the others: the
    # one window of beta ranks [a, c] that with the past draws holds both of
    # the endpoint's ranks, and the rank r of g of each rank k of the
    # quantity that the past values move
    windows = {}
    for j, name in enumerate(QUANTITY_NAMES):
        turns = market_curves.TURNING_POINTS[name]
        if turns and not (j in pieces and abs(rows[m - 1, j] - rows[0, j]) > resolved):
            turning.append(j)
            continue
        descending[j] = rows[m - 1, j] < rows[0, j]
        if not (turns and (u[0] <= pieces[j][0] or u[n - 1] >= pieces[j][1])):
            continue  # a product, or every past draw lies on the map's own piece
        g = (-1.0 if descending[j] else 1.0) * rows[:, j]  # rises with the beta
        # d at rank r: past values below g there less the draws below the
        # low guard.  The beta's rank r then holds rank r + d of g, and
        # rank r of g lies among the beta's ranks r to r - d
        shift = dict(zip(needed, np.sort(g[m + 1:-1]).searchsorted(g[:m]) - below.size))
        for end in {lo[:2], hi[:2]}:
            ranks = {k: n - 1 - k if descending[j] else k for k in end}
            moved = {k: r for k, r in ranks.items() if shift[r]}
            if moved:
                a = min(min(r, r - shift[r]) for r in moved.values())
                c = max(max(r, r - shift[r]) for r in moved.values())
                windows[j, end] = (max(a, below.size), min(c, n - 1 - above.size), moved)
    # The K-rank rule, for a map that turns among the needed betas or rises
    # there by less than the kernel's rounding.  A needed rank lies at most
    # ``depth`` places from an end of the quantity's order, so a draw with
    # more than ``depth`` draws of its own monotone piece of the map on each
    # side holds none.  The candidates are the depth + 1 lowest uniforms,
    # the depth + 1 highest, and K = depth + 2 on each side of the u-rank of
    # each turning point inside the draws, which erfc's rounding may miss by
    # one.  Any superset of them would do.
    spans = []
    depth = max(min(k, n - 1 - k) for k in ends)
    if turning:
        cuts = [(0, depth + 1), (n - depth - 1, n)]
        for j in turning:
            for t in market_curves.TURNING_POINTS[QUANTITY_NAMES[j]]:
                if beta[0] < t < beta[n - 1]:
                    rank = draws.searchsorted(draws.u_at(t))
                    cuts.append((rank - depth - 2, rank + depth + 2))
        for start, stop in sorted(cuts):
            start, stop = max(start, 0), min(stop, n)
            if spans and start <= spans[-1][1]:
                spans[-1] = (spans[-1][0], max(spans[-1][1], stop))
            else:
                spans.append((start, stop))
    row_at = dict(zip(needed, rows))
    # rank k is the value at the beta's rank k, or n-1-k where descending
    stats = {j: {k: row_at[n - 1 - k if down else k][j] for k in ends}
             for j, down in descending.items()}
    if spans or windows:
        # one mapping and one kernel call evaluate every span and window
        blocks = [draws.values(a, b) for a, b in spans]
        blocks += [draws.values(a, c + 1) for a, c, _ in windows.values()]
        inside = kernels.propagate_beta_draws(draws.betas(np.concatenate(blocks)),
                                              mean_ln_flow, mean_ln_price)
        size = sum(b - a for a, b in spans)
        # rank k of every draw is rank k of the candidates below the middle,
        # and the same rank from the top above it
        place = {k: k if k <= depth else k - n + size for k in ends}
        for j in turning:
            selected = _order_stats(inside[:size, j], set(place.values()))
            stats[j] = {k: selected[i] for k, i in place.items()}
        stops = np.cumsum([c + 1 - a for a, c, _ in windows.values()])[:-1]
        for ((j, _), (a, c, moved)), window in zip(windows.items(),
                                                   np.split(inside[size:], stops)):
            # each value outside the window and P lies on one side of rank r
            # of g, a - p_b of them below it
            sign, i = -1.0 if descending[j] else 1.0, below.size - a
            g = sign * np.concatenate([window[:, j], rows[m + 1:-1, j]])
            g.partition(sorted({r + i for r in moved.values()}))
            for k, r in moved.items():
                stats[j][k] = sign * g[r + i]

    def quantities(k: int) -> np.ndarray:
        # rank k of every quantity, in QUANTITY_NAMES order
        return np.array([stats[j][k] for j in range(len(QUANTITY_NAMES))])

    lows = _lerp(quantities(lo[0]), quantities(lo[1]), lo[2])
    highs = _lerp(quantities(hi[0]), quantities(hi[1]), hi[2])
    # A NaN orders last, so one shows at the largest beta: inf / inf in the
    # equilibrium, inf * 0 in r_x, the only NaNs a quantity can take.
    overflowed = [name for name, top, low, high in zip(QUANTITY_NAMES, rows[m], lows, highs)
                  if math.isnan(top) or not (math.isfinite(low) and math.isfinite(high))]
    if overflowed:
        raise UncertaintyError(f"interval bounds of {', '.join(overflowed)} are not finite")
    bounds = {
        name: [float(lows[j]), float(highs[j])]
        for j, name in enumerate(QUANTITY_NAMES)
    }
    point = dict(zip(QUANTITY_NAMES, map(float, rows[-1])))
    return IntervalReport(level=float(level), bounds=bounds, point=point,
                          draws_used=int(n))
