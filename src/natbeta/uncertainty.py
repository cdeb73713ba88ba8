"""Monte Carlo propagation of the beta uncertainty to derived quantities.

Betas are drawn from a normal distribution; non-positive draws are redrawn
from per-index counter-based streams so the result is identical no matter
how the work is split.  One Philox generator is re-keyed per rejected
index, which gives the same streams as a fresh per-index Philox.  Derived
quantities are evaluated per draw, and the interval endpoints follow
NumPy's linear (Hyndman & Fan type-7) rule: two neighbouring order
statistics per endpoint, selected in place by partitioning each column of
the draw table, never by sorting it.  Interval endpoints are never mapped:
the price map is not monotone in beta, so endpoint mapping would be wrong.

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
    "QUANTITY_NAMES",
    "sample_betas",
    "derived_intervals",
]

QUANTITY_NAMES = ("ln_price", "ln_quantity", "ln_user_cost", "beta_xm", "r_x")

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


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, (index + 1) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _redraw_streams(seed: int, indices):
    """Yield (index, generator) with the generator in ``_stream(seed, index)``'s state.

    A zero counter, an empty buffer and key (seed, index + 1) is exactly
    the state a fresh ``_stream`` starts in, so re-keying one Philox skips
    the cost of building a generator per index.  The state is built from
    plain Python ints and lists, which the state setter reads several
    times faster than the NumPy arrays ``bitgen.state`` returns.
    """
    bitgen = np.random.Philox(key=0)  # every field is overwritten below
    gen = np.random.Generator(bitgen)
    key = [seed & _MASK64, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in indices:
        key[1] = (i + 1) & _MASK64
        bitgen.state = state
        yield i, gen


def sample_betas(mean: float, se: float, draws: int, seed: int) -> BetaDraws:
    """Draw positive betas from N(mean, se), redrawing non-positive values.

    Redraws use per-index counter-based streams, so the output depends only
    on (mean, se, draws, seed).  The streams come from one Philox generator
    re-keyed to (seed, index + 1) for each rejected index, which draws the
    same numbers as a fresh Philox built per index.  Raises when the
    cumulative number of rejected draws exceeds half the requested draws:
    the normal is then too inconsistent with the positivity restriction to
    represent the beta.
    """
    if draws < 1:
        raise UncertaintyError(f"draws must be >= 1, got {draws}")
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
    main = _stream(seed, -1)  # key (seed, 0) reserved for the base vector
    values = main.standard_normal(draws)
    values *= se  # in place: the same mean + se * z, without two n-long temporaries
    values += mean
    bad = np.flatnonzero(values <= 0.0)
    rejected = int(bad.size)
    if rejected > budget:
        raise UncertaintyError(
            f"excessive truncation: {rejected} of {draws} draws non-positive"
        )
    for i, sub in _redraw_streams(seed, bad.tolist()):
        while True:
            candidate = mean + se * sub.standard_normal()
            if candidate > 0.0:
                values[i] = candidate
                break
            rejected += 1
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


def _lerp_rows(cols: np.ndarray, below: int, above: int, t: float) -> np.ndarray:
    """Type-7 quantile of each row of ``cols`` from its ``_type7_rows``.

    Every row must be partitioned at ``below``; the next order statistic is
    then the smallest value after it.  The two-sided lerp repeats NumPy's
    step for step, so the result equals ``np.quantile`` bit for bit on
    NaN-free rows that do not mix 0.0 and -0.0 (two selections may return
    either of those two; no derived column mixes them).
    """
    a = cols[:, below]
    b = cols[:, below + 1:].min(axis=1) if above > below else a
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def derived_intervals(draws: BetaDraws, beta_qm: float, r_m: float, mean_ln_flow: float,
                      mean_ln_price: float, level: float = 0.90) -> IntervalReport:
    """Empirical ((1-level)/2, (1+level)/2) intervals of the derived quantities.

    ``draws`` comes from ``sample_betas``, so every beta is positive and all
    of them are propagated.  The point column evaluates the same maps at the
    sampling mean.  Raises when a bound is not finite or a column holds a
    NaN.
    """
    if not (math.isfinite(beta_qm) and beta_qm > 0.0):
        raise UncertaintyError(f"beta_qm must be finite and positive, got {beta_qm}")
    if not 0.0 < level < 1.0:
        raise UncertaintyError(f"level must be in (0, 1), got {level}")
    if not (math.isfinite(mean_ln_flow) and math.isfinite(mean_ln_price) and math.isfinite(r_m)):
        raise UncertaintyError("means and market rate must be finite")

    lo_q = 0.5 * (1.0 - level)
    table = kernels.propagate_beta_draws(draws.values, mean_ln_flow, mean_ln_price, beta_qm, r_m)
    cols = table.T  # (5, n), C-contiguous: one row per quantity
    lo = _type7_rows(cols.shape[1], lo_q)
    hi = _type7_rows(cols.shape[1], 1.0 - lo_q)
    # Two single-kth partitions put both `below` order statistics in place
    # (lo's `below` never exceeds hi's); NaNs order last.
    cols.partition(lo[0], axis=1)
    if hi[0] > lo[0]:
        cols[:, lo[0] + 1:].partition(hi[0] - lo[0] - 1, axis=1)
    lows = _lerp_rows(cols, *lo)
    highs = _lerp_rows(cols, *hi)
    has_nan = np.isnan(cols.max(axis=1))
    overflowed = [name for j, name in enumerate(QUANTITY_NAMES)
                  if has_nan[j] or not (math.isfinite(lows[j]) and math.isfinite(highs[j]))]
    if overflowed:
        raise UncertaintyError(f"interval bounds of {', '.join(overflowed)} are not finite")
    bounds = {
        name: (float(lows[j]), float(highs[j]))
        for j, name in enumerate(QUANTITY_NAMES)
    }
    point_row = kernels.propagate_beta_draws(
        np.array([draws.mean]), mean_ln_flow, mean_ln_price, beta_qm, r_m
    )[0]
    point = {name: float(point_row[j]) for j, name in enumerate(QUANTITY_NAMES)}
    return IntervalReport(level=float(level), bounds=bounds, point=point,
                          draws_used=int(draws.values.size))
