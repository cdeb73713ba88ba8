"""Monte Carlo propagation of the beta uncertainty to derived quantities.

Betas are drawn from a normal distribution; non-positive draws are redrawn
in whole-array rounds from the same Philox stream as the first pass, so
the result depends only on the inputs and the seed.  Derived
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
    "MAX_DRAWS",
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
