"""Monte Carlo propagation of the beta uncertainty to derived quantities.

Betas are drawn from a normal distribution; non-positive draws are redrawn
from per-index counter-based streams so the result is identical no matter
how the work is split.  One Philox generator is re-keyed per rejected
index, which gives the same streams as a fresh per-index Philox.  Derived
quantities are evaluated per draw, each column of the draw table is sorted
in place, and the interval endpoints are read from the sorted columns by
NumPy's linear (Hyndman & Fan type-7) rule: two neighbouring order
statistics per endpoint.  Interval endpoints are never mapped: the price
map is not monotone in beta, so endpoint mapping would be wrong.

The market-referenced beta and the market rate are treated as fixed
constants; only the resource-vs-firm beta is sampled.
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
    n_discarded: int
    seed: int | None


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, (index + 1) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _redraw_streams(seed: int, indices):
    """Yield (index, generator) with the generator in ``_stream(seed, index)``'s state.

    A zero counter, an empty buffer and key (seed, index + 1) is exactly
    the state a fresh ``_stream`` starts in, so re-keying one Philox skips
    the cost of building a generator per index.
    """
    bitgen = np.random.Philox(key=[seed & _MASK64, 0])
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter and buffer zero, buffer_pos 4
    key = state["state"]["key"]
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


def _sorted_quantile(table: np.ndarray, q: float) -> np.ndarray:
    """Type-7 quantile ``q`` of each column of ``table``, sorted along axis 0.

    Repeats the arithmetic of NumPy's ``linear`` method step for step (the
    virtual index ``(n-1)*q``, its floor and the next row, and the two-sided
    lerp), so the result equals NumPy's quantile along axis 0 bit for
    bit on NaN-free columns that do not mix 0.0 and -0.0 (a sort and a
    partition may order those two differently; no derived column mixes them).
    """
    n = table.shape[0]
    virtual = (n - 1) * q
    if virtual >= n - 1:
        # NumPy pins both neighbours to row -1, so its weight is virtual - (-1)
        below = above = n - 1
        t = virtual + 1
    else:
        below = math.floor(virtual)
        above = below + 1
        t = virtual - below
    a, b = table[below], table[above]
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def derived_intervals(draws, beta_qm: float, r_m: float, mean_ln_flow: float,
                      mean_ln_price: float, level: float = 0.90,
                      seed: int | None = None,
                      point_beta: float | None = None) -> IntervalReport:
    """Empirical ((1-level)/2, (1+level)/2) intervals of the derived quantities.

    ``draws`` is a BetaDraws or a plain positive array.  Non-positive draws
    in a plain array are discarded and counted.  The point column evaluates
    the same maps at ``point_beta`` (defaulting to the sampling mean for
    BetaDraws, the median draw otherwise).
    """
    if isinstance(draws, BetaDraws):
        betas = draws.values
        if seed is None:
            seed = draws.seed
        if point_beta is None:
            point_beta = draws.mean
    else:
        betas = np.asarray(draws, dtype=np.float64)
    if betas.ndim != 1 or betas.size == 0:
        raise UncertaintyError("draws must be a non-empty 1-d sequence")
    if not (math.isfinite(beta_qm) and beta_qm > 0.0):
        raise UncertaintyError(f"beta_qm must be finite and positive, got {beta_qm}")
    if not 0.0 < level < 1.0:
        raise UncertaintyError(f"level must be in (0, 1), got {level}")
    if not (math.isfinite(mean_ln_flow) and math.isfinite(mean_ln_price) and math.isfinite(r_m)):
        raise UncertaintyError("means and market rate must be finite")

    valid = betas[betas > 0.0]
    n_discarded = int(betas.size - valid.size)
    if valid.size == 0:
        raise UncertaintyError("no positive draws to propagate")
    if point_beta is None:
        point_beta = float(np.median(valid))

    lo_q = 0.5 * (1.0 - level)
    with np.errstate(over="ignore", invalid="ignore"):
        table = kernels.propagate_beta_draws(valid, mean_ln_flow, mean_ln_price, beta_qm, r_m)
        table.sort(axis=0)  # NaNs sort to the last row
        lows = _sorted_quantile(table, lo_q)
        highs = _sorted_quantile(table, 1.0 - lo_q)
    overflowed = [name for j, name in enumerate(QUANTITY_NAMES)
                  if math.isnan(table[-1, j])
                  or not (math.isfinite(lows[j]) and math.isfinite(highs[j]))]
    if overflowed:
        raise UncertaintyError(f"interval bounds of {', '.join(overflowed)} are not finite")
    bounds = {
        name: (float(lows[j]), float(highs[j]))
        for j, name in enumerate(QUANTITY_NAMES)
    }
    point_row = kernels.propagate_beta_draws(
        np.array([float(point_beta)]), mean_ln_flow, mean_ln_price, beta_qm, r_m
    )[0]
    point = {name: float(point_row[j]) for j, name in enumerate(QUANTITY_NAMES)}
    return IntervalReport(level=float(level), bounds=bounds, point=point,
                          draws_used=int(valid.size), n_discarded=n_discarded,
                          seed=seed)
