"""Per-unit price construction and mean-centered log series.

The price series is the literal product of the value/flow alignment
coefficient (a cosine) with the element-wise value-to-flow ratio.  Because
the cosine is a common positive factor it drops out after log centering,
which is what makes the downstream estimates scale invariant in both the
value and the flow units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PreprocessError",
    "PriceSeries",
    "CenteredLogSeries",
    "unit_price_series",
    "center_log",
    "describe_log_series",
]


class PreprocessError(ValueError):
    """Raised when a series violates a preprocessing precondition."""


@dataclass(frozen=True)
class PriceSeries:
    """Per-unit opportunity-cost prices plus the alignment coefficient."""

    values: np.ndarray
    cosine: float


@dataclass(frozen=True)
class CenteredLogSeries:
    """Log-deviations from the log mean, with the mean kept for level shifts
    and the logs kept for ``describe_log_series``."""

    deviations: np.ndarray
    mean: float
    logs: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def unit_price_series(value, flow) -> PriceSeries:
    """Build the per-unit price series from aligned value and flow series.

    values_t = [v.q / (|v| |q|)] * v_t / q_t.  Flow entries must be nonzero
    and both series must have positive norm.  Raises, without a NumPy
    warning, when a norm, the dot product or a price overflows.
    """
    v = np.asarray(value, dtype=np.float64)
    q = np.asarray(flow, dtype=np.float64)
    if v.shape != q.shape or v.ndim != 1:
        raise PreprocessError("value and flow must be 1-d series of equal length")
    nv = float(np.linalg.norm(v))
    nq = float(np.linalg.norm(q))
    if nv == 0.0 or nq == 0.0:
        raise PreprocessError("zero-norm input series")
    zero_flows = np.flatnonzero(q == 0.0)
    if zero_flows.size:
        raise PreprocessError(f"zero flow entry at data row {int(zero_flows[0]) + 1}")
    dot = np.dot(v, q)
    if not (math.isfinite(nv) and math.isfinite(nq) and math.isfinite(dot)):
        raise PreprocessError("norm or dot product of value and flow overflows")
    cosine = float(dot / (nv * nq))
    values = cosine * v / q
    overflowed = np.flatnonzero(~np.isfinite(values))
    if overflowed.size:
        raise PreprocessError(f"price overflows at data row {int(overflowed[0]) + 1}")
    return PriceSeries(values=values, cosine=cosine)


def center_log(series) -> CenteredLogSeries:
    """Mean-center the natural log of a strictly positive series."""
    s = np.asarray(series, dtype=np.float64)
    bad = np.flatnonzero(s <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise PreprocessError(f"non-positive entry {float(s[i])!r} at data row {i + 1}; "
                              "log undefined")
    logs = np.log(s)
    mean = float(logs.mean())
    return CenteredLogSeries(deviations=logs - mean, mean=mean, logs=logs)


def describe_log_series(centered: CenteredLogSeries) -> dict:
    """Descriptive statistics (sample SD, n-1 denominator) of a log series.

    Reads the logs, mean and deviations that ``center_log`` formed, so the
    series is not logged again; the numbers equal ``logs.mean()``,
    ``logs.std(ddof=1)``, ``logs.min()`` and ``logs.max()`` bit for bit.
    """
    logs, dev = centered.logs, centered.deviations
    n = logs.size
    return {
        "n_obs": int(n),
        "mean": centered.mean,
        "sd": math.sqrt(float(np.sum(dev * dev)) / (n - 1)) if n > 1 else 0.0,
        "min": float(logs.min()),
        "max": float(logs.max()),
    }
