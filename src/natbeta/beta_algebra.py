"""Slope-to-beta conversion and chaining to market beta and returns.

Sign rule for the regression slope: a negative slope is read as the demand
relation, so the beta is its magnitude; a positive slope is the same world
seen from the opposite correlation, so the beta is the reciprocal.  A zero
risk-free rate is assumed throughout.
"""

from __future__ import annotations

import math

__all__ = ["BetaAlgebraError", "beta_from_slope", "chain_products", "market_chain"]


class BetaAlgebraError(ValueError):
    """Raised for slopes or betas outside the admissible domain."""


def beta_from_slope(slope: float, slope_se: float) -> tuple[float, float]:
    """Resource-vs-firm beta ``beta_xq`` implied by the flow-on-price
    regression slope, and its delta-method standard error.

    A negative slope maps to ``-slope`` with the slope's SE; a positive one
    to ``1/slope`` with SE ``slope_se / slope**2``, which is ``inf`` when
    ``slope**2`` underflows to 0.
    """
    slope, slope_se = float(slope), float(slope_se)
    if not math.isfinite(slope):
        raise BetaAlgebraError(f"slope must be finite, got {slope}")
    if slope == 0.0:
        raise BetaAlgebraError("slope of exactly 0 leaves the beta undefined")
    if not (math.isfinite(slope_se) and slope_se >= 0.0):
        raise BetaAlgebraError(f"slope se must be finite and >= 0, got {slope_se}")
    if slope < 0.0:
        return -slope, slope_se
    slope_sq = slope * slope
    return 1.0 / slope, slope_se / slope_sq if slope_sq else math.inf


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise BetaAlgebraError(f"{name} overflows to {value}")
    return value


def chain_products(beta_xq, beta_qm, r_m):
    """``beta_xm = beta_xq * beta_qm`` and ``r_x = beta_xm * r_m``, unchecked
    and elementwise: scalars for ``market_chain``, arrays of draws for
    ``natbeta.uncertainty``.

    Each is the beta times a constant, so monotone to the last bit: over
    ascending betas ``beta_xm`` never falls, and ``r_x`` moves the way of
    ``r_m``'s sign, which every ``r_x`` carries, a zero included.  Where
    ``beta_xm`` overflows, ``r_x`` is NaN at ``r_m`` = +-0.
    """
    beta_xm = beta_xq * beta_qm
    return beta_xm, beta_xm * r_m


def market_chain(beta_xq: float, beta_qm: float, r_m: float) -> tuple[dict, dict]:
    """The report's ``betas`` and ``returns``: the firm-vs-resource beta
    ``1/beta_xq``, the market-referenced natural asset beta ``beta_xq *
    beta_qm``, and the firm and natural rates of return at market rate
    ``r_m``.

    Both betas must be finite and positive and ``r_m`` finite; a value
    formed from them that overflows, or a ``beta_xm`` that underflows to 0,
    raises.
    """
    beta_xq, beta_qm, r_m = float(beta_xq), float(beta_qm), float(r_m)
    for name, beta in (("beta_xq", beta_xq), ("beta_qm", beta_qm)):
        if not (math.isfinite(beta) and beta > 0.0):
            raise BetaAlgebraError(f"{name} must be finite and positive, got {beta}")
    if not math.isfinite(r_m):
        raise BetaAlgebraError(f"market rate must be finite, got {r_m}")
    beta_xm, r_x = chain_products(beta_xq, beta_qm, r_m)
    beta_qx = _finite("beta_qx", 1.0 / beta_xq)
    _finite("beta_xm", beta_xm)
    if beta_xm == 0.0:
        raise BetaAlgebraError(f"beta_xm underflows to 0 at beta_xq {beta_xq}, beta_qm {beta_qm}")
    r_q = _finite("r_q", beta_qm * r_m)
    _finite("r_x", r_x)
    return ({"beta_xq": beta_xq, "beta_qx": beta_qx, "beta_qm": beta_qm, "beta_xm": beta_xm},
            {"r_m": r_m, "r_q": r_q, "r_x": r_x})
