"""Slope-to-beta conversion and chaining to market beta and returns.

Sign rule for the regression slope: a negative slope is read as the demand
relation, so the beta is its magnitude; a positive slope is the same world
seen from the opposite correlation, so the beta is the reciprocal.  A zero
risk-free rate is assumed throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BetaAlgebraError",
    "BetaSet",
    "ReturnSet",
    "beta_from_slope",
    "chain_to_market",
    "natural_return",
    "build_beta_set",
    "build_return_set",
]


class BetaAlgebraError(ValueError):
    """Raised for slopes or betas outside the admissible domain."""


def _positive(x: float) -> bool:
    """True for a finite, strictly positive number (False for NaN and inf)."""
    return math.isfinite(x) and x > 0.0


@dataclass(frozen=True)
class BetaSet:
    beta_xq: float
    beta_qx: float
    beta_qm: float
    beta_xm: float


@dataclass(frozen=True)
class ReturnSet:
    r_m: float
    r_q: float
    r_x: float


def beta_from_slope(alpha: float) -> float:
    """Resource-vs-firm beta implied by the flow-on-price regression slope."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise BetaAlgebraError(f"slope must be finite, got {alpha}")
    if alpha == 0.0:
        raise BetaAlgebraError("slope of exactly 0 leaves the beta undefined")
    return -alpha if alpha < 0.0 else 1.0 / alpha


def chain_to_market(beta_xq: float, beta_qm: float) -> float:
    """Market-referenced natural asset beta: product of the two betas."""
    if not (_positive(beta_xq) and _positive(beta_qm)):
        raise BetaAlgebraError("betas must be finite and positive")
    return float(beta_xq) * float(beta_qm)


def natural_return(beta_xm: float, r_m: float) -> float:
    """Rate of return on the natural asset given the market rate."""
    if not _positive(beta_xm):
        raise BetaAlgebraError("beta_xm must be finite and positive")
    if not math.isfinite(r_m):
        raise BetaAlgebraError("market rate must be finite")
    return float(beta_xm) * float(r_m)


def build_beta_set(beta_xq: float, beta_qm: float) -> BetaSet:
    if not (_positive(beta_xq) and _positive(beta_qm)):
        raise BetaAlgebraError("betas must be finite and positive")
    return BetaSet(
        beta_xq=float(beta_xq),
        beta_qx=1.0 / float(beta_xq),
        beta_qm=float(beta_qm),
        beta_xm=chain_to_market(beta_xq, beta_qm),
    )


def build_return_set(betas: BetaSet, r_m: float) -> ReturnSet:
    if not math.isfinite(r_m):
        raise BetaAlgebraError("market rate must be finite")
    r_q = betas.beta_qm * float(r_m)
    return ReturnSet(r_m=float(r_m), r_q=r_q, r_x=natural_return(betas.beta_xm, r_m))
