"""Supply/demand curves in log-deviation space and their equilibrium.

With beta the resource-vs-firm asset beta, supply is y = beta*x + ln(beta)
and demand is x = -beta*y, where x and y are mean-centered logs of flow and
unit price.  The analytic equilibrium is

    y_e = ln(beta) / (1 + beta^2),    x_e = -beta * y_e,

so beta = 1 puts the equilibrium exactly at the stored means.  Level prices
and quantities are recovered by shifting the deviations with those means;
curves are never re-fit in level space.  ``curve_samples`` tabulates both
curves over one x grid for plotting.

``TURNING_POINTS`` lists the five derived quantities of a report, in its
order, with where each map turns: y_e at b ~ 1.8950, x_e at ~ 0.3013 and
~ 3.3191, x_e + y_e at 1 and ~ 4.7156, and ``beta_xm`` and ``r_x`` nowhere.
Each equilibrium map rises from b -> 0 to its first turning point and is
monotone between two of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "CurveError",
    "EquilibriumPoint",
    "ShockModel",
    "equilibrium_deviation",
    "equilibrium_levels",
    "elasticities",
    "curve_samples",
    "zero_sum_integral",
    "shocked_equilibrium",
]


MAX_CURVE_SAMPLES = 10**6  # largest count curve_samples tabulates
# Accuracy of zero_sum_integral at any upper bound: each half is within
# 2.3e-16 of a 40-digit reference up to upper = 1.7e308.
_ZERO_SUM_ACCURACY = 1e-14
# Widest panel, in u = ln b, of zero_sum_integral's rule.  The integrand
# u/(e^u + e^-u) is analytic within pi/2 of the real axis, so 16 nodes on
# such a panel are exact to rounding.
_PANEL_WIDTH = 0.5

# The derived quantities in report order, each with the betas where its map
# turns, ascending.  The equilibrium maps come first: the roots of d y_e/db,
# d x_e/db and d (x_e + y_e)/db, each within a few ulps.  beta_xm and r_x
# are the beta times a constant, monotone to the last bit.
TURNING_POINTS = {
    "ln_price": (1.8950254554144181,),
    "ln_quantity": (0.30129101916065737, 3.319050142237297),
    "ln_user_cost": (1.0, 4.715612314934235),
    "beta_xm": (),
    "r_x": (),
}


class CurveError(ValueError):
    """Raised for invalid betas, ranges or shock configurations."""


def _check_beta(beta_xq: float) -> float:
    return kernels._real(beta_xq, "beta", CurveError, "finite and positive")


@dataclass(frozen=True)
class EquilibriumPoint:
    x_e: float
    y_e: float
    ln_quantity: float
    ln_price: float
    quantity: float
    price: float
    ln_user_cost: float


@dataclass(frozen=True)
class ShockModel:
    """Curve-shock magnitudes; 'paper' mode ties the shocks to eps_S = -eps_D."""

    sigma_s: float = 0.0
    sigma_d: float = 0.0
    mode: str = "general"

    def __post_init__(self):
        # stored as floats, so that a truth file records the scales that ran
        for name in ("sigma_s", "sigma_d"):
            object.__setattr__(self, name, kernels._real(
                getattr(self, name), "shock standard deviations", CurveError, "finite and >= 0"))
        if self.mode not in ("general", "paper"):
            raise CurveError(f"mode must be 'general' or 'paper', got {self.mode!r}")


def equilibrium_deviation(beta_xq: float) -> tuple[float, float]:
    """Deviation-space equilibrium (x_e, y_e)."""
    x_e, y_e = kernels.solve_equilibrium(_check_beta(beta_xq))
    return (float(x_e), float(y_e))


def equilibrium_levels(beta_xq: float, mean_ln_flow: float, mean_ln_price: float) -> EquilibriumPoint:
    """Equilibrium in levels: deviations shifted by the stored log means."""
    mean_ln_flow = kernels._real(mean_ln_flow, "mean_ln_flow", CurveError)
    mean_ln_price = kernels._real(mean_ln_price, "mean_ln_price", CurveError)
    x_e, y_e = equilibrium_deviation(beta_xq)
    ln_quantity = mean_ln_flow + x_e
    ln_price = mean_ln_price + y_e
    logs = f"ln quantity {ln_quantity:.6g}, ln price {ln_price:.6g}"
    try:
        quantity = math.exp(ln_quantity)
        price = math.exp(ln_price)
    except OverflowError:
        raise CurveError(f"equilibrium level overflows: {logs}") from None
    if quantity == 0.0 or price == 0.0:
        raise CurveError(f"equilibrium level underflows to 0: {logs}")
    return EquilibriumPoint(
        x_e=x_e,
        y_e=y_e,
        ln_quantity=ln_quantity,
        ln_price=ln_price,
        quantity=quantity,
        price=price,
        ln_user_cost=ln_quantity + ln_price,
    )


def elasticities(beta_xq: float) -> tuple[float, float]:
    """(supply elasticity, demand elasticity) = (1/beta, beta), as magnitudes."""
    b = _check_beta(beta_xq)
    supply = 1.0 / b
    if math.isinf(supply):
        raise CurveError(f"supply elasticity 1/beta overflows at beta {b}")
    return (supply, b)


@np.errstate(over="ignore", invalid="ignore")
def curve_samples(beta_xq: float, x_range: tuple[float, float], count: int) -> np.ndarray:
    """Evenly spaced x with the supply and the demand y at each x.

    Rows are (x, supply y, demand y); shape (count, 3).  Raises, without a
    NumPy warning, when a sample is not finite: the range or the beta is so
    large that the grid or a curve overflows; and unless ``x_range`` is a
    pair of real numbers.
    """
    b = _check_beta(beta_xq)
    try:
        lo, hi = x_range
    except (TypeError, ValueError):
        raise CurveError(f"x_range must be a pair of real numbers, got {x_range!r}") from None
    lo = kernels._real(lo, "x_range[0]", CurveError)
    hi = kernels._real(hi, "x_range[1]", CurveError)
    count = kernels._integer(count, "count", CurveError)
    if count < 2:
        raise CurveError("count must be >= 2")
    if count > MAX_CURVE_SAMPLES:
        raise CurveError(f"count must be <= {MAX_CURVE_SAMPLES}, got {count}")
    if hi <= lo:
        raise CurveError(f"invalid x range ({lo}, {hi})")
    x = np.linspace(lo, hi, count)
    table = np.column_stack([x, b * x + math.log(b), -x / b])
    if not np.all(np.isfinite(table)):
        raise CurveError(f"curve samples are not finite over x range ({lo}, {hi}) "
                         f"at beta {b}")
    return table


def _weight_integral(lo: float, hi: float) -> float:
    """Integral of y_e(e^u) * e^u over u in [lo, hi]: the weight
    ln(b)/(1+b^2) over b in [e^lo, e^hi], by 16-point Gauss-Legendre on
    equal panels at most ``_PANEL_WIDTH`` wide."""
    # imported here: it adds ~5 ms to a cold start, and no command needs it
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    edges = np.linspace(lo, hi, math.ceil((hi - lo) / _PANEL_WIDTH) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    b = np.exp(edges[:-1, None] + half * (1.0 + nodes))
    # past u ~ 355 b*b overflows and y_e is its limit 0
    with np.errstate(over="ignore"):
        _, y_e = kernels.solve_equilibrium(b)
    return float(np.sum(half * (y_e * b) @ weights))


def zero_sum_integral(upper: float, tolerance: float = 1e-8) -> float:
    """Numerically integrate ln(b)/(1+b^2) over [1/upper, upper].

    The exact value is zero by the antisymmetry under b -> 1/b.  Each half,
    [1/upper, 1] and [1, upper], is integrated on its own, so the
    cancellation is computed rather than built into symmetric nodes.  The
    rule meets any finite ``tolerance`` down to ``_ZERO_SUM_ACCURACY``; a
    smaller one raises.
    """
    upper = kernels._real(upper, "upper bound", CurveError)
    if upper < 1.0:
        raise CurveError(f"upper bound must be finite and >= 1, got {upper}")
    tolerance = kernels._real(tolerance, "tolerance", CurveError)
    if tolerance < _ZERO_SUM_ACCURACY:
        raise CurveError(f"tolerance must be >= {_ZERO_SUM_ACCURACY}, got {tolerance}")
    if upper == 1.0:
        return 0.0
    log_upper = math.log(upper)
    return _weight_integral(-log_upper, 0.0) + _weight_integral(0.0, log_upper)


def shocked_equilibrium(beta_xq: float, eps_s: float, eps_d: float,
                        mode: str = "general") -> tuple[float, float]:
    """Equilibrium of the shocked system {y = b*x + ln b + eps_s, x = -b*y + eps_d}.

    In ``general`` mode both shocks enter the exact solve.  In ``paper`` mode
    the supply shock is pinned to eps_s = -eps_d, which reproduces the
    equilibrium-price shock form eps_d*(1+b)/(1+b^2); the eps_s argument is
    then checked and not used.
    """
    b = _check_beta(beta_xq)
    eps_s = kernels._real(eps_s, "eps_s", CurveError)
    eps_d = kernels._real(eps_d, "eps_d", CurveError)
    if mode == "paper":
        eps_s = -eps_d
    elif mode != "general":
        raise CurveError(f"mode must be 'general' or 'paper', got {mode!r}")
    x_e, y_e = kernels.solve_equilibrium(b, eps_s, eps_d)
    return (float(x_e), float(y_e))
