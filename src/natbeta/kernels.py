"""Hot numeric kernels: special functions and batch propagation.

Scalar routines (the regularized incomplete beta, the Student-t and F tails)
follow the classic Cephes/continued-fraction constructions in double
precision, in plain Python.  A two-sided t p-value is the F(1, df) tail at
t^2.  The Student-t quantile inverts the t CDF by Newton's method from a
Cornish-Fisher start, so a typical 95% interval costs two to four CDF
evaluations.  The supply/demand equilibrium is written once, in
``solve_equilibrium``, as broadcasting NumPy arithmetic; the batch kernels
and ``natbeta.market_curves`` all call it.
``propagate_beta_draws`` evaluates it at Monte Carlo draws for the three
quantities not monotone in beta everywhere: at a few order statistics of the
beta, the draws past a turning point and a narrow window of ranks beside an
endpoint they interleave with; at every draw where the needed ranks
straddle a turning point.  ``beta_xm`` and ``r_x`` never reach it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "reg_inc_beta",
    "student_t_cdf",
    "student_t_quantile",
    "f_upper_tail",
    "solve_equilibrium",
    "propagate_beta_draws",
    "equilibria_from_shocks",
]

_MACHEP = 2.220446049250313e-16
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Relative pull of the Cornish-Fisher start towards the median: far above
# the start's own rounding error, and close enough that one Newton step from
# it meets the quantile's stop rule.
_START_PULL = 1e-9
_MAX_CF_ITER = 300
# Rows propagate_beta_draws computes at a time: a block's equilibrium
# temporaries (64 KiB each) stay in the core's cache.
_PROPAGATE_BLOCK = 8192


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta integral, evaluated with
    # Lentz's algorithm.
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _MACHEP:
            break
    return h


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # symmetry split keeps the continued fraction convergent
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """CDF of the Student t distribution with df degrees of freedom.

    Near the median the central form ``0.5 +- 0.5 * I_x(1/2, df/2)`` with
    ``x = t^2 / (df + t^2)`` keeps full relative precision; the tail form
    ``1 - 0.5 * p`` would subtract a two-sided p close to 1.  Below the
    median the central form cancels as the result falls, so once it is
    under 1/4 the tail form ``0.5 * p`` replaces it; at large df that
    happens while x is still below 0.5.
    """
    x = t * t / (df + t * t)
    if x < 0.5:
        half = 0.5 * reg_inc_beta(0.5, 0.5 * df, x)
        if t >= 0.0:
            return 0.5 + half
        if half < 0.25:
            return 0.5 - half
    p = f_upper_tail(t * t, 1.0, df)
    if t >= 0.0:
        return 1.0 - 0.5 * p
    return 0.5 * p


def _normal_upper_quantile(q: float) -> float:
    """z with P(Z > z) = q, for 0 < q <= 1/2 (q below 1e-300 is raised to it).

    Abramowitz & Stegun 26.2.23 (error below 4.5e-4), then two Newton steps
    that leave a relative error of about 1e-11.  Each step measures the gap
    to q with ``erf`` near the median and with ``erfc`` in the tail, so
    neither subtracts two numbers close to 1/2.
    """
    q = max(q, 1e-300)
    r = math.sqrt(-2.0 * math.log(q))
    z = r - (2.515517 + r * (0.802853 + r * 0.010328)) / (
        1.0 + r * (1.432788 + r * (0.189269 + r * 0.001308)))
    for _ in range(2):
        if q > 0.25:
            gap = 0.5 * math.erf(z / _SQRT2) - (0.5 - q)
        else:
            gap = q - 0.5 * math.erfc(z / _SQRT2)
        z -= gap * _SQRT_2PI * math.exp(0.5 * z * z)
    return z


def _cornish_fisher_t(p: float, df: float) -> float:
    """Student-t quantile from the Cornish-Fisher expansion around the normal
    quantile, to order 1/df^4 (Abramowitz & Stegun 26.7.5; Hill 1970)."""
    z = _normal_upper_quantile(min(p, 1.0 - p))
    zz = z * z
    g1 = (zz + 1.0) / 4.0
    g2 = ((5.0 * zz + 16.0) * zz + 3.0) / 96.0
    g3 = (((3.0 * zz + 19.0) * zz + 17.0) * zz - 15.0) / 384.0
    g4 = ((((79.0 * zz + 776.0) * zz + 1482.0) * zz - 1920.0) * zz - 945.0) / 92160.0
    t = z * (1.0 + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df)
    return t if p > 0.5 else -t


def student_t_quantile(p: float, df: float) -> float:
    """Inverse Student-t CDF by Newton's method on ``student_t_cdf``.

    Newton's first step from the median needs no CDF evaluation, since
    F(0) = 1/2 exactly; it gives the tangent point t1.  For df >= 1 (the
    expansion is in powers of 1/df) the Cornish-Fisher value, pulled towards
    the median by a relative 1e-9, is the start instead when it lies beyond
    t1 and one CDF evaluation shows it short of the root; that evaluation is
    also Newton's first.  Truncated at 1/df^4 the expansion falls short of
    the root by itself, and the pull covers the rounding of the start and of
    the CDF near the root.  Otherwise Newton goes on from t1, the path of a
    start at the median.

    From a start between the median and the root the iterates move
    monotonically towards the root and, in exact arithmetic, never cross
    it: the CDF is concave above 0 and convex below, so each tangent step
    lands short of the root.  Iteration stops once the step is within the
    CDF's precision, or when rounding in the CDF makes the step point back
    across the root.

    Raises ValueError unless 0 < p < 1 and df is finite and positive, and
    when 100 Newton steps do not reach the root: far in a heavy tail, such
    as p = 1e-60 at df = 3, each step closes only a fixed share of the gap.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    if not (math.isfinite(df) and df > 0.0):
        raise ValueError(f"degrees of freedom must be finite and positive, got {df}")
    if p == 0.5:
        return 0.0
    ln_norm = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
               - 0.5 * math.log(df * math.pi))

    def newton_step(t: float) -> float:
        density = math.exp(ln_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df))
        return (p - student_t_cdf(t, df)) / density

    t = (p - 0.5) / math.exp(ln_norm)
    if abs(t) <= 1e-14:
        return t
    start = (1.0 - _START_PULL) * _cornish_fisher_t(p, df) if df >= 1.0 else t
    if start / t > 1.0 and (step := newton_step(start)) * (p - 0.5) >= 0.0:
        t = start
    else:
        step = newton_step(t)
    for _ in range(100):
        if step * (p - 0.5) <= 0.0:
            break
        t += step
        if abs(step) <= 1e-14 * max(1.0, abs(t)):
            break
        step = newton_step(t)
    else:
        raise ValueError(f"t quantile did not converge in 100 Newton steps for p={p}, df={df}")
    return t


def f_upper_tail(f: float, d1: float, d2: float) -> float:
    """P(F_{d1,d2} > f)."""
    if f <= 0.0:
        return 1.0
    return reg_inc_beta(0.5 * d2, 0.5 * d1, d2 / (d2 + d1 * f))


# ---------------------------------------------------------------------------
# Supply/demand equilibrium and the batch kernels built on it.
# ---------------------------------------------------------------------------


def solve_equilibrium(beta, eps_s=None, eps_d=None):
    """Equilibrium (x_e, y_e) of {y = b*x + ln b + eps_s, x = -b*y + eps_d}.

    Arguments broadcast; with no shocks this is y_e = ln b / (1 + b^2),
    x_e = -b * y_e.  A shock left out is skipped rather than added as a
    zero, which gives the same bits for positive b (x_e = +0.0 at b = 1,
    as ``-b*y_e + 0.0`` gives it) without the two extra array passes.
    """
    num = np.log(beta)
    if eps_d is not None:
        num = num + beta * eps_d
    if eps_s is not None:
        num = num + eps_s
    y_e = num / (1.0 + beta * beta)
    if eps_d is None:
        return 0.0 - beta * y_e, y_e
    return -beta * y_e + eps_d, y_e


def propagate_beta_draws(betas, mean_ln_flow, mean_ln_price):
    """Per-draw equilibrium quantities, columns (ln_price, ln_quantity,
    ln_user_cost).

    These are the quantities not monotone in beta everywhere; ``beta_xm``
    and ``r_x`` are, so ``natbeta.uncertainty`` never passes them here.
    The (n, 3) result is the transpose of a C-ordered (3, n) array, so each
    column is contiguous: every column is computed straight into its slot
    with unit stride, and selecting order statistics from a column needs no
    gather.  Rows are computed in blocks of ``_PROPAGATE_BLOCK``, so the
    equilibrium's temporaries are block-sized and stay in cache instead of
    streaming n-long arrays through memory; the result is the same, element
    by element.  Every step is elementwise, so a beta's row has the same
    bits wherever it lies among the betas passed: ``natbeta.uncertainty``
    evaluates a few order statistics of the beta alone and relies on them
    equalling the rows of a whole draw table.
    """
    betas = np.asarray(betas, dtype=np.float64)
    out = np.empty((3, betas.shape[0])).T
    for start in range(0, betas.shape[0], _PROPAGATE_BLOCK):
        b = betas[start:start + _PROPAGATE_BLOCK]
        rows = out[start:start + _PROPAGATE_BLOCK]
        x_e, y_e = solve_equilibrium(b)
        np.add(float(mean_ln_price), y_e, out=rows[:, 0])
        np.add(float(mean_ln_flow), x_e, out=rows[:, 1])
        np.add(rows[:, 0], rows[:, 1], out=rows[:, 2])
    return out


def equilibria_from_shocks(beta, eps_s, eps_d):
    """Solve the shocked supply/demand system for each shock pair.

    Returns (flow deviations, price deviations) before any re-centering.
    """
    eps_s = np.asarray(eps_s, dtype=np.float64)
    eps_d = np.asarray(eps_d, dtype=np.float64)
    return solve_equilibrium(float(beta), eps_s, eps_d)
