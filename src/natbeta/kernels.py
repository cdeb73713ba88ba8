"""Hot numeric kernels: special functions and batch propagation.

Scalar routines (the regularized incomplete beta, the Student-t and F tails)
follow the classic Cephes/continued-fraction constructions in double
precision, in plain Python.  A two-sided t p-value is the F(1, df) tail at
t^2.  The Student-t quantile inverts the t CDF by Newton's method from the
tangent point at the median, so a typical 95% interval costs six to nine
CDF evaluations, once per (p, df): the result is then looked up, and a
call that raises stores nothing.  The supply/demand equilibrium is written
once, in ``solve_equilibrium``, as broadcasting NumPy arithmetic; the batch
kernels and ``natbeta.market_curves`` all call it.
``propagate_beta_draws`` evaluates it at Monte Carlo draws for the three
quantities not monotone in beta everywhere: at a few order statistics of the
beta, the draws past a turning point and one window of ranks beside an
endpoint they interleave with; where the needed ranks straddle a turning
point, at the lowest and highest draws and those beside the turning point
(``natbeta.uncertainty``'s K-rank rule), never at every draw.  ``beta_xm``
and ``r_x`` never reach it.

``normal_quantile`` maps the Monte Carlo uniforms to normal deviates by
Wichura's AS241 with ``+ * / log sqrt`` alone, elementwise, so a uniform's
deviate has the same bits whether it is mapped alone or among every draw;
``natbeta.uncertainty`` maps only the uniforms an endpoint can come from.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "reg_inc_beta",
    "student_t_cdf",
    "student_t_quantile",
    "f_upper_tail",
    "normal_quantile",
    "solve_equilibrium",
    "propagate_beta_draws",
    "equilibria_from_shocks",
]

_MACHEP = 2.220446049250313e-16
_MAX_CF_ITER = 300
# Rows propagate_beta_draws computes at a time: a block's equilibrium
# temporaries (64 KiB each) stay in the core's cache.
_PROPAGATE_BLOCK = 8192
# Student-t quantiles computed so far, keyed by (float(p), float(df)).
_T_QUANTILES: dict[tuple[float, float], float] = {}
# Wichura's AS241 (PPND16) rationals, highest power first, numerator then
# denominator: the centre |u - 1/2| <= 0.425 in 0.180625 - (u - 1/2)^2, the
# near tail in r - 1.6 and the far tail (r > 5) in r - 5, where
# r = sqrt(-ln min(u, 1 - u)).
_AS241_CENTRE = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


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


def student_t_quantile(p: float, df: float) -> float:
    """Inverse Student-t CDF by Newton's method on ``student_t_cdf``.

    Newton's first step from the median needs no CDF evaluation, since
    F(0) = 1/2 exactly; it gives the tangent point, where iteration starts.
    The iterates then move monotonically towards the root and, in exact
    arithmetic, never cross it: the CDF is concave above 0 and convex
    below, so each tangent step lands short of the root.  Iteration stops
    once the step is within the CDF's precision, or when rounding in the
    CDF makes the step point back across the root.

    Each (p, df) is computed once per process: the result is kept under
    ``(float(p), float(df))``, so ``16`` and ``16.0`` share an entry, and a
    repeated call is a dict lookup.  A call that raises stores nothing.

    Raises ValueError unless 0 < p < 1 and df is finite and positive, and
    when 100 Newton steps do not reach the root: far in a heavy tail, such
    as p = 1e-60 at df = 3, each step closes only a fixed share of the gap.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    if not (math.isfinite(df) and df > 0.0):
        raise ValueError(f"degrees of freedom must be finite and positive, got {df}")
    key = (float(p), float(df))
    t = _T_QUANTILES.get(key)
    if t is None:
        t = _T_QUANTILES[key] = _newton_t_quantile(p, df)
    return t


def _newton_t_quantile(p: float, df: float) -> float:
    """The Newton path of ``student_t_quantile``, for checked input."""
    ln_norm = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
               - 0.5 * math.log(df * math.pi))
    t = (p - 0.5) / math.exp(ln_norm)
    if abs(t) <= 1e-14:
        return t
    for _ in range(100):
        density = math.exp(ln_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df))
        step = (p - student_t_cdf(t, df)) / density
        if step * (p - 0.5) <= 0.0:
            break
        t += step
        if abs(step) <= 1e-14 * max(1.0, abs(t)):
            break
    else:
        raise ValueError(f"t quantile did not converge in 100 Newton steps for p={p}, df={df}")
    return t


def f_upper_tail(f: float, d1: float, d2: float) -> float:
    """P(F_{d1,d2} > f)."""
    if f <= 0.0:
        return 1.0
    return reg_inc_beta(0.5 * d2, 0.5 * d1, d2 / (d2 + d1 * f))


def _horner(coefficients, x):
    """The polynomial with ``coefficients`` (highest power first) at ``x``."""
    p = coefficients[0] * x
    for c in coefficients[1:-1]:
        p += c
        p *= x
    p += coefficients[-1]
    return p


def normal_quantile(u):
    """Standard normal quantile Q(u), elementwise, for 0 < u < 1.

    Wichura's AS241 (PPND16; Appl. Stat. 37(3), 1988): one rational in
    (u - 1/2)^2 in the centre and two in r = sqrt(-ln min(u, 1 - u)) in the
    tails, accurate to about 1e-16 with ``+ * / log sqrt`` alone.  Each
    element takes the branch of its own value and the same operations in the
    same order wherever it lies among the inputs, so its bits do not depend
    on the other inputs; a branch with no element is skipped.
    ``Q(0.5)`` is 0.0.  The Horner rounding is not monotone at the last
    bit: two inputs a grid step ``2**-53`` apart can map to two values in
    the reverse order.  ``u = 0`` would take ``log(0)``.
    """
    u = np.asarray(u, dtype=np.float64)
    q = u - 0.5
    z = np.empty_like(q)
    centre = np.abs(q) <= 0.425
    if centre.any():
        c = q[centre]
        r = 0.180625 - c * c
        z[centre] = c * _horner(_AS241_CENTRE[0], r) / _horner(_AS241_CENTRE[1], r)
    tail = ~centre
    if tail.any():
        t = u[tail]
        r = np.sqrt(-np.log(np.minimum(t, 1.0 - t)))
        far = r > 5.0
        near = ~far
        x = np.empty_like(r)
        s = r[near] - 1.6
        x[near] = _horner(_AS241_NEAR[0], s) / _horner(_AS241_NEAR[1], s)
        if far.any():
            s = r[far] - 5.0
            x[far] = _horner(_AS241_FAR[0], s) / _horner(_AS241_FAR[1], s)
        z[tail] = np.copysign(x, q[tail])
    return z


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
