"""Hot numeric kernels: special functions, quadrature, and batch propagation.

Scalar routines (regularized incomplete beta/gamma, distribution tails,
adaptive quadrature) follow the classic Cephes/continued-fraction
constructions in double precision, in plain Python; the Student-t quantile
inverts the t CDF by Newton's method from the median.  The supply/demand
equilibrium is written once, in ``solve_equilibrium``, as broadcasting NumPy
arithmetic; the batch kernels and ``natbeta.market_curves`` all call it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "reg_inc_beta",
    "reg_upper_gamma",
    "student_t_two_sided",
    "student_t_cdf",
    "student_t_quantile",
    "f_upper_tail",
    "chi_square_upper_tail",
    "log_beta_weight_integral",
    "solve_equilibrium",
    "propagate_beta_draws",
    "equilibria_from_shocks",
]

_MACHEP = 2.220446049250313e-16
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


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0."""
    if x <= 0.0:
        return 1.0
    if x < a + 1.0:
        # lower series, then complement
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_MAX_CF_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _MACHEP:
                break
        ln_p = a * math.log(x) - x - math.lgamma(a)
        return 1.0 - total * math.exp(ln_p)
    # upper continued fraction (Lentz)
    tiny = 1e-300
    b0 = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b0
    h = d
    for i in range(1, _MAX_CF_ITER + 1):
        an = -i * (i - a)
        b0 += 2.0
        d = an * d + b0
        if abs(d) < tiny:
            d = tiny
        c = b0 + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _MACHEP:
            break
    ln_p = a * math.log(x) - x - math.lgamma(a)
    return math.exp(ln_p) * h


def student_t_two_sided(t: float, df: float) -> float:
    """Two-sided p-value P(|T_df| > |t|)."""
    if t == 0.0:
        return 1.0
    return reg_inc_beta(0.5 * df, 0.5, df / (df + t * t))


def student_t_cdf(t: float, df: float) -> float:
    """CDF of the Student t distribution with df degrees of freedom.

    Near the median the central form ``0.5 +- 0.5 * I_x(1/2, df/2)`` with
    ``x = t^2 / (df + t^2)`` keeps full relative precision; the tail form
    ``1 - 0.5 * p`` would subtract a two-sided p close to 1.
    """
    x = t * t / (df + t * t)
    if x < 0.5:
        half = 0.5 * reg_inc_beta(0.5, 0.5 * df, x)
        return 0.5 + half if t >= 0.0 else 0.5 - half
    p = student_t_two_sided(t, df)
    if t >= 0.0:
        return 1.0 - 0.5 * p
    return 0.5 * p


def student_t_quantile(p: float, df: float) -> float:
    """Inverse Student-t CDF by Newton's method on ``student_t_cdf``.

    Starting at the median t = 0, the iterates move monotonically towards the
    root and, in exact arithmetic, never cross it: the CDF is concave above 0
    and convex below, so each tangent step lands short of the root.
    Iteration stops once the step is within the CDF's precision, or when
    rounding in the CDF makes the step point back across the root.
    """
    if p == 0.5:
        return 0.0
    ln_norm = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
               - 0.5 * math.log(df * math.pi))
    t = 0.0
    for _ in range(100):
        density = math.exp(ln_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df))
        step = (p - student_t_cdf(t, df)) / density
        if step * (p - 0.5) <= 0.0:
            break
        t += step
        if abs(step) <= 1e-14 * max(1.0, abs(t)):
            break
    return t


def f_upper_tail(f: float, d1: float, d2: float) -> float:
    """P(F_{d1,d2} > f)."""
    if f <= 0.0:
        return 1.0
    return reg_inc_beta(0.5 * d2, 0.5 * d1, d2 / (d2 + d1 * f))


def chi_square_upper_tail(x: float, k: float) -> float:
    """P(chi2_k > x)."""
    if x <= 0.0:
        return 1.0
    return reg_upper_gamma(0.5 * k, 0.5 * x)


# ---------------------------------------------------------------------------
# Adaptive quadrature for the opportunity-cost weight ln(b)/(1+b^2).
#
# Substituting u = ln(b) turns the integrand into u / (2*cosh(u)), which is
# smooth on any finite interval; each half-domain [1/B, 1] and [1, B] is
# integrated separately so the cancellation between the two halves is a
# genuinely computed result rather than an artifact of symmetric nodes.
# ---------------------------------------------------------------------------


def _cosh_weight(u: float) -> float:
    if u > 700.0 or u < -700.0:
        return 0.0
    return u / (math.exp(u) + math.exp(-u))


def _adaptive_simpson_cosh(a: float, b: float, tol: float) -> tuple[float, bool]:
    # Iterative adaptive Simpson; each stack entry is
    # (a, b, f(a), f(mid), f(b), Simpson estimate, tolerance).
    max_depth = 2048
    fa = _cosh_weight(a)
    fb = _cosh_weight(b)
    fm = _cosh_weight(0.5 * (a + b))
    stack = [(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol)]
    total = 0.0
    evals = 0
    while stack:
        a0, b0, fa0, fm0, fb0, s0, tol0 = stack.pop()
        m0 = 0.5 * (a0 + b0)
        flm = _cosh_weight(0.5 * (a0 + m0))
        frm = _cosh_weight(0.5 * (m0 + b0))
        evals += 2
        s_left = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        s_right = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        s2 = s_left + s_right
        err = s2 - s0
        if abs(err) <= 15.0 * tol0 or (b0 - a0) < 1e-14:
            total += s2 + err / 15.0
            continue
        if len(stack) + 2 > max_depth or evals > 2_000_000:
            return total, False
        half_tol = 0.5 * tol0
        stack.append((a0, m0, fa0, flm, fm0, s_left, half_tol))
        stack.append((m0, b0, fm0, frm, fb0, s_right, half_tol))
    return total, True


def log_beta_weight_integral(upper: float, tol: float) -> float:
    """Integral of ln(b)/(1+b^2) over [1/upper, upper] to absolute accuracy tol.

    Raises RuntimeError when the adaptive refinement fails to converge.
    """
    if upper == 1.0:
        return 0.0
    log_u = math.log(upper)
    quarter = 0.25 * tol
    left, ok_l = _adaptive_simpson_cosh(-log_u, 0.0, quarter)
    right, ok_r = _adaptive_simpson_cosh(0.0, log_u, quarter)
    if not (ok_l and ok_r):
        raise RuntimeError("adaptive quadrature did not converge")
    return left + right


# ---------------------------------------------------------------------------
# Supply/demand equilibrium and the batch kernels built on it.
# ---------------------------------------------------------------------------


def solve_equilibrium(beta, eps_s=0.0, eps_d=0.0):
    """Equilibrium (x_e, y_e) of {y = b*x + ln b + eps_s, x = -b*y + eps_d}.

    Arguments broadcast; with no shocks this is y_e = ln b / (1 + b^2),
    x_e = -b * y_e.
    """
    y_e = (np.log(beta) + beta * eps_d + eps_s) / (1.0 + beta * beta)
    return -beta * y_e + eps_d, y_e


def propagate_beta_draws(betas, mean_ln_flow, mean_ln_price, beta_qm, r_m):
    """Per-draw derived quantities, columns (ln_price, ln_quantity,
    ln_user_cost, beta_xm, r_x).

    The (n, 5) result is the transpose of a C-ordered (5, n) array, so each
    column is contiguous: every column is computed straight into its slot
    with unit stride, and selecting order statistics from a column needs
    no gather.  Rows are computed
    in blocks of ``_PROPAGATE_BLOCK``, so the equilibrium's temporaries are
    block-sized and stay in cache instead of streaming n-long arrays through
    memory; the result is the same, element by element.
    """
    betas = np.asarray(betas, dtype=np.float64)
    out = np.empty((5, betas.shape[0])).T
    for start in range(0, betas.shape[0], _PROPAGATE_BLOCK):
        b = betas[start:start + _PROPAGATE_BLOCK]
        rows = out[start:start + _PROPAGATE_BLOCK]
        x_e, y_e = solve_equilibrium(b)
        np.add(float(mean_ln_price), y_e, out=rows[:, 0])
        np.add(float(mean_ln_flow), x_e, out=rows[:, 1])
        np.add(rows[:, 0], rows[:, 1], out=rows[:, 2])
        np.multiply(b, float(beta_qm), out=rows[:, 3])
        np.multiply(rows[:, 3], float(r_m), out=rows[:, 4])
    return out


def equilibria_from_shocks(beta, eps_s, eps_d):
    """Solve the shocked supply/demand system for each shock pair.

    Returns (flow deviations, price deviations) before any re-centering.
    """
    eps_s = np.asarray(eps_s, dtype=np.float64)
    eps_d = np.asarray(eps_d, dtype=np.float64)
    return solve_equilibrium(float(beta), eps_s, eps_d)
