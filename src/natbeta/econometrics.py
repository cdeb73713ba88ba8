"""Least-squares machinery for the flow-on-price equilibrium regression.

The headline estimator regresses flow deviations on price deviations with a
control-function correction: stage one projects the price deviations on the
instruments, stage two adds the stage-one residual as an extra regressor so
the slope on the price deviations is purged of simultaneity.  The slope
equals the 2SLS one, and its standard error, t-test and interval are the
2SLS ones, which account for the generated regressor (Wooldridge 2015).
The other rows keep conventional OLS statistics; the control-function
row's t-test is the endogeneity test, valid under its null.

Inference is fixed: Student-t intervals at ``LEVEL``, diagnostics at size
``ALPHA``, and the Jarque-Bera p-value the exact chi-square(2) tail
``exp(-JB/2)``.

AIC/BIC use the concentrated-Gaussian convention
``n*ln(SSR/n) + penalty*k`` with ``k`` the number of estimated mean
coefficients.

Each fit returns its report block, built as each statistic is computed:
``ols`` gives the table of one fit and ``control_function_fit`` the whole
regression block with the 2SLS slope row, which the report prints as it
stands.  The residual-normality test is reported only when the residuals'
second moment is positive and finite and their fourth moment within the
float range (``jarque_bera`` raises otherwise).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import kernels

LEVEL = 0.95  # level of every regression confidence interval
ALPHA = 0.05  # size of the RESET and Jarque-Bera tests
RESET_POWERS = (2, 3)  # powers of the fitted values that RESET adds

__all__ = [
    "RegressionError",
    "FitResult",
    "ControlFunctionFit",
    "ols",
    "control_function_fit",
    "t_confidence_interval",
    "reset_test",
    "jarque_bera",
    "lagged_instruments",
]


class RegressionError(ValueError):
    """Raised for rank deficiency, insufficient sample or invalid inputs."""


@dataclass(frozen=True)
class FitResult:
    """Output of a single least-squares fit: the arrays callers compute with,
    and the fit's report block.

    Coefficient-aligned arrays follow the order of ``names``.  The design
    matrix and regressand are retained so diagnostic tests can re-fit
    augmented models.  ``block`` maps ``"coefficients"`` (one row of
    ``coef``, ``std_err``, ``t_value``, ``p_value``, ``ci_low`` and
    ``ci_high`` per name, the interval at ``LEVEL``), then ``conf_level``,
    ``r_squared``, ``f_stat``, ``f_p``, ``aic``, ``bic``, ``n_obs``,
    ``df_residual``, ``mean_dependent`` (``regressand.mean()``) and
    ``sd_dependent`` (``regressand.std(ddof=1)``, bit for bit), with or
    without a constant in the design.
    """

    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    regressand: np.ndarray
    design: np.ndarray
    block: dict

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])


@dataclass(frozen=True)
class ControlFunctionFit:
    """Two-stage control-function output and its report block.

    ``second_stage`` is the plain OLS fit; ``slope_se`` is the slope's 2SLS
    standard error, at df n-2.  ``block`` maps ``"second_stage"`` to the
    second stage's block with the ``price_dev`` row's ``std_err``, t-test
    and interval replaced by the 2SLS ones at df n-2, ``"first_stage"`` to
    the first stage's block, and ``"diagnostics"`` to ``"reset"`` and then
    ``"jarque_bera"``, the report block of each test; a test the sample
    does not admit has its block left out of ``diagnostics``.
    """

    second_stage: FitResult
    first_stage: FitResult
    slope_se: float
    block: dict

    @property
    def slope(self) -> float:
        return self.second_stage.coefficient("price_dev")


def t_confidence_interval(coef: float, se: float, df: int, level: float) -> tuple[float, float]:
    """coef +/- t_{(1+level)/2, df} * se; raises RegressionError unless each
    argument is a real number (``kernels._real``), the level in (0, 1), df
    at least 1 and se finite and >= 0."""
    level = kernels._real(level, "confidence level", RegressionError, "in (0, 1)")
    df = kernels._real(df, "df", RegressionError)
    if df < 1.0:
        raise RegressionError(f"df must be >= 1, got {df}")
    se = kernels._real(se, "standard error", RegressionError, "finite and >= 0")
    coef = kernels._real(coef, "coef", RegressionError)
    q = kernels.student_t_quantile(0.5 * (1.0 + level), df)
    return (coef - q * se, coef + q * se)


def _t_test(coef: float, se: float, df: int) -> tuple[float, float]:
    """t-value and two-sided p-value of ``coef``; a zero ``se`` gives an
    unbounded t unless the coefficient is 0 too."""
    if se > 0.0:
        t = coef / se
        return t, kernels.f_upper_tail(t * t, 1.0, float(df))
    if coef == 0.0:
        return 0.0, 1.0
    return (math.inf if coef > 0 else -math.inf), 0.0


def _as_design(regressors: Mapping[str, Sequence], include_constant: bool, n: int):
    names = list(regressors)
    cols = []
    for name in names:
        col = np.asarray(regressors[name], dtype=np.float64)
        if col.ndim != 1 or col.shape[0] != n:
            raise RegressionError(f"regressor '{name}' has wrong length: "
                                  f"shape {col.shape}, regressand length {n}")
        cols.append(col)
    if include_constant:
        names.append("constant")
        cols.append(np.ones(n))
    return tuple(names), np.column_stack(cols)


def _least_squares(y: np.ndarray, X: np.ndarray):
    """QR solve of min |y - X b|; returns (b, R).  Raises on rank deficiency."""
    Q, R = np.linalg.qr(X)
    # |R_ii| <= 1e-12 * sqrt(n) * max_j |X_ji|, a zero column scale read as 1
    tol = 1e-12 * math.sqrt(X.shape[0])
    for r_ii, scale in zip(R.diagonal().tolist(), np.abs(X).max(axis=0).tolist()):
        if abs(r_ii) <= tol * (scale or 1.0):
            raise RegressionError("rank-deficient design matrix")
    return np.linalg.solve(R, Q.T @ y), R


def ols(regressand, regressors: Mapping[str, Sequence],
        include_constant: bool = True) -> FitResult:
    """Ordinary least squares via QR decomposition, with Student-t
    intervals at ``LEVEL``.

    Parameters
    ----------
    regressand : sequence
        Dependent variable, length n.
    regressors : mapping name -> sequence
        Columns of the design, in report order.  A constant named
        ``"constant"`` is appended last when ``include_constant``.

    Raises RegressionError on rank deficiency or when n does not exceed the
    number of coefficients.
    """
    y = np.asarray(regressand, dtype=np.float64)
    if y.ndim != 1:
        raise RegressionError("regressand must be 1-d")
    n = y.shape[0]
    names, X = _as_design(regressors, include_constant, n)
    k = X.shape[1]
    if n <= k:
        raise RegressionError(f"n={n} too small for {k} coefficients")

    coef, R = _least_squares(y, X)
    fitted = X @ coef
    resid = y - fitted
    ssr = float(resid @ resid)
    df_resid = n - k
    sigma2 = ssr / df_resid
    r_inv = np.linalg.solve(R, np.eye(k))
    xtx_inv = r_inv @ r_inv.T
    se = np.sqrt(np.maximum(sigma2 * np.diag(xtx_inv), 0.0))

    q = kernels.student_t_quantile(0.5 * (1.0 + LEVEL), df_resid)
    rows = {}
    for name, c, s in zip(names, coef.tolist(), se.tolist()):
        t, p = _t_test(c, s, df_resid)
        rows[name] = {"coef": c, "std_err": s, "t_value": t, "p_value": p,
                      "ci_low": c - q * s, "ci_high": c + q * s}

    y_mean = y.mean()
    centered_ss = float(np.sum((y - y_mean) ** 2))
    if include_constant:
        sst, n_slopes = centered_ss, k - 1
    else:
        sst, n_slopes = float(y @ y), k
    r2 = 1.0 - ssr / sst if sst > 0.0 else 0.0
    if n_slopes > 0 and sst > 0.0 and ssr > 0.0:
        f_stat = ((sst - ssr) / n_slopes) / (ssr / df_resid)
        f_p = kernels.f_upper_tail(f_stat, float(n_slopes), float(df_resid))
    elif n_slopes > 0 and sst > 0.0 and ssr == 0.0:
        f_stat, f_p = float("inf"), 0.0
    else:
        f_stat, f_p = 0.0, 1.0

    if ssr > 0.0:
        aic = n * np.log(ssr / n) + 2.0 * k
        bic = n * np.log(ssr / n) + k * np.log(n)
    else:
        aic = bic = float("-inf")

    block = {
        "coefficients": rows,
        "conf_level": LEVEL,
        "r_squared": float(r2),
        "f_stat": float(f_stat),
        "f_p": float(f_p),
        "aic": float(aic),
        "bic": float(bic),
        "n_obs": n,
        "df_residual": df_resid,
        "mean_dependent": float(y_mean),
        "sd_dependent": math.sqrt(centered_ss / (n - 1)),  # n > k >= 1
    }
    return FitResult(names=names, coefficients=coef, standard_errors=se, residuals=resid,
                     fitted=fitted, regressand=y, design=X, block=block)


def lagged_instruments(price_dev, n_lags: int):
    """Instruments ``lags:n_lags``: lags 1..n_lags of the price deviations.

    Returns (instruments dict, row offset).  The usable sample starts at
    ``offset`` (the first n_lags rows have no full lag history), so callers
    must trim every other series by the same offset.
    """
    y = np.asarray(price_dev, dtype=np.float64)
    if n_lags < 1:
        raise RegressionError("n_lags must be >= 1")
    n = y.shape[0]
    if n - n_lags < n_lags + 2:
        raise RegressionError(
            f"sample of {n} too small for {n_lags} price lags as instruments"
        )
    inst = {f"lag{j}": y[n_lags - j : n - j] for j in range(1, n_lags + 1)}
    return inst, n_lags


def control_function_fit(flow_dev, price_dev,
                         instruments: Mapping[str, Sequence]) -> ControlFunctionFit:
    """Two-stage control-function regression of flow on price deviations.

    Stage 1 regresses the price deviations on the instruments (plus
    constant); stage 2 regresses the flow deviations on the price
    deviations, the stage-1 residual and a constant, in that report order.
    The slope's 2SLS standard error is ``sqrt(s^2 / sum((yhat - ybar)^2))``
    with ``s^2 = u'u/(n-2)``, ``u = x - b*y - c`` formed with the observed
    price deviations and ``yhat`` the stage-1 fitted values.
    RESET and residual-normality diagnostics run on stage 2 when the sample
    admits them (otherwise its block is left out of ``diagnostics``, as it
    is when ``jarque_bera`` finds the residuals' moments out of range).
    Raises RegressionError when the 2SLS standard error is not finite.
    """
    if not instruments:
        raise RegressionError("instruments must be non-empty")
    x = np.asarray(flow_dev, dtype=np.float64)
    y = np.asarray(price_dev, dtype=np.float64)
    first = ols(y, dict(instruments))
    second = ols(x, {"price_dev": y, "control_fn": first.residuals})

    slope = second.coefficient("price_dev")
    df = second.block["n_obs"] - 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = x - slope * y - second.coefficient("constant")
        explained = first.fitted - first.block["mean_dependent"]
        slope_se = float(np.sqrt((u @ u) / df / (explained @ explained)))
    if not slope_se < math.inf:
        raise RegressionError(f"2SLS standard error of the slope is {slope_se!r}")
    slope_t, slope_p = _t_test(slope, slope_se, df)
    ci_low, ci_high = t_confidence_interval(slope, slope_se, df, LEVEL)
    rows = second.block["coefficients"]
    slope_row = {**rows["price_dev"], "std_err": slope_se, "t_value": slope_t,
                 "p_value": slope_p, "ci_low": ci_low, "ci_high": ci_high}

    diagnostics = {}
    for name, test, arg in (("reset", reset_test, second),
                            ("jarque_bera", jarque_bera, second.residuals)):
        try:
            diagnostics[name] = test(arg)
        except RegressionError:
            pass
    block = {
        "second_stage": {**second.block, "coefficients": {**rows, "price_dev": slope_row}},
        "first_stage": first.block,
        "diagnostics": diagnostics,
    }
    return ControlFunctionFit(second_stage=second, first_stage=first, slope_se=slope_se,
                              block=block)


def reset_test(fit: FitResult) -> dict:
    """Ramsey RESET: F-test of ``RESET_POWERS`` of the fitted values as
    added regressors, rejected at size ``ALPHA``; returns the report block
    ``{statistic, p_value, rejected, alpha, powers}``.

    Raises RegressionError, without a NumPy warning, when the highest power
    of the fitted values overflows, or underflows below the smallest normal
    float where the fitted values are not all 0.
    """
    n, k = fit.design.shape
    m = len(RESET_POWERS)
    if n - k - m < 1:
        raise RegressionError("sample too small for RESET augmentation")
    with np.errstate(over="ignore", under="ignore"):
        added = [fit.fitted**p for p in RESET_POWERS]
    # a lower power leaves the float range only where the highest one does
    top = float(np.abs(added[-1]).max())
    regressor = f"RESET regressor fitted**{RESET_POWERS[-1]}"
    if not top < math.inf:
        raise RegressionError(f"{regressor} overflows the float range")
    if top < sys.float_info.min and fit.fitted.any():
        raise RegressionError(f"{regressor} underflows the float range")
    X = np.column_stack([fit.design] + added)
    try:
        coef, _ = _least_squares(fit.regressand, X)
    except RegressionError as exc:
        raise RegressionError(f"RESET augmentation is rank deficient: {exc}") from exc
    resid = fit.regressand - X @ coef
    ssr_restricted = float(fit.residuals @ fit.residuals)
    ssr_full = float(resid @ resid)
    df_full = n - k - m
    stat = ((ssr_restricted - ssr_full) / m) / (ssr_full / df_full)
    if not np.isfinite(stat):
        raise RegressionError("degenerate RESET statistic (zero residual variance)")
    stat = max(stat, 0.0)
    p_value = kernels.f_upper_tail(stat, float(m), float(df_full))
    return {"statistic": float(stat), "p_value": float(p_value),
            "rejected": bool(p_value < ALPHA), "alpha": ALPHA, "powers": list(RESET_POWERS)}


def jarque_bera(residuals) -> dict:
    """Jarque-Bera normality test: JB = n/6 (skew^2 + kurtosis_excess^2/4),
    with the chi-square(2) p-value ``exp(-JB/2)``, rejected at size ``ALPHA``;
    returns the report block ``{statistic, p_value, rejected, alpha}``.

    Raises RegressionError for fewer than 8 residuals and, without a NumPy
    warning, when their second central moment is not positive and finite or
    the fourth-moment ratio leaves the range of normal floats (its terms
    overflow, or the squared variance underflows and would lose its bits).
    """
    e = np.asarray(residuals, dtype=np.float64)
    n = e.shape[0]
    if n < 8:
        raise RegressionError(f"Jarque-Bera needs n >= 8, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        e = e - e.mean()
        m2 = float(np.mean(e**2))
        m4 = float(np.mean(e**4))
    if not 0.0 < m2 < math.inf:
        raise RegressionError(f"residual variance {m2!r} is not positive and finite")
    try:
        m2_squared = m2**2
    except OverflowError:
        m2_squared = math.inf
    if not (m2_squared < math.inf and m4 < math.inf):
        raise RegressionError(f"residual fourth moment overflows (variance {m2!r})")
    if m2_squared < sys.float_info.min:
        raise RegressionError(f"residual fourth moment underflows (variance {m2!r})")
    skew = float(np.mean(e**3)) / m2**1.5
    kurt_excess = m4 / m2_squared - 3.0
    stat = n / 6.0 * (skew**2 + 0.25 * kurt_excess**2)
    p_value = math.exp(-0.5 * stat)
    return {"statistic": float(stat), "p_value": p_value, "rejected": p_value < ALPHA,
            "alpha": ALPHA}
