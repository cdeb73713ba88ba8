"""End-to-end estimation pipeline and report rendering.

Stages run in a fixed order (panel_io, preprocess, econometrics,
beta_algebra, market_curves, uncertainty); failures are wrapped in a
StageError naming the failing stage and, where possible, a remedy hint.

A regression stub (``slope``/``slope_se``) can replace the econometrics
stage to reproduce published downstream figures when the generating panel
is not available; reports carry a provenance marker when the stub is used.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from . import __version__
from . import beta_algebra as ba
from . import econometrics as em
from . import market_curves as mc
from . import preprocess as pp
from . import uncertainty as unc
from .panel_io import RawPanel, validate_positive

__all__ = ["StageError", "EstimateReport", "run_estimate", "render_report"]

SCHEMA_VERSION = 1
MIN_PANEL_ROWS = 5
MIN_TAIL_DRAWS = 10  # fewer draws beyond an interval endpoint earn a sparse_tail warning


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str, hint: str | None = None):
        self.stage = stage
        self.hint = hint
        super().__init__(f"{stage}: {message}")


@dataclass(frozen=True)
class EstimateReport:
    provenance: dict
    descriptives: dict | None
    regression: dict | None
    slope: float
    slope_se: float
    betas: dict
    returns: dict
    equilibrium: dict
    elasticities: dict
    intervals: dict | None
    warnings: tuple[str, ...]

    def to_jsonable(self) -> dict:
        return _sanitize({
            "schema_version": SCHEMA_VERSION,
            "provenance": self.provenance,
            "descriptives": self.descriptives,
            "regression": self.regression,
            "slope": self.slope,
            "slope_se": self.slope_se,
            "betas": self.betas,
            "returns": self.returns,
            "equilibrium": self.equilibrium,
            "elasticities": self.elasticities,
            "intervals": self.intervals,
            "warnings": list(self.warnings),
        })


def _sanitize(obj):
    """Make a report JSON-safe: plain types only, non-finite floats -> None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def _select_instruments(panel: RawPanel, price_dev: np.ndarray,
                        selection) -> tuple[dict, int, str]:
    """Resolve the instrument selection to (columns, row offset, description)."""
    if selection is None or selection == "auto":
        if panel is not None and panel.instruments:
            return dict(panel.instruments), 0, "panel columns " + ",".join(panel.instruments)
        selection = "lags:4"
    if isinstance(selection, str) and selection.startswith("lags:"):
        try:
            n_lags = int(selection.split(":", 1)[1])
        except ValueError:
            raise em.RegressionError(f"bad lag spec {selection!r}") from None
        inst, offset = em.lagged_instruments(price_dev, n_lags)
        return inst, offset, f"lags:{n_lags}"
    if isinstance(selection, str):
        names = [s.strip() for s in selection.split(",") if s.strip()]
    else:
        names = list(selection)
    if panel is None:
        raise em.RegressionError("named instruments require an input panel")
    missing = [n for n in names if n not in panel.instruments]
    if missing:
        raise em.RegressionError(
            f"instrument columns not in panel: {', '.join(missing)}"
        )
    if not names:
        raise em.RegressionError("empty instrument selection")
    return {n: panel.instruments[n] for n in names}, 0, "panel columns " + ",".join(names)


def _require_positive(panel: RawPanel) -> None:
    """Raise the preprocess StageError naming the first non-positive panel value."""
    report = validate_positive(panel)
    if not report.ok:
        first = report.issues[0]
        raise StageError(
            "preprocess",
            f"non-positive value at row {first.row}, column {first.column} ({first.value})",
            hint="drop or correct non-positive rows; values are never shifted",
        )


def _uncertainty_stage(beta_xq: float, beta_se: float, *, draws: int, seed: int,
                       level: float, beta_qm: float, r_m: float, mean_ln_flow: float,
                       mean_ln_price: float) -> tuple[dict, list[str]]:
    """Sample the beta, propagate the draws, and return the report's
    ``intervals`` block and its warnings; ``run_estimate`` and ``ci`` share it.

    NumPy's overflow and invalid warnings are silenced over the sampling,
    the draw table and the point row: ``derived_intervals`` raises on every
    non-finite bound instead, which ends here as a StageError.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            beta_draws = unc.sample_betas(beta_xq, beta_se, draws, seed)
            report = unc.derived_intervals(beta_draws, beta_qm, r_m, mean_ln_flow,
                                           mean_ln_price, level=level)
    except unc.UncertaintyError as exc:
        raise StageError("uncertainty", str(exc)) from exc
    intervals = {
        "level": report.level,
        "bounds": {k: list(v) for k, v in report.bounds.items()},
        "point": dict(report.point),
        "draws_used": report.draws_used,
        # sample_betas redraws every non-positive beta, so none is discarded;
        # the field stays so that schema-1 JSON keeps its shape
        "n_discarded": 0,
        "n_redrawn": beta_draws.n_redrawn,
        "seed": beta_draws.seed,
    }
    warnings = []
    tail_draws = 0.5 * (1.0 - level) * report.draws_used
    if tail_draws < MIN_TAIL_DRAWS:
        warnings.append(
            f"sparse_tail: {tail_draws:.3g} of {report.draws_used} draws lie "
            f"beyond each endpoint of the {level:g} interval (< {MIN_TAIL_DRAWS}); "
            f"increase draws"
        )
    return intervals, warnings


def run_estimate(panel: RawPanel | None = None, *, beta_qm: float, r_m: float,
                 level: float = 0.90, draws: int = 100_000, seed: int | None = None,
                 instruments="auto", slope: float | None = None,
                 slope_se: float | None = None, mean_ln_flow: float | None = None,
                 mean_ln_price: float | None = None, regression_level: float = 0.95,
                 input_path: str | None = None) -> EstimateReport:
    """Run the full pipeline and assemble an EstimateReport.

    Either ``panel`` or the stub (``slope`` plus both log means) must be
    supplied.  Monte Carlo intervals are computed when ``draws > 0``, which
    requires ``seed``; ``draws == 0`` skips them and negative draws raise.
    """
    if beta_qm is None or not (math.isfinite(beta_qm) and beta_qm > 0.0):
        raise StageError("beta_algebra",
                         f"beta_qm must be finite and positive, got {beta_qm}",
                         hint="pass the firm market beta via beta_qm")
    if r_m is None or not math.isfinite(float(r_m)):
        raise StageError("beta_algebra", "market rate r_m must be a finite number")
    if draws < 0:
        raise StageError("uncertainty", f"draws must be >= 0, got {draws}",
                         hint="draws=0 skips the intervals")
    if not 0.0 < level < 1.0:
        raise StageError("uncertainty", f"level must be in (0, 1), got {level}")

    stub = slope is not None
    provenance: dict = {
        "input": input_path,
        "toolkit_version": __version__,
        "flags": {
            "beta_qm": float(beta_qm),
            "r_m": float(r_m),
            "level": float(level),
            "draws": int(draws),
            "instruments": instruments if isinstance(instruments, str) else list(instruments),
            "regression_level": float(regression_level),
        },
        "seed": seed,
        "regression_stub": stub,
    }

    # panel_io stage
    if panel is None and not stub:
        raise StageError("panel_io", "no input panel and no regression stub given",
                         hint="pass a panel file or --slope/--slope-se")
    if panel is not None and panel.n < MIN_PANEL_ROWS:
        raise StageError("panel_io", f"panel has {panel.n} rows; need at least {MIN_PANEL_ROWS}")

    # preprocess stage
    descriptives = None
    observed_flow_range = observed_price_range = None
    if panel is not None:
        _require_positive(panel)
        try:
            prices = pp.unit_price_series(panel.value, panel.flow)
            flow_logs = pp.center_log(panel.flow)
            price_logs = pp.center_log(prices.values)
        except pp.PreprocessError as exc:
            raise StageError("preprocess", str(exc)) from exc
        descriptives = {
            "ln_flow": pp.describe_log_series(panel.flow),
            "ln_price": pp.describe_log_series(prices.values),
            "alignment_cosine": prices.cosine,
        }
        ln_flow_all = np.log(panel.flow)
        ln_price_all = np.log(prices.values)
        observed_flow_range = (float(ln_flow_all.min()), float(ln_flow_all.max()))
        observed_price_range = (float(ln_price_all.min()), float(ln_price_all.max()))
        if mean_ln_flow is None:
            mean_ln_flow = flow_logs.mean
        if mean_ln_price is None:
            mean_ln_price = price_logs.mean
    if mean_ln_flow is None or mean_ln_price is None:
        raise StageError("preprocess",
                         "log means unavailable: supply a panel or pass both means",
                         hint="--mean-ln-flow / --mean-ln-price accompany --slope")

    # econometrics stage
    regression = None
    if stub:
        if slope_se is None:
            slope_se = 0.0
        if not (math.isfinite(slope_se) and slope_se >= 0):
            raise StageError("econometrics",
                             f"slope se must be finite and >= 0, got {slope_se}")
    else:
        try:
            inst, offset, inst_desc = _select_instruments(panel, price_logs.deviations,
                                                          instruments)
            cf = em.control_function_fit(
                flow_logs.deviations[offset:],
                price_logs.deviations[offset:],
                inst,
                level=regression_level,
            )
        except em.RegressionError as exc:
            raise StageError("econometrics", str(exc),
                             hint="check instrument selection and sample size") from exc
        regression = em.control_fit_to_dict(cf)
        regression["instruments"] = inst_desc
        slope = cf.slope
        slope_se = cf.slope_se

    # beta_algebra stage
    try:
        beta_xq = ba.beta_from_slope(slope)
        betas = ba.build_beta_set(beta_xq, beta_qm)
        returns = ba.build_return_set(betas, float(r_m))
    except ba.BetaAlgebraError as exc:
        raise StageError("beta_algebra", str(exc)) from exc
    # positive-branch reciprocal transform rescales the slope uncertainty; a
    # slope whose square underflows to 0 leaves it unbounded
    if slope < 0:
        beta_se = float(slope_se)
    else:
        slope_sq = slope * slope
        beta_se = float(slope_se) / slope_sq if slope_sq else math.inf

    # market_curves stage
    try:
        point = mc.equilibrium_levels(beta_xq, mean_ln_flow, mean_ln_price)
        supply_el, demand_el = mc.elasticities(beta_xq)
    except mc.CurveError as exc:
        raise StageError("market_curves", str(exc)) from exc
    warnings: list[str] = []
    if observed_flow_range is not None:
        warnings.extend(
            mc.observed_range_warnings(point, observed_flow_range, observed_price_range)
        )

    # uncertainty stage
    intervals = None
    if draws > 0:
        if seed is None:
            raise StageError("uncertainty", "Monte Carlo intervals need a seed",
                             hint="pass seed=... or draws=0 to skip intervals")
        intervals, tail_warnings = _uncertainty_stage(
            beta_xq, beta_se, draws=draws, seed=seed, level=level, beta_qm=beta_qm,
            r_m=float(r_m), mean_ln_flow=mean_ln_flow, mean_ln_price=mean_ln_price,
        )
        warnings.extend(tail_warnings)

    return EstimateReport(
        provenance=provenance,
        descriptives=descriptives,
        regression=regression,
        slope=float(slope),
        slope_se=float(slope_se),
        betas={
            "beta_xq": betas.beta_xq,
            "beta_qx": betas.beta_qx,
            "beta_qm": betas.beta_qm,
            "beta_xm": betas.beta_xm,
        },
        returns={"r_m": returns.r_m, "r_q": returns.r_q, "r_x": returns.r_x},
        equilibrium=asdict(point),
        elasticities={"supply": supply_el, "demand": demand_el},
        intervals=intervals,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def _cell(x, width: int, prec: int = 3) -> str:
    """Fixed format, falling back to compact notation for oversized values."""
    if x is None:
        return f"{'--':>{width}}"
    if not math.isfinite(x):
        return f"{x:>{width}}"
    text = f"{x:.{prec}f}"
    if len(text) > width - 1:
        text = f"{x:.3g}"
    return f"{text:>{width}}"


def _descriptives_text(desc: Mapping) -> list[str]:
    lines = [f"{'Variable':<12}{'Obs':>5}{'Mean':>10}{'Std. Dev.':>11}{'Min':>9}{'Max':>9}"]
    for name in ("ln_flow", "ln_price"):
        d = desc[name]
        lines.append(
            f"{name:<12}{d['n_obs']:>5d}{d['mean']:>10.3f}{d['sd']:>11.3f}"
            f"{d['min']:>9.3f}{d['max']:>9.3f}"
        )
    return lines


def _regression_text(reg: Mapping) -> list[str]:
    second = reg["second_stage"]
    pct = f"{100 * second['conf_level']:.10g}"
    labels = {"price_dev": "y^(e)", "control_fn": "Control fn", "constant": "Constant"}
    lines = ["Flow-on-price regression (control function)",
             f"{'x^(e)':<12}{'Coef.':>9}{'St.Err.':>9}{'t-value':>9}{'p-value':>9}"
             f"  [{pct}% Conf Interval]  Sig"]
    for key, row in second["coefficients"].items():
        p = row["p_value"]
        stars = "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.1 else ""
        lines.append(
            f"{labels.get(key, key):<12}{_cell(row['coef'], 9)}{_cell(row['std_err'], 9)}"
            f"{_cell(row['t_value'], 9, 2)}{_cell(p, 9)}"
            f"  {_cell(row['ci_low'], 8)} {_cell(row['ci_high'], 8)}  {stars}"
        )
    lines += [
        f"Mean dependent var {_cell(second['mean_dependent'], 9)}   SD dependent var {_cell(second['sd_dependent'], 9)}",
        f"R-squared          {_cell(second['r_squared'], 9)}   Number of obs    {second['n_obs']:>9d}",
        f"F-test             {_cell(second['f_stat'], 9)}   Prob > F         {_cell(second['f_p'], 9)}",
        f"Akaike crit. (AIC) {_cell(second['aic'], 9)}   Bayesian crit. (BIC) {_cell(second['bic'], 9)}",
        "*** p<.01, ** p<.05, * p<.1",
    ]
    diag = reg.get("diagnostics", {})
    if "reset" in diag:
        lines.append(f"RESET p-value        {diag['reset']['p_value']:.3f}")
    if "jarque_bera" in diag:
        lines.append(f"Jarque-Bera p-value  {diag['jarque_bera']['p_value']:.3f}")
    return lines


def _intervals_text(iv: Mapping) -> list[str]:
    pct = f"{100 * iv['level']:.10g}"
    names = list(unc.QUANTITY_NAMES)
    lines = [f"{pct}% confidence interval of estimates",
             f"{'Between':<10}" + "".join(f"{n:>14}" for n in names)]
    for which, idx in (("Minimum", 0), ("Maximum", 1)):
        cells = []
        for n in names:
            v = iv["bounds"][n][idx]
            cells.append(f"{_pct(v):>14}" if n == "r_x" else f"{v:>14.3f}")
        lines.append(f"{which:<10}" + "".join(cells))
    return lines


def _warnings_text(warnings) -> list[str]:
    return [f"warning: {w}" for w in warnings]


def _equilibrium_text(eq: Mapping) -> list[str]:
    """The ``equilibrium`` subcommand's table: deviations, levels, elasticities."""
    el = eq["elasticities"]
    return [
        f"x_e = {eq['x_e']:.6f}, y_e = {eq['y_e']:.6f}",
        f"ln price = {eq['ln_price']:.4f}, ln quantity = {eq['ln_quantity']:.4f}, "
        f"ln user cost = {eq['ln_user_cost']:.4f}",
        f"price = {eq['price']:.6g}, quantity = {eq['quantity']:.6g}",
        f"elasticities: supply {el['supply']:.4f}, demand {el['demand']:.4f}",
    ]


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, Mapping):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}."))
        return rows
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
        return rows
    rows.append((prefix[:-1], obj))
    return rows


def render_report(report: EstimateReport, format: str = "text") -> str:
    """Render an EstimateReport as 'json', 'text' or 'csv'."""
    data = report.to_jsonable()
    if format == "json":
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(data):
            writer.writerow([key, "" if value is None else value])
        return buf.getvalue()
    if format != "text":
        raise ValueError(f"unknown format {format!r} (expected json, text or csv)")

    lines: list[str] = []
    if report.descriptives is not None:
        lines.append("Descriptive statistics")
        lines.extend(_descriptives_text(report.descriptives))
        lines.append("")
    if report.regression is not None:
        lines.extend(_regression_text(report.regression))
        lines.append("")
    elif report.provenance.get("regression_stub"):
        lines.append(f"[regression stub: slope {report.slope:.3f}, se {report.slope_se:.3f}]")
        lines.append("")
    b, r = report.betas, report.returns
    lines += [
        f"beta_xq = {b['beta_xq']:.3f}   beta_qx = {b['beta_qx']:.3f}   "
        f"beta_qm = {b['beta_qm']:.3f}   beta_xm = {b['beta_xm']:.3f}",
        f"r_m = {_pct(r['r_m'])}   r_q = {_pct(r['r_q'])}   r_x = {_pct(r['r_x'])}",
        "",
    ]
    eq = report.equilibrium
    lines += [
        f"Equilibrium: ln price = {eq['ln_price']:.3f}, ln quantity = {eq['ln_quantity']:.3f}, "
        f"ln user cost = {eq['ln_user_cost']:.3f}",
        f"             price = {eq['price']:.4g}, quantity = {eq['quantity']:.4g}",
        f"Elasticities: supply = {report.elasticities['supply']:.3f}, "
        f"demand = {report.elasticities['demand']:.3f}",
    ]
    if report.intervals is not None:
        lines.append("")
        lines.extend(_intervals_text(report.intervals))
    lines.extend(_warnings_text(report.warnings))
    return "\n".join(lines) + "\n"
