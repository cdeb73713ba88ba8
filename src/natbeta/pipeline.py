"""End-to-end estimation pipeline and report rendering.

Stages run in a fixed order (panel_io, preprocess, econometrics,
beta_algebra, market_curves, uncertainty); failures are wrapped in a
StageError naming the failing stage and, where possible, a remedy hint.
The preprocess, market_curves and uncertainty stages are functions of
their own (``_preprocess_stage``, ``_market_stage``, ``_uncertainty_stage``)
that ``run_estimate`` and the ``describe``, ``equilibrium``, ``curves`` and
``ci`` subcommands share, so each command checks its inputs and reports
its failures the same way.  ``_report_warnings`` forms every warning of a
report, once, from its finished blocks; ``ci`` calls it on the
``intervals`` block alone.

Only ``beta_algebra`` and ``market_curves`` (with ``kernels``), which every
estimate runs, are imported with this module.  ``preprocess``,
``econometrics``, ``uncertainty`` and ``csv`` are imported inside the stage
or branch that uses them, so a stub estimate never loads the panel modules
and ``draws=0`` never loads the Monte Carlo one.

A regression stub (``slope``/``slope_se``) can replace the econometrics
stage to reproduce published downstream figures when the generating panel
is not available; reports carry a provenance marker when the stub is used.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii as _encode_string
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import __version__
from . import beta_algebra as ba
from . import kernels
from . import market_curves as mc

if TYPE_CHECKING:
    from . import preprocess as pp
    from .panel_io import RawPanel

__all__ = ["StageError", "EstimateReport", "run_estimate", "render_report"]

SCHEMA_VERSION = 1
MIN_PANEL_ROWS = 5
MIN_TAIL_DRAWS = 10  # fewer draws beyond an interval endpoint earn a sparse_tail warning
MIN_FIRST_STAGE_F = 10.0  # a weaker first stage earns a weak_instruments warning
# A narrower spread of the log prices is a flat price series, whose slope is not
# identified.  A log difference is a relative one, so the bound is unit-free: it
# lies far above the rounding of a value/flow quotient and its log (about 1e-15)
# and far below the smallest spread of a shocked simulated panel (about 0.03).
MIN_LOG_PRICE_SPREAD = 1e-9
# econometrics.LEVEL, restated so that a stub estimate need not import econometrics
REGRESSION_LEVEL = 0.95


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
    warnings: list[str]

    def to_jsonable(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **vars(self)}


def _select_instruments(panel: RawPanel, price_dev: np.ndarray,
                        selection: str) -> tuple[dict, int, str]:
    """Resolve the instrument selection, ``auto``, ``lags:N`` or comma-separated
    column names, to (columns, row offset, description).

    ``auto`` takes the panel's ``iv_`` columns; a panel without them needs
    an explicit selection.
    """
    from . import econometrics as em

    if selection == "auto":
        if not panel.instruments:
            raise StageError("econometrics", "panel has no iv_ instrument columns for 'auto'",
                             hint="pass --instruments lags:N (lagged price deviations) "
                                  "or add iv_ columns")
        return dict(panel.instruments), 0, "panel columns " + ",".join(panel.instruments)
    if selection.startswith("lags:"):
        try:
            n_lags = int(selection.split(":", 1)[1])
        except ValueError:
            raise em.RegressionError(f"bad lag spec {selection!r}") from None
        inst, offset = em.lagged_instruments(price_dev, n_lags)
        return inst, offset, f"lags:{n_lags}"
    names = [s.strip() for s in selection.split(",") if s.strip()]
    missing = [n for n in names if n not in panel.instruments]
    if missing:
        raise em.RegressionError(
            f"instrument columns not in panel: {', '.join(missing)}"
        )
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if repeated:
        raise em.RegressionError(f"instrument column selected more than once: {repeated[0]}")
    if not names:
        raise em.RegressionError("empty instrument selection")
    return {n: panel.instruments[n] for n in names}, 0, "panel columns " + ",".join(names)


def _preprocess_stage(panel: RawPanel) -> tuple[dict, pp.CenteredLogSeries,
                                                 pp.CenteredLogSeries]:
    """The report's ``descriptives`` block and the centered log flow and
    price series of a panel; ``run_estimate`` and ``describe`` share it.

    The first non-positive entry (lowest row, ``flow`` before ``value``)
    is reported by row and column; values are never shifted.
    """
    from . import preprocess as pp

    bad_rows = np.flatnonzero((panel.flow <= 0.0) | (panel.value <= 0.0))
    if bad_rows.size:
        i = int(bad_rows[0])
        column = "flow" if panel.flow[i] <= 0.0 else "value"
        raise StageError(
            "preprocess",
            f"non-positive value at row {i + 1}, column {column} "
            f"({float(getattr(panel, column)[i])})",
            hint="drop or correct non-positive rows; values are never shifted",
        )
    try:
        prices = pp.unit_price_series(panel.value, panel.flow)
        flow_logs = pp.center_log(panel.flow)
        price_logs = pp.center_log(prices.values)
    except pp.PreprocessError as exc:
        raise StageError("preprocess", str(exc)) from exc
    descriptives = {
        "ln_flow": pp.describe_log_series(flow_logs),
        "ln_price": pp.describe_log_series(price_logs),
        "alignment_cosine": prices.cosine,
    }
    return descriptives, flow_logs, price_logs


def _market_stage(beta_xq: float, mean_ln_flow: float, mean_ln_price: float,
                  curves: tuple[tuple[float, float], int] | None = None
                  ) -> tuple[mc.EquilibriumPoint, dict, np.ndarray | None]:
    """The equilibrium point, the elasticities and, when ``curves`` gives an
    x range and a count, the sampled curves (else None); ``run_estimate``,
    ``equilibrium`` and ``curves`` share it.
    """
    try:
        samples = None if curves is None else mc.curve_samples(beta_xq, *curves)
        point = mc.equilibrium_levels(beta_xq, mean_ln_flow, mean_ln_price)
        supply_el, demand_el = mc.elasticities(beta_xq)
    except mc.CurveError as exc:
        raise StageError("market_curves", str(exc)) from exc
    return point, {"supply": supply_el, "demand": demand_el}, samples


def _uncertainty_stage(beta_xq: float, beta_se: float, *, draws: int, seed: int,
                       level: float, beta_qm: float, r_m: float, mean_ln_flow: float,
                       mean_ln_price: float) -> dict:
    """Sample the beta, propagate the draws, and return the report's
    ``intervals`` block; ``run_estimate`` and ``ci`` share it.

    NumPy's overflow and invalid warnings are silenced over the sampling
    and the propagation: ``derived_intervals`` raises on every non-finite
    bound instead, which ends here as a StageError.
    """
    from . import uncertainty as unc

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            beta_draws = unc.sample_betas(beta_xq, beta_se, draws, seed)
            report = unc.derived_intervals(beta_draws, beta_qm, r_m, mean_ln_flow,
                                           mean_ln_price, level=level)
    except unc.UncertaintyError as exc:
        raise StageError("uncertainty", str(exc)) from exc
    return {
        **vars(report),
        # sample_betas redraws every non-positive beta, so none is discarded;
        # the field stays so that schema-1 JSON keeps its shape
        "n_discarded": 0,
        "n_redrawn": beta_draws.n_redrawn,
        "seed": beta_draws.seed,
    }


def _report_warnings(blocks: Mapping) -> list[str]:
    """The warnings of a report, from its finished blocks.

    ``blocks`` maps block names to the report's blocks; a ``regression``,
    ``descriptives`` or ``intervals`` block that is absent or None is not
    checked.  The order is fixed: ``weak_instruments`` (first-stage F),
    the equilibrium ln quantity and then ln price outside the panel's
    observed range, then ``sparse_tail`` (Monte Carlo draws beyond each
    interval endpoint).  ``run_estimate`` calls it on the whole report and
    ``ci`` on its ``intervals`` block alone.
    """
    warnings = []
    regression = blocks.get("regression")
    if regression is not None:
        first_f = regression["first_stage"]["f_stat"]
        if first_f < MIN_FIRST_STAGE_F:
            warnings.append(f"weak_instruments: first-stage F {first_f:.3g} < "
                            f"{MIN_FIRST_STAGE_F:g}; the slope's interval may undercover")
    descriptives = blocks.get("descriptives")
    if descriptives is not None:
        equilibrium = blocks["equilibrium"]
        for label, key, series in (("ln quantity", "ln_quantity", "ln_flow"),
                                   ("ln price", "ln_price", "ln_price")):
            value = equilibrium[key]
            lo, hi = descriptives[series]["min"], descriptives[series]["max"]
            if not lo <= value <= hi:
                warnings.append(f"equilibrium {label} {value:.4f} outside observed "
                                f"range [{lo:.4f}, {hi:.4f}]")
    intervals = blocks.get("intervals")
    if intervals is not None:
        level, draws_used = intervals["level"], intervals["draws_used"]
        tail_draws = 0.5 * (1.0 - level) * draws_used
        if tail_draws < MIN_TAIL_DRAWS:
            warnings.append(
                f"sparse_tail: {tail_draws:.3g} of {draws_used} draws lie beyond each "
                f"endpoint of the {level:g} interval (< {MIN_TAIL_DRAWS}); increase draws"
            )
    return warnings


def run_estimate(panel: RawPanel | None = None, *, beta_qm: float, r_m: float,
                 level: float = 0.90, draws: int = 100_000, seed: int | None = None,
                 instruments: str = "auto", slope: float | None = None,
                 slope_se: float | None = None, mean_ln_flow: float | None = None,
                 mean_ln_price: float | None = None,
                 input_path: str | None = None) -> EstimateReport:
    """Run the full pipeline and assemble an EstimateReport.

    Either ``panel`` or the stub (``slope`` plus both log means) must be
    supplied.  Monte Carlo intervals are computed when ``draws > 0``, which
    requires ``seed``; ``draws == 0`` skips them and negative draws raise.
    ``draws`` and ``seed`` must be integers, not bools, and a seed that is
    given must be non-negative at every draw count.
    """
    if beta_qm is None or not (math.isfinite(beta_qm) and beta_qm > 0.0):
        raise StageError("beta_algebra",
                         f"beta_qm must be finite and positive, got {beta_qm}",
                         hint="pass the firm market beta via beta_qm")
    if r_m is None or not math.isfinite(float(r_m)):
        raise StageError("beta_algebra", "market rate r_m must be a finite number")
    uncertainty_error = partial(StageError, "uncertainty")
    draws = kernels._integer(draws, "draws", uncertainty_error)
    if seed is not None:
        seed = kernels._integer(seed, "seed", uncertainty_error)
        if seed < 0:
            raise StageError("uncertainty", "seed must be a non-negative integer")
    if draws < 0:
        raise StageError("uncertainty", f"draws must be >= 0, got {draws}",
                         hint="draws=0 skips the intervals")
    if not 0.0 < level < 1.0:
        raise StageError("uncertainty", f"level must be in (0, 1), got {level}")
    if not isinstance(instruments, str):
        raise StageError("econometrics", "instruments must be 'auto', 'lags:N' or "
                         f"column names, got {instruments!r}")

    stub = slope is not None
    provenance: dict = {
        "input": input_path,
        "toolkit_version": __version__,
        "flags": {
            "beta_qm": float(beta_qm),
            "r_m": float(r_m),
            "level": float(level),
            "draws": int(draws),
            "instruments": instruments,
            "regression_level": REGRESSION_LEVEL,
        },
        "seed": None if seed is None else int(seed),
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
    if panel is not None:
        descriptives, flow_logs, price_logs = _preprocess_stage(panel)
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
        from . import econometrics as em

        spread = descriptives["ln_price"]["max"] - descriptives["ln_price"]["min"]
        if spread < MIN_LOG_PRICE_SPREAD:
            raise StageError("econometrics",
                             f"the price series is flat: its logs span {spread:.3g} "
                             f"(< {MIN_LOG_PRICE_SPREAD:g}), so the flow-on-price slope "
                             f"is not identified",
                             hint="the slope needs prices that vary over the sample")
        try:
            inst, offset, inst_desc = _select_instruments(panel, price_logs.deviations,
                                                          instruments)
            cf = em.control_function_fit(flow_logs.deviations[offset:],
                                         price_logs.deviations[offset:], inst)
            regression = {**cf.block, "instruments": inst_desc}
            # a standard error that is 0 (or underflows) leaves a t-value unbounded
            for stage in ("first", "second"):
                for name, row in regression[f"{stage}_stage"]["coefficients"].items():
                    if not math.isfinite(row["t_value"]):
                        raise em.RegressionError(
                            f"{stage}-stage coefficient '{name}' has standard error "
                            f"{row['std_err']:g}, so its t-value is unbounded")
        except em.RegressionError as exc:
            raise StageError("econometrics", str(exc),
                             hint="check instrument selection and sample size") from exc
        slope = cf.slope
        slope_se = cf.slope_se

    # beta_algebra stage
    try:
        beta_xq, beta_se = ba.beta_from_slope(slope, slope_se)
        betas, returns = ba.market_chain(beta_xq, beta_qm, r_m)
    except ba.BetaAlgebraError as exc:
        raise StageError("beta_algebra", str(exc)) from exc

    # market_curves stage
    point, elasticities, _ = _market_stage(beta_xq, mean_ln_flow, mean_ln_price)

    # uncertainty stage
    intervals = None
    if draws > 0:
        if seed is None:
            raise StageError("uncertainty", "Monte Carlo intervals need a seed",
                             hint="pass seed=... or draws=0 to skip intervals")
        if math.isinf(beta_se):
            raise StageError("uncertainty", f"the beta's se, se/slope**2 for the reciprocal of "
                                            f"positive slope {slope:g}, overflows to inf")
        intervals = _uncertainty_stage(
            beta_xq, beta_se, draws=draws, seed=seed, level=level, beta_qm=beta_qm,
            r_m=float(r_m), mean_ln_flow=mean_ln_flow, mean_ln_price=mean_ln_price,
        )

    blocks = dict(
        provenance=provenance,
        descriptives=descriptives,
        regression=regression,
        slope=float(slope),
        slope_se=float(slope_se),
        betas=betas,
        returns=returns,
        # a shallow copy of the frozen point's float fields, in field order
        equilibrium=dict(vars(point)),
        elasticities=elasticities,
        intervals=intervals,
    )
    return EstimateReport(**blocks, warnings=_report_warnings(blocks))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _json_text(obj) -> str:
    """The one JSON layout of every report, table and sidecar natbeta writes.

    The text is ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte
    for byte, written in one recursive pass: the standard library (3.11)
    falls back to its pure-Python encoder whenever ``indent`` is set, which
    yields every token through nested generators.  Strings go through
    ``json.encoder.encode_basestring_ascii`` and finite floats (``np.float64``
    among them) through ``float.__repr__``; non-finite floats read ``NaN``
    and ``Infinity`` and tuples are lists.  Any other type raises
    ``TypeError`` as ``json.dumps`` does.  Keys must be strings: any other
    key raises ``TypeError``, where ``json.dumps`` turns an int, float, bool
    or None key into a string.  A container
    that holds itself is not detected: it ends in ``RecursionError``, where
    ``json.dumps`` raises ``ValueError``.
    """
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    """JSON text of ``obj``, whose closing bracket follows ``newline``."""
    if isinstance(obj, float):
        if -math.inf < obj < math.inf:
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0.0 else "-Infinity"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            f"{_encode_string(k)}: {_json_value(v, inner)}" for k, v in sorted(obj.items())
        ]) + newline + "}"
    if isinstance(obj, str):
        return _encode_string(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json_value(v, inner) for v in obj]) + newline + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _compact(x: float, prec: int = 3, width: int = 12) -> str:
    """``x`` with ``prec`` decimals, or with three significant digits when
    that would take more than ``width`` characters."""
    text = f"{x:.{prec}f}"
    return text if len(text) <= width else f"{x:.3g}"


def _pct(x: float) -> str:
    """``x`` as a percentage in ``_compact`` form, with one decimal.

    Past about 1.8e306 the product ``100 * x`` overflows; the exponent of
    ``x``'s own compact form is raised by two instead, so a finite rate
    never reads ``inf%``.
    """
    percent = 100.0 * x
    if math.isinf(percent) and math.isfinite(x):
        mantissa, exponent = f"{x:.3g}".split("e")
        return f"{mantissa}e{int(exponent) + 2:+03d}%"
    return _compact(percent, 1) + "%"


def _cell(x: float, width: int, prec: int = 3) -> str:
    """Fixed format, falling back to compact notation for oversized values."""
    return f"{_compact(x, prec, width - 1):>{width}}"


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
        "y^(e): 2SLS St.Err.; Control fn: conventional St.Err. (endogeneity test)",
    ]
    diag = reg.get("diagnostics", {})
    if "reset" in diag:
        lines.append(f"RESET p-value        {diag['reset']['p_value']:.3f}")
    if "jarque_bera" in diag:
        lines.append(f"Jarque-Bera p-value  {diag['jarque_bera']['p_value']:.3f}")
    return lines


def _intervals_text(iv: Mapping) -> list[str]:
    """The interval table, one column per bound in the block's order."""
    pct = f"{100 * iv['level']:.10g}"
    bounds = iv["bounds"]
    lines = [f"{pct}% confidence interval of estimates",
             f"{'Between':<10}" + "".join(f"{n:>14}" for n in bounds)]
    for which, idx in (("Minimum", 0), ("Maximum", 1)):
        lines.append(f"{which:<10}" + "".join(
            f"{_pct(b[idx]):>14}" if n == "r_x" else _cell(b[idx], 14)
            for n, b in bounds.items()))
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
        f"elasticities: supply {_compact(el['supply'], 4)}, demand {_compact(el['demand'], 4)}",
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
    if format == "json":
        return _json_text(report.to_jsonable())
    if format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(report.to_jsonable()):
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
        lines.append(f"[regression stub: slope {_compact(report.slope)}, "
                     f"se {_compact(report.slope_se)}]")
        lines.append("")
    b, r = report.betas, report.returns
    lines += [
        f"beta_xq = {_compact(b['beta_xq'])}   beta_qx = {_compact(b['beta_qx'])}   "
        f"beta_qm = {_compact(b['beta_qm'])}   beta_xm = {_compact(b['beta_xm'])}",
        f"r_m = {_pct(r['r_m'])}   r_q = {_pct(r['r_q'])}   r_x = {_pct(r['r_x'])}",
        "",
    ]
    eq = report.equilibrium
    lines += [
        f"Equilibrium: ln price = {eq['ln_price']:.3f}, ln quantity = {eq['ln_quantity']:.3f}, "
        f"ln user cost = {eq['ln_user_cost']:.3f}",
        f"             price = {eq['price']:.4g}, quantity = {eq['quantity']:.4g}",
        f"Elasticities: supply = {_compact(report.elasticities['supply'])}, "
        f"demand = {_compact(report.elasticities['demand'])}",
    ]
    if report.intervals is not None:
        lines.append("")
        lines.extend(_intervals_text(report.intervals))
    lines.extend(_warnings_text(report.warnings))
    return "\n".join(lines) + "\n"
