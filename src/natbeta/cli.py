"""Command-line interface.

Subcommands: estimate, simulate, equilibrium, ci, curves, describe.
Rates are accepted as decimals (0.029) or percent (2.9%); text output
displays rates in percent.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from . import econometrics as em
from . import market_curves as mc
from . import preprocess as pp
from . import uncertainty as unc
from .panel_io import PanelFormatError, parse_panel, serialize_panel
from .pipeline import (StageError, _descriptives_text, _equilibrium_text, _intervals_text,
                       _require_positive, render_report, run_estimate)
from .simulator import ScenarioConfig, SimulatorError, ground_truth, synthesize_panel


def parse_rate(text: str) -> float:
    """'0.029' -> 0.029, '2.9%' -> 0.029."""
    text = text.strip()
    if text.endswith("%"):
        return float(text[:-1]) / 100.0
    return float(text)


def _load_panel(path: str):
    try:
        if path == "-":
            return parse_panel(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return parse_panel(fh)
    except OSError as exc:
        raise StageError("panel_io", f"cannot read {path}: {exc}") from exc
    except PanelFormatError as exc:
        raise StageError("panel_io", str(exc)) from exc


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cmd_estimate(args) -> int:
    panel = _load_panel(args.input) if args.input else None
    report = run_estimate(
        panel,
        beta_qm=args.beta_qm,
        r_m=args.r_m,
        level=args.level,
        draws=args.draws,
        seed=args.seed,
        instruments=args.instruments,
        slope=args.slope,
        slope_se=args.slope_se,
        mean_ln_flow=args.mean_ln_flow,
        mean_ln_price=args.mean_ln_price,
        input_path=args.input,
    )
    sys.stdout.write(render_report(report, args.format))
    return 0


def _cmd_describe(args) -> int:
    panel = _load_panel(args.input)
    _require_positive(panel)
    try:
        prices = pp.unit_price_series(panel.value, panel.flow)
        rows = {
            "ln_flow": pp.describe_log_series(panel.flow),
            "ln_price": pp.describe_log_series(prices.values),
        }
    except pp.PreprocessError as exc:
        raise StageError("preprocess", str(exc)) from exc
    if args.format == "json":
        sys.stdout.write(_json_dumps(rows))
        return 0
    sys.stdout.write("\n".join(_descriptives_text(rows)) + "\n")
    return 0


def _equilibrium_payload(beta_xq: float, mean_ln_flow: float, mean_ln_price: float) -> dict:
    point = mc.equilibrium_levels(beta_xq, mean_ln_flow, mean_ln_price)
    supply_el, demand_el = mc.elasticities(beta_xq)
    return {"beta_xq": beta_xq, **asdict(point),
            "elasticities": {"supply": supply_el, "demand": demand_el}}


def _cmd_equilibrium(args) -> int:
    try:
        payload = _equilibrium_payload(args.beta_xq, args.mean_ln_flow, args.mean_ln_price)
    except mc.CurveError as exc:
        raise StageError("market_curves", str(exc)) from exc
    if args.format == "json":
        sys.stdout.write(_json_dumps(payload))
        return 0
    sys.stdout.write("\n".join(_equilibrium_text(payload)) + "\n")
    return 0


def _cmd_curves(args) -> int:
    try:
        supply = mc.curve_samples(mc.supply_curve(args.beta_xq), (args.x_min, args.x_max), args.count)
        demand = mc.curve_samples(mc.demand_curve(args.beta_xq), (args.x_min, args.x_max), args.count)
        payload = _equilibrium_payload(args.beta_xq, args.mean_ln_flow, args.mean_ln_price)
    except mc.CurveError as exc:
        raise StageError("market_curves", str(exc)) from exc
    lines = ["curve,x,y"]
    for name, table in (("supply", supply), ("demand", demand)):
        for x, y in table:
            lines.append(f"{name},{x:.17g},{y:.17g}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        sys.stdout.write(_json_dumps(payload))
        return 0
    # CSV table, blank line, then the equilibrium JSON block
    sys.stdout.write(csv_text + "\n" + _json_dumps(payload))
    return 0


def _cmd_ci(args) -> int:
    try:
        draws = unc.sample_betas(args.beta_xq, args.beta_xq_se, args.draws, args.seed)
        report = unc.derived_intervals(
            draws, args.beta_qm, args.r_m, args.mean_ln_flow, args.mean_ln_price,
            level=args.level,
        )
    except unc.UncertaintyError as exc:
        raise StageError("uncertainty", str(exc)) from exc
    payload = {
        "level": report.level,
        "bounds": {k: list(v) for k, v in report.bounds.items()},
        "point": dict(report.point),
        "draws_used": report.draws_used,
        "n_redrawn": draws.n_redrawn,
        "seed": report.seed,
    }
    if args.format == "json":
        sys.stdout.write(_json_dumps(payload))
        return 0
    sys.stdout.write("\n".join(_intervals_text(payload)) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    try:
        config = ScenarioConfig(
            beta_xq=args.beta_xq,
            mean_ln_flow=args.mean_ln_flow,
            mean_ln_price=args.mean_ln_price,
            shocks=mc.ShockModel(sigma_s=args.sigma_s, sigma_d=args.sigma_d,
                                 mode=args.shock_mode),
            n=args.n,
            seed=args.seed,
            iv_noise_sd=args.iv_noise_sd,
        )
        panel = synthesize_panel(config)
    except (SimulatorError, mc.CurveError) as exc:
        raise StageError("simulator", str(exc)) from exc
    text = serialize_panel(panel)
    truth = _json_dumps(ground_truth(config))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        truth_path = args.truth_out or (args.out + ".truth.json")
        with open(truth_path, "w", encoding="utf-8") as fh:
            fh.write(truth)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natbeta",
        description="Natural-asset-beta estimation and sustainability exchange pricing.",
    )
    parser.add_argument("--version", action="version", version=f"natbeta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run the full estimation pipeline")
    est.add_argument("--input", help="panel CSV path ('-' for stdin)")
    est.add_argument("--beta-qm", type=float, required=True, dest="beta_qm",
                     help="firm-vs-market beta (external market estimate)")
    est.add_argument("--r-m", type=parse_rate, required=True, dest="r_m",
                     help="market rate of return, e.g. 0.029 or 2.9%%")
    est.add_argument("--level", type=float, default=0.90,
                     help="confidence level for the Monte Carlo intervals")
    est.add_argument("--draws", type=int, default=100_000,
                     help="Monte Carlo draws (0 disables intervals)")
    est.add_argument("--seed", type=int, help="seed for the Monte Carlo stage")
    est.add_argument("--instruments", default="auto",
                     help="'auto', 'lags:K' or comma-separated iv_ column names")
    est.add_argument("--format", choices=("text", "json", "csv"), default="text")
    est.add_argument("--slope", type=float,
                     help="regression stub: inject the flow-on-price slope")
    est.add_argument("--slope-se", type=float, dest="slope_se",
                     help="regression stub: standard error of the injected slope")
    est.add_argument("--mean-ln-flow", type=float, dest="mean_ln_flow",
                     help="log-flow mean (required with --slope and no --input)")
    est.add_argument("--mean-ln-price", type=float, dest="mean_ln_price",
                     help="log-price mean (required with --slope and no --input)")
    est.set_defaults(func=_cmd_estimate)

    desc = sub.add_parser("describe", help="descriptive statistics of the log series")
    desc.add_argument("--input", required=True)
    desc.add_argument("--format", choices=("text", "json"), default="text")
    desc.set_defaults(func=_cmd_describe)

    eq = sub.add_parser("equilibrium", help="analytic equilibrium for a given beta")
    eq.add_argument("--beta-xq", type=float, required=True, dest="beta_xq")
    eq.add_argument("--mean-ln-flow", type=float, default=0.0, dest="mean_ln_flow")
    eq.add_argument("--mean-ln-price", type=float, default=0.0, dest="mean_ln_price")
    eq.add_argument("--format", choices=("text", "json"), default="json")
    eq.set_defaults(func=_cmd_equilibrium)

    cur = sub.add_parser("curves", help="sample the supply and demand curves")
    cur.add_argument("--beta-xq", type=float, required=True, dest="beta_xq")
    cur.add_argument("--x-min", type=float, default=-1.0, dest="x_min")
    cur.add_argument("--x-max", type=float, default=1.0, dest="x_max")
    cur.add_argument("--count", type=int, default=101)
    cur.add_argument("--mean-ln-flow", type=float, default=0.0, dest="mean_ln_flow")
    cur.add_argument("--mean-ln-price", type=float, default=0.0, dest="mean_ln_price")
    cur.add_argument("--out", help="write the CSV here and the JSON block to stdout")
    cur.set_defaults(func=_cmd_curves)

    ci = sub.add_parser("ci", help="Monte Carlo confidence intervals")
    ci.add_argument("--beta-xq", type=float, required=True, dest="beta_xq",
                    help="beta point estimate (sampling mean)")
    ci.add_argument("--beta-xq-se", type=float, required=True, dest="beta_xq_se",
                    help="standard error of the beta")
    ci.add_argument("--beta-qm", type=float, required=True, dest="beta_qm")
    ci.add_argument("--r-m", type=parse_rate, required=True, dest="r_m")
    ci.add_argument("--mean-ln-flow", type=float, required=True, dest="mean_ln_flow")
    ci.add_argument("--mean-ln-price", type=float, required=True, dest="mean_ln_price")
    ci.add_argument("--level", type=float, default=0.90)
    ci.add_argument("--draws", type=int, default=100_000)
    ci.add_argument("--seed", type=int, required=True)
    ci.add_argument("--format", choices=("text", "json"), default="text")
    ci.set_defaults(func=_cmd_ci)

    sim = sub.add_parser("simulate", help="generate a synthetic panel with known beta")
    sim.add_argument("--beta-xq", type=float, required=True, dest="beta_xq")
    sim.add_argument("--mean-ln-flow", type=float, default=2.113, dest="mean_ln_flow")
    sim.add_argument("--mean-ln-price", type=float, default=2.828, dest="mean_ln_price")
    sim.add_argument("--sigma-s", type=float, default=0.0, dest="sigma_s",
                     help="supply-shock standard deviation")
    sim.add_argument("--sigma-d", type=float, default=0.05, dest="sigma_d",
                     help="demand-shock standard deviation")
    sim.add_argument("--shock-mode", choices=("general", "paper"), default="general",
                     dest="shock_mode")
    sim.add_argument("--iv-noise-sd", type=float, default=0.02, dest="iv_noise_sd")
    sim.add_argument("--n", type=int, default=19)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="panel CSV path ('-' for stdout)")
    sim.add_argument("--truth-out", dest="truth_out",
                     help="ground-truth JSON path (default: <out>.truth.json)")
    sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.hint:
            sys.stderr.write(f"hint: {exc.hint}\n")
        return 1
    except (em.RegressionError, mc.CurveError, unc.UncertaintyError,
            SimulatorError, PanelFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
