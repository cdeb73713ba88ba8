"""Command-line interface.

Subcommands: estimate, simulate, equilibrium, ci, curves, describe.
Rates are accepted as decimals (0.029) or percent (2.9%); text output
displays rates in percent.

Each command imports the modules of the stages it runs when it runs:
``estimate`` with a regression stub loads neither the panel reader nor the
regression, and only ``simulate`` loads the simulator.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import __version__
from .pipeline import (StageError, _descriptives_text, _equilibrium_text, _intervals_text,
                       _json_text, _market_stage, _preprocess_stage, _report_warnings,
                       _uncertainty_stage, _warnings_text, render_report, run_estimate)


def parse_rate(text: str) -> float:
    """'0.029' -> 0.029, '2.9%' -> 0.029."""
    text = text.strip()
    if text.endswith("%"):
        return float(text[:-1]) / 100.0
    return float(text)


def _load_panel(path: str):
    from .panel_io import PanelFormatError, parse_panel

    try:
        if path == "-":
            return parse_panel(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return parse_panel(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise StageError("panel_io", f"cannot read {path}: {exc}") from exc
    except PanelFormatError as exc:
        raise StageError("panel_io", str(exc)) from exc


def _write_text(path: str, blocks) -> None:
    """Write the strings of ``blocks`` in order to ``path``, or to stdout for '-'."""
    try:
        if path == "-":
            sys.stdout.writelines(blocks)
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        raise StageError("panel_io", f"cannot write {path}: {exc}") from exc


def _write_output(format: str, data, lines) -> int:
    """Write ``data`` as JSON for ``format`` 'json', else ``lines`` as text, to stdout."""
    sys.stdout.write(_json_text(data) if format == "json" else "\n".join(lines) + "\n")
    return 0


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
    descriptives, _, _ = _preprocess_stage(_load_panel(args.input))
    rows = {name: descriptives[name] for name in ("ln_flow", "ln_price")}
    return _write_output(args.format, rows, _descriptives_text(rows))


def _market_payload(args, curves=None):
    """The equilibrium JSON block of ``equilibrium`` and ``curves``, and the
    sampled curves when ``curves`` gives an x range and a count."""
    point, elasticities, samples = _market_stage(args.beta_xq, args.mean_ln_flow,
                                                 args.mean_ln_price, curves)
    return {"beta_xq": args.beta_xq, **vars(point), "elasticities": elasticities}, samples


def _cmd_equilibrium(args) -> int:
    payload, _ = _market_payload(args)
    return _write_output(args.format, payload, _equilibrium_text(payload))


CSV_BLOCK_ROWS = 4096  # curve samples formatted per written block


def _curves_csv(samples):
    """The curves CSV, its rows formatted ``CSV_BLOCK_ROWS`` at a time."""
    yield "curve,x,y\n"
    for name, column in (("supply", 1), ("demand", 2)):
        for start in range(0, len(samples), CSV_BLOCK_ROWS):
            rows = samples[start:start + CSV_BLOCK_ROWS, [0, column]].tolist()
            yield "".join(f"{name},{x:.17g},{y:.17g}\n" for x, y in rows)


def _cmd_curves(args) -> int:
    payload, samples = _market_payload(args, ((args.x_min, args.x_max), args.count))
    out = args.out or "-"
    _write_text(out, _curves_csv(samples))
    # on stdout the CSV table, a blank line, then the equilibrium JSON block
    sys.stdout.write(("\n" if out == "-" else "") + _json_text(payload))
    return 0


def _cmd_ci(args) -> int:
    intervals = _uncertainty_stage(
        args.beta_xq, args.beta_xq_se, draws=args.draws, seed=args.seed, level=args.level,
        beta_qm=args.beta_qm, r_m=args.r_m, mean_ln_flow=args.mean_ln_flow,
        mean_ln_price=args.mean_ln_price,
    )
    warnings = _report_warnings({"intervals": intervals})
    return _write_output(args.format, {**intervals, "warnings": warnings},
                         _intervals_text(intervals) + _warnings_text(warnings))


def _cmd_simulate(args) -> int:
    from .market_curves import CurveError, ShockModel
    from .panel_io import serialize_panel
    from .simulator import ScenarioConfig, SimulatorError, ground_truth, synthesize_panel

    if args.out == args.truth_out == "-":
        raise StageError("panel_io", "--out and --truth-out cannot both be stdout ('-')")
    try:
        config = ScenarioConfig(
            beta_xq=args.beta_xq,
            mean_ln_flow=args.mean_ln_flow,
            mean_ln_price=args.mean_ln_price,
            shocks=ShockModel(sigma_s=args.sigma_s, sigma_d=args.sigma_d,
                              mode=args.shock_mode),
            n=args.n,
            seed=args.seed,
            iv_noise_sd=args.iv_noise_sd,
        )
        panel = synthesize_panel(config)
    except (SimulatorError, CurveError) as exc:
        raise StageError("simulator", str(exc)) from exc
    _write_text(args.out, [serialize_panel(panel)])
    if args.truth_out or args.out != "-":
        _write_text(args.truth_out or (args.out + ".truth.json"),
                    [_json_text(ground_truth(config))])
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token starting ``-<digit>`` or
    ``-.<digit>`` as a value, as Python 3.13's does: ``--r-m -3%`` and
    ``--slope -5e-1`` then parse as ``--r-m=-3%`` and ``--slope=-5e-1``.
    Older versions take only plain decimals for values.  ``add_subparsers``
    builds each subparser with the root parser's class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                     help="'auto' (the panel's iv_ columns), 'lags:K' or "
                          "comma-separated iv_ column names")
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
    cur.add_argument("--out", help="write the CSV here ('-' for stdout, as without --out) "
                                   "and the JSON block to stdout")
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
                     help="ground-truth JSON path (default: <out>.truth.json; none for --out -)")
    sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, StageError) and exc.hint:
            sys.stderr.write(f"hint: {exc.hint}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
