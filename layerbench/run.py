"""Layer benchmark for natbeta: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the repository root):

    python3 layerbench/run.py --workload paper_stub_100k --seed 101 --seconds 15 --trace 0

One caller runs the workload's ops back to back (a closed loop) for
``--seconds``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of traced loops, interleaved with untraced loops of the
same total length.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
state every metric by name and unit.  A copy of the result with the run's
metadata, and for a traced run every span, is written under
``.layerbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import speed
from tracer import LAYERS, Tracer, per_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".layerbench_out"

SETUP_RUNS = 11      # fresh processes timed for setup_s
CLI_RUNS = 11        # cold CLI processes timed for cli_cold_s
TRACE_SETUP_RUNS = 3  # fresh processes timed for cli.import_s
CLI_MAIN_RUNS = 5    # in-process cli.main calls timed for cli.main_ms
TRACE_BLOCKS = 4     # untraced/traced loop pairs in a traced run
REPEAT_EVERY = 8     # every n-th op is run again and must give the same bytes
BLOCKS = 10          # runs of consecutive ops that loop metrics are medians over
CHILD_TIMEOUT_S = 20
# Bytes a propagated draw moves: one float64 in, five out.
PROPAGATE_ROW_BYTES = 6 * 8
TAIL_KERNELS = ("kernels.student_t_two_sided", "kernels.f_upper_tail",
                "kernels.chi_square_upper_tail", "kernels.normal_upper_tail")
LOOP_LAYERS = tuple(layer for layer in LAYERS if layer != "cli")

E2E_UNITS = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "ops_per_s": "1/s",
             "setup_s": "s", "cli_cold_s": "s", "peak_rss_mb": "MB",
             "ci_coverage_gap": "ratio"}


# ---------------------------------------------------------------------------
# The closed loop and its output checks
# ---------------------------------------------------------------------------


def verify(workload, inp: dict, texts: list, facts: dict, repeat: bool) -> str | None:
    """Reason the op's reports are wrong, or None when they pass every check."""
    try:
        docs = [json.loads(text) for text in texts]
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    try:
        error = workload.check(docs, inp, facts)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"report lacks a field: {exc!r}"
    if error is None and repeat and workload.run(inp)[0] != texts:
        return "repeating the op's seed gave different bytes"
    return error


def run_ops(workload, seed: int, first: int, seconds: float, ref: speed.Reference,
            tracer=None) -> dict:
    """Run ops first, first+1, ... back to back for ``seconds`` (at least one op).

    Only the call chain is timed; input generation and checks are not.  An
    op's latency is the CPU time of this process over the chain: natbeta's
    ops run on one thread and do no I/O, so on a quiet host it is 99% of the
    wall time, and unlike wall time it leaves out the time the host runs
    others on this vCPU (steal time).  Steal comes in episodes of minutes on
    a shared VM, and during one the wall-time p90 can double while the
    p50 holds.  The helper ``ref`` times the
    reference work before each op.  Returns the raw latencies, wall times,
    machine-speed scales and a record per passing op, and the failures.
    """
    latencies, walls, refs, records, failed = [], [], [], [], 0
    index = first
    deadline = time.perf_counter() + seconds
    while True:
        inp = workload.make_input(seed, index)
        ref_s = ref.time()
        if tracer is not None:
            tracer.op = index
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            texts, facts = workload.run(inp)
            cpu = time.process_time() - cpu_start
            wall = time.perf_counter() - start
            error = None
        except Exception:  # a failing op is counted, and the loop goes on
            error = traceback.format_exc()
        if tracer is not None:
            tracer.op = None
        if error is None:
            error = verify(workload, inp, texts, facts, repeat=index % REPEAT_EVERY == 0)
        if error is None:
            latencies.append(cpu)
            walls.append(wall)
            refs.append(ref_s)
            iv = json.loads(texts[0]).get("intervals") or {}
            records.append({"op": index, "ms": wall * 1e3,
                            "render_bytes": sum(len(text) for text in texts),
                            "panel_bytes": facts.get("panel_bytes", 0),
                            "redrawn": iv.get("n_redrawn", 0),
                            "draws": iv.get("draws_used", 0)})
        else:
            failed += 1
            print(f"op {index} failed: {error}", file=sys.stderr)
        index += 1
        if time.perf_counter() >= deadline:
            break
    return {"latencies": latencies, "walls": walls, "scales": speed.scales(refs),
            "records": records, "failed": failed, "attempted": index - first}


def merge(loops: list) -> dict:
    """One loop result from the results of consecutive loops."""
    return {key: sum((loop[key] for loop in loops), type(value)())
            for key, value in loops[0].items()}


def scaled(loop: dict) -> list:
    """The loop's latencies in seconds at nominal machine speed."""
    return [lat * scale for lat, scale in zip(loop["latencies"], loop["scales"])]


# ---------------------------------------------------------------------------
# Fresh processes: set-up probes and the cold CLI
# ---------------------------------------------------------------------------


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def _child(argv: list) -> tuple[float, subprocess.CompletedProcess]:
    """CPU time (user + system, all threads) of a child process, and its result.

    CPU time, like an op's, leaves out steal time; children run one at a
    time, so the growth of RUSAGE_CHILDREN is this child's alone.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime), proc


def timed_child(argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """CPU time of a child process at nominal machine speed, the scale from
    the reference process run just before it, and the child's result."""
    ref_cpu, _ = _child([sys.executable, *speed.COLD_REFERENCE])
    cpu, proc = _child(argv)
    scale = speed.NOMINAL_COLD_S / ref_cpu
    return cpu * scale, scale, proc


def setup_probes(name: str, seed: int, runs: int) -> tuple[list, list, int]:
    """Process and import times of fresh set-up processes, and how many failed."""
    times, imports, failed = [], [], 0
    for _ in range(runs):
        cpu, scale, proc = timed_child(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)])
        try:
            result = json.loads(proc.stdout.decode().splitlines()[-1])
        except (ValueError, IndexError):
            result = {"error": proc.stderr.decode()[-2000:] or "no output"}
        if proc.returncode != 0 or result["error"] is not None:
            failed += 1
            print(f"set-up probe failed: {result['error']}", file=sys.stderr)
            continue
        times.append(cpu)
        imports.append(result["import_s"] * scale)
    return times, imports, failed


def first_op(workload, seed: int) -> tuple[dict, str | None]:
    """The workload's first input, and the panel file the CLI reads it from."""
    inp = workload.make_input(seed, 0)
    if workload.cli_input is None:
        return inp, None
    OUT.mkdir(exist_ok=True)
    path = OUT / f"panel-{workload.name}-{seed}.csv"
    path.write_text(workload.cli_input(inp), encoding="utf-8")
    return inp, str(path.relative_to(ROOT))


def cold_cli(workload, seed: int, runs: int) -> tuple[list, int]:
    """Times of cold ``python -m natbeta.cli estimate`` processes whose
    stdout matches the in-process report byte for byte, and the mismatches."""
    inp, path = first_op(workload, seed)
    expected = workload.run(inp, input_path=path)[0][0].encode()
    argv = [sys.executable, "-m", "natbeta.cli", *workload.cli_args(inp, path)]
    times, failed = [], 0
    for _ in range(runs):
        cpu, _scale, proc = timed_child(argv)
        if proc.returncode != 0 or proc.stdout != expected:
            failed += 1
            print(f"cold CLI differs from render_report (exit {proc.returncode}): "
                  f"{proc.stderr.decode()[-2000:]}", file=sys.stderr)
            continue
        times.append(cpu)
    return times, failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _median(values: list) -> float:
    return statistics.median(values) if values else float("nan")


def over_blocks(values: list, stat) -> float:
    """Median of ``stat`` over BLOCKS runs of consecutive values, so that a
    few seconds of interference from other tenants shift only a few blocks."""
    n = len(values)
    blocks = [values[i * n // BLOCKS:(i + 1) * n // BLOCKS] for i in range(BLOCKS)]
    return _median([stat(block) for block in blocks if block])


def end_to_end(name: str, seed: int, seconds: float, ref: speed.Reference) -> tuple[dict, dict]:
    import workloads

    workload = workloads.WORKLOADS[name]
    setup_times, _imports, setup_failed = setup_probes(name, seed, SETUP_RUNS)
    cli_times, cli_failed = cold_cli(workload, seed, CLI_RUNS)
    warm = run_ops(workload, seed, 0, 0.0, ref)
    loop = run_ops(workload, seed, 1, seconds, ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gap, covered, coverage_failed = workloads.coverage_study()
    lat = scaled(loop)
    metrics = {
        "latency_p50_ms": over_blocks(lat, statistics.median) * 1e3,
        "latency_p90_ms": over_blocks(lat, p90) * 1e3,
        "ops_per_s": over_blocks(lat, lambda block: len(block) / sum(block)),
        "setup_s": _median(setup_times),
        "cli_cold_s": _median(cli_times),
        "peak_rss_mb": peak_rss_mb,
        "ci_coverage_gap": gap,
    }
    attempted = (SETUP_RUNS + CLI_RUNS + warm["attempted"] + loop["attempted"]
                 + len(workloads.COVERAGE_SEEDS))
    failed = (setup_failed + cli_failed + warm["failed"] + loop["failed"]
              + coverage_failed)
    raw, walls = loop["latencies"], loop["walls"]
    details = {"samples": len(lat), "raw_latency_p50_ms": _median(raw) * 1e3,
               "raw_latency_p90_ms": p90(raw) * 1e3 if raw else float("nan"),
               "wall_p50_ms": _median(walls) * 1e3,
               "wall_p90_ms": p90(walls) * 1e3 if walls else float("nan"),
               "scale_p50": _median(loop["scales"]),
               "loop_attempted": loop["attempted"],
               "loop_failed": loop["failed"], "setup_samples": len(setup_times),
               "cli_samples": len(cli_times), "coverage_covered": covered,
               "coverage_panels": len(workloads.COVERAGE_SEEDS),
               "attempted": attempted, "failed": failed}
    return metrics, details


def _ms(rows: dict, *names, field: int = 1) -> float:
    """Total duration (field 1) or self time (field 2) of the named spans, in ms."""
    return sum(rows[n][field] for n in names if n in rows) / 1e6


def _calls(rows: dict, *names) -> int:
    return sum(rows[n][0] for n in names if n in rows)


def _layer(rows: dict, layer: str, field: int) -> float:
    return sum(row[field] for n, row in rows.items() if n.startswith(layer + ".")) / 1e6


# Per-op layer metrics: name -> (unit, value from the op's span totals and record).
PER_OP = {
    "panel_io.parse_ms": ("ms", lambda r, rec: _ms(r, "panel_io.parse_panel")),
    "panel_io.serialize_ms": ("ms", lambda r, rec: _ms(r, "panel_io.serialize_panel")),
    "panel_io.bytes": ("bytes", lambda r, rec: rec["panel_bytes"]),
    "preprocess.ms": ("ms", lambda r, rec: _layer(r, "preprocess", 1)),
    "econometrics.cf_fit_ms": ("ms", lambda r, rec: _ms(r, "econometrics.control_function_fit")),
    "econometrics.cf_fit_self_ms": ("ms", lambda r, rec: _ms(
        r, "econometrics.control_function_fit", field=2)),
    "econometrics.ols_ms": ("ms", lambda r, rec: _ms(r, "econometrics.ols")),
    "econometrics.ols_calls": ("count", lambda r, rec: _calls(r, "econometrics.ols")),
    "econometrics.diagnostics_ms": ("ms", lambda r, rec: _ms(
        r, "econometrics.reset_test", "econometrics.jarque_bera")),
    "kernels.t_quantile_ms": ("ms", lambda r, rec: _ms(r, "kernels.student_t_quantile")),
    "kernels.t_quantile_calls": ("count", lambda r, rec: _calls(r, "kernels.student_t_quantile")),
    "kernels.tail_p_ms": ("ms", lambda r, rec: _ms(r, *TAIL_KERNELS)),
    "kernels.tail_p_calls": ("count", lambda r, rec: _calls(r, *TAIL_KERNELS)),
    "kernels.propagate_ms": ("ms", lambda r, rec: _ms(r, "kernels.propagate_beta_draws")),
    "kernels.propagate_rows": ("count", lambda r, rec: r.get(
        "kernels.propagate_beta_draws", [0, 0, 0, 0])[3]),
    "kernels.propagate_bytes": ("bytes-computed", lambda r, rec: PROPAGATE_ROW_BYTES * r.get(
        "kernels.propagate_beta_draws", [0, 0, 0, 0])[3]),
    "kernels.equilibria_ms": ("ms", lambda r, rec: _ms(r, "kernels.equilibria_from_shocks")),
    "beta_algebra.ms": ("ms", lambda r, rec: _layer(r, "beta_algebra", 1)),
    "market_curves.ms": ("ms", lambda r, rec: _layer(r, "market_curves", 1)),
    "uncertainty.sample_ms": ("ms", lambda r, rec: _ms(r, "uncertainty.sample_betas")),
    "uncertainty.redrawn": ("count", lambda r, rec: rec["redrawn"]),
    "uncertainty.accept_ratio": ("ratio", lambda r, rec: (
        rec["draws"] / (rec["draws"] + rec["redrawn"]) if rec["draws"] else 0.0)),
    "uncertainty.intervals_self_ms": ("ms", lambda r, rec: _ms(
        r, "uncertainty.derived_intervals", field=2)),
    "simulator.synthesize_ms": ("ms", lambda r, rec: _ms(r, "simulator.synthesize_panel")),
    "pipeline.run_estimate_self_ms": ("ms", lambda r, rec: _ms(
        r, "pipeline.run_estimate", field=2)),
    "pipeline.render_ms": ("ms", lambda r, rec: _ms(r, "pipeline.render_report")),
    "pipeline.render_bytes": ("bytes", lambda r, rec: rec["render_bytes"]),
    **{f"{layer}.self_ms": ("ms", lambda r, rec, layer=layer: _layer(r, layer, 2))
       for layer in LOOP_LAYERS},
    "trace.unattributed_ms": ("ms", lambda r, rec: rec["ms"] - sum(
        row[2] for row in r.values()) / 1e6),
}
PER_RUN_UNITS = {"cli.import_s": "s", "cli.main_ms": "ms", "trace.overhead_frac": "ratio"}
PER_LAYER_UNITS = {**{k: unit for k, (unit, _) in PER_OP.items()}, **PER_RUN_UNITS}


def per_layer(name: str, seed: int, seconds: float,
              ref: speed.Reference) -> tuple[dict, dict, list]:
    import workloads
    from natbeta import cli

    workload = workloads.WORKLOADS[name]
    _times, imports, setup_failed = setup_probes(name, seed, TRACE_SETUP_RUNS)
    warm = run_ops(workload, seed, 0, 0.0, ref)
    # Untraced and traced loops alternate, so that drift between them does
    # not show as tracing overhead.
    tracer = Tracer()
    plain, traced, first = [], [], 1
    for _ in range(TRACE_BLOCKS):
        plain.append(run_ops(workload, seed, first, seconds / (2 * TRACE_BLOCKS), ref))
        first += plain[-1]["attempted"]
        tracer.install()
        try:
            traced.append(run_ops(workload, seed, first, seconds / (2 * TRACE_BLOCKS), ref,
                                  tracer))
        finally:
            tracer.uninstall()
        first += traced[-1]["attempted"]
    plain, traced = merge(plain), merge(traced)
    tracer.install()
    try:
        inp, path = first_op(workload, seed)
        expected = workload.run(inp, input_path=path)[0][0]
        argv = workload.cli_args(inp, path)
        cli_failed = 0
        cli_scale = speed.scale(ref.times())
        for k in range(CLI_MAIN_RUNS):
            tracer.op = ("cli", k)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0 or out.getvalue() != expected:
                cli_failed += 1
                print("in-process cli.main differs from render_report", file=sys.stderr)
        tracer.op = None
    finally:
        tracer.uninstall()

    totals = per_op(tracer.spans)
    values = {key: [] for key in PER_OP}
    for rec, scale in zip(traced["records"], traced["scales"]):
        rows = totals.get(rec["op"], {})
        for key, (unit, fn) in PER_OP.items():
            values[key].append(fn(rows, rec) * (scale if unit == "ms" else 1))
    metrics = {key: _median(v) for key, v in values.items()}
    metrics["cli.import_s"] = _median(imports)
    metrics["cli.main_ms"] = _median([totals[("cli", k)]["cli.main"][1] / 1e6 * cli_scale
                                      for k in range(CLI_MAIN_RUNS)])
    traced_p50, plain_p50 = _median(scaled(traced)), _median(scaled(plain))
    metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    attempted = (TRACE_SETUP_RUNS + CLI_MAIN_RUNS + warm["attempted"]
                 + plain["attempted"] + traced["attempted"])
    failed = (setup_failed + cli_failed + warm["failed"] + plain["failed"]
              + traced["failed"])
    details = {"samples": len(traced["latencies"]), "untraced_samples": len(plain["latencies"]),
               "traced_p50_ms": traced_p50 * 1e3, "untraced_p50_ms": plain_p50 * 1e3,
               "spans": len(tracer.spans), "attempted": attempted, "failed": failed}
    return metrics, details, tracer.spans


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_metadata(args) -> dict:
    from natbeta import kernels

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "backend": getattr(kernels, "BACKEND", None),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loop": "closed, one caller"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "natbeta" / "__init__.py").is_file():
        print(f"error: natbeta sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    speed.pin()
    with speed.Reference() as ref:
        if args.trace:
            metrics, details, spans = per_layer(args.workload, args.seed, args.seconds, ref)
            units = PER_LAYER_UNITS
        else:
            metrics, details = end_to_end(args.workload, args.seed, args.seconds, ref)
            spans, units = None, E2E_UNITS
    meta = run_metadata(args)
    result = {"correct": details["failed"] == 0, "attempted": details["attempted"],
              "failed": details["failed"],
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"metadata": meta, "details": details, **result}, indent=2) + "\n",
        encoding="utf-8")
    if spans is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    print("metadata " + json.dumps(meta))
    print("details " + json.dumps(details))
    print(f"failed_frac {details['failed'] / details['attempted']:.6g} ratio "
          f"({details['failed']} of {details['attempted']} ops)")
    for key, unit in units.items():
        print(f"{key} {metrics[key]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
