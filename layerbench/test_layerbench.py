"""Self-tests of the layer benchmark.

Run from the repository root: python3 -m pytest layerbench
"""

import dataclasses
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from natbeta import econometrics, kernels  # noqa: E402
from tracer import Tracer, per_op  # noqa: E402


def test_self_time_subtracts_child_spans():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 30

    def helper():  # same layer as top: passes through without a span
        now[0] += 4
        traced_leaf()

    def top():
        now[0] += 10
        traced_leaf()
        traced_helper()
        now[0] += 20

    traced_leaf = tracer.wrap("b", "b.leaf", leaf)
    traced_helper = tracer.wrap("a", "a.helper", helper)
    traced_top = tracer.wrap("a", "a.top", top)
    tracer.op = 7
    traced_top()

    rows = per_op(tracer.spans)[7]
    assert set(rows) == {"a.top", "b.leaf"}
    # [calls, total ns, self ns, size]
    assert rows["a.top"] == [1, 94, 34, 0]
    assert rows["b.leaf"] == [2, 60, 60, 0]
    assert sum(row[2] for row in rows.values()) == rows["a.top"][1]
    top_index = next(i for i, s in enumerate(tracer.spans) if s[0] == "a.top")
    assert all(s[3] == top_index for s in tracer.spans if s[0] == "b.leaf")


def test_one_t_quantile_call_is_one_kernels_span():
    original = kernels.student_t_quantile
    tracer = Tracer()
    tracer.install()
    try:
        kernels.student_t_quantile(0.975, 16.0)
        assert [s[0] for s in tracer.spans] == ["kernels.student_t_quantile"]
        del tracer.spans[:]
        econometrics.t_confidence_interval(-0.919, 0.018, 16, 0.95)
        names = [s[0] for s in tracer.spans]
        assert names == ["econometrics.t_confidence_interval", "kernels.student_t_quantile"]
        assert tracer.spans[1][3] == 0
    finally:
        tracer.uninstall()
    assert kernels.student_t_quantile is original


def test_corrupted_report_counts_as_failed():
    paper = workloads.WORKLOADS["paper_stub_100k"]

    def corrupted_run(inp, input_path=None):
        texts, facts = paper.run(inp, input_path)
        doc = json.loads(texts[0])
        doc["betas"]["beta_xm"] += 0.5
        return [json.dumps(doc)], facts

    with speed.Reference() as ref:
        loop = run.run_ops(paper, 1, 0, 0.0, ref)
        assert (loop["attempted"], loop["failed"], len(loop["latencies"])) == (1, 0, 1)
        bad = dataclasses.replace(paper, run=corrupted_run)
        loop = run.run_ops(bad, 1, 0, 0.0, ref)
    assert (loop["attempted"], loop["failed"], loop["latencies"]) == (1, 1, [])
    inp = paper.make_input(1, 0)
    assert run.verify(paper, inp, ["{not json"], {}, repeat=False) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    make_input = workloads.WORKLOADS[name].make_input
    assert make_input(1, 0) == make_input(1, 0)
    assert make_input(1, 0) != make_input(2, 0)
    assert make_input(1, 0) != make_input(1, 1)


def test_one_bad_round_trip_fails_only_its_own_panel():
    coverage = workloads.WORKLOADS["coverage_sweep"]
    inp = coverage.make_input(1, 0)
    texts, facts = coverage.run(inp)
    docs = [json.loads(text) for text in texts]
    assert facts["round_trip"] == [True, True]
    assert coverage.check(docs, inp, facts) is None
    assert coverage.check(docs, inp, {"round_trip": [True, False]}) is not None
    assert coverage.check(docs[:1], inp, {"round_trip": [True]}) is None


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_scaled_latency_moves_by_an_injected_delay():
    """A fixed busy-wait added to every op moves the scaled p50 by the wait
    at the scale of the delayed ops: the reference does not follow the op."""
    delay_s = 0.01
    paper = workloads.WORKLOADS["paper_stub_100k"]

    def delayed_run(inp, input_path=None):
        result = paper.run(inp, input_path)
        _spin(delay_s)
        return result

    delayed = dataclasses.replace(paper, run=delayed_run)
    loops = {paper: [], delayed: []}
    first = 0
    speed.pin()
    with speed.Reference() as ref:
        for _ in range(4):  # alternate, so that machine drift hits both alike
            for workload, block in loops.items():
                block.append(run.run_ops(workload, 1, first, 0.5, ref))
                first += block[-1]["attempted"]
    plain, slow = run.merge(loops[paper]), run.merge(loops[delayed])
    assert plain["failed"] == slow["failed"] == 0
    shift = statistics.median(run.scaled(slow)) - statistics.median(run.scaled(plain))
    assert shift == pytest.approx(delay_s * statistics.median(slow["scales"]), rel=0.25)
