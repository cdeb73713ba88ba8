"""``tools/report_digests.py``, which digests each workload's reports."""

import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", TOOL)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def test_each_workload_prints_the_digest_of_its_concatenated_reports(capsys):
    workloads = report_digests.load_workloads()
    expected = {}
    for name, workload in workloads.WORKLOADS.items():
        texts = [text for index in range(3)
                 for text in workload.run(workload.make_input(5, index))[0]]
        expected[name] = hashlib.sha256("".join(texts).encode()).hexdigest()
    lines = "".join(f"{name} {digest}\n" for name, digest in expected.items())
    for _ in range(2):  # the same lines on every run
        assert report_digests.main(["--seed", "5", "--ops", "3"]) == 0
        assert capsys.readouterr().out == lines
    assert list(expected) == ["paper_stub_100k", "coverage_sweep", "truncated_20k"]
