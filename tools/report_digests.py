"""Print one SHA-256 digest per layer-benchmark workload over its reports.

    python tools/report_digests.py [--seed S] [--ops N]

For each workload of ``layerbench/workloads.py``, in its order there, runs
ops 0 to N - 1 with the workload seed S (defaults: seed 101, 200 ops) and
prints ``<workload> <sha256>``, the digest of every JSON report text of
those ops concatenated in op order.  The package is imported from this
checkout's ``src``, so two checkouts print the same lines exactly when
their reports keep every byte.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """``layerbench/workloads.py`` as a module, importing this checkout's package."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("layerbench_workloads",
                                                  ROOT / "layerbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def digests(seed: int, ops: int) -> dict[str, str]:
    """The hex SHA-256 of ops 0 to ``ops - 1``'s reports, by workload."""
    workloads = load_workloads()
    found = {}
    for name, workload in workloads.WORKLOADS.items():
        digest = hashlib.sha256()
        for index in range(ops):
            texts, _ = workload.run(workload.make_input(seed, index))
            for text in texts:
                digest.update(text.encode())
        found[name] = digest.hexdigest()
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--ops", type=int, default=200)
    args = parser.parse_args(argv)
    for name, digest in digests(args.seed, args.ops).items():
        print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
