"""Set-up probe: a fresh process that imports natbeta and natbeta.cli, then
runs and checks the first op of a workload.

Usage: python3 layerbench/probe.py WORKLOAD SEED
Prints one JSON line: {"import_s": <CPU seconds to import>, "error": <reason or null>}.
The caller times the whole process from the outside.
"""

import json
import sys
import time
from pathlib import Path

start = time.process_time()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import natbeta  # noqa: E402
import natbeta.cli  # noqa: E402,F401

import_s = time.process_time() - start

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
inp = workload.make_input(int(sys.argv[2]), 0)
texts, facts = workload.run(inp)
print(json.dumps({"import_s": import_s,
                  "error": workload.check([json.loads(t) for t in texts], inp, facts)}))
