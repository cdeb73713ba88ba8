"""Machine-speed reference for timings on a shared machine.

On a shared host the speed of the same code drifts by 20-30% over seconds
to minutes, for pure-Python and NumPy work alike, so raw wall times of two
runs minutes apart differ by more than any bound worth setting.  The
benchmark therefore times a fixed piece of reference work next to each op
and scales the op's time by ``NOMINAL_S / reference time``.  A scaled time
reads as the time on the machine in a state where the reference takes
``NOMINAL_S``; a change of machine state cancels.  Raw times are kept in the
run's result file.

Ops and reference alike are timed in CPU time, which leaves out the time the
host runs others on the vCPU (steal time).  CPU time still follows the rest
of the drift, the other tenants' load on the shared caches, memory bus and
clock, and the scale takes that out.

The reference runs in a helper process of its own (``Reference``), never in
the process that runs the ops: there it would be timed in the heap,
allocator and cache state the op before it left behind, so a change to
natbeta's memory traffic would also move the reference and partly cancel
itself.  The helper holds nothing but the reference work.

The reference mixes the kinds of work natbeta's ops do: interpreted Python
(a loop), vectorized NumPy (a sort) and small-object churn with a system call
(``SeedSequence``, which reads OS entropy).  Each kind drifts on its own on a
shared host, and a reference without the last one does not follow the
per-draw redraw path of ``sample_betas``.  None of it is natbeta code.

Fresh processes drift differently again: most of their time goes to starting
the interpreter and loading NumPy's shared libraries, which the reference
work does not exercise.  A fresh process is therefore scaled by
``NOMINAL_COLD_S / CPU time of COLD_REFERENCE``, a bare interpreter that
imports NumPy, run just before it.

Run as a script, this module is the helper: it answers each line on stdin
with the CPU seconds one run of the reference work took, and exits at EOF.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Reference duration the scaled times are expressed at: a round figure near
# the median reference time on a 2-vCPU cloud VM (Python 3.11, NumPy 2.4).
NOMINAL_S = 4.0e-4
# Ops whose reference times are pooled into the scale of each op: 0.5-2 s
# of ops, long enough that one slow reference does not count.
WINDOW = 31
# Back-to-back reference runs behind the scale of a single measurement.
SAMPLES = 10
# Reference process for fresh-process times, and the CPU time it is scaled
# to: a round figure near its median on the same VM.
COLD_REFERENCE = ("-c", "import numpy")
NOMINAL_COLD_S = 0.2
HELPER_TIMEOUT_S = 10

_ARRAY = np.random.default_rng(0).random(20_000)


def reference() -> float:
    """CPU seconds one run of the fixed reference work takes now, the same
    clock the ops are timed with."""
    start = time.process_time()
    total = 0
    for i in range(2_000):
        total += i * i
    np.sort(_ARRAY)
    for _ in range(12):
        np.random.SeedSequence()
    return time.process_time() - start


def pin() -> None:
    """Keep this process, and every process it starts from now on, on one CPU.

    The vCPUs of a shared VM run at different speeds from moment to moment
    (one ran a ``truncated_20k`` op in 47 ms while the other took 70 ms), so
    the helper must time the reference on the CPU the ops run on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Reference:
    """The reference work, timed in a helper process when asked.

    Call ``pin`` first, so that the helper runs on the ops' CPU.  Use as a
    context manager: leaving it stops the helper and waits for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)

    def time(self) -> float:
        """CPU seconds one run of the reference work takes in the helper now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited with code {self._proc.wait()}")
        return float(line)

    def times(self) -> list:
        """Times of SAMPLES back-to-back runs of the reference work."""
        return [self.time() for _ in range(SAMPLES)]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=HELPER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> Reference:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scale(refs: list) -> float:
    """Scale for a measurement taken among ``refs``: NOMINAL_S / their median."""
    return NOMINAL_S / statistics.median(refs)


def scales(refs: list) -> list:
    """Per-op scales from per-op reference times, each the median over a
    centred window of WINDOW ops so that one noisy reference does not count."""
    half = WINDOW // 2
    return [scale(refs[max(0, i - half):i + half + 1]) for i in range(len(refs))]


if __name__ == "__main__":
    for _request in sys.stdin:
        reference()  # warm the helper's caches after the pause; untimed
        print(repr(reference()), flush=True)
