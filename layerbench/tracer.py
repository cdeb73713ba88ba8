"""Outside-in tracing of natbeta's layers.

The tracer replaces the public functions of each natbeta module with timing
wrappers, in every natbeta namespace that holds a reference to them (module
attributes looked up as ``kernels.x`` and names imported with
``from .panel_io import x`` alike).  Nothing under ``src/`` is edited and
``uninstall`` puts the original functions back.

A wrapper records a span only when the call enters its layer from another
layer (or from the benchmark).  A call inside a layer passes straight
through, so one ``student_t_quantile`` call is one ``kernels`` span, not one
per CDF evaluation of its bisection.  The steps named in ``SUBSTEPS`` are the
only exception: the econometrics metrics split the control-function fit into
them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = ("panel_io", "preprocess", "econometrics", "kernels", "beta_algebra",
          "market_curves", "uncertainty", "simulator", "pipeline", "cli")

SUBSTEPS = frozenset({"econometrics.ols", "econometrics.reset_test",
                      "econometrics.jarque_bera"})

# Work size stored on a span, read from the call's arguments.
SIZES = {"kernels.propagate_beta_draws": lambda args, kwargs: len(args[0])}

# Span fields, in list order.
NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    """Spans of traced calls, kept in memory until the run ends.

    Each span is ``[name, start_ns, end_ns, parent index or -1, op, size]``.
    Set ``op`` before each operation so its spans can be grouped.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._layer: str | None = None
        self._patches: list[tuple] = []

    def wrap(self, layer: str, name: str, fn):
        """Return ``fn`` wrapped to record a span when entered from outside ``layer``."""
        always = name in SUBSTEPS
        size_of = SIZES.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._layer == layer and not always:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op,
                    size_of(args, kwargs) if size_of else 0]
            stack.append(len(spans))
            spans.append(span)
            outer, self._layer = self._layer, layer
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self._layer = outer
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public function of every natbeta layer module."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"natbeta.{layer}")
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(layer, f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "natbeta" or name.startswith("natbeta.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        """Put back every function that ``install`` replaced."""
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()


def per_op(spans) -> dict:
    """Totals per op and span name: ``{op: {name: [calls, ns, self_ns, size]}}``.

    Self time is a span's duration minus the time its child spans cover, so
    the self times of an op's spans add up to the op time spent in layers.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    out: dict = {}
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        row = out.setdefault(span[OP], {}).setdefault(span[NAME], [0, 0, 0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_ns[i]
        row[3] += span[SIZE]
    return out
