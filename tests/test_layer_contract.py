"""The layer benchmark's contract with the package.

``layerbench/tracer.py`` times each module named in its ``LAYERS`` by
wrapping that module's public functions.  A layer module that is renamed,
or that loses its last public function, would leave its per-layer metrics
at 0 without any error, so each one is checked here.  The same holds for
every span name that ``layerbench/run.py`` reads a metric from: a name whose
function is gone, private, or hidden behind a wrapper that is not a plain
function (such as ``functools.cache``) reads 0.  ``LAYERS`` and the span
names are read from the benchmark's source, so that this test imports
nothing of layerbench.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

LAYERBENCH = Path(__file__).resolve().parents[1] / "layerbench"
TRACER = LAYERBENCH / "tracer.py"
RUN = LAYERBENCH / "run.py"


def assigned(path: Path, name: str) -> ast.expr:
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return node.value
    raise AssertionError(f"no {name} assignment in {path}")


def traced_layers() -> tuple[str, ...]:
    return ast.literal_eval(assigned(TRACER, "LAYERS"))


def span_names() -> list[str]:
    """Span names that run.py's metrics read, and those tracer.py treats apart."""
    names = []
    for node in ast.walk(ast.parse(RUN.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("_ms", "_calls"):
            args = node.args
        elif (isinstance(func, ast.Attribute) and func.attr == "get"
              and isinstance(func.value, ast.Name) and func.value.id == "r"):
            args = node.args[:1]
        else:
            continue
        names += [a.value for a in args
                  if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    names += ast.literal_eval(assigned(RUN, "TAIL_KERNELS"))
    substeps = assigned(TRACER, "SUBSTEPS")
    assert isinstance(substeps, ast.Call) and substeps.func.id == "frozenset"
    names += ast.literal_eval(substeps.args[0])
    names += [ast.literal_eval(key) for key in assigned(TRACER, "SIZES").keys]
    return sorted(set(names))


# TAIL_KERNELS still names three kernels that are gone from natbeta.kernels;
# ROADMAP item 6, the benchmark-only change, takes them out of run.py
GONE_TAIL_KERNELS = {"kernels.student_t_two_sided", "kernels.chi_square_upper_tail",
                     "kernels.normal_upper_tail"}


def test_tracer_lists_the_layers():
    assert "beta_algebra" in traced_layers()


@pytest.mark.parametrize("layer", traced_layers())
def test_each_traced_layer_defines_a_public_function(layer):
    module = importlib.import_module(f"natbeta.{layer}")
    # the tracer's own rule for what it wraps
    public = [name for name, obj in vars(module).items()
              if isinstance(obj, types.FunctionType) and not name.startswith("_")
              and obj.__module__ == module.__name__]
    assert public, f"natbeta.{layer} defines no public function for the tracer to wrap"


def test_run_reads_the_spans_it_names():
    names = span_names()
    assert {"kernels.student_t_quantile", "econometrics.ols",
            "kernels.propagate_beta_draws"} <= set(names)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="gone from kernels; ROADMAP item 6 drops it from TAIL_KERNELS"))
    if name in GONE_TAIL_KERNELS else name
    for name in span_names()
])
def test_each_span_name_is_a_public_function_of_its_module(name):
    layer, _, attr = name.partition(".")
    assert layer in traced_layers()
    module = importlib.import_module(f"natbeta.{layer}")
    obj = getattr(module, attr, None)
    # the tracer wraps only these, so any other object reads 0
    assert isinstance(obj, types.FunctionType) and not attr.startswith("_"), (
        f"{name} is not a plain function the tracer can wrap: {obj!r}")
    assert obj.__module__ == module.__name__, f"{name} is defined in {obj.__module__}"
