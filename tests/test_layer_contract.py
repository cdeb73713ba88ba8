"""The layer benchmark's contract with the package.

``layerbench/tracer.py`` times each module named in its ``LAYERS`` by
wrapping that module's public functions.  A layer module that is renamed,
or that loses its last public function, would leave its per-layer metrics
at 0 without any error, so each one is checked here.  ``LAYERS`` is read
from the tracer's source, so that this test imports nothing of layerbench.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "layerbench" / "tracer.py"


def traced_layers() -> tuple[str, ...]:
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACER}")


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
