"""The names the benchmark's tracer must find bound in polypart modules.

perfbench/tracer.py wraps a function under every module-level name that
binds it, and its REQUIRED_BINDINGS lists bindings whose absence would hide a
module's calls; a traced run stops when one is missing. The list is read from
the file itself, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def required_bindings() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REQUIRED_BINDINGS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no REQUIRED_BINDINGS in {TRACER}")


def test_every_required_binding_is_bound():
    required = required_bindings()
    assert required
    missing = [
        f"{layer}.{name}"
        for name, layers in required.items()
        for layer in layers
        if not callable(getattr(importlib.import_module(f"polypart.{layer}"), name, None))
    ]
    assert missing == []
