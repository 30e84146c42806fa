import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _bindings():
    """BINDINGS as written in perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BINDINGS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no BINDINGS")


def test_every_traced_binding_resolves():
    # The traced benchmark replaces fctp.<module>.<attr> for every row, so an
    # import dropped from a module stops it with AttributeError.
    bindings = _bindings()
    assert len(bindings) > 0
    missing = [
        f"fctp.{module}.{attr}"
        for module, attr, _ in bindings
        if not hasattr(importlib.import_module(f"fctp.{module}"), attr)
    ]
    assert missing == []
