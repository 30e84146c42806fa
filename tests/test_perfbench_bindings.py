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


def _unused_imports(tree):
    """Names a module imports but never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_every_import_is_used_or_traced():
    # A name kept only so a traced binding resolves is exempt; any other
    # unused import is dead code.
    traced = {(module, attr) for module, attr, _ in _bindings()}
    package = TRACING.parent.parent / "src" / "fctp"
    unused = [
        f"fctp.{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if (path.stem, name) not in traced
    ]
    assert unused == []


def test_every_private_helper_is_read():
    # A top-level _name in src/fctp that nothing in src/ reads, by name or
    # as an attribute, is dead code: a helper its last caller left behind.
    package = TRACING.parent.parent / "src" / "fctp"
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - read) == []
