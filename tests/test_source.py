"""Checks on the package source itself."""

import ast
import importlib
import pathlib
import re

import schurpaths

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "schurpaths"


def test_no_assert_statements():
    """``python -O`` strips ``assert`` statements, so an internal check in the
    package raises ``AssertionError`` explicitly and survives optimisation."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and not found, found


def test_source_parses_at_the_python_floor():
    """Every ``src/`` file parses with the grammar of the oldest Python that
    ``pyproject.toml`` declares (``requires-python``), so syntax such as
    ``except*`` cannot slip in.  This checks the grammar only: a standard
    library function newer than the floor still passes."""
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    paths = sorted(SRC.rglob("*.py"))
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(int(major), int(minor)))
    assert paths


def test_readme_names_resolve():
    """Every backticked dotted name in the README whose head is the package,
    one of its modules or a name it exports resolves attribute by attribute,
    so a renamed or deleted function cannot stay named there."""
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    checked, missing = [], []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme))):
        parts = name.split(".")
        if parts[0] == "schurpaths":
            parts = parts[1:]
        elif parts[0] not in modules and not hasattr(schurpaths, parts[0]):
            continue
        if parts[0] in modules:
            obj = importlib.import_module(f"schurpaths.{parts[0]}")
        else:
            obj = getattr(schurpaths, parts[0], None)
        for part in parts[1:]:
            obj = getattr(obj, part, None)
        checked.append(name)
        if obj is None:
            missing.append(name)
    assert len(checked) >= 9 and not missing, (checked, missing)


def _tracer_reads() -> set[tuple[str, str]]:
    """The (module, name) pairs that ``install`` in ``perfbench/tracing.py``
    reads: ``mod.name`` loads, where ``mod`` is bound to ``prog.<module>``
    or is ``prog.<module>`` itself, and ``getattr(mod, name)`` in a loop
    over a tuple of literal names."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    install = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    aliases = {
        target.id: value.attr
        for node in ast.walk(install)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for target, value in zip(node.targets[0].elts, node.value.elts)
        if isinstance(value, ast.Attribute) and getattr(value.value, "id", None) == "prog"
    }

    def module(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if isinstance(expr, ast.Attribute) and getattr(expr.value, "id", None) == "prog":
            return expr.attr
        return None

    reads = set()
    for node in ast.walk(install):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and module(node.value):
            reads.add((module(node.value), node.attr))
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "getattr"
                    and module(call.args[0])
                ):
                    reads |= {(module(call.args[0]), name.value) for name in node.iter.elts}
    return reads


def test_tracer_only_imports_are_still_read():
    """An import kept unused in ``src/`` (``# noqa: F401``) is there only so
    that the benchmark's tracer can rebind it; once ``install`` stops reading
    the name, the import is dead and this names it for deletion."""
    kept = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                kept += [(path.stem, alias.asname or alias.name) for alias in node.names]
    reads = _tracer_reads()
    unread = [f"{module}.{name}" for module, name in kept if (module, name) not in reads]
    assert ("cli", "main") in reads and not unread, f"imports the tracer no longer reads: {unread}"
