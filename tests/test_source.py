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
