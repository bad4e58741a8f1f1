"""The package imports nothing outside the Python standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "datacause"


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = [f"{path.name}: {name}" for path in modules
               for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign
