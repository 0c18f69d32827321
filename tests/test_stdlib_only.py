"""The library imports nothing outside the standard library.

sympy and hypothesis serve the tests only; ``pyproject.toml`` lists no
runtime dependency, and this test keeps ``src/toricap`` to that.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "toricap").glob("*.py"))


def absolute_imports(tree: ast.AST) -> list[str]:
    """The top-level module of every absolute import in ``tree``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "capacities.py", "domains.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [name for name in absolute_imports(tree) if name not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports {outside}"


def test_a_third_party_import_is_caught():
    tree = ast.parse("import os\nfrom sympy.solvers import linprog\nfrom . import domains\n")
    assert [n for n in absolute_imports(tree) if n not in sys.stdlib_module_names] == ["sympy"]
