"""The library and the tools import nothing outside the standard library.

sympy and hypothesis serve the tests only; ``pyproject.toml`` lists no
runtime dependency, and this test keeps ``src/toricap`` to that.  A tool
may also import the bench modules named in ``BENCH_MODULES``, which it
reads from ``bench/``: ``tools/ab.py`` builds the workloads' requests with
``bench/workloads.py``, whose expected answers need sympy for the diagonal.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted([*(ROOT / "src" / "toricap").glob("*.py"), *(ROOT / "tools").glob("*.py")])
BENCH_MODULES = {"workloads"}


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
    names = {path.name for path in SOURCES}
    assert names >= {"__init__.py", "capacities.py", "domains.py", "ab.py"}
    assert all((ROOT / "bench" / f"{name}.py").is_file() for name in BENCH_MODULES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = sys.stdlib_module_names | (BENCH_MODULES if path.parent.name == "tools" else set())
    outside = [name for name in absolute_imports(tree) if name not in allowed]
    assert outside == [], f"{path.name} imports {outside}"


def test_a_third_party_import_is_caught():
    tree = ast.parse("import os\nfrom sympy.solvers import linprog\nfrom . import domains\n")
    assert [n for n in absolute_imports(tree) if n not in sys.stdlib_module_names] == ["sympy"]
