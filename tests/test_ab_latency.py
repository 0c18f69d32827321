"""``tools/ab_latency.py`` loads two trees side by side and times them.

The smoke test loads ``src`` twice, under the tool's two package names, on
the cheapest request of each command and domain kind of ``single_query``:
the two copies must give identical outputs, the report must time every
request on both, and a copy edited to print another value, loaded again
under the change's package name, must differ on exactly the requests that
print it.  The bench modules are only imported, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("ab_latency", ROOT / "tools" / "ab_latency.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_against_itself_gives_identical_outputs(monkeypatch, tmp_path):
    pytest.importorskip("sympy")  # bench/reference.py solves the diagonal with it
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    workloads = importlib.import_module("workloads")
    cheapest = {}
    for slot in workloads.WORKLOADS["single_query"]():
        cheapest.setdefault(slot[:2], slot)
    monkeypatch.setitem(workloads.WORKLOADS, "single_query", lambda: list(cheapest.values()))
    tool = _tool()
    trees = tuple(tool.load_tree(str(ROOT / "src"), name) for name in tool.NAMES)
    assert trees[0] is not trees[1] and trees[0].cli is not trees[1].cli
    requests = tool.requests_of("single_query", 1, str(tmp_path))
    assert len(requests) == len(cheapest)
    assert tool.differing(trees, requests) == []

    parent, change = tool.medians(trees, requests, 1)
    assert len(parent) == len(change) == len(requests)
    lines = tool.report(requests, parent, change).splitlines()

    # a tree whose gromov prints another value differs on those requests
    edited = tmp_path / "edited"
    shutil.copytree(ROOT / "src", edited, ignore=shutil.ignore_patterns("__pycache__"))
    cli = edited / "toricap" / "cli.py"
    call = "gromov_width(_gromov_domain(d))"
    text = cli.read_text(encoding="utf-8")
    assert text.count(call) == 1
    cli.write_text(text.replace(call, f"2 * {call}"), encoding="utf-8")
    trees = (trees[0], tool.load_tree(str(edited), tool.NAMES[1]))
    assert tool.differing(trees, requests) == [r.name for r in requests if ":gromov:" in r.name]
    assert [line.split()[0] for line in lines[1:4]] == ["p50", "p90", "sum"]
    assert {" ".join(line.split()[:2]) for line in lines[4:]} == {
        f"{command} {kind}" for command, kind in cheapest
    }
