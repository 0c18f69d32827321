"""``tools/ab.py`` loads two trees side by side, finds a changed answer and
only a changed answer, and times them.

Each test runs a small slice of the tool's requests: golden cases and
error paths for the CLI, the cheapest slot of each command and domain kind
of a workload, and a sample of the library corpus.  A copy of ``src`` is
edited to give another answer, loaded under the change's package name, and
must differ on exactly the requests the test predicts.  The bench modules
are only imported, never changed.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import shutil
import sys
from pathlib import Path

import pytest

from toricap import (
    ConcaveToricDomain,
    ConvexToricDomain,
    capacity_at,
    diagonal_intersection,
)
from toricap.cli import run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USAGE = "usage: python3 tools/ab.py PARENT_SRC CHANGE_SRC SEED [WORKLOAD]"


def _tool():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trees(tool, parent: Path, change: Path) -> tuple:
    return tuple(tool.load_tree(str(src), name) for src, name in zip((parent, change), tool.NAMES))


def _differing(tool, trees: tuple, requests: list) -> list:
    return [request for request, _, _ in tool.compare(trees, requests)]


def _edited_copy(tmp_path, module: str, old: str, new: str, count: int) -> Path:
    """A copy of ``src`` whose ``toricap/<module>`` has each of its
    ``count`` occurrences of ``old`` replaced by ``new``."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "toricap" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == count
    path.write_text(text.replace(old, new), encoding="utf-8")
    return copy


def _cheapest(workloads, monkeypatch, workload: str) -> list:
    """The first, and cheapest, slot of each command and domain kind of the
    workload, which ``workloads.build`` then builds alone."""
    cheapest = {}
    for slot in workloads.WORKLOADS[workload]():
        cheapest.setdefault(slot[:2], slot)
    monkeypatch.setitem(workloads.WORKLOADS, workload, lambda: list(cheapest.values()))
    return list(cheapest)


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required"),
        ([str(SRC), str(SRC), "x"], "argument SEED: invalid int value: 'x'"),
        ([str(SRC), str(SRC), "7", "nosuch"], "argument WORKLOAD: invalid choice: 'nosuch'"),
        ([str(ROOT), str(SRC), "7"], "argument PARENT_SRC: no toricap/__init__.py in"),
        ([str(SRC), str(ROOT / "tools"), "7"], "argument CHANGE_SRC: no toricap/__init__.py in"),
    ],
    ids=["no_arguments", "seed", "workload", "parent_src", "change_src"],
)
def test_bad_arguments_exit_2_with_the_usage_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        _tool().main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(USAGE + "\n") and message in err


def test_the_workloads_are_those_of_the_benchmark_and_imported_once(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    path = list(sys.path)
    tool = _tool()
    assert sys.path == path and sys.dont_write_bytecode is False
    assert tool.workload_names() == ["spectrum", "lattice_sweep", "single_query"]
    assert Path(tool.workloads.__file__) == ROOT / "bench" / "workloads.py"


def test_compare_finds_one_edited_output_string(tmp_path):
    tool = _tool()
    cases = tool.golden_cases()
    argvs = [
        cases["caps_polydisk"] + ["--format", "table"],
        cases["caps_polydisk"] + ["--format", "csv"],
        cases["cube_polydisk"] + ["--format", "json"],
    ]
    assert tool.compare(_trees(tool, SRC, SRC), argvs) == []

    header = 'f"domain: {domain}\\n" + _format_table'  # the caps table's first line
    copy = _edited_copy(tmp_path, "cli.py", header, header.replace("domain", "Domain", 1), 1)
    assert _differing(tool, _trees(tool, SRC, copy), argvs) == [argvs[0]]


def test_compare_finds_an_edited_error_prefix(tmp_path):
    """Only stderr differs, and only where ``cli.run`` prints its own error:
    the argvs that exit 1, not argparse's usage errors (exit 2)."""
    tool = _tool()
    argvs = tool.error_argvs(str(tmp_path / "specs"))
    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(run(argv))
    failing = [argv for argv, code in zip(argvs, codes) if code == 1]
    assert failing and set(codes) == {1, 2}

    copy = _edited_copy(tmp_path, "cli.py", '"toricap: error:', '"toricap: ERROR:', 3)
    trees = _trees(tool, SRC, copy)
    assert _differing(tool, trees, argvs) == failing
    for _, (code, out, err), (edited_code, edited_out, edited_err) in tool.compare(trees, failing):
        assert (code, out) == (edited_code, edited_out) and err != edited_err


def test_the_oracle_is_memoized_only_while_compared(tmp_path):
    """The three formats of an ``--oracle`` argv ask each tree's oracle
    each k once, and each tree has its own oracle back afterwards."""
    tool = _tool()
    spec = tmp_path / "e.json"
    spec.write_text('{"type": "ellipsoid", "a": ["1", "3/2"]}', encoding="utf-8")
    argvs = tool._in_every_format(["caps", "-d", str(spec), "-k", "5", "--oracle"])
    trees = _trees(tool, SRC, SRC)
    asked, counting = [], []
    for tree in trees:
        def count(domain, k, cap, oracle=tree.cli.brute_capacity, name=tree.__name__):
            asked.append((name, k))
            return oracle(domain, k, cap)

        tree.cli.brute_capacity = count
        counting.append(count)
    assert tool.compare(trees, argvs) == []
    assert sorted(asked) == sorted((name, k) for name in tool.NAMES for k in range(1, 6))
    assert [tree.cli.brute_capacity for tree in trees] == counting


def test_an_exception_names_the_tree_and_the_argv(tmp_path):
    tool = _tool()
    argv = tool.golden_cases()["cube_polydisk"]
    parse = "    parser = build_parser()\n"
    copy = _edited_copy(tmp_path, "cli.py", parse, "    raise KeyError(0)\n", 1)
    with pytest.raises(RuntimeError, match=r"toricap_change \(.*\) raised on cube "):
        tool.compare(_trees(tool, SRC, copy), [argv])


def test_src_against_itself_gives_identical_outputs(monkeypatch, tmp_path):
    pytest.importorskip("sympy")  # bench/reference.py solves the diagonal with it
    tool = _tool()
    cheapest = _cheapest(tool.workloads, monkeypatch, "single_query")
    trees = _trees(tool, SRC, SRC)
    assert trees[0] is not trees[1] and trees[0].cli is not trees[1].cli
    requests = tool.workloads.build("single_query", 1, str(tmp_path))
    assert len(requests) == len(cheapest)
    assert tool.compare(trees, requests) == []

    parent, change = tool.medians(trees, requests, 1)
    assert len(parent) == len(change) == len(requests)
    lines = tool.report(requests, parent, change).splitlines()

    # a tree whose gromov prints another value differs on those requests
    call = "gromov_width(_gromov_domain(d))"
    edited = _edited_copy(tmp_path, "cli.py", call, f"2 * {call}", 1)
    trees = (trees[0], tool.load_tree(str(edited), tool.NAMES[1]))
    assert _differing(tool, trees, requests) == [r for r in requests if ":gromov:" in r.name]
    assert [line.split()[0] for line in lines[1:4]] == ["p50", "p90", "sum"]
    assert {" ".join(line.split()[:2]) for line in lines[4:]} == {
        f"{command} {kind}" for command, kind in cheapest
    }


def test_a_changed_product_differs_on_exactly_the_product_slots(monkeypatch, tmp_path):
    tool = _tool()
    _cheapest(tool.workloads, monkeypatch, "spectrum")
    slots = tool.workloads.build("spectrum", 1, str(tmp_path / "specs"))
    products = [slot for slot in slots if slot.argv is None]
    assert products and len(products) < len(slots)
    assert tool.compare(_trees(tool, SRC, SRC), slots) == []

    records = "values=_records(denom, values, None"
    one_more = records.replace("values, None", "[values[0] + 1, *values[1:]], None")
    copy = _edited_copy(tmp_path, "capacities.py", records, one_more, 1)
    differ = tool.compare(_trees(tool, SRC, copy), slots)
    assert [slot for slot, _, _ in differ] == products
    for _, values, edited in differ:
        assert edited[0] > values[0] and edited[1:] == values[1:]


def test_the_corpus_holds_its_three_parts():
    tool = _tool()
    regions = tool.corpus(7)
    small, wide, deep = regions[:-44], regions[-44:-4], regions[-4:]
    assert len(small) == 6 * tool.SMALL_REGIONS and sum(r.kmax for r in small) >= 30_000
    assert {len(r.points[0]) for r in small} == set(range(1, 7))
    assert {r.shape for r in small} == {"hull", "staircase"}
    assert all(r.kmax == 10 and 10 <= len(r.points[0]) <= 40 for r in wide)
    assert [(r.shape, len(r.points[0]), r.kmax) for r in deep] == [
        ("hull", 8, 40), ("staircase", 8, 40), ("hull", 12, 24), ("staircase", 12, 24)
    ]
    coordinates = [c for r in small for p in r.points for c in p]
    assert 0.2 < coordinates.count(0) / len(coordinates) < 0.3
    assert any(len(set(r.points)) < len(r.points) for r in small)  # duplicated points
    assert tool.corpus(7) == regions and tool.corpus(8)[:-44] != small


def test_reversed_staircase_witnesses_differ_on_exactly_the_predicted_regions(tmp_path):
    tool = _tool()
    regions = tool.corpus(7)[: 6 * tool.SMALL_REGIONS : 33]  # five per n
    trees = _trees(tool, SRC, SRC)
    kinds = {"hull": ConvexToricDomain, "staircase": ConcaveToricDomain}
    expected = []
    for region in regions:
        domain = kinds[region.shape](region.points)
        results = [capacity_at(domain, k) for k in range(1, region.kmax + 1)]
        answers = [(r.value, r.witness, r.branch.value) for r in results]
        expected.append((answers, diagonal_intersection(domain)))
    assert [tool.call(trees[0], region) for region in regions] == expected
    assert tool.compare(trees, regions) == []

    # the regions with a staircase witness that is no palindrome
    predicted = [
        region for region, (answers, _) in zip(regions, expected)
        if region.shape == "staircase" and any(w != w[::-1] for _, w, _ in answers)
    ]
    assert 0 < len(predicted) < sum(region.shape == "staircase" for region in regions)

    witness = "tuple(e + 1 for e in witness)"
    reversed_ = witness.replace("witness)", "witness[::-1])")
    copy = _edited_copy(tmp_path, "capacities.py", witness, reversed_, 1)
    differ = tool.compare(_trees(tool, SRC, copy), regions)
    assert [region for region, _, _ in differ] == predicted
    for _, (answers, diagonal), (edited, edited_diagonal) in differ:
        assert diagonal == edited_diagonal
        assert [(value, w[::-1], branch) for value, w, branch in answers] == edited
