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

import toricap
from toricap import (
    ConcaveToricDomain,
    ConvexToricDomain,
    capacity_at,
    capacity_sequence,
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


def test_the_build_leaves_out_only_the_expected_answers(monkeypatch, tmp_path):
    tool = _tool()
    workloads, expected = tool.workloads, tool.workloads._expected

    def fields(requests):
        return [(r.name, r.argv, r.specs, r.paths, r.kmax) for r in requests]

    built = tool.build("spectrum", 7, str(tmp_path))
    assert workloads._expected is expected
    assert {r.expected for r in built} == {None}
    assert fields(built) == fields(workloads.build("spectrum", 7, str(tmp_path)))

    def failing():
        assert workloads._expected is not expected  # stubbed while the build runs
        raise KeyError("slots")

    monkeypatch.setitem(workloads.WORKLOADS, "spectrum", failing)
    with pytest.raises(KeyError, match="slots"):
        tool.build("spectrum", 7, str(tmp_path))
    assert workloads._expected is expected


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


def test_the_usage_argvs_end_in_help_or_a_usage_error(tmp_path):
    """The 20 ``usage_argvs`` are compared as they are: those asking for
    help exit 0 and print it, the others exit 2 with only a usage error.
    Leftover arguments reported by a subcommand's parser, not the top-level
    one, differ on exactly the three argvs that leave some."""
    tool = _tool()
    argvs = tool.usage_argvs()
    assert len(argvs) == 20
    requests = tool.comparisons([], 7, str(tmp_path))
    assert all(argv in requests for argv in argvs)
    trees = _trees(tool, SRC, SRC)
    helps = [argv for argv in argvs if {"-h", "--help"} & set(argv)]
    assert len(helps) == 8
    for argv in argvs:
        code, out, err = tool.call(trees[0], argv)
        expected = (0, True, False) if argv in helps else (2, False, True)
        assert (code, bool(out), bool(err)) == expected, argv
    assert tool.compare(trees, argvs) == []

    leftover = "parser.error(f\"unrecognized arguments:"
    copy = _edited_copy(tmp_path, "cli.py", leftover, leftover.replace("parser", "command"), 1)
    assert [argv[0] for argv in _differing(tool, _trees(tool, SRC, copy), argvs)] == [
        "cube", "gromov", "slope"
    ]


def test_the_edge_argvs_succeed_and_a_dropped_carry_check_shows_on_one(tmp_path):
    """The closed forms of ``edge_argvs``, 7 ``caps`` and 3 ``obstruct``
    requests, exit 0 in all three formats; a decimal column that takes a
    tail rounded up into its integer part differs on exactly the ``caps``
    argvs of the spec whose values carry."""
    tool = _tool()
    edges = tool.edge_argvs(str(tmp_path / "edges"))
    assert [argv[0] for argv in edges] == ["caps"] * 7 + ["obstruct"] * 3
    argvs = [a for argv in edges for a in tool._in_every_format(argv)]
    trees = _trees(tool, SRC, SRC)
    assert [tool.call(trees[0], argv)[::2] for argv in argvs] == [(0, "")] * 30
    assert tool.compare(trees, argvs) == []

    carry = "if integer == str(head) else None"
    copy = _edited_copy(tmp_path, "cli.py", carry, "if integer else None", 1)
    carried = [argv for argv in argvs if argv[0] == "caps" and "cube_carry" in argv[2]]
    assert len(carried) == 3
    assert _differing(tool, _trees(tool, SRC, copy), argvs) == carried


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
        def count(domain, k, cap, oracle=tree.oracle.brute_capacity, name=tree.__name__):
            asked.append((name, k))
            return oracle(domain, k, cap)

        for module in tool.oracle_seams(tree):
            module.brute_capacity = count
        counting.append(count)
    assert tool.compare(trees, argvs) == []
    assert sorted(asked) == sorted((name, k) for name in tool.NAMES for k in range(1, 6))
    assert [tree.oracle.brute_capacity for tree in trees] == counting


def test_an_exception_names_the_tree_and_the_argv(tmp_path):
    tool = _tool()
    argv = tool.golden_cases()["cube_polydisk"]
    parse = "    parser, commands = _parsers()\n"
    copy = _edited_copy(tmp_path, "cli.py", parse, "    raise KeyError(0)\n", 1)
    with pytest.raises(RuntimeError, match=r"toricap_change \(.*\) raised on cube "):
        tool.compare(_trees(tool, SRC, copy), [argv])


def test_the_line_counts_give_the_net_change(tmp_path):
    tool = _tool()
    same = tool.line_counts((SRC, SRC))
    total = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in (SRC / "toricap").glob("*.py"))
    assert same == f"src/toricap lines: parent {total}, change {total}, net +0"
    parse = "    parser, commands = _parsers()\n"
    copy = _edited_copy(tmp_path, "cli.py", parse, "", 1)
    assert tool.line_counts((SRC, copy)).endswith(f"change {total - 1}, net -1")
    assert tool.line_counts((copy, SRC)).endswith("net +1")


def test_src_against_itself_gives_identical_outputs(monkeypatch, tmp_path):
    tool = _tool()
    cheapest = _cheapest(tool.workloads, monkeypatch, "single_query")
    trees = _trees(tool, SRC, SRC)
    assert trees[0] is not trees[1] and trees[0].cli is not trees[1].cli
    requests = tool.build("single_query", 1, str(tmp_path))
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
    slots = tool.build("spectrum", 1, str(tmp_path / "specs"))
    products = [slot for slot in slots if slot.argv is None]
    assert products and len(products) < len(slots)
    assert tool.compare(_trees(tool, SRC, SRC), slots) == []

    records = "domain=label, _scaled=(denom, values)"  # where the product is built
    one_more = records.replace("values)", "[values[0] + 1, *values[1:]])")
    copy = _edited_copy(tmp_path, "capacities.py", records, one_more, 1)
    differ = tool.compare(_trees(tool, SRC, copy), slots)
    assert [slot for slot, _, _ in differ] == products
    for _, values, edited in differ:
        assert edited[0] > values[0] and edited[1:] == values[1:]


def _convex(values) -> bool:
    steps = [b - a for a, b in zip([0, *values], values)]
    return all(a <= b for a, b in zip(steps, steps[1:]))


def _linear(values) -> bool:
    return all(v == k * values[0] for k, v in enumerate(values, 1))


def _factor_sequences(pair) -> list:
    """c_1 .. c_K of each factor of a product pair, built in this package."""
    return [
        capacity_sequence(getattr(toricap, f.kind)(*f.args), pair.kmax).raw_values()
        for f in (pair.left, pair.right)
    ]


def _every_convex_factor_is_linear(pairs) -> None:
    """So the pairs on the linear path are those the convex path took."""
    for pair in pairs:
        for values in _factor_sequences(pair):
            assert _convex(values) == _linear(values), (pair, values)


def test_the_product_pairs_take_both_min_plus_paths():
    tool = _tool()
    pairs = tool.products(7)
    assert len(pairs) == tool.PRODUCTS and tool.products(7) == pairs != tool.products(8)
    assert all(1 <= pair.kmax <= 60 for pair in pairs)
    kinds = {f.kind for pair in pairs for f in (pair.left, pair.right)}
    assert kinds == set(tool.FACTOR_KINDS)
    _every_convex_factor_is_linear(pairs)
    paths = {tuple(map(_linear, _factor_sequences(pair))) for pair in pairs}
    assert paths == {(True, True), (True, False), (False, True), (False, False)}


def test_a_changed_convex_min_plus_differs_on_exactly_the_convex_pairs(tmp_path):
    tool = _tool()
    pairs = tool.products(7)
    assert tool.compare(_trees(tool, SRC, SRC), pairs) == []
    _every_convex_factor_is_linear(pairs)
    predicted = [pair for pair in pairs if any(map(_linear, _factor_sequences(pair)))]
    assert 0 < len(predicted) < len(pairs)

    row = "k * step + low for k, low"  # on the linear path only
    copy = _edited_copy(tmp_path, "capacities.py", row, row.replace("low", "low + 1", 1), 1)
    assert _differing(tool, _trees(tool, SRC, copy), pairs) == predicted


def _one_n(pair) -> bool:
    left, right = (getattr(toricap, f.kind)(*f.args) for f in (pair.left, pair.right))
    return left.n == right.n


def test_an_edited_obstruct_row_differs_on_exactly_the_pairs_of_one_n(tmp_path):
    """A pair's factors of one n are also compared on ``obstruct``; its
    rows' k column starting at 2 shows there and nowhere else, and leaves
    the first violation as it is."""
    tool = _tool()
    pairs = tool.products(7)
    predicted = [pair for pair in pairs if _one_n(pair)]
    assert 0 < len(predicted) < len(pairs)

    rows = "tuple(zip(count(1), *(side.raw_values() for side in self._sides)))"
    copy = _edited_copy(tmp_path, "embeddings.py", rows, rows.replace("1", "2"), 1)
    differ = tool.compare(_trees(tool, SRC, copy), pairs)
    assert [pair for pair, _, _ in differ] == predicted
    for _, (label, records, (first, rows)), edited in differ:
        assert edited[:2] == (label, records) and edited[2][0] == first
        assert list(edited[2][1]) == [(k + 1, a, b) for k, a, b in rows]


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


def test_the_deep_probes_are_timed_alternately_on_both_trees(monkeypatch):
    """``deep_report`` on one tiny probe: each tree runs each region's
    sequence ``repeats`` times, the trees taking turns to go first, and the
    report gives each region's best seconds, their ratio and each tree's
    spread, its worst run over its best."""
    tool = _tool()
    assert tool.deep_probes() == tool.corpus(7)[-4:]
    monkeypatch.setattr(tool, "DEEP", ((3, 4),))
    trees = _trees(tool, SRC, SRC)
    runs = []
    for tree in trees:
        def counted(domain, kmax, sequence=tree.capacity_sequence, name=tree.__name__):
            runs.append((name, domain.shape, kmax))
            return sequence(domain, kmax)

        monkeypatch.setattr(tree, "capacity_sequence", counted)
    lines = tool.deep_report(trees, 2).splitlines()
    parent, change = tool.NAMES
    assert runs == [
        (change, "hull", 4), (parent, "hull", 4), (parent, "staircase", 4), (change, "staircase", 4),
        (parent, "hull", 4), (change, "hull", 4), (change, "staircase", 4), (parent, "staircase", 4),
    ]
    assert lines[0].split() == ["deep", "probe,", "best", "of", "2", "parent", "s", "change", "s",
                                "ratio", "parent", "spread", "change", "spread"]
    assert [line.split()[:3] for line in lines[1:]] == [
        ["hull", "n=3", "K=4"], ["staircase", "n=3", "K=4"]
    ]
    for line in lines[1:]:
        a, b, ratio, spread_a, spread_b = map(float, line.split()[3:])
        assert 0 <= a < 1 and 0 <= b < 1 and ratio > 0 and spread_a >= 1 and spread_b >= 1


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
        expected.append((answers, answers, diagonal_intersection(domain)))
    assert [tool.call(trees[0], region) for region in regions] == expected
    assert tool.compare(trees, regions) == []

    # the regions with a staircase witness that is no palindrome
    predicted = [
        region for region, (answers, _, _) in zip(regions, expected)
        if region.shape == "staircase" and any(w != w[::-1] for _, w, _ in answers)
    ]
    assert 0 < len(predicted) < sum(region.shape == "staircase" for region in regions)

    # reversed where the search's run lifts a witness, the one site that
    # both the cold search and the sequence's run pass, so both
    # comparisons see it
    witness = "tuple(e + 1 for e in witness)"
    reversed_ = witness.replace("witness)", "witness[::-1])")
    copy = _edited_copy(tmp_path, "capacities.py", witness, reversed_, 1)
    differ = tool.compare(_trees(tool, SRC, copy), regions)
    assert [region for region, _, _ in differ] == predicted
    for _, (answers, sequence, diagonal), (*edited, edited_diagonal) in differ:
        assert diagonal == edited_diagonal and sequence == answers
        assert [[(value, w[::-1], branch) for value, w, branch in answers]] * 2 == edited
