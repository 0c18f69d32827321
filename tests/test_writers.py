"""The table, CSV and JSON writers against slow references.

``cli._format_table`` pads each column once and joins each row,
``cli._render`` joins each CSV row's fields by commas, and ``cli._json``
writes each list of row objects from one template.  Every golden case and a
seeded corpus of CLI requests is checked against the slow formulas those
writers must match byte for byte: the per-cell ``ljust`` join of the rows
for tables, ``csv.writer`` of the rows ``csv.reader`` parses back for CSV,
and ``json.dumps(..., indent=2)`` of the parsed output for JSON.  The value
columns that ``cli._rational_column`` and ``cli._decimal_column`` write a
residue class at a time must equal ``format_rational`` and
``decimal_string`` value by value, on named edges and seeded ranges.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

import pytest

import toricap.cli as cli
from helpers import random_axes, random_concave, random_convex
from test_golden import CASES, golden_argv
from toricap import (
    Cube,
    CylinderUnion,
    Ellipsoid,
    Polydisk,
    capacity_sequence,
    decimal_string,
    format_rational,
    load_domain,
    obstruct,
    render_domain,
    scale_domain,
)

KINDS = ("ellipsoid", "polydisk", "cube", "cylinder_union", "convex", "concave")
SEARCHED_KMAX = 12  # the searched kinds stay small; the closed forms run to 150
ORACLE_KMAX = 20  # the oracle enumerates compositions: only short sequences are cheap


def reference_table(rows):
    """The per-cell ``ljust`` join that ``cli._format_table`` replaced."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in rows
    )


def _random_domain(rng: random.Random, kind: str, n: int):
    if kind == "ellipsoid":
        axes = list(random_axes(rng, n))
        if n > 1 and rng.random() < 0.5:
            axes[rng.randrange(n)] = "inf"
        return Ellipsoid(axes)
    if kind == "polydisk":
        return Polydisk(random_axes(rng, n))
    if kind in ("cube", "cylinder_union"):
        delta = Fraction(rng.randint(1, 40), rng.randint(1, 7))
        return (Cube if kind == "cube" else CylinderUnion)(n, delta)
    if kind == "convex":
        return random_convex(rng, n=n, max_points=4)
    return random_concave(rng, n=n, max_points=4)


def _kmax_cap(*kinds: str) -> int:
    return SEARCHED_KMAX if {"convex", "concave"} & set(kinds) else 150


def _corpus() -> dict[str, list]:
    """Case name -> argv whose domain entries are domain values, not files.

    Each kind runs at K = 1 and at its largest K before the random draws."""
    rng = random.Random(1309)
    cases = {}
    for i in range(30):
        kind = KINDS[i % len(KINDS)]
        domain = _random_domain(rng, kind, rng.randint(1, 3))
        kmax = (1, _kmax_cap(kind))[i // 6] if i < 12 else rng.randint(1, _kmax_cap(kind))
        argv = ["caps", "--domain", domain, "--kmax", str(kmax)]
        cases[f"caps-{i}-{kind}-k{kmax}"] = argv
        if kmax <= ORACLE_KMAX:
            cases[f"caps-{i}-{kind}-k{kmax}-oracle"] = argv + ["--oracle"]
    for i in range(12):
        n = rng.randint(1, 3)
        kinds = (KINDS[i % len(KINDS)], KINDS[(i + 3) % len(KINDS)])
        source = _random_domain(rng, kinds[0], n)
        # a target scaled down from the source violates at k = 1; scaled up it never does
        if i < 6:
            kinds = kinds[:1]
            target = scale_domain(source, Fraction(1, 2) if i % 2 else 2)
        else:
            target = _random_domain(rng, kinds[1], n)
        kmax = rng.randint(1, _kmax_cap(*kinds))
        cases[f"obstruct-{i}-{'-'.join(kinds)}-k{kmax}"] = [
            "obstruct", "--source", source, "--target", target, "--kmax", str(kmax)
        ]
    return cases


CORPUS = _corpus()


@pytest.fixture(params=[("golden", case) for case in sorted(CASES)]
                + [("corpus", case) for case in CORPUS], ids=lambda p: f"{p[0]}-{p[1]}")
def request_argv(request, tmp_path):
    """An argv without ``--format``, its domain specs written to files."""
    source, case = request.param
    if source == "golden":
        return golden_argv(case, "table")[:-2]
    argv = []
    for i, arg in enumerate(CORPUS[case]):
        if not isinstance(arg, str):
            path = tmp_path / f"spec{i}.json"
            path.write_text(render_domain(arg), encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    return argv


def _run(argv, capsys) -> str:
    assert cli.run(argv) == 0, capsys.readouterr().err
    return capsys.readouterr().out


def test_json_is_what_json_dumps_prints(request_argv, capsys):
    out = _run(request_argv + ["--format", "json"], capsys)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_table_is_the_ljust_join(request_argv, capsys, monkeypatch):
    out = _run(request_argv + ["--format", "table"], capsys)
    monkeypatch.setattr(
        cli, "_format_table", lambda header, columns: reference_table([header, *zip(*columns)])
    )
    assert out == _run(request_argv + ["--format", "table"], capsys)


def test_csv_is_what_csv_writer_writes(request_argv, capsys):
    out = _run(request_argv + ["--format", "csv"], capsys)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(out)))
    assert out == buf.getvalue()


def test_corpus_covers_both_obstruct_outcomes():
    outcomes = {
        obstruct(argv[2], argv[4], int(argv[6])).first_violation is None
        for argv in CORPUS.values()
        if argv[0] == "obstruct"
    }
    assert outcomes == {True, False}


def test_long_caps_json_encodes_rows_without_json_dumps(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "e.json"
    spec.write_text('{"type": "ellipsoid", "a": ["1", "3/2", "inf"]}', encoding="utf-8")
    calls = []
    dumps = json.dumps

    def counting_dumps(obj, **kwargs):
        calls.append(obj)
        return dumps(obj, **kwargs)

    # the rows must not reach the pure-Python encoder that indent= selects
    monkeypatch.setattr(cli.json, "dumps", counting_dumps)
    out = _run(["caps", "--domain", str(spec), "-k", "500", "--format", "json"], capsys)
    assert len(json.loads(out)["capacities"]) == 500
    assert len(calls) <= 1 and all("capacities" not in head for head in calls)


def _random_column(rng: random.Random, length: int) -> list:
    """Values of the kinds a report's columns hold: all of one kind, or mixed."""
    text = ["", "a", "é", "√2", 'say "hi"', "back\\slash", "tab\t", "\u2028", "😀", "ASCII",
            "\x7f"]
    plain = ["", "a", "3/2", "-1.25", "ConvexSearch", "x y", "~", "%s", "100%"]
    kinds = {
        "str": lambda: rng.choice(text) + str(rng.randint(0, 99)),
        "plain": lambda: rng.choice(plain) + str(rng.randint(0, 99)),
        "int": lambda: rng.choice((0, -1, 1, 10**25, -(10**30))) + rng.randint(0, 9),
        "none": lambda: None,
        "tuple": lambda: tuple(rng.randint(0, 10**6) for _ in range(rng.randint(1, 4))),
    }
    pool = rng.sample(sorted(kinds), rng.randint(1, len(kinds)))
    return [kinds[rng.choice(pool)]() for _ in range(length)]


def test_json_columns_are_what_json_dumps_prints():
    rng = random.Random(1411)
    for _ in range(200):
        width, length = rng.randint(1, 6), rng.randint(1, 12)
        fields = [f"f{i}" for i in range(width)]
        columns = [_random_column(rng, length) for _ in range(width)]
        head = {"domain": {"type": "é", "a": ["1", "3/2"]}, "kmax": length, "note": None}
        rows = [dict(zip(fields, row)) for row in zip(*columns)]
        expected = json.dumps({**head, "rows": rows}, indent=2) + "\n"
        assert cli._json(head, "rows", fields, columns) == expected


# (values, denom) of the value columns' named edge cases
COLUMN_EDGES = {
    "starts_below_1_and_crosses_10": (range(2, 82), 7),
    "a_class_crosses_10_5": (range(7 * 10**5 - 60, 7 * 10**5 + 200, 3), 7),
    "crosses_10_19": (range(3 * 10**19 - 40, 3 * 10**19 + 80), 3),
    "past_10_19": (range(10**25, 10**25 + 700, 7), 3),
    "carry_at_width_19": (range(40 * 10**18 + 39, 40 * 10**18 + 840, 40), 40),  # .975 -> 1.0
    "carry_at_width_18": (range(200 * 10**17 + 199, 200 * 10**17 + 4200, 200), 200),  # .995
    "denom_past_k": (range(5, 95, 3), 10**6 + 3),
    "one_value": (range(17, 18), 7),
    "one_zero": (range(0, 1), 1),
    "empty": (range(0), 7),
    "a_list": ([1, 5, 9, 30, 30, 71], 7),
}
# the cases ``cli._classes`` gives no classes: rendered value by value
ONE_BY_ONE = {"denom_past_k", "one_value", "one_zero", "empty", "a_list"}


def _columns(values, denom) -> tuple[list, list]:
    return cli._rational_column(values, denom), cli._decimal_column(values, denom)


def _per_value(values, denom) -> tuple[list, list]:
    return (
        [format_rational(x, denom) for x in values],
        [decimal_string(x, 20, denom) for x in values],
    )


@pytest.mark.parametrize("name", COLUMN_EDGES)
def test_value_columns_are_the_renderers_on_edges(name):
    values, denom = COLUMN_EDGES[name]
    assert (cli._classes(values, denom) is None) == (name in ONE_BY_ONE)
    assert _columns(values, denom) == _per_value(values, denom)


def test_value_columns_are_the_renderers_on_seeded_ranges():
    rng = random.Random(2803)
    by_class = 0
    for _ in range(3000):
        denom = rng.choice((1, 2, 3, 6, 7, 10, 40, 200, rng.randint(1, 10 ** rng.randint(1, 22))))
        step = rng.choice((1, rng.randint(1, 50), rng.randint(1, denom), 10 ** rng.randint(1, 22)))
        start = max(0, rng.choice((
            rng.randint(0, 3 * denom),
            10 ** rng.randint(0, 20) * denom - rng.randint(0, 8 * step),  # a width boundary
            (10 ** rng.randint(0, 20) + 1) * denom - rng.randint(1, 2),  # a carry, for some
            rng.randint(0, 10**24),
        )))
        values = range(start, start + rng.randint(1, 80) * step, step)
        by_class += cli._classes(values, denom) is not None
        assert _columns(values, denom) == _per_value(values, denom), (values, denom)
    assert by_class > 1000


CAPS_CASES = [("golden", case) for case in sorted(CASES) if CASES[case][0] == "caps"] + [
    ("corpus", case) for case in CORPUS if CORPUS[case][0] == "caps"
]


def _record_rows(domain, kmax):
    """The reference for a caps report: the public records of
    ``capacity_sequence``, rendered by the formatters from their Fractions."""
    return [
        (str(r.k), format_rational(r.value), decimal_string(r.value),
         "" if r.witness is None else ";".join(map(str, r.witness)), r.branch.value)
        for r in capacity_sequence(domain, kmax).values
    ]


def _report_rows(out, fmt):
    """(k, rational, decimal, witness, branch) of each row of a caps report."""
    if fmt == "json":
        return [
            (str(r["k"]), r["value"], r["decimal"], ";".join(map(str, r["witness"] or ())),
             r["branch"])
            for r in json.loads(out)["capacities"]
        ]
    if fmt == "csv":
        return [tuple(row[:5]) for row in list(csv.reader(io.StringIO(out)))[1:]]
    header, *lines = out.splitlines()[1:]  # below the domain line
    starts = [header.index(name) for name in header.split()]
    bounds = list(zip(starts, starts[1:] + [None]))[:5]
    return [tuple(line[a:b].strip() for a, b in bounds) for line in lines]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("source, case", CAPS_CASES, ids=lambda v: v)
def test_caps_rows_are_the_records(source, case, fmt, tmp_path, capsys):
    # the CLI formats integers over one denominator; the records are Fractions
    if source == "golden":
        argv = golden_argv(case, fmt)
        domain = load_domain(argv[2])
    else:
        domain = CORPUS[case][2]
        path = tmp_path / "spec.json"
        path.write_text(render_domain(domain), encoding="utf-8")
        argv = [*CORPUS[case][:2], str(path), *CORPUS[case][3:], "--format", fmt]
    kmax = int(argv[argv.index("--kmax") + 1])
    assert _report_rows(_run(argv, capsys), fmt) == _record_rows(domain, kmax)
