"""Compare two source trees of toricap: their answers, then their speed.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC SEED [WORKLOAD]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``toricap`` package.  Both are loaded into this one process, under the
package names ``toricap_parent`` and ``toricap_change``, and every request
below runs on both in turn through ``call``; their answers must be equal.

* CLI argvs, each but the usage argvs in all three formats: every CLI
  request at SEED of the workloads ``BENCHMARK.json`` names, read from
  ``build``;
  each ``caps`` one again with ``--oracle`` at K = min(K, 20); the golden
  cases of ``tests/test_golden.py``; the closed forms with large
  numerators and denominators of ``edge_argvs``; and the error paths of
  ``error_argvs``; then, as they are, the help and argparse usage errors
  of ``usage_argvs``.  The answer is the exit code, stdout and stderr.
* The workloads' library ``product`` slots, run as ``bench/run.py`` runs
  them: the values of ``product_capacities``.
* The seeded product pairs of ``products``: the label and each record
  (k, value, witness, branch) of ``product_capacities``, and, for factors
  of one n, the first violation and the rows of ``obstruct``.
* The library corpus of ``corpus``: for each hull or staircase region,
  built in each tree from plain ``Fraction`` data, the value, witness and
  branch of ``capacity_at`` for each k = 1..K and of each record of
  ``capacity_sequence`` up to K, and ``diagonal_intersection``.

The script prints the counts, each tree's ``toricap`` line count with the
change's net difference (``line_counts``), and every request that
differs, with both trees' stderr where that differs, and exits 1 if any
does; an exception out of a tree stops it, naming the tree and the
request.  While the answers are compared, each tree's brute-force oracle
is memoized, as the three formats of an ``--oracle`` argv ask it the same
values; it is restored before any timing.  Only when WORKLOAD is named and nothing
differs does it time that workload's requests: each runs REPEATS times on
each tree, the trees alternating request by request and taking turns to
go first, so a drift in the machine's speed falls on both alike.  It then
prints the p50 and p90 over requests of each request's median time, the
sum of those medians, and that sum per command and domain kind, each with
the change's ratio to the parent.  Last, it times ``capacity_sequence`` on
the corpus's four deep probes, best of DEEP_REPEATS on each tree, the trees
alternating (``deep_report``), and prints each one's seconds and ratio,
and each tree's spread over its runs.
Bad arguments exit 2 with the usage line.

The script's own imports are the standard library's.  It never reads the
workloads' expected answers, so ``build`` leaves out ``bench/reference.py``
(exhaustive enumeration, and sympy for the diagonal): nothing here needs
sympy.  The bench files are only read, and get no bytecode.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import importlib.util
import io
import json
import os
import random
import statistics
import sys
import tempfile
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))  # workloads imports bench/reference.py by name
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as it is
import workloads  # noqa: E402

sys.dont_write_bytecode = _write_bytecode
sys.path.remove(str(ROOT / "bench"))

NAMES = ("toricap_parent", "toricap_change")
FORMATS = ("table", "csv", "json")
ORACLE_KMAX = 20
REPEATS = 21


class Factor(NamedTuple):
    """A factor of a product pair: a domain class the package exports, by
    name, and its arguments."""

    kind: str
    args: tuple


class Product(NamedTuple):
    """A product pair, compared on ``product_capacities`` up to kmax."""

    left: Factor
    right: Factor
    kmax: int


class Region(NamedTuple):
    """A region of the library corpus, compared for k = 1..kmax."""

    shape: str  # "hull" or "staircase"
    points: tuple[tuple[Fraction, ...], ...]
    kmax: int


# The searched K of the corpus's small regions for n = 1..6: 165 regions
# per n give 30,360 searches.
SMALL_KMAX = (40, 40, 40, 30, 20, 14)
SMALL_REGIONS = 165


def _points(rng: random.Random, n: int, m: int, top: int, bottom: int) -> tuple:
    """m points of n coordinates p/q, with 1 <= p <= top and 1 <= q <= bottom."""
    return tuple(
        tuple(Fraction(rng.randint(1, top), rng.randint(1, bottom)) for _ in range(n))
        for _ in range(m)
    )


def corpus(seed: int) -> list[Region]:
    """The library corpus, in three parts:

    * per n = 1..6, SMALL_REGIONS hulls or staircases drawn from ``seed``,
      of 1 to 6 points p/q (p <= 8, q <= 6; a quarter of the coordinates
      0) plus up to two duplicated points, K from SMALL_KMAX;
    * 40 wide regions of ``random.Random(1040)``, n 10-40 and 2-6 points
      (p <= 8, q <= 6), hulls and staircases in turn, K = 10;
    * the four deep probes of ``deep_probes``.
    """
    rng = random.Random(f"ab:{seed}")

    def coordinate() -> Fraction:
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(1, 8), rng.randint(1, 6))

    regions = []
    for n, kmax in enumerate(SMALL_KMAX, 1):
        for _ in range(SMALL_REGIONS):
            points = [tuple(coordinate() for _ in range(n)) for _ in range(rng.randint(1, 6))]
            points += rng.choices(points, k=rng.randint(0, 2))
            rng.shuffle(points)
            regions.append(Region(rng.choice(("hull", "staircase")), tuple(points), kmax))
    wide = random.Random(1040)
    for i in range(40):
        n, m = wide.randint(10, 40), wide.randint(2, 6)
        regions.append(Region(("hull", "staircase")[i % 2], _points(wide, n, m, 8, 6), 10))
    return regions + deep_probes()


# The deep probes' (n, K), and the runs of each that ``deep_report`` takes
# the best of.
DEEP = ((8, 40), (12, 24))
DEEP_REPEATS = 3


def deep_probes() -> list[Region]:
    """For each (n, K) of DEEP, 12 points (p <= 12, q <= 4) of
    ``random.Random(100 n + 12)`` as a hull and as a staircase, up to K."""
    regions = []
    for n, kmax in DEEP:
        points = _points(random.Random(100 * n + 12), n, 12, 12, 4)
        regions += [Region(shape, points, kmax) for shape in ("hull", "staircase")]
    return regions


# Product pairs per seed, and the domain classes their factors take, by
# name: a polydisk, a cube and a disk are linear sequences (c_k = k * c_1,
# the min-plus's fast path), and the others mostly are not.
PRODUCTS = 120
FACTOR_KINDS = ("Ellipsoid", "Polydisk", "Cube", "CylinderUnion",
                "ConvexToricDomain", "ConcaveToricDomain")


def products(seed: int) -> list[Product]:
    """PRODUCTS pairs drawn from ``seed``, K = 1..60: each factor of a kind
    of FACTOR_KINDS in n = 1..3 with numbers p/q (p <= 8, q <= 6), and a
    hull or staircase of 1 to 4 points."""
    rng = random.Random(f"ab-products:{seed}")

    def factor() -> Factor:
        kind, n = rng.choice(FACTOR_KINDS), rng.randint(1, 3)
        if kind in ("Ellipsoid", "Polydisk"):
            return Factor(kind, _points(rng, n, 1, 8, 6))
        if kind in ("Cube", "CylinderUnion"):
            return Factor(kind, (n, *_points(rng, 1, 1, 8, 6)[0]))
        return Factor(kind, (_points(rng, n, rng.randint(1, 4), 8, 6),))

    return [Product(factor(), factor(), rng.randint(1, 60)) for _ in range(PRODUCTS)]


def load_tree(src: str, name: str):
    """The ``toricap`` package of ``src``, imported as ``name`` with its
    submodules; its relative imports keep it apart from the other tree.
    Any ``name`` or ``name.*`` module loaded before is dropped first, so a
    name can be loaded again in one process."""
    for module in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[module]
    path = Path(src) / "toricap"
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def _text(value) -> str:
    return f"({', '.join(map(_text, value))})" if isinstance(value, tuple) else str(value)


def label(request) -> str:
    """A request as the report names it: an argv, a slot's name, a region,
    a product pair."""
    if isinstance(request, Region):
        return f"{request.shape} K={request.kmax} {' '.join(map(_text, request.points))}"
    if isinstance(request, Product):
        left, right = (f"{f.kind}{_text(f.args)}" for f in request[:2])
        return f"product K={request.kmax} {left} x {right}"
    return " ".join(request) if isinstance(request, list) else request.name


def call(tree, request) -> object:
    """One request on one tree: (exit code, stdout, stderr) of a CLI argv
    or of a workload's CLI request; the values of a workload's product;
    ``_pair`` of a product pair; (value, witness, branch) of each
    ``capacity_at`` of a region and of each record of its
    ``capacity_sequence``, and its diagonal.  An exception is raised again
    naming the tree and request."""
    try:
        if isinstance(request, Product):
            factors = [getattr(tree, f.kind)(*f.args) for f in request[:2]]
            return _pair(tree, factors, request.kmax)
        if isinstance(request, Region):
            domain = _domain(tree, request)
            runs = (
                [tree.capacity_at(domain, k) for k in range(1, request.kmax + 1)],
                tree.capacity_sequence(domain, request.kmax).values,
            )
            per_k, sequence = ([(r.value, r.witness, r.branch.value) for r in run] for run in runs)
            return per_k, sequence, tree.diagonal_intersection(domain)
        argv = request if isinstance(request, list) else request.argv
        if argv is None:
            return _product(tree, map(tree.load_domain, request.paths), request.kmax)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tree.cli.run(argv)
        return code, out.getvalue(), err.getvalue()
    except Exception as exc:
        where = f"{tree.__name__} ({tree.__path__[0]})"
        raise RuntimeError(f"{where} raised on {label(request)}") from exc


def _domain(tree, region: Region):
    kind = {"hull": tree.ConvexToricDomain, "staircase": tree.ConcaveToricDomain}
    return kind[region.shape](region.points)


def _product(tree, factors, kmax: int) -> list[Fraction]:
    left, right = (tree.capacity_sequence(domain, kmax) for domain in factors)
    return tree.product_capacities(left, right, kmax).raw_values()


def _pair(tree, factors: list, kmax: int) -> tuple:
    """(label, records, report) of a product pair: the ``domain`` label of
    its ``product_capacities`` and each record's (k, value, witness,
    branch), then (first violation, rows) of ``obstruct`` from the left
    factor into the right where both have one n, else None."""
    left, right = (tree.capacity_sequence(domain, kmax) for domain in factors)
    product = tree.product_capacities(left, right, kmax)
    records = [(r.k, r.value, r.witness, r.branch.value) for r in product.values]
    report = None
    if factors[0].n == factors[1].n:
        obstructed = tree.obstruct(*factors, kmax)
        report = obstructed.first_violation, obstructed.rows
    return product.domain, records, report


def oracle_seams(tree) -> list:
    """The modules of ``tree`` whose ``brute_capacity`` the CLI calls: its
    ``oracle``, and its ``cli`` where that binds the name at import, as
    older trees do."""
    return [module for module in (tree.oracle, tree.cli) if hasattr(module, "brute_capacity")]


@contextlib.contextmanager
def memoized_oracle(trees: tuple):
    """Each tree's ``brute_capacity`` memoized at each of its
    ``oracle_seams`` while the block runs and restored after it: the oracle
    is pure in (domain, k, cap), and each ``--oracle`` argv asks it the
    same questions in all three formats."""
    patched = []
    for tree in trees:
        memo = functools.cache(tree.oracle.brute_capacity)
        for module in oracle_seams(tree):
            patched.append((module, module.brute_capacity))
            module.brute_capacity = memo
    try:
        yield
    finally:
        for module, oracle in reversed(patched):
            module.brute_capacity = oracle


def build(workload: str, seed: int, spec_dir: str) -> list:
    """``workloads.build`` without the expected answers: ``workloads._expected``
    is stubbed while it runs and restored after it, as ``memoized_oracle``
    restores the oracle.  Names, argvs, specs, paths and K stay as they are."""
    expected = workloads._expected
    workloads._expected = lambda command, specs, n, kmax: (None, 0)
    try:
        return workloads.build(workload, seed, spec_dir)
    finally:
        workloads._expected = expected


def compare(trees: tuple, requests: list) -> list[tuple]:
    """(request, parent's answer, change's answer) for each request whose
    answers differ, request by request, so only those are kept.  Each
    tree's oracle is memoized meanwhile (``memoized_oracle``)."""
    with memoized_oracle(trees):
        answers = ((request, *(call(tree, request) for tree in trees)) for request in requests)
        return [(request, a, b) for request, a, b in answers if a != b]


def golden_cases() -> dict[str, list[str]]:
    """Each golden case's argv by its name, read from ``tests/test_golden.py``."""
    source = (ROOT / "tests" / "test_golden.py").read_text(encoding="utf-8")
    (cases,) = (
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CASES"
    )
    specs = ROOT / "tests" / "golden" / "specs"
    return {
        name: [str(specs / a) if a.endswith(".json") else a for a in argv]
        for name, argv in ast.literal_eval(cases).items()
    }


# The text of each spec file ``error_argvs`` writes, by file name.
ERROR_SPECS = {
    "e12.json": '{"type": "ellipsoid", "a": ["1", "2"]}',
    "all_infinite.json": '{"type": "ellipsoid", "a": ["inf", "inf"]}',
    "bad.json": '{"type": "ellipsoid", "a": ["1", "0.5"]}',
    "nines.json": '{"type": "polydisk", "a": [' + "9" * 5000 + "]}",
    "polydisk.json": '{"type": "polydisk", "a": ["1", "2"]}',
    "convex.json": '{"type": "convex", "generators": [["1", "0"], ["0", "2"]]}',
}


def error_argvs(spec_dir: str) -> list[list[str]]:
    """Requests that end in an error, on specs written into ``spec_dir``: a
    K of 0, -3 or ``x``, an ellipsoid with every axis infinite on every
    subcommand, a bad spec, a spec with a JSON integer past Python's digit
    limit, a missing file and ``gromov`` on hulls."""
    os.makedirs(spec_dir, exist_ok=True)
    path = {name: os.path.join(spec_dir, name) for name in (*ERROR_SPECS, "missing.json")}
    for name, text in ERROR_SPECS.items():
        Path(path[name]).write_text(text, encoding="utf-8")

    def every_subcommand(spec: str, k: str = "3") -> list[list[str]]:
        return [
            ["caps", "-d", spec, "-k", k], ["cube", "-d", spec], ["gromov", "-d", spec],
            ["obstruct", "--source", spec, "--target", spec, "-k", k],
            ["slope", "-d", spec, "-k", k], ["lagrangian-bound", "-d", spec],
        ]

    bad_k = [
        argv for k in ("0", "-3", "x") for argv in every_subcommand(path["e12.json"], k)
        if "-k" in argv
    ]
    failing = ("all_infinite.json", "bad.json", "nines.json", "missing.json")
    hulls = [["gromov", "-d", path[name]] for name in ("polydisk.json", "convex.json")]
    return bad_k + [a for name in failing for a in every_subcommand(path[name])] + hulls


def usage_argvs() -> list[list[str]]:
    """Argvs that end in argparse's help (exit 0) or a usage error (exit 2),
    compared as they are, in no added format: no argv, an unknown
    subcommand and ``-h``/``--help`` at the top level; ``-h`` or ``--help``
    on each subcommand; a missing required flag, a flag missing its value,
    an extra positional, an unknown flag, an ambiguous abbreviation and
    ``--kmax=4`` after a subcommand, with other abbreviations; a bad
    ``--format``; and ``--`` before and after a subcommand.  The spec path
    is never read."""
    spec = "d.json"
    helps = [["caps", "-h"], ["cube", "--help"], ["gromov", "-h"], ["obstruct", "--help"],
             ["slope", "-h"], ["lagrangian-bound", "--help"]]
    return [[], ["nosuch", "-d", spec], ["-h"], ["--help"], *helps,
            ["caps", "-d", spec],  # --kmax missing
            ["obstruct", "--source", spec, "--target"],
            ["cube", "-d", spec, "extra"],
            ["gromov", "-d", spec, "--nosuch"],
            ["caps", "--kmax=4"],
            ["caps", "--dom", spec, "--k", "4", "--o"],  # --out or --oracle
            ["slope", "--dom", spec, "--k", "4", "extra", "--format", "csv"],
            ["cube", "-d", spec, "--format", "xml"],
            ["--", "cube", "-d", spec],
            ["lagrangian-bound", "--", "-d", spec]]


# The text of each spec file ``edge_argvs`` writes, by file name: closed
# forms, whose capacities are progressions, most with large numerators or
# denominators.
EDGE_SPECS = {
    "cylinder_near_1e19.json": (
        '{"type": "cylinder_union", "n": 3, "delta": "9999999999999999999/7"}'
    ),
    "polydisk_near_1e19.json": (
        '{"type": "polydisk", "a": ["9999999999999999999/10", "12345678901234567890"]}'
    ),
    "cube_carry.json": '{"type": "cube", "n": 2, "delta": "399999999999999999999/40"}',
    "cube_tiny.json": '{"type": "cube", "n": 2, "delta": "1/100000000000000000000007"}',
    "cube_3_11.json": '{"type": "cube", "n": 2, "delta": "3/11"}',
    "cylinder_125.json": '{"type": "cylinder_union", "n": 2, "delta": "1234567/125"}',
    "polydisk_huge.json": (
        '{"type": "polydisk", "a": ["%s/%s", "%s", "%s"]}'
        % ("7" * 60, "3" * 40, "8" * 61, "9" * 62)
    ),
}


def edge_argvs(spec_dir: str) -> list[list[str]]:
    """Closed-form ``caps`` and ``obstruct`` requests on specs written into
    ``spec_dir``, whose values start below 1, cross a power of ten, reach
    quotients of 20 digits and more, round up into their integer part, and
    have from 1 to 36 values in each residue class of their
    denominator."""
    os.makedirs(spec_dir, exist_ok=True)
    path = {name: os.path.join(spec_dir, name) for name in EDGE_SPECS}
    for name, text in EDGE_SPECS.items():
        Path(path[name]).write_text(text, encoding="utf-8")
    caps = [
        ("cylinder_near_1e19.json", 120), ("polydisk_near_1e19.json", 100),
        ("cube_carry.json", 400), ("cube_tiny.json", 50), ("cube_3_11.json", 400),
        ("cylinder_125.json", 1000), ("polydisk_huge.json", 60),
    ]
    pairs = [
        ("cylinder_near_1e19.json", "polydisk_huge.json", 90),
        ("cube_carry.json", "cube_tiny.json", 50),
        ("polydisk_near_1e19.json", "cylinder_125.json", 300),
    ]
    return [["caps", "-d", path[name], "-k", str(k)] for name, k in caps] + [
        ["obstruct", "--source", path[a], "--target", path[b], "-k", str(k)] for a, b, k in pairs
    ]


def _in_every_format(argv: list[str]) -> list[list[str]]:
    if "--format" in argv:
        i = argv.index("--format")
        argv = argv[:i] + argv[i + 2 :]
    return [argv + ["--format", fmt] for fmt in FORMATS]


def _with_oracle(argv: list[str]) -> list[str]:
    i = argv.index("--kmax") + 1
    return argv[:i] + [str(min(int(argv[i]), ORACLE_KMAX))] + argv[i + 1 :] + ["--oracle"]


def comparisons(slots: list, seed: int, spec_dir: str) -> list:
    """Every request the trees are compared on, from the workloads' slots:
    each distinct CLI argv in the three formats, sorted, then the usage
    argvs, the product slots, the product pairs and the corpus regions."""
    argvs = [slot.argv for slot in slots if slot.argv is not None]
    argvs += [_with_oracle(argv) for argv in argvs if argv[0] == "caps"]
    argvs += [*golden_cases().values(), *edge_argvs(os.path.join(spec_dir, "edges"))]
    argvs += error_argvs(os.path.join(spec_dir, "errors"))
    unique = sorted({tuple(a) for argv in argvs for a in _in_every_format(argv)})
    product_slots = [s for s in slots if s.argv is None]
    return ([list(a) for a in unique] + usage_argvs() + product_slots + products(seed)
            + corpus(seed))


def medians(trees: tuple, requests: list, repeats: int) -> tuple[list[float], list[float]]:
    """Each request's median seconds on each tree, the trees alternated
    request by request and taking turns to go first."""
    times = [[[] for _ in requests] for _ in trees]
    for rep in range(repeats):
        for i, request in enumerate(requests):
            for t in (0, 1) if (rep + i) % 2 else (1, 0):
                start = perf_counter()
                call(trees[t], request)
                times[t][i].append(perf_counter() - start)
    parent, change = ([statistics.median(ts) for ts in per] for per in times)
    return parent, change


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 5), as ``bench/run.py`` takes it."""
    return statistics.quantiles(values, n=20, method="inclusive")[q // 5 - 1]


def report(requests: list, parent: list[float], change: list[float]) -> str:
    """p50, p90 and sum of the per-request medians, then the sum per
    command and kind; milliseconds, with the change's ratio to the parent."""

    def line(name: str, a: float, b: float) -> str:
        return f"{name:<36} {a * 1e3:10.3f} {b * 1e3:10.3f} {b / a:8.3f}"

    lines = [f"{'':<36} {'parent ms':>10} {'change ms':>10} {'ratio':>8}"]
    lines += [line(f"p{q} of medians", quantile(parent, q), quantile(change, q)) for q in (50, 90)]
    lines.append(line("sum of medians", sum(parent), sum(change)))
    groups: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for request, a, b in zip(requests, parent, change):
        command, kind = request.name.split(":")[1:3]
        groups[f"{command} {kind}"][0] += a
        groups[f"{command} {kind}"][1] += b
    lines += [line(f"  {group}", a, b) for group, (a, b) in sorted(groups.items())]
    return "\n".join(lines)


def deep_report(trees: tuple, repeats: int) -> str:
    """Seconds of ``capacity_sequence`` up to K on each deep probe, the best
    of ``repeats`` runs on each tree, with the change's ratio to the parent
    and each tree's spread, its worst run over its best: a ratio nearer 1
    than the spreads are wide is not resolved.
    The trees alternate probe by probe and take turns to go first, and each
    run builds its domain afresh, so it prepares its own search."""
    regions = deep_probes()
    times = [([], []) for _ in regions]
    for rep in range(repeats):
        for i, region in enumerate(regions):
            for t in (0, 1) if (rep + i) % 2 else (1, 0):
                domain = _domain(trees[t], region)
                start = perf_counter()
                trees[t].capacity_sequence(domain, region.kmax)
                times[i][t].append(perf_counter() - start)
    title = f"deep probe, best of {repeats}"
    lines = [f"{title:<36} {'parent s':>10} {'change s':>10} {'ratio':>8}"
             f" {'parent spread':>14} {'change spread':>14}"]
    for region, runs in zip(regions, times):
        (a, b), (spread_a, spread_b) = zip(*((min(r), max(r) / min(r)) for r in runs))
        name = f"  {region.shape} n={len(region.points[0])} K={region.kmax}"
        lines.append(f"{name:<36} {a:10.3f} {b:10.3f} {b / a:8.3f}"
                     f" {spread_a:14.3f} {spread_b:14.3f}")
    return "\n".join(lines)


def line_counts(srcs: tuple) -> str:
    """Each tree's lines in its ``toricap`` package, as ``wc -l`` counts
    them in its ``.py`` files, and the change's net difference."""
    parent, change = (
        sum(path.read_bytes().count(b"\n") for path in (Path(src) / "toricap").glob("*.py"))
        for src in srcs
    )
    return f"src/toricap lines: parent {parent}, change {change}, net {change - parent:+d}"


def workload_names() -> list[str]:
    """The workloads ``BENCHMARK.json`` names, in its order."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [workload["name"] for workload in benchmark["workloads"]]


def _src(path: str) -> str:
    if not (Path(path) / "toricap" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no toricap/__init__.py in {path}")
    return path


def _parser(choices: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 tools/ab.py", add_help=False)
    parser.add_argument("parent_src", metavar="PARENT_SRC", type=_src)
    parser.add_argument("change_src", metavar="CHANGE_SRC", type=_src)
    parser.add_argument("seed", metavar="SEED", type=int)
    parser.add_argument("workload", metavar="WORKLOAD", nargs="?", choices=choices)
    return parser


def main(argv: list[str]) -> int:
    benchmark = workload_names()
    args = _parser(benchmark).parse_args(argv)  # exits 2 with the usage line on bad arguments
    srcs = (args.parent_src, args.change_src)
    trees = tuple(load_tree(src, name) for src, name in zip(srcs, NAMES))
    with tempfile.TemporaryDirectory() as spec_dir:
        slots = {w: build(w, args.seed, os.path.join(spec_dir, w)) for w in benchmark}
        requests = comparisons([s for w in benchmark for s in slots[w]], args.seed, spec_dir)
        differ = compare(trees, requests)
        argvs = [r for r in requests if isinstance(r, list)]
        regions = [r for r in requests if isinstance(r, Region)]
        pairs = sum(isinstance(r, Product) for r in requests)
        print(
            f"{len(argvs)} argv ({sum('--oracle' in a for a in argvs)} with --oracle), "
            f"{len(requests) - len(argvs) - len(regions) - pairs} product slots, "
            f"{pairs} product pairs, "
            f"{sum(r.kmax for r in regions)} searches on {len(regions)} regions, "
            f"each region also as one sequence, "
            f"{len(differ)} differ"
        )
        print(line_counts(srcs))
        for request, a, b in differ:
            print("differs: " + label(request))
            if isinstance(request, list) and a[2] != b[2]:
                print(f"  parent stderr: {a[2]!r}\n  change stderr: {b[2]!r}")
        if differ or args.workload is None:
            return 1 if differ else 0
        timed = slots[args.workload]
        parent, change = medians(trees, timed, REPEATS)
    print(f"{args.workload}: {REPEATS} alternated runs per request and tree")
    print(report(timed, parent, change))
    print(deep_report(trees, DEEP_REPEATS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
