import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import toricap.capacities as capacities
import toricap.cli as cli
import toricap.domains as domains
import toricap.oracle as oracle
from toricap import capacity_sequence, load_domain, parse_domain

F = Fraction
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture
def write_spec(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def run_cli(args):
    return cli.run(args)


def test_caps_table(write_spec, capsys):
    path = write_spec("e12.json", '{"type":"ellipsoid","a":["1","2"]}')
    assert run_cli(["caps", "--domain", path, "--kmax", "5"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "domain: E(1, 2)"
    values = [line.split()[1] for line in lines[2:]]
    assert values == ["1", "2", "2", "3", "4"]


def test_cube_output_format(write_spec, capsys):
    path = write_spec("e12.json", '{"type":"ellipsoid","a":["1","2"]}')
    assert run_cli(["cube", "--domain", path]) == 0
    assert capsys.readouterr().out == "2/3 (≈0.666667)\n"


def test_gromov(write_spec, capsys):
    path = write_spec("conc.json", '{"type":"concave","sigma":[["1","0"],["0","2"]]}')
    assert run_cli(["gromov", "-d", path]) == 0
    assert capsys.readouterr().out.startswith("1 ")


def test_gromov_rejects_convex_input(write_spec, capsys):
    path = write_spec("p.json", '{"type":"polydisk","a":["1","2"]}')
    assert run_cli(["gromov", "-d", path]) == 1
    assert capsys.readouterr() == (
        "",
        "toricap: error: gromov requires a concave domain (or an ellipsoid with a finite "
        "axis); got dimension-2 Polydisk\n",
    )


def test_gromov_on_a_cylinder_union_is_its_staircase_width(write_spec, capsys):
    union = write_spec("z.json", '{"type":"cylinder_union","n":3,"delta":"9/10"}')
    stair = write_spec("s.json", '{"type":"concave","sigma":[["9/10","9/10","9/10"]]}')
    for path in (union, stair):
        assert run_cli(["gromov", "-d", path]) == 0
        assert capsys.readouterr().out == "27/10 (≈2.7)\n"


@pytest.mark.parametrize(
    "delta,approx",
    [("1" + "0" * 400, "1e+400"), ("1/1" + "0" * 400, "1e-400"),
     ("7" * 331 + "/3", "2.59259e+330"), ("1/3" + "0" * 320, "3.33333e-321")],
    ids=["overflow", "rounds_to_zero", "overflow_digits", "subnormal"],
)
def test_table_approximation_outside_float_range(write_spec, capsys, delta, approx):
    # float() overflows, or rounds to 0 or to a subnormal with fewer digits
    path = write_spec("c.json", f'{{"type":"cube","n":2,"delta":"{delta}"}}')
    assert run_cli(["cube", "-d", path]) == 0
    assert capsys.readouterr().out == f"{delta} (≈{approx})\n"
    assert run_cli(["slope", "-d", path, "-k", "5"]) == 0
    assert f"estimate c_K/K = {delta} (≈{approx}) at K=5\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "axes,out",
    [(["2", "inf"], "2 (≈2)\n"), (["5/3", "inf", "7/4"], "5/3 (≈1.66667)\n")],
    ids=["E(2,inf)", "E(5/3,inf,7/4)"],
)
def test_gromov_on_an_ellipsoid_with_an_infinite_axis(write_spec, capsys, axes, out):
    # an infinite axis bounds nothing: the width is the least finite axis
    path = write_spec("e.json", json.dumps({"type": "ellipsoid", "a": axes}))
    assert run_cli(["gromov", "-d", path]) == 0
    assert capsys.readouterr().out == out
    everywhere = write_spec("all.json", '{"type":"ellipsoid","a":["inf","inf"]}')
    assert run_cli(["gromov", "-d", everywhere]) == 1
    assert "every axis is infinite" in capsys.readouterr().err


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_caps_formats_each_value_once(write_spec, capsys, monkeypatch, fmt, oracle):
    # the benchmark's tracer counts these calls through the cli module's names
    path = write_spec("e.json", '{"type":"ellipsoid","a":["3/2","5/3","7/4"]}')
    calls = Counter()
    for name in ("format_rational", "decimal_string"):
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    kmax = 17
    argv = ["caps", "-d", path, "-k", str(kmax), "--format", fmt] + ["--oracle"] * oracle
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert calls == {"format_rational": kmax * (1 + oracle), "decimal_string": kmax}


def test_obstruct_violation_message(write_spec, capsys):
    box = write_spec("box.json", '{"type":"cube","n":2,"delta":"1"}')
    lnd = write_spec("lnd.json", '{"type":"cylinder_union","n":2,"delta":"9/10"}')
    assert run_cli(["obstruct", "--source", box, "--target", lnd, "--kmax", "12"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("violation at k=10")


def test_obstruct_no_violation(write_spec, capsys):
    box = write_spec("box.json", '{"type":"cube","n":2,"delta":"1"}')
    lnd = write_spec("lnd.json", '{"type":"cylinder_union","n":2,"delta":"1"}')
    assert run_cli(["obstruct", "--source", box, "--target", lnd, "--kmax", "50"]) == 0
    assert "no violation up to k=50" in capsys.readouterr().out


def test_caps_csv_reparses_exactly(write_spec, capsys):
    spec = '{"type":"convex","generators":[["1","0"],["0","2"]]}'
    path = write_spec("conv.json", spec)
    assert run_cli(["caps", "-d", path, "-k", "8", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    seq = capacity_sequence(parse_domain(spec), 8)
    assert len(rows) == 8
    for row, result in zip(rows, seq.values):
        assert int(row["k"]) == result.k
        assert F(row["value_rational"]) == result.value
        assert row["branch"] == "ConvexSearch"
        witness = tuple(int(x) for x in row["witness"].split(";"))
        assert witness == result.witness


def test_caps_json(write_spec, capsys):
    path = write_spec("cyl.json", '{"type":"cylinder_union","n":2,"delta":"1"}')
    assert run_cli(["caps", "-d", path, "-k", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["value"] for c in payload["capacities"]] == ["2", "3", "4"]
    assert payload["domain"]["type"] == "cylinder_union"


def test_caps_oracle_agreement(write_spec, capsys):
    path = write_spec("conc.json", '{"type":"concave","sigma":[["1","0"],["0","2"]]}')
    assert run_cli(["caps", "-d", path, "-k", "6", "--oracle", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    for row in csv.DictReader(io.StringIO(out)):
        assert row["oracle_rational"] == row["value_rational"]


def test_caps_oracle_mismatch_exits_nonzero(write_spec, capsys, monkeypatch):
    path = write_spec("e.json", '{"type":"ellipsoid","a":["1"]}')
    monkeypatch.setattr(oracle, "brute_capacity", lambda domain, k, cap: F(999))
    assert run_cli(["caps", "-d", path, "-k", "2", "--oracle"]) == 1
    assert "oracle" in capsys.readouterr().err


# Seconds allowed for each capped run below, measured at under 0.4 s on a
# 2-core x86 machine with Python 3.11.  With the whole cap for each k, the
# cube's k = 3000 alone enumerated 4.5 million compositions in 14 s, and
# an oracle sorting Fraction multiples took 5.7 s to reach the ellipsoid's
# cap at k = 1667 of K = 3000.
ORACLE_CAP_SECONDS = 5.0


@pytest.mark.parametrize(
    "spec, kmax",
    [
        ('{"type":"cube","n":3,"delta":"1"}', 3000),
        ('{"type":"ellipsoid","a":["1","2"]}', 10**5),
        ('{"type":"ellipsoid","a":["1","2"]}', 3000),
    ],
    ids=["cube", "ellipsoid", "ellipsoid-deep"],
)
def test_caps_oracle_shares_one_cap(write_spec, capsys, spec, kmax):
    # each k may enumerate 10^7 / K candidates, so the run stops at the cap
    path = write_spec("d.json", spec)
    start = time.perf_counter()
    assert run_cli(["caps", "-d", path, "-k", str(kmax), "--oracle", "--format", "csv"]) == 1
    assert time.perf_counter() - start < ORACLE_CAP_SECONDS
    assert f"exceed the enumeration cap of {10**7 // kmax}" in capsys.readouterr().err


def test_caps_oracle_in_high_dimension(write_spec, capsys):
    # the oracle enumerates the 1,500 unit vectors of a 1,500-dimensional
    # hull without recursing once per coordinate
    spec = json.dumps({"type": "convex", "generators": [["1"] * 1500]})
    path = write_spec("wide.json", spec)
    assert run_cli(["caps", "-d", path, "-k", "1", "--oracle", "--format", "csv"]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert row["oracle_rational"] == row["value_rational"] == "1"


SPECS = {
    "ellipsoid": '{"type":"ellipsoid","a":["3/2","inf","5/3"]}',
    "polydisk": '{"type":"polydisk","a":["5/2","7/3"]}',
    "cube": '{"type":"cube","n":3,"delta":"7/4"}',
    "cylinder_union": '{"type":"cylinder_union","n":2,"delta":"9/10"}',
    "convex": '{"type":"convex","generators":[["1","0"],["1/2","2"]]}',
    "concave": '{"type":"concave","sigma":[["1","0"],["0","2"]]}',
}
CLOSED_FORMS = ("ellipsoid", "polydisk", "cube", "cylinder_union")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("kind", CLOSED_FORMS)
def test_caps_of_a_closed_form_builds_no_record(write_spec, capsys, monkeypatch, kind, fmt):
    # the CLI formats the engine's integers: no CapacityResult per row
    argv = ["caps", "-d", write_spec("d.json", SPECS[kind]), "-k", "40", "--format", fmt]
    assert run_cli(argv) == 0
    expected = capsys.readouterr().out

    def no_record(*args):
        raise AssertionError("a CapacityResult was built")

    monkeypatch.setattr(capacities, "CapacityResult", no_record)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == expected


def test_caps_exits_1_when_a_sequence_decreases(write_spec, capsys, monkeypatch):
    # every producer the engine reads, falling: the ellipsoid merge and the
    # progression by module-global name, and the domain's search's run
    monkeypatch.setattr(capacities, "_ellipsoid_sequence", lambda axes, kmax: (3, [1, 4, 2, 5]))
    monkeypatch.setattr(
        capacities, "_progression", lambda first, second, kmax: (2, [5, 5, 7, 6])
    )

    def falling_run(search, first, last, seed=None):
        # the run answers each c_k * denom in the capacity's own terms
        return [((5, 5, 7, 6)[k - 1], (0,) * (search.n - 1) + (k,)) for k in range(first, last + 1)]

    monkeypatch.setattr(capacities._Search, "run", falling_run)
    for kind, spec in SPECS.items():
        path = write_spec(f"{kind}.json", spec)
        assert run_cli(["caps", "-d", path, "-k", "4", "--format", "csv"]) == 1
        k = 3 if kind == "ellipsoid" else 4
        assert capsys.readouterr() == (
            "", f"toricap: error: internal error: capacity sequence decreased at k={k}\n"
        )


@pytest.mark.parametrize(
    "spec, error",
    [
        ('{"type":"ellipsoid","a":["1","2"]}', "2 multiples exceed the enumeration cap of 0"),
        ('{"type":"cube","n":3,"delta":"1"}', "3 compositions exceed the enumeration cap of 0"),
        ('{"type":"ellipsoid","a":["inf","inf"]}', "every axis is infinite: the spectrum is empty"),
    ],
    ids=["ellipsoid", "cube", "all-infinite"],
)
def test_caps_oracle_past_the_cap_fails_before_the_sequence(write_spec, capsys, monkeypatch,
                                                             spec, error):
    # past 10^7 every k's share of the cap is 0: the oracle column fails at
    # k = 1, before a K-long sequence is built
    def no_sequence(domain, kmax):
        raise AssertionError("the sequence was built")

    monkeypatch.setattr(capacities, "capacity_sequence", no_sequence)
    path = write_spec("d.json", spec)
    start = time.perf_counter()
    assert run_cli(["caps", "-d", path, "-k", str(10**8), "--oracle", "--format", "csv"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"toricap: error: {error}\n")


def test_slope_output(write_spec, capsys):
    path = write_spec("lnd.json", '{"type":"cylinder_union","n":2,"delta":"1"}')
    assert run_cli(["slope", "-d", path, "-k", "9"]) == 0
    out = capsys.readouterr().out
    assert "estimate c_K/K = 10/9" in out
    assert "exact limit    = 1" in out
    assert "1 <= c_K/K <= 10/9" in out


def test_lagrangian_bound(write_spec, capsys):
    path = write_spec("lnd.json", '{"type":"cylinder_union","n":2,"delta":"1"}')
    assert run_cli(["lagrangian-bound", "-d", path]) == 0
    assert capsys.readouterr().out.startswith("1 ")


def test_out_writes_file(write_spec, tmp_path, capsys):
    path = write_spec("e12.json", '{"type":"ellipsoid","a":["1","2"]}')
    dest = tmp_path / "report.csv"
    assert run_cli(["caps", "-d", path, "-k", "4", "--format", "csv", "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text().splitlines()[0] == "k,value_rational,value_decimal,witness,branch"


@pytest.mark.parametrize(
    "dest, reason",
    [("missing/report.csv", "No such file or directory"), (".", "Is a directory")],
    ids=["missing_directory", "a_directory"],
)
def test_out_that_cannot_be_written_exits_1(write_spec, tmp_path, capsys, dest, reason):
    path = write_spec("e12.json", '{"type":"ellipsoid","a":["1","2"]}')
    target = str(tmp_path / dest)
    assert run_cli(["caps", "-d", path, "-k", "4", "--out", target]) == 1
    assert capsys.readouterr() == ("", f"toricap: error: cannot write {target}: {reason}\n")


def test_usage_errors_exit_2(write_spec, capsys):
    assert run_cli(["caps"]) == 2  # missing required flags
    assert run_cli(["nonsense"]) == 2
    capsys.readouterr()


def test_domain_errors_exit_1(write_spec, capsys):
    assert run_cli(["cube", "-d", "/nonexistent/nowhere.json"]) == 1
    bad = write_spec("bad.json", '{"type":"ellipsoid","a":["1","0.5"]}')
    assert run_cli(["caps", "-d", bad, "-k", "3"]) == 1
    err = capsys.readouterr().err
    assert "a[1]" in err


def test_obstruct_names_the_spec_file_that_is_not_utf8(write_spec, tmp_path, capsys):
    good = write_spec("e12.json", '{"type":"ellipsoid","a":["1","2"]}')
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert run_cli(["obstruct", "--source", good, "--target", str(bad), "-k", "3"]) == 1
    assert f"cannot read {bad}: " in capsys.readouterr().err


def test_unbounded_domain_errors_exit_1(write_spec, capsys):
    cyl = write_spec("z.json", '{"type":"ellipsoid","a":["1","inf"]}')
    assert run_cli(["cube", "-d", cyl]) == 0
    assert capsys.readouterr().out == "1 (≈1)\n"
    everywhere = write_spec("all.json", '{"type":"ellipsoid","a":["inf","inf"]}')
    assert run_cli(["cube", "-d", everywhere]) == 1
    assert "infinite" in capsys.readouterr().err
    assert run_cli(["caps", "-d", everywhere, "-k", "3"]) == 1
    assert "every axis is infinite" in capsys.readouterr().err
    # but the capacity sequence of a cylinder is fine
    assert run_cli(["caps", "-d", cyl, "-k", "4"]) == 0
    capsys.readouterr()


# Each subcommand's arguments after the spec file, which obstruct takes twice.
SUBCOMMANDS = {
    "caps": ["-k", "3"],
    "cube": [],
    "gromov": [],
    "obstruct": ["-k", "3"],
    "slope": ["-k", "3"],
    "lagrangian-bound": [],
}


def _argv(command, path):
    spec = ["--source", path, "--target", path] if command == "obstruct" else ["-d", path]
    return [command, *spec, *SUBCOMMANDS[command]]


NO_STAIRCASE = "every axis is infinite: no staircase bounds the region"
EMPTY_SPECTRUM = "every axis is infinite: the spectrum is empty"


@pytest.mark.parametrize(
    "command, message",
    [
        ("caps", EMPTY_SPECTRUM),
        ("cube", EMPTY_SPECTRUM),
        ("gromov", NO_STAIRCASE),
        ("obstruct", EMPTY_SPECTRUM),
        ("slope", EMPTY_SPECTRUM),
        ("lagrangian-bound", EMPTY_SPECTRUM),
    ],
)
def test_every_axis_infinite_on_every_subcommand(write_spec, capsys, command, message):
    path = write_spec("all.json", '{"type":"ellipsoid","a":["inf","inf"]}')
    assert run_cli(_argv(command, path)) == 1
    assert capsys.readouterr() == ("", f"toricap: error: {message}\n")


HUGE_DIMENSION_SECONDS = 1.0  # the spec is rejected as it is parsed


@pytest.mark.parametrize("kind", ["cube", "cylinder_union"])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_a_huge_dimension_fails_at_once(write_spec, capsys, command, kind):
    n = 10**18
    path = write_spec("huge.json", json.dumps({"type": kind, "n": n, "delta": "1"}))
    start = time.perf_counter()
    assert run_cli(_argv(command, path)) == 1
    assert time.perf_counter() - start < HUGE_DIMENSION_SECONDS
    what = kind.replace("_", "-")
    assert capsys.readouterr() == (
        "", f"toricap: error: {kind}: {what} dimension must be at most 1000000, got {n}\n"
    )


# Seconds allowed to load a convex spec of 10^5 points in two dimensions,
# or to reject it when its last coordinate is bad: about 0.5 s and 0.9 s
# (every coordinate is read, then walked again to name the bad one) on a
# 2-core x86 machine with Python 3.11, in about 90 MB.
HUGE_SPEC_SECONDS = 5.0


def test_a_huge_point_list_loads_or_names_its_last_bad_coordinate(write_spec, capsys):
    rows = [[f"{i % 7 + 1}/{i % 5 + 1}", str(i % 3)] for i in range(10**5)]
    valid = write_spec("huge.json", json.dumps({"type": "convex", "generators": rows}))
    rows[-1][-1] = "1.5"
    bad = write_spec("bad.json", json.dumps({"type": "convex", "generators": rows}))
    start = time.perf_counter()
    assert run_cli(["cube", "-d", bad]) == 1
    assert time.perf_counter() - start < HUGE_SPEC_SECONDS
    assert capsys.readouterr() == ("", (
        "toricap: error: generators[99999][1]: "
        "cannot parse '1.5' as an exact rational: expected 'p' or 'p/q'\n"
    ))
    start = time.perf_counter()
    domain = load_domain(valid)
    assert time.perf_counter() - start < HUGE_SPEC_SECONDS
    assert str(domain) == "ConvexToricDomain(100000 generators, n=2)"


def test_a_json_integer_past_the_digit_limit_exits_1(write_spec, capsys):
    path = write_spec("nines.json", '{"type":"polydisk","a":[' + "9" * 5000 + "]}")
    assert run_cli(["cube", "-d", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("toricap: error: unreadable JSON: Exceeds the limit (4300 digits)")


def test_a_deeply_nested_spec_exits_1_without_a_traceback(write_spec):
    # a fresh process, so that the exit code and stderr are the command's own
    nested = '{"type":"convex","generators":' + "[" * 100_000 + "]" * 100_000 + "}"
    path = write_spec("nested.json", nested)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "toricap.cli", "cube", "-d", path],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("toricap: error: unreadable JSON: maximum recursion depth")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_traceback(write_spec):
    # about 1 MB of CSV, far past a pipe's buffer, so the writes meet the
    # closed pipe; buffered stdout, so the flush at exit would meet it too
    path = write_spec("e.json", '{"type":"ellipsoid","a":["1","2"]}')
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    argv = ["caps", "-d", path, "-k", "20000", "--format", "csv"]
    with subprocess.Popen([sys.executable, "-m", "toricap.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(100).startswith(b"k,value_rational,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")


# Seconds allowed for ``gromov`` on an ellipsoid of 10,000 axes: it reads
# the finite axes in O(n), about 0.05 s with the spec's parsing on a 2-core
# x86 machine with Python 3.11; building the n-by-n staircase rows took
# 4.3 s and 242 MB at 3,000 axes.
WIDE_GROMOV_SECONDS = 2.0


def test_gromov_on_a_wide_ellipsoid_builds_no_rows(write_spec, capsys, monkeypatch):
    def rows_built(self):
        raise AssertionError("the staircase rows of the ellipsoid were built")

    monkeypatch.setattr(domains.Ellipsoid, "points", property(rows_built))
    axes = [f"{i % 97 + 2}/3" for i in range(10_000)]
    axes[5000] = "inf"
    path = write_spec("wide.json", json.dumps({"type": "ellipsoid", "a": axes}))
    start = time.perf_counter()
    assert run_cli(["gromov", "-d", path]) == 0
    assert time.perf_counter() - start < WIDE_GROMOV_SECONDS
    assert capsys.readouterr() == ("2/3 (≈0.666667)\n", "")


def test_repeated_runs_share_no_state(write_spec, tmp_path, capsys):
    # the parsers are built once per process; no call may see an earlier one's flags
    path = write_spec("e12.json", '{"type":"ellipsoid","a":["1","2"]}')
    assert cli._parsers() is cli._parsers()
    header = "k,value_rational,value_decimal,witness,branch"

    assert run_cli(["caps", "-d", path, "-k", "3", "--oracle", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == header + ",oracle_rational"
    assert run_cli(["caps", "-d", path, "-k", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == header

    dest = tmp_path / "report.csv"
    assert run_cli(["caps", "-d", path, "-k", "3", "--format", "csv", "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert run_cli(["caps", "-d", path, "-k", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == dest.read_text()

    assert run_cli(["caps", "-d", path]) == 2  # --kmax missing
    assert "--kmax" in capsys.readouterr().err
    assert run_cli(["cube", "-d", path]) == 0
    assert capsys.readouterr().out == "2/3 (≈0.666667)\n"


# The plain reader (``cli._plain``) reads an argv only where it gives what
# argparse gives, and declines every other argv to argparse.

KMAX_SPELLINGS = ("7", "+7", " 7", "007", "1_0", "٣")  # each an int to int()
PATHS = ("d.json", "dir with space/d.json", "", "x=y", "–d.json")  # none begins with "-"


def _argparse_reading(argv: list) -> dict:
    """``vars`` of the namespace argparse's parser reads from ``argv``, but
    the subcommand's name: ``parse_args`` exits on anything left over."""
    args = vars(cli._parsers().parse_args(argv))
    assert args.pop("command") == argv[0], argv
    return args


def _plain_argvs(seed: int, per_command: int) -> list:
    """``per_command`` argvs for each subcommand of ``cli._COMMANDS`` in the
    plain form, drawn from ``seed``: each option given zero to two times
    (a required one at least once) by its long or short flag, in shuffled
    order, with a value from PATHS, KMAX_SPELLINGS or its choices."""
    rng = random.Random(seed)
    argvs = []
    for name, command in cli._COMMANDS.items():
        for _ in range(per_command):
            given = []
            for option in command.options:
                for _ in range(rng.randint(int(option.required), 2)):
                    flag = [rng.choice(option.flags)]
                    if option.store_true:
                        given.append(flag)
                    elif option.choices:
                        given.append(flag + [rng.choice(option.choices)])
                    else:
                        spellings = KMAX_SPELLINGS if option.type is int else PATHS
                        given.append(flag + [rng.choice(spellings)])
            rng.shuffle(given)
            argvs.append([name, *(token for tokens in given for token in tokens)])
    return argvs


def test_the_plain_reader_reads_what_argparse_reads():
    from test_golden import CASES, FORMATS, golden_argv

    generated = _plain_argvs(35, 150)
    argvs = [golden_argv(case, fmt) for case in CASES for fmt in FORMATS] + generated
    for argv in argvs:
        assert vars(cli._plain(argv)) == _argparse_reading(argv), argv
    # argparse's parser has every subcommand of the table, and no other
    assert "{%s}" % ",".join(cli._COMMANDS) in cli._parsers().format_usage()
    # the corpus has every spelling of every option, repeats, and --oracle 0-2 times
    tokens = Counter(token for argv in generated for token in argv)
    flags = {flag for command in cli._COMMANDS.values() for o in command.options for flag in o.flags}
    assert set(KMAX_SPELLINGS) | set(PATHS) | {"table", "csv", "json"} | flags <= set(tokens)
    oracles = {argv.count("--oracle") for argv in generated if argv[0] == "caps"}
    assert oracles == {0, 1, 2}
    assert any(argv.count("-k") + argv.count("--kmax") == 2 for argv in generated)
    assert {cli._plain(argv).kmax for argv in generated if argv[0] == "slope"} == {3, 7, 10}


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["nosuch", "-d", "d.json"], ["--", "cube", "-d", "d.json"],
    ["cube", "-h"], ["caps", "--help"], ["cube", "-d", "d.json", "-h"],
    # abbreviations
    ["caps", "--dom", "d.json", "--kmax", "4"], ["caps", "-d", "d.json", "--km", "4"],
    ["caps", "-d", "d.json", "-k", "4", "--ora"], ["cube", "-d", "d.json", "--form", "csv"],
    # = forms and attached short values
    ["caps", "--domain=d.json", "-k", "4"], ["caps", "-d", "d.json", "--kmax=4"],
    ["cube", "-d", "d.json", "--format=json"], ["caps", "-d", "d.json", "-k4"],
    ["cube", "-dd.json"], ["caps", "-d", "d.json", "-k=4"],
    # values that begin with "-", and "--"
    ["caps", "-d", "d.json", "-k", "-3"], ["cube", "-d", "-d.json"], ["cube", "--out", "-"],
    ["cube", "--", "-d", "d.json"], ["cube", "-d", "d.json", "--"],
    # unknown flags and extra arguments
    ["cube", "-d", "d.json", "--nosuch"], ["cube", "-d", "d.json", "-k", "4"],
    ["gromov", "-d", "d.json", "--oracle"], ["cube", "-d", "d.json", "extra"],
    ["cube", "extra", "-d", "d.json"],
    # a missing value
    ["caps", "-d", "d.json", "-k"], ["cube", "-d"], ["cube", "-d", "d.json", "--format"],
    # a missing required flag
    ["caps", "-d", "d.json"], ["caps", "-k", "4"], ["cube"], ["cube", "--format", "csv"],
    ["obstruct", "--source", "a.json", "-k", "3"],
    ["obstruct", "--source", "a.json", "--target", "b.json"],
    # a bad choice and a bad int
    ["cube", "-d", "d.json", "--format", "xml"], ["cube", "-d", "d.json", "--format", "CSV"],
    ["caps", "-d", "d.json", "-k", "x"], ["caps", "-d", "d.json", "-k", "4.0"],
    ["slope", "-d", "d.json", "-k", ""], ["slope", "-d", "d.json", "-k", "0x10"],
])
def test_the_plain_reader_declines_every_other_argv(argv):
    assert cli._plain(argv) is None


def test_no_workload_argv_reaches_argparse(tmp_path):
    # argparse stays off the benchmark's path: the plain reader reads every
    # CLI argv of the three workloads, as argparse would read it
    from test_ab import _tool

    tool = _tool()
    assert tool.workload_names() == ["spectrum", "lattice_sweep", "single_query"]
    for seed in (1, 7, 51):
        for workload in tool.workload_names():
            requests = tool.build(workload, seed, str(tmp_path / f"{workload}_{seed}"))
            argvs = [request.argv for request in requests if request.argv is not None]
            assert argvs, (workload, seed)
            for argv in argvs:
                plain = cli._plain(argv)
                assert plain is not None and vars(plain) == _argparse_reading(argv), argv


# For each of ``tools/ab.py``'s ``usage_argvs``, in order: its exit code,
# the stream its text goes to, and the prog of the parser that writes it,
# which begins a help's usage line and an error's last line.  None leaves
# an exit code unfrozen where Python releases differ: how argparse reads
# a ``--`` before the subcommand has changed between them.
USAGE_ANSWERS = [
    (2, "err", "toricap"), (2, "err", "toricap"),
    (0, "out", "toricap"), (0, "out", "toricap"),
    (0, "out", "toricap caps"), (0, "out", "toricap cube"), (0, "out", "toricap gromov"),
    (0, "out", "toricap obstruct"), (0, "out", "toricap slope"),
    (0, "out", "toricap lagrangian-bound"),
    (2, "err", "toricap caps"), (2, "err", "toricap obstruct"), (2, "err", "toricap"),
    (2, "err", "toricap"), (2, "err", "toricap caps"), (2, "err", "toricap caps"),
    (2, "err", "toricap"), (2, "err", "toricap cube"),
    (None, "err", "toricap"), (2, "err", "toricap lagrangian-bound"),
]


def test_the_usage_argvs_take_argparse_to_the_frozen_answers(capsys):
    from test_ab import _tool

    argvs = _tool().usage_argvs()
    assert len(argvs) == len(USAGE_ANSWERS)
    for argv, (code, stream, prog) in zip(argvs, USAGE_ANSWERS):
        assert cli._plain(argv) is None, argv
        got = run_cli(argv)
        out, err = capsys.readouterr()
        assert got == code or code is None, argv
        if stream == "out":  # help
            assert err == "" and out.startswith(f"usage: {prog} "), argv
        else:  # a usage error: the parser's usage line, then "prog: error: ..."
            assert out == "" and err.splitlines()[-1].startswith(f"{prog}: error: "), argv
            assert err.startswith(f"usage: {prog} ") or code is None, argv
