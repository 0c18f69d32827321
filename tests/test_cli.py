import csv
import io
import json
import time
from collections import Counter
from fractions import Fraction

import pytest

import toricap.cli as cli
from toricap import capacity_sequence, parse_domain

F = Fraction


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
    assert "concave" in capsys.readouterr().err


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
        def counted(x, _name=name, _original=getattr(cli, name)):
            calls[_name] += 1
            return _original(x)

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
    monkeypatch.setattr(cli, "brute_capacity", lambda domain, k, cap: F(999))
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


def test_repeated_runs_share_no_state(write_spec, tmp_path, capsys):
    # the parser is built once per process; no call may see an earlier one's flags
    path = write_spec("e12.json", '{"type":"ellipsoid","a":["1","2"]}')
    assert cli.build_parser() is cli.build_parser()
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
