"""Byte-for-byte CLI output against a frozen golden corpus.

Each case runs one ``toricap`` argv in-process in all three formats and
compares stdout with ``tests/golden/<case>.<format>``.  The expected files
were written by the CLI before the sequence engine was last changed; they
pin the README output contract (headers, decimal rendering, witnesses,
branch labels, alignment) for refactors that must not change a byte.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import toricap.cli as cli

GOLDEN = Path(__file__).parent / "golden"
SPECS = GOLDEN / "specs"
FORMATS = ("table", "csv", "json")

# case name -> argv with spec files named relative to tests/golden/specs
CASES = {
    "caps_polydisk": ["caps", "--domain", "polydisk.json", "--kmax", "30"],
    "caps_cube": ["caps", "--domain", "cube.json", "--kmax", "12"],
    "caps_cylinder_union": ["caps", "--domain", "cylinder_union.json", "--kmax", "25"],
    # a progression that starts below 1 and crosses 10: the residue-class
    # columns fall back per value below 1 and change width at 10
    "caps_cylinder_union_seventh": [
        "caps", "--domain", "cylinder_union_seventh.json", "--kmax", "80"
    ],
    "caps_ellipsoid_inf": ["caps", "--domain", "ellipsoid_inf.json", "--kmax", "30"],
    "caps_convex": ["caps", "--domain", "convex.json", "--kmax", "14"],
    "caps_concave": ["caps", "--domain", "concave.json", "--kmax", "14"],
    "caps_convex5": ["caps", "--domain", "convex5.json", "--kmax", "12"],
    "caps_concave5": ["caps", "--domain", "concave5.json", "--kmax", "12"],
    # E(1, 1, 1, 1) as a staircase: ties everywhere, so the witnesses pin
    # the lexicographically first optimizer of every search
    "caps_staircase_unit4": ["caps", "--domain", "staircase_unit4.json", "--kmax", "30"],
    "caps_oracle_convex": ["caps", "--domain", "convex.json", "--kmax", "10", "--oracle"],
    "caps_ellipsoid_wide": ["caps", "--domain", "ellipsoid.json", "--kmax", "120"],
    "cube_convex": ["cube", "--domain", "convex.json"],
    "cube_polydisk": ["cube", "--domain", "polydisk.json"],
    "cube_cylinder_union": ["cube", "--domain", "cylinder_union.json"],
    "cube_concave": ["cube", "--domain", "concave.json"],
    "cube_concave5": ["cube", "--domain", "concave5.json"],
    "gromov_concave": ["gromov", "--domain", "concave.json"],
    "gromov_ellipsoid": ["gromov", "--domain", "ellipsoid.json"],
    "slope_concave": ["slope", "--domain", "concave.json", "--kmax", "20"],
    "slope_cube": ["slope", "--domain", "cube.json", "--kmax", "40"],
    "lagrangian_bound_convex": ["lagrangian-bound", "--domain", "convex.json"],
    "lagrangian_bound_ellipsoid_inf": ["lagrangian-bound", "--domain", "ellipsoid_inf.json"],
    "obstruct_box_lagrangian_bidisk": [
        "obstruct",
        "--source",
        "box.json",
        "--target",
        "lagrangian_bidisk.json",
        "--kmax",
        "12",
    ],
    "obstruct_convex_concave": [
        "obstruct",
        "--source",
        "convex.json",
        "--target",
        "concave.json",
        "--kmax",
        "12",
    ],
    "obstruct_ellipsoid_polydisk": [
        "obstruct",
        "--source",
        "ellipsoid.json",
        "--target",
        "polydisk.json",
        "--kmax",
        "110",
    ],
}


def golden_argv(case: str, fmt: str) -> list[str]:
    argv = [str(SPECS / a) if a.endswith(".json") else a for a in CASES[case]]
    return argv + ["--format", fmt]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt, capsys):
    assert cli.run(golden_argv(case, fmt)) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{case}.{fmt}").read_bytes()


def test_every_subcommand_has_a_golden_case():
    covered = {argv[0] for argv in CASES.values()}
    assert set(cli._COMMANDS) - covered == set()
    assert any(argv[0] == "caps" and "--oracle" in argv for argv in CASES.values())
    # the widened columns and the row-by-row JSON of a long report
    for command in ("caps", "obstruct"):
        assert any(
            argv[0] == command and int(argv[argv.index("--kmax") + 1]) >= 100
            for argv in CASES.values()
        ), command
