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
    "caps_ellipsoid_inf": ["caps", "--domain", "ellipsoid_inf.json", "--kmax", "30"],
    "obstruct_box_lagrangian_bidisk": [
        "obstruct",
        "--source",
        "box.json",
        "--target",
        "lagrangian_bidisk.json",
        "--kmax",
        "12",
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
