"""Reading the program's answers back and comparing them with the expected ones.

Only the exact ``p/q`` columns are compared; the decimal columns are
formatting of the same values.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Optional

from workloads import Request


def _caps(fmt: str, text: str) -> list[tuple[int, Fraction]]:
    if fmt == "json":
        return [(e["k"], Fraction(e["value"])) for e in json.loads(text)["capacities"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
    else:  # "domain: ..." line, header, then whitespace-separated columns
        rows = [line.split() for line in text.splitlines()[2:]]
    return [(int(row[0]), Fraction(row[1])) for row in rows]


def _obstruct(fmt: str, text: str) -> tuple[list, Optional[int]]:
    if fmt == "json":
        payload = json.loads(text)
        rows = [(r["k"], Fraction(r["source"]), Fraction(r["target"])) for r in payload["rows"]]
        return rows, payload["first_violation"]
    if fmt == "csv":
        raw = list(csv.reader(io.StringIO(text)))[1:]
        rows = [(int(r[0]), Fraction(r[1]), Fraction(r[2])) for r in raw]
        first = next((int(r[0]) for r in raw if r[3] == "1"), None)
        return rows, first
    lines = text.splitlines()  # source, target, header, rows, verdict
    rows = [(int(t[0]), Fraction(t[1]), Fraction(t[2])) for t in map(str.split, lines[3:-1])]
    verdict = lines[-1]
    first = int(verdict.split("=")[1]) if verdict.startswith("violation at") else None
    return rows, first


def _scalar(fmt: str, text: str) -> Fraction:
    if fmt == "json":
        return Fraction(json.loads(text)["value"])
    if fmt == "csv":
        return Fraction(text.splitlines()[1].split(",")[0])
    return Fraction(text.split()[0])


def _slope(fmt: str, text: str) -> dict:
    if fmt == "json":
        payload = json.loads(text)
        return {key: Fraction(payload[key]) for key in ("estimate", "exact", "lower", "upper")}
    if fmt == "csv":
        row = text.splitlines()[1].split(",")
        return {"estimate": Fraction(row[1]), "exact": Fraction(row[3]),
                "lower": Fraction(row[4]), "upper": Fraction(row[5])}
    lines = text.splitlines()  # domain, estimate, exact limit, bracket
    bracket = lines[3].split()
    return {
        "estimate": Fraction(lines[1].split("=")[1].split()[0]),
        "exact": Fraction(lines[2].split("=")[1].strip()),
        "lower": Fraction(bracket[1]),
        "upper": Fraction(bracket[5]),
    }


def _wanted(command: str, expected) -> object:
    if command == "caps":
        return list(enumerate(expected, start=1))
    if command == "obstruct":
        source, target = expected
        rows = [(k, a, b) for k, (a, b) in enumerate(zip(source, target), start=1)]
        return rows, next((k for k, a, b in rows if a > b), None)
    return expected


_READERS = {
    "caps": _caps,
    "obstruct": _obstruct,
    "slope": _slope,
    "cube": _scalar,
    "lagrangian-bound": _scalar,
    "gromov": _scalar,
}


def check_cli(request: Request, code: int, text: str) -> Optional[str]:
    """None when the CLI answered correctly, else what was wrong."""
    if code != 0:
        return f"exit code {code}, expected 0"
    command = request.argv[0]
    fmt = request.argv[request.argv.index("--format") + 1]
    try:
        got = _READERS[command](fmt, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable {fmt} output: {exc!r}"
    if got != _wanted(command, request.expected):
        return f"wrong {command} answer"
    return None


def check_values(request: Request, values: list) -> Optional[str]:
    """None when a library call returned the expected sequence."""
    return None if values == request.expected else "wrong product capacities"
