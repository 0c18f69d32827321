"""The benchmark's workloads: fixed slots, seeded coordinates, expected answers.

A slot fixes the command, the domain kind, the dimension n, the point
count, the index K and the output format.  The seed draws only the
coordinates, the way ``tests/helpers.py`` does: numerators up to 8,
denominators up to 6.  Costs are heavy-tailed in the coordinates, so
slot sizes are capped and each workload has one to six hundred slots whose
costs form one continuum: the seed then moves the latency percentiles
little, and no single request dominates a run.

* ``spectrum``: long ``caps`` tables (K from 20 to 1000) of the closed-form
  kinds in all three formats, obstruction reports between closed-form
  pairs and library ``product_capacities`` calls.  Closed forms, the O(K^2) product,
  ``decimal_string`` and the writers do the work; the searches and the
  diagonal LP do none.
* ``lattice_sweep``: ``caps --format csv`` on hull and staircase domains,
  K from 11 to 28.  Output is a few dozen rows, so the branch-and-bound
  dominates.
* ``single_query``: scalar commands, each with one value.  The diagonal LP
  and one deep k dominate, and start-up is most of a cold request.  One
  slot asks for the cube capacity of an ellipsoid with an infinite axis,
  which the program rejects although the region's diagonal is finite; it
  counts as a failed request.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import reference

# (command, kind, n, points, K, format); points is 0 for closed-form kinds
Slot = tuple[str, str, int, int, int, str]

FORMATS = ("table", "csv", "json")


def _spectrum_slots() -> list[Slot]:
    # K is set per kind so that every kind spans the same costs, about 8 to
    # 90 ms (the cheap closed forms up to about 40 ms at K = 1000): request
    # costs form one continuum, and the percentiles do not sit in a gap
    # between a cheap and a dear cluster, where the seed would move them
    slots: list[Slot] = []
    for i in range(16):
        fmt = FORMATS[i % 3]
        slots += [
            ("caps", "ellipsoid", 4, 0, 20 + 12 * i, fmt),
            ("caps", "ellipsoid_inf", 3, 0, 40 + 25 * i, fmt),
            ("caps", "polydisk", 3, 0, 250 + 50 * i, fmt),
            ("caps", "cube", 4, 0, 250 + 50 * i, fmt),
            ("caps", "cylinder_union", 3, 0, 250 + 50 * i, fmt),
        ]
    slots.append(("caps", "ellipsoid", 3, 0, 1000, "csv"))
    # a pair with an ellipsoid costs about ten times another per row
    pairs = ["ellipsoid:polydisk", "cube:cylinder_union", "polydisk:ellipsoid",
             "ellipsoid:cylinder_union", "cube:ellipsoid", "polydisk:cylinder_union"]
    for i in range(12):
        pair = pairs[i % 6]
        k = 60 + 15 * i if "ellipsoid" in pair else 300 + 60 * i
        slots.append(("obstruct", pair, 3, 0, k, FORMATS[i % 3]))
    factors = ["ellipsoid:polydisk", "ellipsoid:ellipsoid", "cube:ellipsoid", "polydisk:cube"]
    slots += [("product", factors[i % 4], 2, 0, 60 + 14 * i, "-") for i in range(12)]
    return slots


def _lattice_sweep_slots() -> list[Slot]:
    # sizes chosen so that every kind of sweep costs about the same
    sizes = {
        "convex": [(3, 4, 26), (3, 6, 26), (3, 8, 28), (4, 4, 18), (4, 6, 18),
                   (4, 8, 16), (5, 4, 14), (5, 6, 14), (5, 8, 13)],
        "concave": [(3, 4, 26), (3, 6, 24), (3, 8, 24), (4, 4, 16), (4, 6, 15),
                    (4, 8, 14), (5, 4, 12), (5, 5, 12), (5, 6, 11)],
    }
    return [
        ("caps", kind, n, points, k, "csv")
        for _ in range(16)
        for kind, table in sizes.items()
        for n, points, k in table
    ]


def _single_query_slots() -> list[Slot]:
    # the searched kinds are sized to cost about the same; the closed-form
    # kinds are a quarter of the requests and cost little beyond start-up
    slots: list[Slot] = []
    for rep in range(30):
        fmt = FORMATS[rep % 3]
        slots += [
            ("cube", "convex", 3, 12, 0, fmt), ("cube", "concave", 3, 8, 0, fmt),
            ("cube", "convex", 4, 4, 0, fmt), ("cube", "concave", 4, 4, 0, fmt),
            ("cube", "convex", 5, 3, 0, fmt), ("cube", "concave", 5, 3, 0, fmt),
            ("lagrangian-bound", "convex", 3, 8, 0, fmt),
            ("lagrangian-bound", "concave", 4, 4, 0, fmt),
            ("slope", "convex", 3, 6, 80, fmt), ("slope", "concave", 3, 6, 60, fmt),
            ("slope", "convex", 4, 4, 30, fmt), ("slope", "concave", 4, 4, 24, fmt),
            ("slope", "convex", 5, 3, 15, fmt), ("slope", "concave", 5, 3, 12, fmt),
            ("gromov", "concave", 4, 8, 0, fmt),
            [("gromov", "ellipsoid", 4, 0, 0, fmt), ("cube", "polydisk", 3, 0, 0, fmt)][rep % 2],
            [("cube", "ellipsoid", 4, 0, 0, fmt), ("lagrangian-bound", "cube", 4, 0, 0, fmt)][rep % 2],
            [("slope", "ellipsoid", 3, 0, 900, fmt), ("slope", "polydisk", 4, 0, 900, fmt)][rep % 2],
            ("lagrangian-bound", "cylinder_union", 3, 0, 0, fmt),
        ]
    slots.append(("cube", "ellipsoid_inf", 2, 0, 0, "table"))
    return slots


WORKLOADS: dict[str, Callable[[], list[Slot]]] = {
    "spectrum": _spectrum_slots,
    "lattice_sweep": _lattice_sweep_slots,
    "single_query": _single_query_slots,
}

@dataclass
class Request:
    """One request of a workload and what its answer must be."""

    name: str
    argv: Optional[list[str]]  # CLI arguments, or None for a library call
    specs: list[dict]  # the domains, in argument order
    paths: list[str]  # their spec files
    kmax: int
    expected: object  # see outputs.check for the shape per command
    rows: int  # rows in the answer


def _fraction(rng: random.Random, low: int) -> Fraction:
    return Fraction(rng.randint(low, 8), rng.randint(1, 6))


def _spec(rng: random.Random, kind: str, n: int, points: int) -> dict:
    def positive() -> str:
        return str(_fraction(rng, 1))

    if kind == "ellipsoid":
        return {"type": "ellipsoid", "a": [positive() for _ in range(n)]}
    if kind == "ellipsoid_inf":
        return {"type": "ellipsoid", "a": [positive() for _ in range(n - 1)] + ["inf"]}
    if kind == "polydisk":
        return {"type": "polydisk", "a": [positive() for _ in range(n)]}
    if kind in ("cube", "cylinder_union"):
        return {"type": kind, "n": n, "delta": positive()}
    if kind == "convex":
        # one strictly positive generator keeps the diagonal positive
        rows = [[positive() for _ in range(n)]]
        rows += [[str(_fraction(rng, 0)) for _ in range(n)] for _ in range(points - 1)]
        return {"type": "convex", "generators": rows}
    if kind == "concave":
        rows = []
        while len(rows) < points:
            row = [_fraction(rng, 0) for _ in range(n)]
            if any(row):  # a vertex at the origin collapses the region
                rows.append([str(c) for c in row])
        return {"type": "concave", "sigma": rows}
    raise ValueError(f"unknown kind {kind!r}")


def _expected(command: str, specs: list[dict], n: int, kmax: int) -> tuple[object, int]:
    """(expected answer, answer rows) from the independent reference."""
    if command == "caps":
        return reference.capacities(specs[0], kmax), kmax
    if command == "obstruct":
        return (reference.capacities(specs[0], kmax), reference.capacities(specs[1], kmax)), kmax
    if command == "product":
        left, right = (reference.capacities(s, kmax) for s in specs)
        return reference.product(left, right), kmax
    if command in ("cube", "lagrangian-bound"):
        return reference.diagonal(specs[0]), 1
    if command == "gromov":
        # the Gromov width of a staircase region is its c_1
        return reference.capacities(specs[0], 1)[0], 1
    if command == "slope":
        delta = reference.diagonal(specs[0])
        return {
            "estimate": reference.capacity_at(specs[0], kmax) / kmax,
            "exact": delta,
            "lower": delta,
            "upper": delta * (kmax + n - 1) / kmax,
        }, 1
    raise ValueError(f"unknown command {command!r}")


def build(workload: str, seed: int, spec_dir: str) -> list[Request]:
    """The workload's requests for this seed, with their spec files written."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(spec_dir, exist_ok=True)
    requests = []
    for index, (command, kind, n, points, kmax, fmt) in enumerate(WORKLOADS[workload]()):
        specs = [_spec(rng, part, n, points) for part in kind.split(":")]
        paths = []
        for j, spec in enumerate(specs):
            path = os.path.join(spec_dir, f"{index:03d}-{j}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(spec, handle)
            paths.append(path)
        if command == "product":
            argv = None
        elif command == "obstruct":
            argv = ["obstruct", "--source", paths[0], "--target", paths[1],
                    "--kmax", str(kmax), "--format", fmt]
        else:
            argv = [command, "--domain", paths[0], "--format", fmt]
            if kmax:
                argv += ["--kmax", str(kmax)]
        expected, rows = _expected(command, specs, n, kmax)
        name = f"{index:03d}:{command}:{kind}:n{n}:p{points}:K{kmax}:{fmt}"
        requests.append(Request(name, argv, specs, paths, kmax, expected, rows))
    return requests
