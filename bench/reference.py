"""Expected answers, computed without the engine under test.

Everything here works from the spec dicts the benchmark writes, never from
toricap's domain objects, so a parsing or normalisation bug in the program
cannot hide in the expected values.

* c_k of a hull or staircase region: exhaustive enumeration of every
  lattice vector, no pruning (the definition the oracle
  ``toricap.brute_capacity`` enumerates, done for all k in one pass);
* c_k of an ellipsoid: the k-th element of the sorted merge of the integer
  multiples of the finite axes;
* polydisk, cube and cylinder union: their one-point equivalents (the
  one-generator hull, the one-vertex staircase), where the objective is
  linear in the lattice vector and so is optimal at a vertex of the
  composition simplex;
* the diagonal (cube capacity): an exact linear program solved by sympy.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterator


def rational(text: object) -> Fraction:
    return Fraction(str(text))


def _region(spec: dict) -> tuple[str, list[tuple[Fraction, ...]]]:
    """The spec as ("convex" | "concave", points) describing the same region."""
    kind = spec["type"]
    if kind == "convex":
        return "convex", [tuple(map(rational, p)) for p in spec["generators"]]
    if kind == "concave":
        return "concave", [tuple(map(rational, p)) for p in spec["sigma"]]
    if kind == "polydisk":
        return "convex", [tuple(map(rational, spec["a"]))]
    if kind == "cube":
        return "convex", [(rational(spec["delta"]),) * spec["n"]]
    if kind == "cylinder_union":
        return "concave", [(rational(spec["delta"]),) * spec["n"]]
    if kind == "ellipsoid":
        # the simplex staircase; an infinite axis has no vertex on it
        axes = spec["a"]
        return "concave", [
            tuple(rational(a) if j == i else Fraction(0) for j in range(len(axes)))
            for i, a in enumerate(axes)
            if a != "inf"
        ]
    raise ValueError(f"unknown spec type {kind!r}")


def _scaled(points: list[tuple[Fraction, ...]]) -> tuple[int, list[tuple[int, ...]]]:
    denom = math.lcm(*(c.denominator for p in points for c in p))
    return denom, [tuple(int(c * denom) for c in p) for p in points]


def _prefixes(cols: list[tuple[int, ...]], budget: int) -> Iterator[tuple[int, list[int]]]:
    """(sum, inner products) of every vector over all but the last coordinate
    whose entries sum to at most ``budget``."""

    def walk(coord: int, used: int, dots: list[int]):
        if coord == len(cols) - 1:
            yield used, dots
            return
        column = cols[coord]
        for entry in range(budget - used + 1):
            yield from walk(coord + 1, used + entry, dots)
            dots = [d + c for d, c in zip(dots, column)]

    yield from walk(0, 0, [0] * len(cols[0]))


def _enumerate(kind: str, points, kmax: int, only_kmax: bool) -> list[Fraction]:
    """c_1..c_kmax (or just c_kmax) by visiting every lattice vector.

    Convex: min over v >= 0 with sum(v) = k of max_w <v, w>.
    Concave: max over v >= 1 with sum(v) = k + n - 1 of min_w <v, w>,
    written as u = v - 1 >= 0 with sum(u) = k - 1.
    """
    denom, rows = _scaled(points)
    cols = list(zip(*rows))
    last = cols[-1]
    if kind == "convex":
        offset, base, better, pick = 0, [0] * len(rows), (lambda a, b: a < b), max
    else:
        offset, base, better, pick = 1, [sum(r) for r in rows], (lambda a, b: a > b), min
    budget = kmax - offset
    best: list = [None] * (kmax + 1)
    for used, dots in _prefixes(cols, budget):
        start = budget - used if only_kmax else 0
        for t in range(start, budget - used + 1):
            k = used + t + offset
            if k < 1:
                continue
            value = pick(b + d + t * c for b, d, c in zip(base, dots, last))
            if best[k] is None or better(value, best[k]):
                best[k] = value
    wanted = [kmax] if only_kmax else range(1, kmax + 1)
    return [Fraction(best[k], denom) for k in wanted]


def _single_point(kind: str, point, k: int) -> Fraction:
    # <v, w> is linear in v, so the optimum sits at a vertex of the simplex
    if kind == "convex":
        return k * min(point)
    return sum(point) + (k - 1) * max(point)


def _ellipsoid(axes: list, kmax: int) -> list[Fraction]:
    finite = [rational(a) for a in axes if a != "inf"]
    merged = heapq.merge(*([m * a for m in range(1, kmax + 1)] for a in finite))
    return list(itertools.islice(merged, kmax))


def capacities(spec: dict, kmax: int) -> list[Fraction]:
    """c_1 .. c_kmax of the region the spec describes."""
    if spec["type"] == "ellipsoid":
        return _ellipsoid(spec["a"], kmax)
    kind, points = _region(spec)
    if len(points) == 1:
        return [_single_point(kind, points[0], k) for k in range(1, kmax + 1)]
    return _enumerate(kind, points, kmax, only_kmax=False)


def capacity_at(spec: dict, k: int) -> Fraction:
    """c_k alone: only the vectors of the one simplex sum(v) = k are visited."""
    if spec["type"] == "ellipsoid":
        return _ellipsoid(spec["a"], k)[-1]
    kind, points = _region(spec)
    if len(points) == 1:
        return _single_point(kind, points[0], k)
    return _enumerate(kind, points, k, only_kmax=True)[0]


def product(left: list[Fraction], right: list[Fraction]) -> list[Fraction]:
    """c_k of a product: min over i + j = k of c_i + c'_j, with c_0 = 0."""
    denom = math.lcm(*(x.denominator for x in left + right))
    lv = [0] + [int(x * denom) for x in left]
    rv = [0] + [int(x * denom) for x in right]
    return [
        Fraction(min(lv[i] + rv[k - i] for i in range(k + 1)), denom)
        for k in range(1, len(left) + 1)
    ]


def diagonal(spec: dict) -> Fraction:
    """Largest t with (t, ..., t) in the region, as an exact LP.

    Hull with points w_j: max over l in the simplex of min_i sum_j l_j w_ji.
    Staircase: min over l of max_i sum_j l_j w_ji, which by the minimax
    theorem is max over y in the simplex of min_j <y, w_j>.  Both are the
    value of a matrix game.  The value is accepted only when the dual
    program, solved separately, gives the same number: that proves both
    optimal.
    """
    kind, points = _region(spec)
    if kind == "convex":
        matrix = [[p[i] for p in points] for i in range(len(points[0]))]
    else:
        matrix = [list(p) for p in points]
    value = _game_value(matrix)
    top = max(max(row) for row in matrix)
    dual = top - _game_value([[top - row[c] for row in matrix] for c in range(len(matrix[0]))])
    if dual != value:
        raise ArithmeticError(f"LP value {value} and dual value {dual} differ for {spec}")
    return value


def _game_value(matrix: list[list[Fraction]]) -> Fraction:
    """max over x in the simplex of min_r (M x)_r; M must be nonnegative."""
    from sympy import Matrix, Rational
    from sympy.solvers.simplex import linprog

    rows, cols = len(matrix), len(matrix[0])
    # variables x_1..x_cols and t, all >= 0: minimise -t with t <= (M x)_r, sum x = 1
    bounds = Matrix([[-Rational(c.numerator, c.denominator) for c in row] + [1] for row in matrix])
    value, solution = linprog(
        Matrix([0] * cols + [-1]), bounds, Matrix([0] * rows),
        Matrix([[1] * cols + [0]]), Matrix([1]),
    )
    value = -Fraction(str(value))
    mix = [Fraction(str(v)) for v in solution[:cols]]
    # sympy's simplex has returned infeasible points on some programs:
    # accept the value only if its own solution attains it
    attained = min(sum(c * w for c, w in zip(row, mix)) for row in matrix)
    if min(mix) < 0 or sum(mix) != 1 or attained != value:
        raise ArithmeticError(f"LP solution does not attain its value {value}")
    return value
