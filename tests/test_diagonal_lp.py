"""Cross-check of the diagonal program against an independent exact LP.

``diagonal_intersection`` solves hull and staircase inputs with its own
simplex after reducing each game to max sum(x) s.t. A x <= 1.  The
reference here states each as a game, max over a mixed strategy l of
min_i sum_j l_j w_ji with a value variable t, and hands it to sympy's exact
simplex:

* hull: l mixes the points w_j and i runs over the coordinates, which is
  the program's definition;
* staircase: the definition is min over mixes of the points of the max
  coordinate, and sympy's simplex does not finish or returns wrong values
  on that form, so the reference solves its minimax dual, where l mixes
  the coordinates and i runs over the points.

Either way the reference solves the other side of the minimax from the
program ``diagonal_intersection`` solves, so agreement also exercises LP
duality.

sympy's simplex has also returned points that do not attain the value it
reports, so a value is accepted only when its own solution attains it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import random_concave, random_convex
from toricap import ConcaveToricDomain, ConvexToricDomain, diagonal_intersection

sympy = pytest.importorskip("sympy")
from sympy.solvers.simplex import linprog  # noqa: E402

F = Fraction


def game_value(points, n: int) -> Fraction:
    """max over l in the simplex of min_i sum_j l_j w_ji, by sympy's simplex."""
    m = len(points)
    # variables l_1..l_m and t, all >= 0; row i: t - sum_j l_j w_ji <= 0
    rows = sympy.Matrix(
        [[-sympy.Rational(p[i].numerator, p[i].denominator) for p in points] + [1]
         for i in range(n)]
    )
    objective, solution = linprog(
        sympy.Matrix([0] * m + [-1]), rows, sympy.Matrix([0] * n),
        sympy.Matrix([[1] * m + [0]]), sympy.Matrix([1]),
    )
    value = -Fraction(str(objective))
    weights = [Fraction(str(w)) for w in solution[:m]]
    attained = min(sum(w * p[i] for w, p in zip(weights, points)) for i in range(n))
    assert min(weights) >= 0 and sum(weights) == 1
    assert attained == value, f"sympy's solution attains {attained}, not its value {value}"
    return value


def reference_diagonal(domain) -> Fraction:
    if isinstance(domain, ConvexToricDomain):
        return game_value(domain.generators, domain.n)
    return game_value(tuple(zip(*domain.vertices)), len(domain.vertices))


def test_diagonal_matches_sympy_on_random_domains():
    rng = random.Random(20170720)
    for _ in range(150):
        n = rng.randint(1, 5)
        make = random_convex if rng.random() < 0.5 else random_concave
        domain = make(rng, n=n, max_points=12)
        assert diagonal_intersection(domain) == reference_diagonal(domain), domain


DEGENERATE = [
    # duplicate points
    (ConvexToricDomain(((1, 2), (1, 2), (2, 1), (2, 1))), F(3, 2)),
    (ConcaveToricDomain(((1, 2), (1, 2), (2, 1))), F(3, 2)),
    # dominated points
    (ConvexToricDomain(((1, 1), (2, 2), (3, 0), (0, 1))), 2),
    (ConcaveToricDomain(((2, 2), (1, 1), (0, 3), (3, 3))), 1),
    # a coordinate zero at every point: a flat hull, a cylinder-like staircase
    (ConvexToricDomain(((1, 0, 2), (3, 0, 1))), 0),
    (ConcaveToricDomain(((1, 0), (2, 0))), 1),
    # a staircase vertex at the origin collapses the region
    (ConcaveToricDomain(((0, 0), (1, 2))), 0),
    (ConcaveToricDomain(((0, 0, 0),)), 0),
    # ratio ties that force degenerate pivots, where a basic variable at
    # zero leaves and the objective does not move
    (ConvexToricDomain(((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))), 1),
    (ConcaveToricDomain(((1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1))), 1),
    (ConvexToricDomain(((2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2))), 1),
    (ConcaveToricDomain(((2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2))), 1),
    # n = 1
    (ConvexToricDomain(((3,), (F(5, 2),))), 3),
    (ConcaveToricDomain(((3,), (F(5, 2),))), F(5, 2)),
]


@pytest.mark.parametrize("domain, expected", DEGENERATE)
def test_diagonal_degenerate_cases(domain, expected):
    assert diagonal_intersection(domain) == expected
    assert reference_diagonal(domain) == expected
