"""Random instance generators shared by the test modules.

Everything takes an explicit ``random.Random`` so each test controls its
own seed; coordinates stay small to keep exact arithmetic fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from toricap import ConcaveToricDomain, ConvexToricDomain


def random_fraction(
    rng: random.Random, lo: int = 0, hi: int = 8, max_den: int = 6
) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_positive_fraction(rng: random.Random, hi: int = 8, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, max_den))


def random_axes(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(random_positive_fraction(rng) for _ in range(n))


def random_point(rng: random.Random, n: int, positive: bool = False) -> tuple[Fraction, ...]:
    lo = 1 if positive else 0
    return tuple(random_fraction(rng, lo=lo) for _ in range(n))


def random_convex(
    rng: random.Random, n: int | None = None, max_n: int = 4, max_points: int = 6
) -> ConvexToricDomain:
    """Random generator set; one strictly positive generator keeps the
    diagonal intersection (hence the cube capacity) positive."""
    if n is None:
        n = rng.randint(1, max_n)
    count = rng.randint(1, max_points)
    points = [random_point(rng, n, positive=True)]
    points += [random_point(rng, n) for _ in range(count - 1)]
    return ConvexToricDomain(tuple(points))


def random_concave(
    rng: random.Random, n: int | None = None, max_n: int = 4, max_points: int = 6
) -> ConcaveToricDomain:
    """Random staircase vertices, none at the origin (origin vertices
    collapse the whole region to capacity zero)."""
    if n is None:
        n = rng.randint(1, max_n)
    count = rng.randint(1, max_points)
    points = []
    for _ in range(count):
        p = random_point(rng, n)
        while all(c == 0 for c in p):
            p = random_point(rng, n)
        points.append(p)
    return ConcaveToricDomain(tuple(points))


def grow_convex(rng: random.Random, domain: ConvexToricDomain) -> ConvexToricDomain:
    """A convex domain whose region contains the given one (extra generators)."""
    extra = [random_point(rng, domain.n) for _ in range(rng.randint(1, 3))]
    return ConvexToricDomain(domain.generators + tuple(extra))


def grow_concave(rng: random.Random, domain: ConcaveToricDomain) -> ConcaveToricDomain:
    """A concave domain containing the given one (every vertex shifted up)."""
    shifted = tuple(
        tuple(c + random_fraction(rng, lo=0, hi=3) for c in row)
        for row in domain.vertices
    )
    return ConcaveToricDomain(shifted)


def reference_max_total(matrix):
    """The full-tableau simplex that ``domains._max_total`` condenses: the
    same program, fraction-free pivots and Bland's rule, with every column
    kept, the slack identity included.  It returns what the solver returns,
    (d, primal, dual), so the two must agree exactly, pivot for pivot.
    """
    m, n = len(matrix), len(matrix[0])
    # columns: the n variables, the m slacks, then the right-hand side
    tableau = [
        list(row) + [int(i == r) for i in range(m)] + [1] for r, row in enumerate(matrix)
    ]
    cost = [-1] * n + [0] * (m + 1)
    basis = list(range(n, n + m))
    d = 1
    while True:
        col = next((j for j, c in enumerate(cost[:-1]) if c < 0), None)
        if col is None:
            primal = [0] * n
            for row, b in zip(tableau, basis):
                if b < n:
                    primal[b] = row[-1]
            return d, primal, cost[n:-1]
        # the least ratio rhs / entry, then the least basic variable
        pivot_row = None
        for i, row in enumerate(tableau):
            if row[col] > 0 and (
                pivot_row is None
                or (row[-1] * prow[col], basis[i]) < (prow[-1] * row[col], basis[pivot_row])
            ):
                pivot_row, prow = i, row
        p = prow[col]
        for i, row in enumerate(tableau):
            if i != pivot_row:
                f = row[col]
                tableau[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        f = cost[col]
        cost = [(p * x - f * y) // d for x, y in zip(cost, prow)]
        basis[pivot_row] = col
        d = p
