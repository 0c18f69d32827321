import operator
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricap import (
    ConcaveToricDomain,
    ConvexToricDomain,
    Cube,
    CylinderUnion,
    DimensionMismatch,
    Ellipsoid,
    Polydisk,
    UnboundedDomainError,
    antinorm_value,
    diagonal_intersection,
    parse_domain,
    render_domain,
    scale_domain,
    support_value,
)
import toricap.domains as domains_module
from helpers import (
    grow_concave,
    grow_convex,
    random_concave,
    random_convex,
    random_point,
    reference_max_total,
)
from toricap.domains import _game, _max_total, _scaled_integer_rows

F = Fraction

fractions_st = st.builds(F, st.integers(0, 8), st.integers(1, 6))
positive_fractions_st = st.builds(F, st.integers(1, 9), st.integers(1, 6))


@st.composite
def convex_with_vectors(draw):
    n = draw(st.integers(1, 3))
    point = st.lists(fractions_st, min_size=n, max_size=n).map(tuple)
    pts = draw(st.lists(point, min_size=1, max_size=4))
    vec = st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple)
    return ConvexToricDomain(tuple(pts)), draw(vec), draw(vec)


@st.composite
def concave_with_vectors(draw):
    n = draw(st.integers(1, 3))
    point = st.lists(fractions_st, min_size=n, max_size=n).map(tuple)
    pts = draw(st.lists(point, min_size=1, max_size=4))
    vec = st.lists(st.integers(1, 6), min_size=n, max_size=n).map(tuple)
    return ConcaveToricDomain(tuple(pts)), draw(vec), draw(vec)


# ---------------------------------------------------------------- construction


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ConvexToricDomain(())
    with pytest.raises(ValueError):
        ConvexToricDomain(((F(-1), F(0)),))
    with pytest.raises(DimensionMismatch):
        ConvexToricDomain(((1, 2), (1, 2, 3)))
    with pytest.raises(ValueError):
        Ellipsoid((0, 2))
    with pytest.raises(ValueError):
        Polydisk(())
    with pytest.raises(ValueError):
        Cube(0, 1)
    with pytest.raises(ValueError):
        CylinderUnion(2, 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: ConvexToricDomain([[1, "x"]]),
            "invalid generators: cannot parse 'x' as an exact rational: expected 'p' or 'p/q'",
        ),
        (lambda: ConvexToricDomain([[]]), "generators must have dimension >= 1"),
        (lambda: Ellipsoid(()), "ellipsoid needs at least one axis"),
        (lambda: Polydisk((1, 0)), "polydisk areas must be positive, got 0"),
    ],
    ids=["unparsable_coordinate", "empty_point", "no_axis", "zero_area"],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_constructors_coerce_rational_like_inputs():
    d = ConvexToricDomain((("1/2", 3),))
    assert d.generators == ((F(1, 2), F(3)),)
    e = Ellipsoid(("1", "inf"))
    assert e.finite_axes == (F(1),)
    assert e.n == 2


def test_dimension():
    assert Ellipsoid((1, 2, 3)).n == 3
    assert Cube(4, 1).n == 4
    assert ConcaveToricDomain(((1, 0), (0, 2))).n == 2


def _spellings(points):
    """The points as ``Fraction``s, as "p/q" strings with spaces and
    unreduced terms, and as ints where whole, else ``Fraction``s."""
    return [
        points,
        [[f" {2 * c.numerator}/{2 * c.denominator} " for c in p] for p in points],
        [[int(c) if c.denominator == 1 else c for c in p] for p in points],
    ]


def _seeded_point_sets(seed: int, count: int):
    """(kind, points) of ``count`` hulls and as many staircases, n 1-6, of
    1-6 points p/q (p <= 8, q <= 6) drawn from ``seed``."""
    rng = random.Random(seed)
    for _ in range(count):
        for kind in (ConvexToricDomain, ConcaveToricDomain):
            n = rng.randint(1, 6)
            yield kind, tuple(random_point(rng, n) for _ in range(rng.randint(1, 6)))


def test_point_sets_read_their_coordinates_once_into_the_rows_of_their_points():
    """A point set's integer rows, kept by its constructor, are those
    ``_scaled_integer_rows`` clears from its ``Fraction`` points, which it
    gives back; written as strings, ints or ``Fraction``s it is one value,
    by equality, hash and print."""
    for kind, points in _seeded_point_sets(1703, 60):
        domain = kind(points)
        assert domain._scaled == _scaled_integer_rows(points)
        assert domain.points == points and domain.n == len(points[0])
        assert all(type(c) is Fraction for p in domain.points for c in p)
        same = [kind(spelled) for spelled in _spellings(points)]
        assert set(same) == {domain} and all(d == domain for d in same)
        assert {(str(d), repr(d), d._scaled) for d in same} == {
            (str(domain), repr(domain), domain._scaled)
        }


def test_point_sets_keep_their_round_trips():
    rng = random.Random(1704)
    for kind, points in _seeded_point_sets(1705, 40):
        domain, factor = kind(points), F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = scale_domain(domain, factor)
        assert scaled.points == tuple(tuple(factor * c for c in p) for p in points)
        assert scaled._scaled == _scaled_integer_rows(scaled.points)
        assert parse_domain(render_domain(domain)) == domain
        assert render_domain(kind(_spellings(points)[1])) == render_domain(domain)
    for _ in range(40):
        ellipsoid = Ellipsoid(tuple(F(rng.randint(1, 9), rng.randint(1, 5))
                                    for _ in range(rng.randint(1, 5))))
        assert ellipsoid.to_convex().points == ellipsoid.to_concave().points == ellipsoid.points
        assert ellipsoid.to_concave()._scaled == ellipsoid._scaled


# ------------------------------------------------------------- support values


def test_support_value_examples():
    rect = ConvexToricDomain(((1, 3),))  # the box P(1, 3)
    assert support_value(rect, (2, 1)) == 5
    assert support_value(rect, (0, 0)) == 0
    simplex = ConvexToricDomain(((1, 0), (0, 2)))
    assert support_value(simplex, (1, 1)) == 2


def test_support_value_errors():
    d = ConvexToricDomain(((1, 2),))
    with pytest.raises(DimensionMismatch):
        support_value(d, (1, 2, 3))
    with pytest.raises(ValueError):
        support_value(d, (1, -1))
    with pytest.raises(TypeError, match="staircase region, not a hull"):
        support_value(ConcaveToricDomain(((1, 2),)), (1, 1))


def test_vector_entries_must_be_integers():
    # a float or Fraction entry is no lattice coordinate, nor is a bool
    hull, stair = ConvexToricDomain(((1, 2),)), ConcaveToricDomain(((1, 2),))
    for v in ((0.5, 1), (F(1, 2), 1), (1, F(1)), (True, 1), (1, False)):
        for value_of, domain in ((support_value, hull), (antinorm_value, stair)):
            with pytest.raises(ValueError, match=re.escape(f"integers, got {v}")):
                value_of(domain, v)


def test_origin_only_domain_is_accepted():
    zero = ConvexToricDomain(((0, 0),))
    assert support_value(zero, (3, 4)) == 0
    assert diagonal_intersection(zero) == 0


# ------------------------------------------------------------------ anti-norm


def test_antinorm_examples():
    simplex = ConcaveToricDomain(((1, 0), (0, 2)))  # E(1, 2) staircase
    assert antinorm_value(simplex, (1, 1)) == 1
    assert antinorm_value(simplex, (2, 1)) == 2
    point = ConcaveToricDomain(((1, 1),))
    assert antinorm_value(point, (1, 1)) == 2


def test_antinorm_requires_strictly_positive_vector():
    d = ConcaveToricDomain(((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        antinorm_value(d, (1, 0))
    with pytest.raises(DimensionMismatch):
        antinorm_value(d, (1,))
    with pytest.raises(TypeError, match="hull region, not a staircase"):
        antinorm_value(Polydisk((1, 2)), (1, 1))


# ---------------------------------------------------------- diagonal crossing


def test_diagonal_intersection_closed_forms():
    assert diagonal_intersection(Polydisk((1, 2))) == 1
    assert diagonal_intersection(Ellipsoid((1, 2))) == F(2, 3)
    assert diagonal_intersection(Cube(5, F(7, 3))) == F(7, 3)
    assert diagonal_intersection(CylinderUnion(3, F(1, 2))) == F(1, 2)


def test_diagonal_intersection_hull_cases():
    # diagonal leaves through the interior of the hull edge, not a vertex
    wide = ConvexToricDomain(((2, 0), (0, 2)))
    assert diagonal_intersection(wide) == 1
    # staircase case: the diagonal first meets conv{(2,0),(0,2)} at (1,1)
    stair = ConcaveToricDomain(((2, 0), (0, 2)))
    assert diagonal_intersection(stair) == 1
    # single-point staircase
    assert diagonal_intersection(ConcaveToricDomain(((3, 5),))) == 5


HUGE_DIMENSION_SECONDS = 2.0  # measured at about 0.1 s for each region below


def test_diagonal_of_one_point_regions_in_huge_dimension():
    # a cube, polydisk or cylinder union is one hull point or staircase
    # vertex; its program must stay linear in n, not a dense n x n tableau
    n = 10**5
    cases = [
        (Cube(n, F(3, 7)), F(3, 7)),
        (CylinderUnion(n, F(3, 7)), F(3, 7)),
        (Polydisk(tuple(F(2 * n - i, 7) for i in range(n))), F(n + 1, 7)),
    ]
    for domain, expected in cases:
        start = time.perf_counter()
        assert diagonal_intersection(domain) == expected
        assert time.perf_counter() - start < HUGE_DIMENSION_SECONDS


# Seconds allowed for each diagonal below, measured at 0.05 s and 0.4 s on
# a 2-core x86 machine with Python 3.11.  A program with one constraint per
# point of the hull or per coordinate of the staircase took 8.5 s and
# 17.5 s on them there.
HOSTILE_DIAGONAL_SECONDS = 2.0


def test_diagonal_stays_linear_in_the_longer_side():
    # many hull points in few coordinates, few staircase vertices in many
    # coordinates; the expected values come from that slower program
    rng = random.Random(2000)
    hull = ConvexToricDomain(tuple(random_point(rng, 6, positive=True) for _ in range(2000)))
    rng = random.Random(1500)
    stair = ConcaveToricDomain(tuple(random_point(rng, 1500, positive=True) for _ in range(12)))
    cases = [
        (hull, F(825250921, 174340028)),
        (stair, F(3656165157553494353, 1072812325207249201)),
    ]
    for domain, expected in cases:
        start = time.perf_counter()
        assert diagonal_intersection(domain) == expected
        elapsed = time.perf_counter() - start
        assert elapsed < HOSTILE_DIAGONAL_SECONDS, f"{elapsed:.2f} s on {domain}"


def _random_game(rng):
    """An integer matrix, taller or wider, with negative and zero entries;
    a third of them get a zero column."""
    rows, cols = rng.choice([(1, rng.randint(1, 6)), (rng.randint(1, 6), 1)] + [
        (rng.randint(1, 7), rng.randint(1, 7))
    ] * 4)
    matrix = [[rng.randint(-5, 5) * rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 1 / 3:
        j = rng.randrange(cols)
        for row in matrix:
            row[j] = 0
    return matrix


def test_game_strategies_certify_its_value():
    # y and x are optimal: the least column y holds and the largest row x
    # holds are both the value, so neither player can do better
    rng = random.Random(1928)
    for _ in range(400):
        matrix = _random_game(rng)
        (top, bottom), y, x = _game(matrix)
        value = F(top, bottom)
        assert bottom > 0 and len(y) == len(matrix) and len(x) == len(matrix[0])
        assert min(y) >= 0 and min(x) >= 0 and sum(y) > 0 and sum(x) > 0
        columns = list(zip(*matrix))
        floor = min(F(sum(map(operator.mul, y, column)), sum(y)) for column in columns)
        ceiling = max(F(sum(map(operator.mul, row, x)), sum(x)) for row in matrix)
        assert floor == value == ceiling, matrix


def test_game_examples():
    assert _game([[3]]) == ((3, 1), [1], [1])
    assert F(*_game([[0, 0, 0]])[0]) == 0
    # matching pennies, and a taller game played as its negated transpose
    assert F(*_game([[1, -1], [-1, 1]])[0]) == 0
    assert F(*_game([[4, 1], [3, 2], [0, 5]])[0]) == F(5, 2)


def test_diagonal_intersection_matches_ellipsoid_conversions():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        axes = tuple(F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n))
        e = Ellipsoid(axes)
        expected = diagonal_intersection(e)
        assert diagonal_intersection(e.to_convex()) == expected
        assert diagonal_intersection(e.to_concave()) == expected


def test_diagonal_intersection_unbounded_rejected():
    # an infinite axis bounds nothing: E(1, inf) is the cylinder x_1 <= 1
    assert diagonal_intersection(Ellipsoid((1, "inf"))) == 1
    with pytest.raises(UnboundedDomainError):
        diagonal_intersection(Ellipsoid(("inf", "inf")))


# -------------------------------------------------------------------- scaling


def test_scale_domain_examples():
    assert scale_domain(Ellipsoid((1, 2)), 3) == Ellipsoid((3, 6))
    assert scale_domain(ConvexToricDomain(((1, 0), (0, 2))), F(1, 2)) == ConvexToricDomain(
        ((F(1, 2), 0), (0, 1))
    )
    inf_axis = scale_domain(Ellipsoid((1, "inf")), 2)
    assert inf_axis.axes[0] == 2 and inf_axis.finite_axes == (F(2),)


def test_scale_domain_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale_domain(Cube(2, 1), 0)
    with pytest.raises(ValueError):
        scale_domain(Cube(2, 1), F(-1, 2))


@given(convex_with_vectors(), positive_fractions_st)
@settings(max_examples=60, deadline=None)
def test_support_homogeneity(case, s):
    d, v, _ = case
    assert support_value(scale_domain(d, s), v) == s * support_value(d, v)


@given(concave_with_vectors(), positive_fractions_st)
@settings(max_examples=60, deadline=None)
def test_antinorm_homogeneity(case, s):
    d, v, _ = case
    assert antinorm_value(scale_domain(d, s), v) == s * antinorm_value(d, v)


# ------------------------------------------------------------------ properties


@given(convex_with_vectors())
@settings(max_examples=60, deadline=None)
def test_support_subadditive(case):
    d, v, w = case
    total = tuple(a + b for a, b in zip(v, w))
    assert support_value(d, total) <= support_value(d, v) + support_value(d, w)


@given(concave_with_vectors())
@settings(max_examples=60, deadline=None)
def test_antinorm_superadditive(case):
    d, v, w = case
    total = tuple(a + b for a, b in zip(v, w))
    assert antinorm_value(d, total) >= antinorm_value(d, v) + antinorm_value(d, w)


def test_monotone_under_containment():
    rng = random.Random(11)
    for _ in range(60):
        d = random_convex(rng, max_n=3, max_points=4)
        bigger = grow_convex(rng, d)
        v = tuple(rng.randint(0, 5) for _ in range(d.n))
        assert support_value(d, v) <= support_value(bigger, v)

        c = random_concave(rng, max_n=3, max_points=4)
        larger = grow_concave(rng, c)
        u = tuple(rng.randint(1, 5) for _ in range(c.n))
        assert antinorm_value(c, u) <= antinorm_value(larger, u)


def test_ellipsoid_conversion_formulas():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        axes = tuple(F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n))
        e = Ellipsoid(axes)
        v = tuple(rng.randint(1, 6) for _ in range(n))
        assert support_value(e.to_convex(), v) == max(a * x for a, x in zip(axes, v))
        assert antinorm_value(e.to_concave(), v) == min(a * x for a, x in zip(axes, v))


def test_ellipsoid_conversions_with_infinite_axes():
    # an infinite axis bounds nothing: the staircase keeps the finite axes' vertices
    e = Ellipsoid((F(5, 3), "inf", F(7, 4)))
    assert e.to_concave().vertices == ((F(5, 3), 0, 0), (0, 0, F(7, 4)))
    assert Ellipsoid((2, "inf")).to_concave().vertices == ((2, 0),)
    with pytest.raises(UnboundedDomainError):
        e.to_convex()
    with pytest.raises(UnboundedDomainError):
        Ellipsoid(("inf", "inf")).to_concave()


def test_max_total_returns_optimal_primal_and_dual():
    # the strategies the lattice search reads: x and y, scaled by one d,
    # are feasible for the program and its dual and attain the same total
    rng = random.Random(1968)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randint(0, 5) for _ in range(n)] for _ in range(m)]
        for j in range(n):
            matrix[rng.randrange(m)][j] += 1  # no zero column
        d, primal, dual = _max_total(matrix)
        assert d > 0 and sum(primal) == sum(dual) and min(primal + dual) >= 0
        assert all(sum(a * x for a, x in zip(row, primal)) <= d for row in matrix)
        assert all(sum(y * row[j] for y, row in zip(dual, matrix)) >= d for j in range(n))


def _seeded_matrix(rng):
    """A nonnegative integer matrix from 1 by 1 up to 8 by 12, tall or
    wide, with zero entries and often a duplicate row or column; entries
    from a small range tie many ratios."""
    m, n = rng.choice(
        [(1, 1), (1, rng.randint(2, 12)), (rng.randint(2, 8), 1)]
        + [(rng.randint(1, 8), rng.randint(1, 12))] * 3
    )
    high = rng.choice((1, 2, 3, 9))
    matrix = [[rng.randint(0, high) * (rng.random() < 0.7) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        matrix[rng.randrange(m)] = list(matrix[rng.randrange(m)])
    if n > 1 and rng.random() < 0.3:
        i, j = rng.randrange(n), rng.randrange(n)
        for row in matrix:
            row[i] = row[j]
    return matrix


def test_condensed_tableau_matches_the_full_one(monkeypatch):
    # Bland's rule by labels takes the full tableau's pivots, so the
    # programs give the same d, primal and dual, and the games (their
    # entries shifted below zero, zero columns kept) the same value and
    # strategies
    rng = random.Random(1977)
    programs, games = [], []
    for _ in range(5000):
        matrix = _seeded_matrix(rng)
        offset = rng.randint(0, 3)
        games.append([[a - offset for a in row] for row in matrix])
        for j in range(len(matrix[0])):
            if not any(row[j] for row in matrix):
                matrix[rng.randrange(len(matrix))][j] = rng.randint(1, 3)
        programs.append(matrix)
    for matrix in programs:
        assert _max_total(matrix) == reference_max_total(matrix), matrix
    with monkeypatch.context() as patch:
        patch.setattr(domains_module, "_max_total", reference_max_total)
        expected = list(map(_game, games))
    for matrix, game in zip(games, expected):
        assert _game(matrix) == game, matrix
