import random
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
    scale_domain,
    support_value,
)
from helpers import grow_concave, grow_convex, random_concave, random_convex

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
