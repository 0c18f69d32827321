import time
from fractions import Fraction

import pytest

from toricap import (
    ConcaveToricDomain,
    ConvexToricDomain,
    Cube,
    CylinderUnion,
    Ellipsoid,
    EnumerationCapExceeded,
    Polydisk,
    UnboundedDomainError,
    brute_capacity,
    brute_concave_capacity,
    brute_convex_capacity,
    brute_ellipsoid_capacity,
    cylinder_union_capacity,
)
from toricap.oracle import compositions

F = Fraction


def test_compositions_lexicographic():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert len(list(compositions(5, 3))) == 21


def test_brute_convex_examples():
    assert brute_convex_capacity(ConvexToricDomain(((1, 0), (0, 1))), 2) == 1
    assert brute_convex_capacity(ConvexToricDomain(((1, 1),)), 1) == 1
    assert brute_convex_capacity(ConvexToricDomain(((1, 0), (0, 2))), 4) == 3


def test_brute_concave_examples():
    assert brute_concave_capacity(ConcaveToricDomain(((1, 0), (0, 2))), 1) == 1
    assert brute_concave_capacity(ConcaveToricDomain(((1, 0), (0, 1))), 3) == 2
    point = ConcaveToricDomain(((F(3, 2), F(3, 2)),))
    for k in range(1, 6):
        assert brute_concave_capacity(point, k) == F(3, 2) * (k + 1)


def test_brute_ellipsoid_examples():
    assert brute_ellipsoid_capacity((1, 2), 3) == 2
    assert all(brute_ellipsoid_capacity((1,), k) == k for k in range(1, 9))
    assert brute_ellipsoid_capacity((1, 1, 1), 4) == 2
    assert brute_ellipsoid_capacity((1, "inf"), 6) == 6
    with pytest.raises(UnboundedDomainError):
        brute_ellipsoid_capacity(("inf",), 1)


def test_enumeration_cap():
    wide = ConvexToricDomain(((1,) * 6,))
    with pytest.raises(EnumerationCapExceeded):
        brute_convex_capacity(wide, 100, cap=1000)
    with pytest.raises(EnumerationCapExceeded):
        brute_concave_capacity(ConcaveToricDomain(((1,) * 6,)), 100, cap=1000)
    # an ellipsoid sorts n * k multiples: a huge k fails at once
    start = time.perf_counter()
    with pytest.raises(EnumerationCapExceeded, match="200000000 multiples"):
        brute_ellipsoid_capacity((1, 2), 10**8)
    with pytest.raises(EnumerationCapExceeded, match="8 multiples exceed .* cap of 7"):
        brute_capacity(Ellipsoid((1, 2, "inf", 3, 4)), 2, cap=7)
    assert time.perf_counter() - start < 1
    assert brute_capacity(Ellipsoid((1, 2, "inf", 3, 4)), 2, cap=8) == 2


def test_brute_capacity_covers_every_domain_kind():
    assert brute_capacity(Ellipsoid((1, 2)), 3) == 2
    assert brute_capacity(Polydisk((2, 3)), 7) == 14
    assert brute_capacity(Cube(2, 1), 3) == 3
    for k in range(1, 8):
        assert brute_capacity(CylinderUnion(3, F(1, 2)), k) == cylinder_union_capacity(
            3, F(1, 2), k
        )
    assert brute_capacity(ConvexToricDomain(((1, 0), (0, 1))), 2) == 1
    assert brute_capacity(ConcaveToricDomain(((1, 0), (0, 1))), 3) == 2
