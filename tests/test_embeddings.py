import random
import time
from fractions import Fraction

import pytest

from toricap import (
    ConcaveToricDomain,
    ConvexToricDomain,
    Cube,
    CylinderUnion,
    DimensionMismatch,
    Ellipsoid,
    Polydisk,
    asymptotic_slope,
    capacity_sequence,
    cube_capacity,
    gromov_width,
    lagrangian_lower_bound,
    obstruct,
)
from helpers import grow_concave, grow_convex, random_concave, random_convex, random_point

F = Fraction


def test_cube_capacity_examples():
    assert cube_capacity(Ellipsoid((1, 2))) == F(2, 3)
    assert cube_capacity(CylinderUnion(3, 1)) == 1
    assert cube_capacity(Cube(4, F(5, 7))) == F(5, 7)
    assert cube_capacity(Polydisk((3, 2, 5))) == 2


# Seconds allowed for one cube capacity at n = 8 with 16 points.  The
# simplex takes a few milliseconds there; enumerating the basic solutions
# instead would solve C(24, 8) = 735,471 square systems.
HOSTILE_CUBE_SECONDS = 2.0


@pytest.mark.parametrize("kind", [ConvexToricDomain, ConcaveToricDomain])
def test_cube_capacity_hostile_size(kind):
    rng = random.Random(8)
    points = tuple(random_point(rng, 8, positive=(j == 0)) for j in range(16))
    start = time.perf_counter()
    value = cube_capacity(kind(points))
    elapsed = time.perf_counter() - start
    assert value > 0
    assert elapsed < HOSTILE_CUBE_SECONDS, f"{elapsed:.2f} s at n = 8 with 16 points"


def test_gromov_width_examples():
    assert gromov_width(ConcaveToricDomain(((1, 0), (0, 2)))) == 1
    assert gromov_width(ConcaveToricDomain(((2, 2, 2),))) == 6
    assert gromov_width(ConcaveToricDomain(((1, 0), (F(1, 2), F(1, 2)), (0, 1)))) == 1


def test_gromov_width_equals_first_capacity():
    rng = random.Random(61)
    for _ in range(30):
        d = random_concave(rng, max_n=4)
        assert gromov_width(d) == capacity_sequence(d, 1).value(1)


def test_gromov_width_of_ellipsoids():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(1, 4)
        axes = tuple(F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n))
        assert gromov_width(Ellipsoid(axes).to_concave()) == min(axes)


def test_obstruct_cube_into_shrunk_cylinder_union():
    report = obstruct(Cube(2, 1), CylinderUnion(2, F(9, 10)), 12)
    assert report.first_violation == 10
    # the rows expose both sequences
    assert report.rows[0] == (1, 1, F(9, 5))
    assert report.rows[9] == (10, 10, F(99, 10))


def test_obstruct_no_violation_cases():
    assert obstruct(Cube(2, 1), CylinderUnion(2, 1), 50).first_violation is None
    d = Ellipsoid((1, 2))
    assert obstruct(d, d, 20).first_violation is None


def test_obstruct_monotone_containment_never_violates():
    rng = random.Random(71)
    for _ in range(10):
        d = random_convex(rng, max_n=3, max_points=4)
        assert obstruct(d, grow_convex(rng, d), 10).first_violation is None
        c = random_concave(rng, max_n=3, max_points=4)
        assert obstruct(c, grow_concave(rng, c), 10).first_violation is None


def test_obstruct_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        obstruct(Cube(2, 1), Cube(3, 1), 5)


def test_asymptotic_slope_examples():
    r = asymptotic_slope(Ellipsoid((1, 2)), 30)
    assert (r.estimate, r.exact) == (F(2, 3), F(2, 3))

    r = asymptotic_slope(Cube(2, 1), 17)
    assert (r.estimate, r.exact) == (1, 1)

    r = asymptotic_slope(CylinderUnion(2, 1), 9)
    assert r == (F(10, 9), 1, 1, F(10, 9))


def test_asymptotic_slope_bracket():
    rng = random.Random(73)
    for _ in range(15):
        d = random_convex(rng, max_n=3, max_points=4) if rng.random() < 0.5 else random_concave(
            rng, max_n=3, max_points=4
        )
        kmax = rng.randint(5, 20)
        r = asymptotic_slope(d, kmax)
        assert r.lower <= r.estimate <= r.upper
        assert r.lower == cube_capacity(d)
        assert r.upper == r.lower * (kmax + d.n - 1) / kmax


def test_lagrangian_lower_bound_is_cube_capacity():
    for d in (Ellipsoid((1, 2)), Cube(3, F(4, 5)), CylinderUnion(2, 1), Polydisk((1, 2))):
        assert lagrangian_lower_bound(d) == cube_capacity(d)
