"""One region written as different domain kinds gives the same answers.

Each case pairs domains whose moment regions coincide: an ellipsoid and
its simplex as a hull and as a staircase, a cube, the polydisk of equal
sides and its one-generator hull, a cylinder union and its one-vertex
staircase, and the cylinder E(2, inf) and the staircase of the single
vertex (2, 0).  Their c_1..c_K, cube capacities and slopes must agree,
and so must their Gromov widths wherever ``toricap gromov`` accepts both.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import toricap.cli as cli
from toricap import (
    ConcaveToricDomain,
    ConvexToricDomain,
    Cube,
    CylinderUnion,
    Ellipsoid,
    Polydisk,
    ToricapError,
    asymptotic_slope,
    capacity_sequence,
    cube_capacity,
    gromov_width,
)

F = Fraction
KMAX = 12


def _ellipsoid_forms(axes):
    e = Ellipsoid(axes)
    return [e, e.to_convex(), e.to_concave()]


def _cube_forms(n, delta):
    return [Cube(n, delta), Polydisk((delta,) * n), ConvexToricDomain(((delta,) * n,))]


def _cylinder_union_forms(n, delta):
    return [CylinderUnion(n, delta), ConcaveToricDomain(((delta,) * n,))]


CASES = {
    "ellipsoid_n2": _ellipsoid_forms((1, 2)),
    "ellipsoid_n3": _ellipsoid_forms((F(3, 2), F(5, 3), F(7, 4))),
    "cube_n2": _cube_forms(2, F(5, 4)),
    "cube_n3": _cube_forms(3, F(2, 7)),
    "cylinder_union_n2": _cylinder_union_forms(2, F(9, 10)),
    "cylinder_union_n3": _cylinder_union_forms(3, F(9, 10)),
    "cylinder_e2_inf": [Ellipsoid((2, "inf")), ConcaveToricDomain(((2, 0),))],
}

# cases where every form is accepted by ``gromov``
GROMOV_ON_ALL = {"cylinder_union_n2", "cylinder_union_n3"}


def _gromov(domain):
    """The Gromov width as ``toricap gromov`` computes it, or None where the
    command rejects the domain."""
    try:
        return gromov_width(cli._gromov_domain(domain))
    except ToricapError:
        return None


@pytest.mark.parametrize("case", sorted(CASES))
def test_same_region_same_answers(case):
    first, *others = CASES[case]
    values = capacity_sequence(first, KMAX).raw_values()
    cube = cube_capacity(first)
    slope = asymptotic_slope(first, KMAX)
    gromov = _gromov(first)
    for other in others:
        assert capacity_sequence(other, KMAX).raw_values() == values, other
        assert cube_capacity(other) == cube, other
        assert asymptotic_slope(other, KMAX) == slope, other
        width = _gromov(other)
        if gromov is not None and width is not None:
            assert width == gromov, other
    widths = [_gromov(d) for d in CASES[case]]
    if case in GROMOV_ON_ALL:
        assert None not in widths and len(set(widths)) == 1
