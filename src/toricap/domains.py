"""Toric domain descriptions and their exact geometric primitives.

A toric domain lives in R^{2n} but is described entirely by its moment-map
image, a region of the nonnegative orthant of R^n.  This module holds the
region descriptions (ellipsoid, polydisk, cube, cylinder union, general
convex hulls and concave staircases) and the few geometric evaluations the
capacity formulas actually consume:

* ``support_value`` -- max of <v, w> over a convex region, evaluated at
  nonnegative lattice vectors, where the max over the generator points is
  exact;
* ``antinorm_value`` -- min of <v, w> over a staircase boundary, evaluated
  at strictly positive lattice vectors, where the min over the staircase
  vertices is exact;
* ``diagonal_intersection`` -- the largest t with (t, ..., t) inside the
  region: a closed form for the special families, else the value of a
  matrix game solved as a small linear program by an exact simplex;
* ``scale_domain`` -- multiply the region by a positive rational.

All coordinates are ``Fraction``; everything here is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import DimensionMismatch, UnboundedDomainError
from .rationals import ExtendedRational, is_infinite, to_rational

Point = tuple[Fraction, ...]
LatticeVector = tuple[int, ...]


def _normalize_points(rows: object, what: str) -> tuple[Point, ...]:
    try:
        entries = tuple(tuple(to_rational(c) for c in row) for row in rows)  # type: ignore[union-attr]
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"invalid {what}: {exc}") from None
    if not entries:
        raise ValueError(f"{what} must be a nonempty list of points")
    width = len(entries[0])
    if width == 0:
        raise ValueError(f"{what} must have dimension >= 1")
    for row in entries:
        if len(row) != width:
            raise DimensionMismatch(
                f"{what} have inconsistent dimensions ({len(row)} vs {width})"
            )
        for c in row:
            if c < 0:
                raise ValueError(f"{what} must have nonnegative coordinates, got {c}")
    return entries


def _scaled_integer_rows(points: tuple[Point, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    # Clear denominators once so the hot search loops run on plain ints.
    denom = math.lcm(*[c.denominator for row in points for c in row])
    rows = tuple(
        tuple(c.numerator * (denom // c.denominator) for c in row) for row in points
    )
    return denom, rows


@dataclass(frozen=True)
class Ellipsoid:
    """E(a_1, ..., a_n): the region sum_i x_i/a_i <= 1.

    An axis may be ``math.inf`` (or the string ``"inf"``), giving a
    symplectic cylinder factor; such axes are simply absent from the
    capacity spectrum.
    """

    axes: tuple[ExtendedRational, ...]

    def __post_init__(self) -> None:
        axes = tuple(to_rational(a, allow_infinite=True) for a in self.axes)
        if not axes:
            raise ValueError("ellipsoid needs at least one axis")
        for a in axes:
            if not is_infinite(a) and a <= 0:
                raise ValueError(f"ellipsoid axes must be positive, got {a}")
        object.__setattr__(self, "axes", axes)

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def finite_axes(self) -> tuple[Fraction, ...]:
        return tuple(a for a in self.axes if not is_infinite(a))

    def to_convex(self) -> "ConvexToricDomain":
        """Simplex form: generators a_i * e_i.  Finite axes only."""
        if len(self.finite_axes) != self.n:
            raise UnboundedDomainError("cannot convert an infinite-axis ellipsoid")
        gens = tuple(
            tuple(self.axes[i] if j == i else Fraction(0) for j in range(self.n))
            for i in range(self.n)
        )
        return ConvexToricDomain(gens)

    def to_concave(self) -> "ConcaveToricDomain":
        """Staircase form with the same simplex vertices.  Finite axes only."""
        if len(self.finite_axes) != self.n:
            raise UnboundedDomainError("cannot convert an infinite-axis ellipsoid")
        verts = tuple(
            tuple(self.axes[i] if j == i else Fraction(0) for j in range(self.n))
            for i in range(self.n)
        )
        return ConcaveToricDomain(verts)

    def __str__(self) -> str:
        return "E(" + ", ".join("inf" if is_infinite(a) else str(a) for a in self.axes) + ")"


@dataclass(frozen=True)
class Polydisk:
    """P(a_1, ..., a_n): the box 0 <= x_i <= a_i."""

    areas: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        areas = tuple(to_rational(a) for a in self.areas)
        if not areas:
            raise ValueError("polydisk needs at least one factor")
        for a in areas:
            if a <= 0:
                raise ValueError(f"polydisk areas must be positive, got {a}")
        object.__setattr__(self, "areas", areas)

    @property
    def n(self) -> int:
        return len(self.areas)

    def to_convex(self) -> "ConvexToricDomain":
        """The box is the downward closure of its far corner."""
        return ConvexToricDomain((self.areas,))

    def __str__(self) -> str:
        return "P(" + ", ".join(str(a) for a in self.areas) + ")"


@dataclass(frozen=True)
class Cube:
    """The cube P(delta, ..., delta) in n complex dimensions."""

    n: int
    delta: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"cube dimension must be a positive integer, got {self.n}")
        delta = to_rational(self.delta)
        if delta <= 0:
            raise ValueError(f"cube size must be positive, got {delta}")
        object.__setattr__(self, "delta", delta)

    def to_polydisk(self) -> Polydisk:
        return Polydisk((self.delta,) * self.n)

    def __str__(self) -> str:
        return f"Cube_{self.n}({self.delta})"


@dataclass(frozen=True)
class CylinderUnion:
    """Union of the n symplectic cylinders min_i x_i <= delta (unbounded)."""

    n: int
    delta: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(
                f"cylinder-union dimension must be a positive integer, got {self.n}"
            )
        delta = to_rational(self.delta)
        if delta <= 0:
            raise ValueError(f"cylinder-union size must be positive, got {delta}")
        object.__setattr__(self, "delta", delta)

    def __str__(self) -> str:
        return f"CylinderUnion_{self.n}({self.delta})"


@dataclass(frozen=True)
class ConvexToricDomain:
    """Region generated by points: the downward convex hull in the orthant.

    The region is *defined* as the smallest convex moment image containing
    the generators (their convex hull together with everything below it in
    the orthant).  Every capacity computation consumes the region only
    through support values at nonnegative vectors, for which the max over
    the generator points is exact, so no hull construction is ever needed.
    """

    generators: tuple[Point, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "generators", _normalize_points(self.generators, "generators")
        )

    @property
    def n(self) -> int:
        return len(self.generators[0])

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return _scaled_integer_rows(self.generators)

    def __str__(self) -> str:
        return f"ConvexToricDomain({len(self.generators)} generators, n={self.n})"


@dataclass(frozen=True)
class ConcaveToricDomain:
    """Region below a staircase boundary spanned by the given vertices.

    The staircase is the lower boundary of conv(vertices) + orthant; the
    region is everything in the orthant on or below it.  For strictly
    positive v the min of <v, w> over the staircase equals the min over the
    vertices (adding the orthant cone can only increase the inner product),
    which is all the capacity formulas need.  A caller who intends a
    specific compact region must list the points where the staircase meets
    the coordinate hyperplanes among the vertices; this is documented
    intent, not something the class can verify.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertices", _normalize_points(self.vertices, "staircase vertices")
        )

    @property
    def n(self) -> int:
        return len(self.vertices[0])

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return _scaled_integer_rows(self.vertices)

    def __str__(self) -> str:
        return f"ConcaveToricDomain({len(self.vertices)} vertices, n={self.n})"


ToricDomain = Union[
    Ellipsoid, Polydisk, Cube, CylinderUnion, ConvexToricDomain, ConcaveToricDomain
]


def dimension(domain: ToricDomain) -> int:
    """Ambient complex dimension n of the domain."""
    return domain.n


def _check_vector(v: LatticeVector, n: int, positive: bool = False) -> None:
    if len(v) != n:
        raise DimensionMismatch(f"vector has length {len(v)}, domain has dimension {n}")
    for entry in v:
        if entry < 0 or (positive and entry == 0):
            kind = "strictly positive" if positive else "nonnegative"
            raise ValueError(f"vector entries must be {kind}, got {tuple(v)}")


def support_value(domain: ConvexToricDomain, v: LatticeVector) -> Fraction:
    """Max of <v, w> over the region, exact for nonnegative v.

    Because the region is the downward hull of the generators and v >= 0,
    the max over the generator points alone is the support value.
    """
    _check_vector(v, domain.n)
    denom, rows = domain._scaled
    best = max(sum(a * b for a, b in zip(v, row)) for row in rows)
    return Fraction(best, denom)


def antinorm_value(domain: ConcaveToricDomain, v: LatticeVector) -> Fraction:
    """Min of <v, w> over the staircase boundary, exact for v > 0.

    Only strictly positive v are accepted: on the staircase the minimum
    over the vertex set equals the true boundary minimum only when every
    component of v is positive.
    """
    _check_vector(v, domain.n, positive=True)
    denom, rows = domain._scaled
    best = min(sum(a * b for a, b in zip(v, row)) for row in rows)
    return Fraction(best, denom)


def scale_domain(domain: ToricDomain, s: object) -> ToricDomain:
    """Multiply the moment image by the positive rational s."""
    factor = to_rational(s)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    if isinstance(domain, Ellipsoid):
        return Ellipsoid(tuple(a if is_infinite(a) else factor * a for a in domain.axes))
    if isinstance(domain, Polydisk):
        return Polydisk(tuple(factor * a for a in domain.areas))
    if isinstance(domain, Cube):
        return Cube(domain.n, factor * domain.delta)
    if isinstance(domain, CylinderUnion):
        return CylinderUnion(domain.n, factor * domain.delta)
    if isinstance(domain, ConvexToricDomain):
        return ConvexToricDomain(
            tuple(tuple(factor * c for c in row) for row in domain.generators)
        )
    if isinstance(domain, ConcaveToricDomain):
        return ConcaveToricDomain(
            tuple(tuple(factor * c for c in row) for row in domain.vertices)
        )
    raise TypeError(f"not a toric domain: {type(domain).__name__}")


def diagonal_intersection(domain: ToricDomain) -> Fraction:
    """Largest t such that the diagonal point (t, ..., t) lies in the region.

    Closed forms for the special families.  An ellipsoid's infinite axes
    bound nothing, so t = 1/sum(1/a_i) over its finite axes; only an
    ellipsoid with every axis infinite has no diagonal bound.

    For hull and staircase inputs t is the value of a matrix game between
    the points p_j and the coordinates i.  A hull gives t = max over convex
    combinations l of min_i (sum_j l_j p_j)_i, which by the minimax theorem
    is min over y in the coordinate simplex of max_j <y, p_j>; a staircase
    gives t = min over l of max_i (sum_j l_j p_j)_i.  Either is a min over
    mixed strategies s of max (A s), and dividing s by t gives x >= 0 with
    A x <= 1 and sum(x) = 1/t, so t = 1/max{sum(x) : A x <= 1, x >= 0}.
    A is the rows p_j for a hull and their transpose for a staircase, and
    ``_max_total`` solves the program.  A zero column of A -- a coordinate
    that is zero at every hull point, or a staircase vertex at the origin --
    leaves it unbounded: then t = 0.
    """
    if isinstance(domain, Ellipsoid):
        if not domain.finite_axes:
            raise UnboundedDomainError(
                "diagonal intersection undefined: every ellipsoid axis is infinite"
            )
        return 1 / sum(1 / a for a in domain.finite_axes)
    if isinstance(domain, Polydisk):
        return min(domain.areas)
    if isinstance(domain, Cube):
        return domain.delta
    if isinstance(domain, CylinderUnion):
        # The diagonal point (t, ..., t) has min coordinate t.
        return domain.delta
    if isinstance(domain, (ConvexToricDomain, ConcaveToricDomain)):
        denom, rows = domain._scaled
        matrix = rows if isinstance(domain, ConvexToricDomain) else tuple(zip(*rows))
        if any(not any(column) for column in zip(*matrix)):
            return Fraction(0)
        return 1 / _max_total(matrix) / denom
    raise TypeError(f"not a toric domain: {type(domain).__name__}")


def _max_total(matrix: tuple[tuple[int, ...], ...]) -> Fraction:
    """Max of sum(x) subject to matrix @ x <= 1 and x >= 0, exactly.

    ``matrix`` is nonnegative and has no zero column, so the program is
    bounded and the origin is a feasible start.  The simplex tableau is kept
    fraction-free: every entry is d times its rational value, d being the
    determinant of the current basis, so each pivot's division is exact and
    only integers are touched until the final quotient.  Bland's rule (least
    entering index, least leaving basic variable among ratio ties) rules out
    cycling on the degenerate pivots that duplicate or tied points cause.
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
            return Fraction(cost[-1], d)
        # the program is bounded, so an improving column has a positive entry
        pivot_row = min(
            (i for i, row in enumerate(tableau) if row[col] > 0),
            key=lambda i: (Fraction(tableau[i][-1], tableau[i][col]), basis[i]),
        )
        prow = tableau[pivot_row]
        p = prow[col]
        for i, row in enumerate(tableau):
            if i != pivot_row:
                f = row[col]
                tableau[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        f = cost[col]
        cost = [(p * x - f * y) // d for x, y in zip(cost, prow)]
        basis[pivot_row] = col
        d = p
