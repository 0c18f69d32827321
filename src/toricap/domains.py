"""Toric domain descriptions and their exact geometric primitives.

A toric domain lives in R^{2n} but is described entirely by its moment-map
image, a region of the nonnegative orthant of R^n.  Each domain kind
declares the ``shape`` of that description:

* ``"ellipsoid"`` -- ``Ellipsoid``, the simplex sum_i x_i/a_i <= 1, whose
  axes may be infinite;
* ``"hull"`` -- everything below the convex hull of some points: a
  ``ConvexToricDomain``, a ``Polydisk`` (the one point (a_1, ..., a_n)) or
  a ``Cube`` (the one point (delta, ..., delta));
* ``"staircase"`` -- everything below the staircase spanned by some
  vertices: a ``ConcaveToricDomain`` or a ``CylinderUnion`` (the one vertex
  (delta, ..., delta)).

Hull and staircase kinds list those ``points`` and cache them as integer
rows over one common denominator.  ``shape_of`` reads a domain's shape
and is the one check that an argument is a toric domain (of the shape an
operation needs).  The geometric evaluations the capacity formulas consume:

* ``support_value`` -- max of <v, w> over a hull, evaluated at
  nonnegative lattice vectors, where the max over the generator points is
  exact;
* ``antinorm_value`` -- min of <v, w> over a staircase boundary, evaluated
  at strictly positive lattice vectors, where the min over the staircase
  vertices is exact;
* ``diagonal_intersection`` -- the largest t with (t, ..., t) inside the
  region: a closed form for an ellipsoid, else the value of a matrix game,
  which ``_game`` solves as a small linear program by an exact simplex;
* ``scale_domain`` -- multiply the region by a positive rational.

Every kind is a ``_Record``: an immutable value whose ``_fields`` are set
once by its ``__init__``, which normalises and checks them; equality and
hashing go by the kind and those fields, so ``Cube(2, 1)`` and
``CylinderUnion(2, 1)`` differ.  Only the caches of ``_Points`` are added
later, to the instance dict.  All coordinates are ``Fraction`` and every
function here is pure.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import DimensionMismatch, UnboundedDomainError
from .rationals import ExtendedRational, is_infinite, positive_int, to_rational

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


class _Record:
    """An immutable value: the fields named in ``_fields``, set once by the
    kind's ``__init__`` through ``object.__setattr__``."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Ellipsoid(_Record):
    """E(a_1, ..., a_n): the region sum_i x_i/a_i <= 1.

    An axis may be ``math.inf`` (or the string ``"inf"``), giving a
    symplectic cylinder factor; such axes are simply absent from the
    capacity spectrum.
    """

    axes: tuple[ExtendedRational, ...]
    _fields = ("axes",)
    shape = "ellipsoid"

    def __init__(self, axes: Sequence[object]) -> None:
        axes = tuple(to_rational(a, allow_infinite=True) for a in axes)
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

    def _axis_vertices(self) -> tuple[Point, ...]:
        """The vertices a_i * e_i of the finite axes."""
        return tuple(
            tuple(a if j == i else Fraction(0) for j in range(self.n))
            for i, a in enumerate(self.axes)
            if not is_infinite(a)
        )

    def to_convex(self) -> "ConvexToricDomain":
        """Simplex form: generators a_i * e_i.  Finite axes only."""
        vertices = self._axis_vertices()
        if len(vertices) != self.n:
            raise UnboundedDomainError("cannot convert an infinite-axis ellipsoid")
        return ConvexToricDomain(vertices)

    def to_concave(self) -> "ConcaveToricDomain":
        """Staircase form: the staircase spanned by a_i * e_i over the finite
        axes, since an infinite axis bounds nothing.  Needs a finite axis."""
        vertices = self._axis_vertices()
        if not vertices:
            raise UnboundedDomainError("every axis is infinite: no staircase bounds the region")
        return ConcaveToricDomain(vertices)

    def __str__(self) -> str:
        return "E(" + ", ".join("inf" if is_infinite(a) else str(a) for a in self.axes) + ")"


class _Points(_Record):
    """A hull or staircase kind: its region is given by ``points``."""

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return _scaled_integer_rows(self.points)

    @cached_property
    def _search(self):
        """The region's lattice search with the bounds it prepares, kept
        with the domain like ``_scaled`` (see ``capacities._Search``)."""
        from .capacities import _Search  # capacities imports this module

        return _Search(self)


class Polydisk(_Points):
    """P(a_1, ..., a_n): the box 0 <= x_i <= a_i, the hull of its far corner."""

    areas: tuple[Fraction, ...]
    _fields = ("areas",)
    shape = "hull"

    def __init__(self, areas: Sequence[object]) -> None:
        areas = tuple(to_rational(a) for a in areas)
        if not areas:
            raise ValueError("polydisk needs at least one factor")
        for a in areas:
            if a <= 0:
                raise ValueError(f"polydisk areas must be positive, got {a}")
        object.__setattr__(self, "areas", areas)

    @property
    def n(self) -> int:
        return len(self.areas)

    @property
    def points(self) -> tuple[Point, ...]:
        return (self.areas,)

    def __str__(self) -> str:
        return "P(" + ", ".join(str(a) for a in self.areas) + ")"


class _Diagonal(_Points):
    """A region given by the one point (delta, ..., delta) in n dimensions."""

    n: int
    delta: Fraction
    _fields = ("n", "delta")

    def __init__(self, n: int, delta: object) -> None:
        positive_int(n, f"{self._what} dimension")
        delta = to_rational(delta)
        if delta <= 0:
            raise ValueError(f"{self._what} size must be positive, got {delta}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "delta", delta)

    @property
    def points(self) -> tuple[Point, ...]:
        return ((self.delta,) * self.n,)

    def __str__(self) -> str:
        return f"{type(self).__name__}_{self.n}({self.delta})"


class Cube(_Diagonal):
    """The cube P(delta, ..., delta) in n complex dimensions: the hull of its
    far corner."""

    shape = "hull"
    _what = "cube"


class CylinderUnion(_Diagonal):
    """Union of the n symplectic cylinders min_i x_i <= delta (unbounded):
    the region below the one staircase vertex (delta, ..., delta)."""

    shape = "staircase"
    _what = "cylinder-union"


class _PointSet(_Points):
    """A hull or staircase listed point by point, in its one field."""

    @property
    def points(self) -> tuple[Point, ...]:
        return getattr(self, self._fields[0])

    @property
    def n(self) -> int:
        return len(self.points[0])

    def __str__(self) -> str:
        return f"{type(self).__name__}({len(self.points)} {self._fields[0]}, n={self.n})"


class ConvexToricDomain(_PointSet):
    """Region generated by points: the downward convex hull in the orthant.

    The region is *defined* as the smallest convex moment image containing
    the generators (their convex hull together with everything below it in
    the orthant).  Every capacity computation consumes the region only
    through support values at nonnegative vectors, for which the max over
    the generator points is exact, so no hull construction is ever needed.
    """

    generators: tuple[Point, ...]
    _fields = ("generators",)
    shape = "hull"

    def __init__(self, generators: object) -> None:
        object.__setattr__(self, "generators", _normalize_points(generators, "generators"))


class ConcaveToricDomain(_PointSet):
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
    _fields = ("vertices",)
    shape = "staircase"

    def __init__(self, vertices: object) -> None:
        object.__setattr__(self, "vertices", _normalize_points(vertices, "staircase vertices"))


ToricDomain = Union[
    Ellipsoid, Polydisk, Cube, CylinderUnion, ConvexToricDomain, ConcaveToricDomain
]
Hull = Union[ConvexToricDomain, Polydisk, Cube]
Staircase = Union[ConcaveToricDomain, CylinderUnion]


def shape_of(domain: object, expected: Optional[str] = None) -> str:
    """The shape of a toric domain's region, checked to be ``expected`` when
    that is given; anything else is a TypeError."""
    shape = getattr(domain, "shape", None)
    if shape not in ("ellipsoid", "hull", "staircase"):
        raise TypeError(f"not a toric domain: {type(domain).__name__}")
    if expected not in (None, shape):
        raise TypeError(f"{domain} is a {shape} region, not a {expected}")
    return shape


def _check_vector(v: LatticeVector, n: int, positive: bool = False) -> None:
    if len(v) != n:
        raise DimensionMismatch(f"vector has length {len(v)}, domain has dimension {n}")
    least, kind = (1, "strictly positive") if positive else (0, "nonnegative")
    for entry in v:
        # a float would leave exact arithmetic, and a bool is no coordinate
        if isinstance(entry, bool) or not isinstance(entry, int) or entry < least:
            raise ValueError(f"vector entries must be {kind} integers, got {tuple(v)}")


def support_value(domain: Hull, v: LatticeVector) -> Fraction:
    """Max of <v, w> over the region, exact for nonnegative v.

    Because the region is the downward hull of the generators and v >= 0,
    the max over the generator points alone is the support value.
    """
    shape_of(domain, "hull")
    _check_vector(v, domain.n)
    denom, rows = domain._scaled
    best = max(sum(a * b for a, b in zip(v, row)) for row in rows)
    return Fraction(best, denom)


def antinorm_value(domain: Staircase, v: LatticeVector) -> Fraction:
    """Min of <v, w> over the staircase boundary, exact for v > 0.

    Only strictly positive v are accepted: on the staircase the minimum
    over the vertex set equals the true boundary minimum only when every
    component of v is positive.
    """
    shape_of(domain, "staircase")
    _check_vector(v, domain.n, positive=True)
    denom, rows = domain._scaled
    best = min(sum(a * b for a, b in zip(v, row)) for row in rows)
    return Fraction(best, denom)


def _rescaled(value: object, factor: Fraction) -> object:
    # coordinate tuples recurse; a dimension n or an infinite axis stays put
    if isinstance(value, tuple):
        return tuple(_rescaled(v, factor) for v in value)
    return factor * value if isinstance(value, Fraction) else value


def scale_domain(domain: ToricDomain, s: object) -> ToricDomain:
    """Multiply the moment image by the positive rational s: every rational
    field of the domain is scaled by s."""
    factor = to_rational(s)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return type(domain)(*(_rescaled(value, factor) for value in domain._values()))


def diagonal_intersection(domain: ToricDomain) -> Fraction:
    """Largest t such that the diagonal point (t, ..., t) lies in the region.

    An ellipsoid has a closed form: its infinite axes bound nothing, so
    t = 1/sum(1/a_i) over its finite axes, and only an ellipsoid with every
    axis infinite has no diagonal bound.

    A hull's t = max over convex combinations l of min_i (sum_j l_j p_j)_i
    is the value of the game (``_game``) of its points p_j against the
    coordinates i; a staircase's t = min over l of max_i (sum_j l_j p_j)_i
    is minus the value of the game on its negated points.  So a polydisk's
    one point gives t = min(areas), and a coordinate zero at every hull
    point, or a staircase vertex at the origin, gives t = 0.
    """
    shape = shape_of(domain)
    if shape == "ellipsoid":
        if not domain.finite_axes:
            raise UnboundedDomainError(
                "diagonal intersection undefined: every ellipsoid axis is infinite"
            )
        return 1 / sum(1 / a for a in domain.finite_axes)
    (denom, rows), sign = domain._scaled, 1 if shape == "hull" else -1
    return sign * _game([[sign * c for c in row] for row in rows])[0] / denom


def _game(matrix: Sequence[Sequence[int]]) -> tuple[Fraction, list[int], list[int]]:
    """(value, y, x) of the game in which a mix y of the rows raises and a
    mix x of the columns lowers <y, matrix x>, with optimal integer weights:
    min_j <y, column j> / sum(y) = value = max_w <row w, x> / sum(x).

    The one setup of ``_max_total``, one constraint per row: a taller game
    is played as its negated transpose, so the tableau stays linear in the
    longer side.  The entries are shifted to at least 1, making the total
    1 / (value + shift), and the columns go in cheapest first.
    """
    if len(matrix) > len(matrix[0]):
        value, y, x = _game([list(map(operator.neg, column)) for column in zip(*matrix)])
        return -value, x, y
    shift = 1 - min(map(min, matrix))
    order = sorted(range(len(matrix[0])), key=list(map(sum, zip(*matrix))).__getitem__)
    total, primal, y = _max_total([[row[j] + shift for j in order] for row in matrix])
    x = [0] * len(order)
    for j, xj in zip(order, primal):
        x[j] = xj
    return Fraction(total.denominator - shift * total.numerator, total.numerator), y, x


def _max_total(
    matrix: Sequence[Sequence[int]],
) -> tuple[Fraction, list[int], list[int]]:
    """(value, primal, dual) of max sum(x) subject to matrix @ x <= 1 and
    x >= 0, exactly.

    ``matrix`` is nonnegative and has no zero column, so the program is
    bounded and the origin is a feasible start.  The simplex tableau is kept
    fraction-free: every entry is d times its rational value, d being the
    determinant of the current basis, so each pivot's division is exact and
    only integers are touched until the final quotient.  Bland's rule (least
    entering index, least leaving basic variable among ratio ties) rules out
    cycling on the degenerate pivots that duplicate or tied points cause;
    the ratios are compared as integer cross products.  ``primal`` and
    ``dual`` are d times an optimal x and an optimal y >= 0 of the dual
    program (min sum(y) subject to y @ matrix >= 1), read off the final
    right-hand side and the cost row's slack entries: integers, each summing
    to d times the value.
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
            return Fraction(cost[-1], d), primal, cost[n:-1]
        # the program is bounded, so an improving column has a positive
        # entry; the least ratio rhs / entry, then the least basic variable
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
