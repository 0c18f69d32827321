"""Toric domain descriptions and their exact geometric primitives.

A toric domain lives in R^{2n} but is described entirely by its moment-map
image, a region of the nonnegative orthant of R^n.  Each domain kind
declares the ``shape`` of that description, and lists its ``points``:

* ``"hull"`` -- everything below the convex hull of the points: a
  ``ConvexToricDomain``, a ``Polydisk`` (the one point (a_1, ..., a_n)) or
  a ``Cube`` (the one point (delta, ..., delta));
* ``"staircase"`` -- everything below the staircase spanned by the points:
  a ``ConcaveToricDomain``, a ``CylinderUnion`` (the one vertex
  (delta, ..., delta)) or an ``Ellipsoid`` (the vertices a_i * e_i of its
  finite axes: an infinite axis bounds nothing).

Each kind keeps its points as integer rows over one common denominator,
``_scaled``.
``shape_of`` reads a domain's shape and is the one check that an argument
is a toric domain (of the shape an operation needs).  The geometric
evaluations the capacity formulas consume:

* ``support_value`` -- max of <v, w> over a hull, evaluated at
  nonnegative lattice vectors, where the max over the generator points is
  exact;
* ``antinorm_value`` -- min of <v, w> over a staircase boundary, evaluated
  at strictly positive lattice vectors, where the min over the staircase
  vertices is exact;
* ``diagonal_intersection`` -- the largest t with (t, ..., t) inside the
  region: the value of a matrix game, which ``_game`` solves as a small
  linear program by an exact simplex, or for an ellipsoid a closed form;
* ``scale_domain`` -- multiply the region by a positive rational.

Every kind is a ``_Record``: an immutable value whose ``_fields`` are set
once by its ``__init__``, which normalises and checks them; equality and
hashing go by the kind and those fields, so ``Cube(2, 1)`` and
``CylinderUnion(2, 1)`` differ.  That ``__init__`` is the one check of a
kind's data.  A point set's reads each coordinate once, as an integer pair
(``rational_pair``), and keeps only ``_scaled``: its field is a
``cached_property`` of ``Fraction`` rows built from those integers.  The
other kinds keep ``Fraction`` fields, and their integer caches, such as
``_scaled``, are added later, to the instance dict.  Every function here
is pure.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import DimensionMismatch, UnboundedDomainError
from .rationals import (
    ExtendedRational,
    format_rational,
    is_infinite,
    positive_int,
    rational_pair,
    to_rational,
)

Point = tuple[Fraction, ...]
LatticeVector = tuple[int, ...]


def _integer_rows(points: object, what: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(denom, rows) of a point list, as ``_scaled_integer_rows`` gives
    them: each coordinate read once, as an integer pair by
    ``rational_pair``, and every pair read before any is checked."""
    try:
        pairs = [tuple(map(rational_pair, row)) for row in points]  # type: ignore[union-attr]
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"invalid {what}: {exc}") from None
    if not pairs:
        raise ValueError(f"{what} must be a nonempty list of points")
    width = len(pairs[0])
    if width == 0:
        raise ValueError(f"{what} must have dimension >= 1")
    for row in pairs:
        if len(row) != width:
            raise DimensionMismatch(
                f"{what} have inconsistent dimensions ({len(row)} vs {width})"
            )
        for p, q in row:
            if p < 0:
                raise ValueError(
                    f"{what} must have nonnegative coordinates, got {format_rational(p, q)}"
                )
    denom = math.lcm(*{q for row in pairs for _, q in row})
    return denom, tuple(tuple(p * (denom // q) for p, q in row) for row in pairs)


def _scaled_integer_rows(points: tuple[Point, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    # Clear denominators once so the hot search loops run on plain ints.
    denom = math.lcm(*[c.denominator for row in points for c in row])
    rows = tuple(
        tuple(c.numerator * (denom // c.denominator) for c in row) for row in points
    )
    return denom, rows


class _Value:
    """An immutable value: the fields named in ``_fields`` are set once
    through ``object.__setattr__``, and equality, hashing and the repr go
    by the class and those fields.  A field may instead be a
    ``cached_property`` built on its first read, as may any cache, since
    both land in the instance dict: the domains and the capacity records
    are such values."""

    _fields: tuple[str, ...] = ()

    @classmethod
    def _from(cls, **attributes: object) -> _Value:
        """An instance holding these attributes, set past ``__init__``: the
        engine's integers, from which a ``cached_property`` field is built."""
        value = cls.__new__(cls)
        value.__dict__.update(attributes)
        return value

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


class _Record(_Value):
    """A domain kind: a ``_Value`` whose fields its ``__init__`` checks and
    sets, whose region is given by its ``points``."""

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return _scaled_integer_rows(self.points)

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """The scaled rows, negated for a staircase: the rows of the region's
        game and of the lattice search."""
        _, rows = self._scaled
        return rows if self.shape == "hull" else tuple(tuple(map(operator.neg, w)) for w in rows)

    @cached_property
    def _region_game(self) -> tuple[tuple[int, int], list[int], list[int]]:
        """``_game`` of ``_rows`` against the coordinates, played once per
        domain for the diagonal and the lattice search's root."""
        return _game(self._rows)

    @cached_property
    def _search(self):
        """The region's lattice search with the bounds it prepares, kept
        with the domain like ``_scaled`` (see ``capacities._Search``)."""
        from .capacities import _Search  # capacities imports this module

        return _Search(self)


class Ellipsoid(_Record):
    """E(a_1, ..., a_n): the region sum_i x_i/a_i <= 1, below the staircase
    of its vertices a_i * e_i.

    An axis may be ``math.inf`` (or the string ``"inf"``), giving a
    symplectic cylinder factor: it spans no vertex, so it bounds nothing and
    is absent from the capacity spectrum.  The closed forms read only
    ``finite_axes``, never the n-by-n staircase rows.
    """

    axes: tuple[ExtendedRational, ...]
    _fields = ("axes",)
    shape = "staircase"

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
        """The axes that bound the region; with none, the spectrum is empty."""
        finite = tuple(a for a in self.axes if not is_infinite(a))
        if not finite:
            raise UnboundedDomainError("every axis is infinite: the spectrum is empty")
        return finite

    @property
    def _corners(self) -> tuple[tuple[int, Fraction], ...]:
        """(i, a_i) for each finite axis, the vertex a_i * e_i without its
        zeros; with none, no staircase bounds the region."""
        corners = tuple((i, a) for i, a in enumerate(self.axes) if not is_infinite(a))
        if not corners:
            raise UnboundedDomainError("every axis is infinite: no staircase bounds the region")
        return corners

    @property
    def points(self) -> tuple[Point, ...]:
        """The vertices a_i * e_i of the finite axes."""
        zero = (Fraction(0),) * self.n
        return tuple(zero[:i] + (a,) + zero[i + 1 :] for i, a in self._corners)

    def to_convex(self) -> "ConvexToricDomain":
        """Simplex form: generators a_i * e_i.  Finite axes only."""
        if len(self.finite_axes) != self.n:
            raise UnboundedDomainError("cannot convert an infinite-axis ellipsoid")
        return ConvexToricDomain(self.points)

    def to_concave(self) -> "ConcaveToricDomain":
        """The same staircase as a ``ConcaveToricDomain``."""
        return ConcaveToricDomain(self.points)

    def __str__(self) -> str:
        return "E(" + ", ".join("inf" if is_infinite(a) else str(a) for a in self.axes) + ")"


class Polydisk(_Record):
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


# The largest n a cube or cylinder union may set.  A spec of a few bytes
# names it, and its one point has n coordinates: at 10^6 each subcommand
# that builds the point took at most 1.3 s and 107 MB on a 2-core x86
# machine with Python 3.11, so 10^9 could not finish.
MAX_DIMENSION = 10**6


class _Diagonal(_Record):
    """A region given by the one point (delta, ..., delta) in n dimensions."""

    n: int
    delta: Fraction
    _fields = ("n", "delta")

    def __init__(self, n: int, delta: object) -> None:
        positive_int(n, f"{self._what} dimension")
        if n > MAX_DIMENSION:
            raise ValueError(f"{self._what} dimension must be at most {MAX_DIMENSION}, got {n}")
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


class _PointSet(_Record):
    """A hull or staircase listed point by point, in its one field: a
    ``cached_property`` of ``_fraction_rows``, as ``__init__`` keeps only
    ``_scaled``."""

    @property
    def points(self) -> tuple[Point, ...]:
        return getattr(self, self._fields[0])

    @property
    def n(self) -> int:
        return len(self._scaled[1][0])

    def __str__(self) -> str:
        return f"{type(self).__name__}({len(self._scaled[1])} {self._fields[0]}, n={self.n})"


def _fraction_rows(domain: _PointSet) -> tuple[Point, ...]:
    denom, rows = domain._scaled
    return tuple(tuple(Fraction(a, denom) for a in row) for row in rows)


class ConvexToricDomain(_PointSet):
    """Region generated by points: the downward convex hull in the orthant.

    The region is *defined* as the smallest convex moment image containing
    the generators (their convex hull together with everything below it in
    the orthant).  Every capacity computation consumes the region only
    through support values at nonnegative vectors, for which the max over
    the generator points is exact, so no hull construction is ever needed.
    """

    generators = cached_property(_fraction_rows)
    _fields = ("generators",)
    shape = "hull"

    def __init__(self, generators: object) -> None:
        object.__setattr__(self, "_scaled", _integer_rows(generators, "generators"))


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

    vertices = cached_property(_fraction_rows)
    _fields = ("vertices",)
    shape = "staircase"

    def __init__(self, vertices: object) -> None:
        object.__setattr__(self, "_scaled", _integer_rows(vertices, "staircase vertices"))


ToricDomain = Union[
    Ellipsoid, Polydisk, Cube, CylinderUnion, ConvexToricDomain, ConcaveToricDomain
]
Hull = Union[ConvexToricDomain, Polydisk, Cube]
Staircase = Union[ConcaveToricDomain, CylinderUnion, Ellipsoid]


def shape_of(domain: object, expected: Optional[str] = None) -> str:
    """The shape of a toric domain's region, checked to be ``expected`` when
    that is given; anything else is a TypeError."""
    shape = getattr(domain, "shape", None)
    if shape not in ("hull", "staircase"):
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
    if type(domain) is Ellipsoid:  # its vertices a_i * e_i, read in O(n)
        return min(v[i] * a for i, a in domain._corners)
    denom, rows = domain._scaled
    best = min(sum(a * b for a, b in zip(v, row)) for row in rows)
    return Fraction(best, denom)


def _rescaled(value: object, factor: Fraction) -> object:
    # coordinate tuples recurse; a dimension n or an infinite axis stays put
    if isinstance(value, tuple):
        return tuple(_rescaled(v, factor) for v in value)
    return factor * value if isinstance(value, Fraction) else value


def scale_domain(domain: ToricDomain, s: object) -> ToricDomain:
    """Multiply the moment image by the positive rational s = p/q: every
    rational field of the domain is scaled by s.  A point set's rows, over
    denom, become the rows times p over denom times q, divided once by the
    gcd of that denominator and every entry: the denominator its
    constructor would pick, the lcm of the reduced coordinates'."""
    shape_of(domain)
    factor = to_rational(s)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    if not isinstance(domain, _PointSet):
        return type(domain)(*(_rescaled(value, factor) for value in domain._values()))
    denom, rows = domain._scaled
    p, denom = factor.numerator, denom * factor.denominator
    g = math.gcd(denom, *(a * p for row in rows for a in row))
    scaled = tuple(tuple(a * p // g for a in row) for row in rows)
    return type(domain)._from(_scaled=(denom // g, scaled))


def diagonal_intersection(domain: ToricDomain) -> Fraction:
    """Largest t such that the diagonal point (t, ..., t) lies in the region.

    An ellipsoid has a closed form: its infinite axes bound nothing, so
    t = 1/sum(1/a_i) over its finite axes, and only an ellipsoid with every
    axis infinite has no diagonal bound.

    A hull's t = max over convex combinations l of min_i (sum_j l_j p_j)_i
    is the value of the game of its points p_j against the coordinates i; a
    staircase's t = min over l of max_i (sum_j l_j p_j)_i is minus the value
    of the game on its negated points: the region's game, kept with the
    domain for the lattice search too, whose integer value becomes the one
    ``Fraction`` here.  So a polydisk's one point gives t = min(areas), and
    a coordinate zero at every hull point, or a staircase vertex at the
    origin, gives t = 0.
    """
    shape = shape_of(domain)
    if type(domain) is Ellipsoid:
        return 1 / sum(1 / a for a in domain.finite_axes)
    (top, bottom), _, _ = domain._region_game
    sign = 1 if shape == "hull" else -1
    return Fraction(sign * top, bottom * domain._scaled[0])


def _game(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, int], list[int], list[int]]:
    """(value, y, x) of the game in which a mix y of the rows raises and a
    mix x of the columns lowers <y, matrix x>, with optimal integer weights:
    min_j <y, column j> / sum(y) = value = max_w <row w, x> / sum(x).  The
    value is a pair of integers (numerator, denominator > 0), not reduced:
    only the diagonal makes it a ``Fraction``.

    The one setup of ``_max_total``, one constraint per row: a taller game
    is played as its negated transpose, so the tableau stays linear in the
    longer side.  The entries are shifted to at least 1, making the total
    1 / (value + shift), and the columns go in cheapest first.
    """
    if len(matrix) > len(matrix[0]):
        (top, bottom), y, x = _game([list(map(operator.neg, column)) for column in zip(*matrix)])
        return (-top, bottom), x, y
    shift = 1 - min(map(min, matrix))
    order = sorted(range(len(matrix[0])), key=list(map(sum, zip(*matrix))).__getitem__)
    d, primal, y = _max_total([[row[j] + shift for j in order] for row in matrix])
    x = [0] * len(order)
    for j, xj in zip(order, primal):
        x[j] = xj
    total = sum(primal)  # d times the optimum
    return (d - shift * total, total), y, x


def _max_total(matrix: Sequence[Sequence[int]]) -> tuple[int, list[int], list[int]]:
    """(d, primal, dual) of max sum(x) subject to matrix @ x <= 1 and
    x >= 0, exactly: primal / d is an optimal x, dual / d an optimal y >= 0
    of the dual program (min sum(y) subject to y @ matrix >= 1), and both
    sum to d times the optimum.

    ``matrix`` is nonnegative and has no zero column, so the program is
    bounded and the origin is a feasible start.  The tableau holds only the
    nonbasic columns and the right-hand side, m by n + 1 entries, each
    column labelled with its variable (x_j is j, the slack of row i is
    n + i).  It is fraction-free (Bareiss): every entry is d times its
    rational value, d being the determinant of the current basis, so each
    pivot's division is exact.  A pivot on p keeps the pivot row but puts
    the old d in its column; every other row, the cost row too, becomes
    (p * entry - f * pivot row's entry) // d, with -f in that column.
    Bland's rule by label (the improving column of least label enters; the
    least ratio leaves, ties to the least basic label) rules out cycling on
    the degenerate pivots that duplicate or tied points cause; the ratios
    are compared as integer cross products.  ``primal`` is read off the
    right-hand side, ``dual`` off the cost entries of the slack columns.
    """
    m, n = len(matrix), len(matrix[0])
    tableau = [[*row, 1] for row in matrix]  # the nonbasic columns, then the rhs
    cost = [-1] * n + [0]
    labels = list(range(n))  # the variable of each column
    basis = list(range(n, n + m))  # the variable of each row
    d = 1
    while True:
        entering = [label for label, c in zip(labels, cost) if c < 0]
        if not entering:
            primal, dual = [0] * n, [0] * m
            for row, b in zip(tableau, basis):
                if b < n:
                    primal[b] = row[-1]
            for label, c in zip(labels, cost):
                if label >= n:
                    dual[label - n] = c
            return d, primal, dual
        col = labels.index(min(entering))
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
                row = tableau[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
                row[col] = -f
        f = cost[col]
        cost = [(p * x - f * y) // d for x, y in zip(cost, prow)]
        cost[col] = -f
        prow[col] = d
        labels[col], basis[pivot_row] = basis[pivot_row], labels[col]
        d = p
