"""Embedding-flavored quantities derived from the capacity sequence.

* cube capacity: the largest cube fitting symplectically into the domain,
  which for convex/concave toric domains is exactly the diagonal
  intersection of the moment image -- a small linear program solved by an
  exact simplex in ``domains``, or a closed form for an ellipsoid (finite
  even when an axis is infinite);
* Gromov width of a staircase region (a concave domain, a cylinder union
  or an ellipsoid): the anti-norm at (1, ..., 1);
* pairwise obstruction reports: capacities are monotone under symplectic
  embeddings, so c_k(source) > c_k(target) at any k rules the embedding
  out (no conclusion in the other direction).  ``obstruct`` alone makes
  that comparison, once per k, as integers over the two sequences'
  denominators; the report keeps both sequences and the per-k verdicts,
  and its rows are built from the sequences only when they are read;
* asymptotic slope: c_k/k converges to the cube capacity, reported with
  the finite-k bracket that forces the convergence;
* Lagrangian capacity lower bound: the cube capacity again, since the
  corner torus of an embedded cube is Lagrangian.

``obstruct`` and ``asymptotic_slope`` import ``capacities`` when they run,
so the scalar queries (cube, Gromov width, Lagrangian bound) never load
the lattice search.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import count
from typing import NamedTuple, Optional

from .domains import Staircase, ToricDomain, _Value, antinorm_value, diagonal_intersection, shape_of
from .errors import DimensionMismatch
from .rationals import positive_int


class ObstructionReport(_Value):
    """Per-k comparison of two capacity sequences.

    ``first_violation`` is the least k <= kmax with
    c_k(source) > c_k(target), or None when the capacities never obstruct.
    Absence of a violation proves nothing about embeddability.  ``obstruct``
    keeps both sides' sequences, ``_sides``, and whether c_k(source) >
    c_k(target) at each k, ``_over``, and builds ``rows``, (k, c_k(source),
    c_k(target)) per k, only on its first read.
    """

    _fields = ("kmax", "first_violation", "rows")
    kmax: int
    first_violation: Optional[int]

    def __init__(
        self,
        kmax: int,
        first_violation: Optional[int],
        rows: tuple[tuple[int, Fraction, Fraction], ...],
    ) -> None:
        object.__setattr__(self, "kmax", kmax)
        object.__setattr__(self, "first_violation", first_violation)
        object.__setattr__(self, "rows", rows)

    @cached_property
    def rows(self) -> tuple[tuple[int, Fraction, Fraction], ...]:
        return tuple(zip(count(1), *(side.raw_values() for side in self._sides)))


class SlopeReport(NamedTuple):
    """Finite-k slope estimate with its exact limit and bracketing bounds."""

    estimate: Fraction
    exact: Optional[Fraction]
    lower: Fraction
    upper: Fraction


def cube_capacity(domain: ToricDomain) -> Fraction:
    """Largest delta whose cube embeds; equals the diagonal intersection."""
    return diagonal_intersection(domain)


def gromov_width(domain: Staircase) -> Fraction:
    """Largest ball fitting into a staircase region (a concave domain, a
    cylinder union or an ellipsoid): min over vertices of sum(w)."""
    shape_of(domain, "staircase")
    return antinorm_value(domain, (1,) * domain.n)


def obstruct(source: ToricDomain, target: ToricDomain, kmax: int) -> ObstructionReport:
    """Test the capacity inequalities c_k(source) <= c_k(target) for k <= kmax:
    a * d_t <= b * d_s on the engine's integers a / d_s and b / d_t, the one
    place the two sides are compared."""
    from .capacities import capacity_sequence

    shape_of(source)
    shape_of(target)
    if source.n != target.n:
        raise DimensionMismatch(
            f"cannot compare domains of dimension {source.n} and {target.n}"
        )
    sides = (capacity_sequence(source, kmax), capacity_sequence(target, kmax))
    (d_s, src), (d_t, tgt) = (side._scaled for side in sides)
    over = [a * d_t > b * d_s for a, b in zip(src, tgt)]
    first = over.index(True) + 1 if True in over else None
    return ObstructionReport._from(kmax=kmax, first_violation=first, _sides=sides, _over=over)


def asymptotic_slope(domain: ToricDomain, kmax: int) -> SlopeReport:
    """c_kmax / kmax together with its exact limit, the cube capacity.

    Every domain handled here is sandwiched between a cube and a cylinder
    union of the same diagonal size delta, giving
    delta <= c_k/k <= delta*(k+n-1)/k; the bracket width shrinks like 1/k,
    so the estimate converges to delta.  Both bounds are reported.
    """
    from .capacities import capacity_at

    positive_int(kmax, "kmax")
    delta = cube_capacity(domain)
    estimate = capacity_at(domain, kmax).value / kmax
    upper = delta * (kmax + domain.n - 1) / kmax
    return SlopeReport(estimate=estimate, exact=delta, lower=delta, upper=upper)


def lagrangian_lower_bound(domain: ToricDomain) -> Fraction:
    """Lower bound for the Lagrangian capacity: the cube capacity."""
    return cube_capacity(domain)
