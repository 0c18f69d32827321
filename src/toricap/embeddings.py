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
  out (no conclusion in the other direction);
* asymptotic slope: c_k/k converges to the cube capacity, reported with
  the finite-k bracket that forces the convergence;
* Lagrangian capacity lower bound: the cube capacity again, since the
  corner torus of an embedded cube is Lagrangian.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .capacities import capacity_at, capacity_sequence
from .domains import Staircase, ToricDomain, antinorm_value, diagonal_intersection
from .errors import DimensionMismatch
from .rationals import positive_int


class ObstructionReport(NamedTuple):
    """Per-k comparison of two capacity sequences.

    ``first_violation`` is the least k <= kmax with
    c_k(source) > c_k(target), or None when the capacities never obstruct.
    Absence of a violation proves nothing about embeddability.
    """

    kmax: int
    first_violation: Optional[int]
    rows: tuple[tuple[int, Fraction, Fraction], ...]


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
    return antinorm_value(domain, (1,) * domain.n)


def obstruct(source: ToricDomain, target: ToricDomain, kmax: int) -> ObstructionReport:
    """Test the capacity inequalities c_k(source) <= c_k(target) for k <= kmax."""
    if source.n != target.n:
        raise DimensionMismatch(
            f"cannot compare domains of dimension {source.n} and {target.n}"
        )
    src = capacity_sequence(source, kmax).raw_values()
    tgt = capacity_sequence(target, kmax).raw_values()
    rows = tuple(zip(range(1, kmax + 1), src, tgt))
    first = next((k for k, a, b in rows if a > b), None)
    return ObstructionReport(kmax=kmax, first_violation=first, rows=rows)


def asymptotic_slope(domain: ToricDomain, kmax: int) -> SlopeReport:
    """c_kmax / kmax together with its exact limit, the cube capacity.

    Every domain handled here is sandwiched between a cube and a cylinder
    union of the same diagonal size delta, giving
    delta <= c_k/k <= delta*(k+n-1)/k; the bracket width shrinks like 1/k,
    so the estimate converges to delta.  Both bounds are reported.
    """
    positive_int(kmax, "kmax")
    delta = cube_capacity(domain)
    estimate = capacity_at(domain, kmax).value / kmax
    upper = delta * (kmax + domain.n - 1) / kmax
    return SlopeReport(estimate=estimate, exact=delta, lower=delta, upper=upper)


def lagrangian_lower_bound(domain: ToricDomain) -> Fraction:
    """Lower bound for the Lagrangian capacity: the cube capacity."""
    return cube_capacity(domain)
