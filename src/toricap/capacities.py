"""The capacity sequence c_k of a toric domain.

One table, ``_CLOSED_FORMS``, gives each domain kind that has a closed form
its branch label and its formula for c_k:

* ellipsoid: c_k is the k-th smallest positive-integer multiple among the
  finite axes, counted with repetition.  With the axes scaled to integers
  p_i over one common denominator, a whole sequence is a heap merge of the
  progressions m * p_i, and a single k is the least integer L with
  sum_i floor(L / p_i) >= k, found by binary search;
* polydisk (and cube): c_k = k * min(areas);
* cylinder union: c_k = delta * (k + n - 1).

The last two are arithmetic progressions in k, so a whole sequence is c_1
and c_2 from the closed form, scaled to integers over one denominator and
extended by their difference.

A kind without a closed form is searched by the shape of its region (see
``domains``), with an exact branch-and-bound over lattice vectors:

* hull: minimize the support value over nonnegative integer vectors whose
  entries sum to k;
* staircase: maximize the anti-norm over strictly positive integer vectors
  whose entries sum to k + n - 1.

Both searches run depth-first over the leading coordinates, skip an entry
whose bound over all completions cannot beat the incumbent (the convex
bound spends the remaining budget on the smallest later coordinate of each
generator, the concave one gives each later coordinate 1 and the rest to
the largest), and end a coordinate's loop once a bound that is linear in
the entry fails at both ends.  The last two coordinates (e, R - e) are
solved in closed form: the objective is convex (or concave) in e, so a
binary search finds its lexicographically first optimum in O(m log R).

Ties are broken toward the lexicographically smallest optimizer so output
is reproducible.  ``capacity_at`` and ``capacity_sequence`` read the table
and otherwise search.  The product combinator takes its min-plus
convolution on the factors' values scaled to integers over one common
denominator.  Every sequence -- the ellipsoid merge, a progression, one
search per k or a product -- passes one check that it is nondecreasing
(on its integers where it has them) before it is returned.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .domains import (
    Cube,
    CylinderUnion,
    Ellipsoid,
    Hull,
    Polydisk,
    Staircase,
    ToricDomain,
    _scaled_integer_rows,
)
from .errors import ToricapError, UnboundedDomainError
from .rationals import ExtendedRational, is_infinite, positive_int, to_rational


class Branch(str, Enum):
    """Which formula produced a capacity value."""

    ELLIPSOID_SPECTRUM = "EllipsoidSpectrum"
    POLYDISK_CLOSED_FORM = "PolydiskClosedForm"
    CYLINDER_UNION_CLOSED_FORM = "CylinderUnionClosedForm"
    CONVEX_SEARCH = "ConvexSearch"
    CONCAVE_SEARCH = "ConcaveSearch"
    PRODUCT_COMBINATOR = "ProductCombinator"


@dataclass(frozen=True)
class CapacityResult:
    """One capacity value, with the optimizing vector when a search ran."""

    k: int
    value: Fraction
    witness: Optional[tuple[int, ...]]
    branch: Branch


@dataclass(frozen=True)
class CapacitySequence:
    """Capacities c_1 .. c_K of one domain (or of a product of domains)."""

    domain: Union[ToricDomain, str]
    values: tuple[CapacityResult, ...]

    @property
    def kmax(self) -> int:
        return len(self.values)

    def value(self, k: int) -> Fraction:
        if not 1 <= k <= self.kmax:
            raise ValueError(f"k={k} outside computed range 1..{self.kmax}")
        return self.values[k - 1].value

    def raw_values(self) -> list[Fraction]:
        return [r.value for r in self.values]


def _integer_axes(axes: Sequence[ExtendedRational]) -> tuple[int, tuple[int, ...]]:
    """(denom, p): the finite axes are p_i / denom with p_i positive integers.

    Infinite axes contribute no multiples at all and are dropped.
    """
    normalized = [to_rational(a, allow_infinite=True) for a in axes]
    finite = [a for a in normalized if not is_infinite(a)]
    if not finite:
        raise UnboundedDomainError("every axis is infinite: the spectrum is empty")
    if any(a <= 0 for a in finite):
        raise ValueError("ellipsoid axes must be positive")
    denom, (steps,) = _scaled_integer_rows((tuple(finite),))
    return denom, steps


def ellipsoid_capacity(axes: Sequence[ExtendedRational], k: int) -> Fraction:
    """k-th smallest integer multiple among the finite axes.

    With the axes scaled to integers p_i over one common denominator, c_k
    is the least integer L with sum_i floor(L / p_i) >= k: that count only
    grows at multiples of some p_i, so its least solution is one of them.
    A binary search over L in [1, k * min(p)] costs O(n log(k * min(p)))
    integer divisions, so a huge k stays cheap.  ``capacity_sequence``
    computes whole ellipsoid sequences by a heap merge instead.
    """
    positive_int(k, "capacity index k")
    denom, steps = _integer_axes(axes)
    lo, hi = 1, k * min(steps)
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(mid // p for p in steps) >= k:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, denom)


def _ellipsoid_sequence(
    axes: Sequence[ExtendedRational], kmax: int
) -> tuple[int, list[int]]:
    """(denom, scaled c_1 .. c_kmax) of E(axes): the k-th item popped from a
    heap merge of the integer progressions m * p_i is c_k * denom, so equal
    axes count twice."""
    denom, steps = _integer_axes(axes)
    heap = [(p, p) for p in steps]
    heapq.heapify(heap)
    values = []
    for _ in range(kmax):
        value, step = heap[0]
        values.append(value)
        heapq.heapreplace(heap, (value + step, step))
    return denom, values


def polydisk_capacity(areas: Sequence[object], k: int) -> Fraction:
    """c_k = k * min(areas)."""
    positive_int(k, "capacity index k")
    values = [to_rational(a) for a in areas]
    if not values or any(a <= 0 for a in values):
        raise ValueError("polydisk areas must be positive")
    return k * min(values)


def cylinder_union_capacity(n: int, delta: object, k: int) -> Fraction:
    """c_k = delta * (k + n - 1)."""
    positive_int(k, "capacity index k")
    positive_int(n, "dimension")
    d = to_rational(delta)
    if d <= 0:
        raise ValueError("cylinder-union size must be positive")
    return d * (k + n - 1)


def _lowest_minimizer(
    base: list[int], slopes: Sequence[int], lo: int, hi: int
) -> tuple[int, int]:
    """(e, f(e)) for the smallest minimizer e in [lo, hi] of
    f(e) = max_i(base_i + e * slopes_i).

    f is convex, so that e is the first one with f(e + 1) >= f(e), and a
    binary search finds it in O(len(base) * log(hi - lo)).
    """
    while lo < hi:
        mid = (lo + hi) // 2
        here = [b + mid * s for b, s in zip(base, slopes)]
        if max(map(operator.add, here, slopes)) >= max(here):
            hi = mid
        else:
            lo = mid + 1
    return lo, max(b + lo * s for b, s in zip(base, slopes))


def convex_capacity(domain: Hull, k: int) -> CapacityResult:
    """Minimize the support value over v in N^n with sum(v) = k.

    Depth-first over compositions in lexicographic order, keeping running
    inner products with every generator, with the incumbent seeded by the
    lexicographically first vector (0, ..., 0, k); for n = 1 that is the
    answer.  At each coordinate before the last two, with r units of budget
    left after the entry, <v_partial, w> + r * min_{i>coord} w_i is a lower
    bound on <v, w> for every completion v (the generators are
    coordinatewise nonnegative):

    * an entry whose bound reaches the incumbent for some generator is
      skipped, since no completion can strictly improve;
    * a generator's bound is linear in the entry, so once it reaches the
      incumbent both at this entry and at the largest one (where it is
      <v_partial, w> + r * w_coord) it does at every entry between, and
      the loop ends.  This covers a running product that already reaches
      the incumbent, which larger entries only increase.

    The last two coordinates (e, R - e) are solved in closed form:
    max_w(<v_partial, w> + e * w_{n-2} + (R - e) * w_{n-1}) is convex in e,
    and ``_lowest_minimizer`` finds its smallest minimizer on [0, R] in
    O(m log R).  Strict-improvement updates plus lexicographic enumeration
    make the reported witness the lexicographically smallest minimizer.
    """
    positive_int(k, "capacity index k")
    denom, rows = domain._scaled
    n = domain.n
    cols = list(zip(*rows))
    last = cols[-1]
    best = k * max(last)
    best_witness = (0,) * (n - 1) + (k,)
    prefix = [0] * n
    slopes = [a - b for a, b in zip(cols[-2], last)] if n > 1 else []
    levels = []  # per coordinate before the last two: column, tail mins
    for coord in range(n - 2):
        mins = [min(row[coord + 1 :]) for row in rows]
        levels.append((cols[coord], mins))

    def solve_pair(remaining: int, dots: list[int]) -> None:
        nonlocal best, best_witness
        base = [d + remaining * c for d, c in zip(dots, last)]
        e, value = _lowest_minimizer(base, slopes, 0, remaining)
        if value < best:
            best = value
            prefix[n - 2], prefix[n - 1] = e, remaining - e
            best_witness = tuple(prefix)

    def descend(coord: int, remaining: int, dots: list[int]) -> None:
        column, mins = levels[coord]
        current = dots
        for entry in range(remaining + 1):
            rest = remaining - entry
            floors = [d + rest * w for d, w in zip(current, mins)]
            if max(floors) < best:
                prefix[coord] = entry
                if coord == n - 3:
                    solve_pair(rest, current)
                else:
                    descend(coord + 1, rest, current)
            elif any(
                f >= best and d + rest * c >= best
                for f, d, c in zip(floors, current, column)
            ):
                return
            current = [d + c for d, c in zip(current, column)]

    if n == 2:
        solve_pair(k, [0] * len(rows))
    elif n > 2:
        descend(0, k, [0] * len(rows))
    return CapacityResult(
        k=k, value=Fraction(best, denom), witness=best_witness, branch=Branch.CONVEX_SEARCH
    )


def concave_capacity(domain: Staircase, k: int) -> CapacityResult:
    """Maximize the anti-norm over v > 0 with sum(v) = k + n - 1.

    Same depth-first scheme as the convex search, with the incumbent
    seeded by the lexicographically first vector (1, ..., 1, k).  At a
    coordinate before the last two, with r units of budget left after the
    entry for the t = n - 1 - coord later coordinates (each at least 1),
    <v_partial, w> + sum_{i>coord} w_i + (r - t) * max_{i>coord} w_i caps
    <v, w> for every completion v:

    * an entry whose cap does not exceed the incumbent for some vertex is
      skipped, since no completion can strictly improve;
    * a vertex's cap is linear in the entry, so once it fails both at this
      entry and at the largest one, it fails at every entry between, and
      the loop ends.

    The last two coordinates (e, R - e) are solved in closed form:
    min_w(<v_partial, w> + e * w_{n-2} + (R - e) * w_{n-1}) is concave in
    e, and ``_lowest_minimizer`` on its negation finds its smallest
    maximizer on [1, R - 1] in O(m log R).
    """
    positive_int(k, "capacity index k")
    denom, rows = domain._scaled
    n = domain.n
    cols = list(zip(*rows))
    last = cols[-1]
    best = min(sum(row[:-1]) + k * row[-1] for row in rows)
    best_witness = (1,) * (n - 1) + (k,)
    prefix = [0] * n
    falls = [b - a for a, b in zip(cols[-2], last)] if n > 1 else []
    levels = []  # per coordinate before the last two: column, cap offsets, tail maxes
    for coord in range(n - 2):
        tops = [max(row[coord + 1 :]) for row in rows]
        later = n - 1 - coord
        offsets = [sum(row[coord + 1 :]) - later * top for row, top in zip(rows, tops)]
        levels.append((cols[coord], offsets, tops))

    def solve_pair(remaining: int, dots: list[int]) -> None:
        nonlocal best, best_witness
        negated = [-d - remaining * c for d, c in zip(dots, last)]
        e, value = _lowest_minimizer(negated, falls, 1, remaining - 1)
        if -value > best:
            best = -value
            prefix[n - 2], prefix[n - 1] = e, remaining - e
            best_witness = tuple(prefix)

    def descend(coord: int, remaining: int, dots: list[int]) -> None:
        column, offsets, tops = levels[coord]
        current = dots
        highest = remaining - (n - 1 - coord)  # leave at least 1 per later coord
        for entry in range(1, highest + 1):
            current = [d + c for d, c in zip(current, column)]
            rest = remaining - entry
            caps = [d + a + rest * t for d, a, t in zip(current, offsets, tops)]
            if min(caps) > best:
                prefix[coord] = entry
                if coord == n - 3:
                    solve_pair(rest, current)
                else:
                    descend(coord + 1, rest, current)
            elif any(
                c <= best and c + (highest - entry) * (x - t) <= best
                for c, x, t in zip(caps, column, tops)
            ):
                return

    if n == 2:
        solve_pair(k + 1, [0] * len(rows))
    elif n > 2:
        descend(0, k + n - 1, [0] * len(rows))
    return CapacityResult(
        k=k,
        value=Fraction(best, denom),
        witness=best_witness,
        branch=Branch.CONCAVE_SEARCH,
    )


# Each kind with a closed form: its branch label and c_k at one k.  The
# lambdas call the closed forms by their module-global names when they
# run, so a rebinding of a name (the benchmark's tracer makes one) is seen.
_CLOSED_FORMS = {
    Ellipsoid: (Branch.ELLIPSOID_SPECTRUM, lambda d, k: ellipsoid_capacity(d.axes, k)),
    Polydisk: (Branch.POLYDISK_CLOSED_FORM, lambda d, k: polydisk_capacity(d.areas, k)),
    Cube: (Branch.POLYDISK_CLOSED_FORM, lambda d, k: polydisk_capacity((d.delta,), k)),
    CylinderUnion: (
        Branch.CYLINDER_UNION_CLOSED_FORM,
        lambda d, k: cylinder_union_capacity(d.n, d.delta, k),
    ),
}


def capacity_at(domain: ToricDomain, k: int) -> CapacityResult:
    """c_k of a single domain: its closed form, else the search for its shape."""
    if type(domain) not in _CLOSED_FORMS:
        search = convex_capacity if domain.shape == "hull" else concave_capacity
        return search(domain, k)
    branch, c_k = _CLOSED_FORMS[type(domain)]
    return CapacityResult(k, c_k(domain, k), None, branch)


def _require_nondecreasing(values: Sequence) -> None:
    """The one monotonicity check: c_1 .. c_K, as integers over one
    denominator or as fractions, must never decrease."""
    drops = list(map(operator.gt, values, values[1:]))
    if any(drops):
        k = drops.index(True) + 2
        raise ToricapError(f"internal error: capacity sequence decreased at k={k}")


def _progression(first: Fraction, second: Fraction, kmax: int) -> tuple[int, range]:
    """(denom, scaled c_1 .. c_kmax) of the arithmetic progression through
    c_1 = first and c_2 = second: a polydisk, cube or cylinder union."""
    denom, ((start, stop),) = _scaled_integer_rows(((first, second),))
    step = stop - start
    return denom, range(start, start + kmax * step, step)


def _integer_results(
    denom: int, values: Sequence[int], branch: Branch
) -> tuple[CapacityResult, ...]:
    """c_k = values[k - 1] / denom, checked nondecreasing on the integers."""
    _require_nondecreasing(values)
    return tuple(
        CapacityResult(k, Fraction(value, denom), None, branch)
        for k, value in enumerate(values, 1)
    )


def capacity_sequence(domain: ToricDomain, kmax: int) -> CapacitySequence:
    """c_1 .. c_kmax of the domain.

    A closed-form kind takes one pass on integers over a common
    denominator: an ellipsoid merges the progressions of its axes, and a
    polydisk, cube or cylinder union extends the progression through c_1
    and c_2.  Any other kind runs one search per k.  Either way the values
    pass the monotonicity check, the integers before any ``Fraction`` is
    built.
    """
    positive_int(kmax, "kmax")
    if type(domain) not in _CLOSED_FORMS:
        results = tuple(capacity_at(domain, k) for k in range(1, kmax + 1))
        _require_nondecreasing([r.value for r in results])
        return CapacitySequence(domain=domain, values=results)
    branch, c_k = _CLOSED_FORMS[type(domain)]
    if domain.shape == "ellipsoid":
        denom, values = _ellipsoid_sequence(domain.axes, kmax)
    else:
        denom, values = _progression(c_k(domain, 1), c_k(domain, 2), kmax)
    return CapacitySequence(domain=domain, values=_integer_results(denom, values, branch))


def product_capacities(
    left: CapacitySequence, right: CapacitySequence, kmax: int
) -> CapacitySequence:
    """Capacities of the symplectic product: c_k = min over i+j=k of c_i + c'_j.

    The index 0 terms are taken to be 0, so each factor's own c_k is always
    among the candidates.  The min-plus runs on the factors' first kmax
    values scaled to integers over one common denominator.
    """
    positive_int(kmax, "kmax")
    if left.kmax < kmax or right.kmax < kmax:
        raise ValueError(
            f"need both factors computed to index {kmax}, "
            f"got {left.kmax} and {right.kmax}"
        )
    denom, (li, ri) = _scaled_integer_rows(
        ((0, *left.raw_values()[:kmax]), (0, *right.raw_values()[:kmax]))
    )
    results = _integer_results(
        denom,
        [min(map(operator.add, li[: k + 1], ri[k::-1])) for k in range(1, kmax + 1)],
        Branch.PRODUCT_COMBINATOR,
    )
    label = f"({left.domain}) x ({right.domain})"
    return CapacitySequence(domain=label, values=results)
