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
``domains``).  A hull's c_k is the least support value max_w <v, w> over
v in N^n with sum(v) = k; a staircase's is the greatest anti-norm
min_w <v, w> over v >= 1 with sum(v) = k + n - 1, which with u = v - 1 is
minus the least max_w(-sum(w) + <u, -w>) over u in N^n with
sum(u) = k - 1.  So one exact branch-and-bound finds the least
max_w(d_w + <u, w>) over u in N^n with a given sum: a hull passes its rows
and d = 0, a staircase its negated rows and d_w = -sum(w).  It runs
depth-first over the leading coordinates, skips an entry whose bound over
all completions cannot beat the incumbent, ends a coordinate's loop once
that bound, linear in the entry, fails at both ends, tries a last unit at
each later coordinate, and solves the last two coordinates (e, R - e) by a
binary search on the objective, convex in e, in O(m log R).

Its bounds come from the matrix game of the rows against the coordinates,
whose strategies ``domains._game`` returns: the one solver of matrix games,
which also gives the diagonal.  Three devices use them, all exact:

* a surrogate row per level: a game gives integer weights y on the
  rows, and a completion's value is at least its y-mix of the rows'
  values over sum(y) (Glover's surrogate constraint; Geoffrion's
  Lagrangean relaxation).  A node is cut once that mix exceeds the
  incumbent less one, the values being integers.  With m rows, a tail of
  at most 2m columns plays its own game and a wider one takes the whole
  game's y;
* a root stop: the whole game's bound, rounded up, is at most the
  optimum, so the search ends once the incumbent reaches it;
* a rounded incumbent: the game's column strategy times the sum, rounded
  by largest remainders to a composition h, starts the incumbent at
  F(h) + 1 while the witness stays (0, ..., 0, sum).

The search visits compositions in lexicographic order and keeps only
strict improvements, so the witness is the lexicographically first
optimizer and output is reproducible.  The rows, their tail minima and the
weights are prepared once per domain, kept with it as ``_scaled`` is.

``capacity_at`` and ``capacity_sequence`` read the table and otherwise
search.  The product combinator takes its min-plus convolution on the
factors' values scaled to integers over one common denominator.  Every
sequence -- the ellipsoid merge, a progression, one search per k or a
product -- passes one check that it is nondecreasing (on its integers
where it has them) before it is returned.
"""

from __future__ import annotations

import heapq
import operator
from itertools import accumulate
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

from .domains import (
    Cube,
    CylinderUnion,
    Ellipsoid,
    Hull,
    Polydisk,
    Staircase,
    ToricDomain,
    _game,
    _scaled_integer_rows,
    shape_of,
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


class CapacityResult(NamedTuple):
    """One capacity value, with the optimizing vector when a search ran."""

    k: int
    value: Fraction
    witness: Optional[tuple[int, ...]]
    branch: Branch


class CapacitySequence(NamedTuple):
    """Capacities c_1 .. c_K of one domain (or of a product of domains)."""

    domain: Union[ToricDomain, str]
    values: tuple[CapacityResult, ...]

    @property
    def kmax(self) -> int:
        return len(self.values)

    def value(self, k: int) -> Fraction:
        if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= self.kmax:
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


def _tail_game(
    rows: Sequence[Sequence[int]], sums: Sequence[int], start: int
) -> tuple[list[int], dict[int, int]]:
    """(y, x): the optimal strategies ``_game`` gives for the rows against
    the columns start.., x kept on its support.

    Any y >= 0 bounds the whole tail, so a tail of more than 2m columns,
    for m rows, is played on 2m of them: each row's cheapest, then those
    of least sum.  Every row plays.  A tail has two or more columns:
    ``itemgetter`` gives tuples.
    """
    m, tail = len(rows), range(start, len(sums))
    if len(tail) > 2 * m:
        cheapest = [min(tail, key=row.__getitem__) for row in rows]
        lowest = heapq.nsmallest(2 * m, tail, key=sums.__getitem__)
        tail = sorted(list(dict.fromkeys(cheapest + lowest))[: 2 * m])
    _, y, x = _game(list(map(operator.itemgetter(*tail), rows)))
    return y, {j: xj for j, xj in zip(tail, x) if xj}


class _Search:
    """The lattice search of one region: the least max_w(dots_w + <u, w>)
    over its search rows w and u in N^n with sum(u) = total, and its
    lexicographically smallest minimizer u.

    A hull's rows are its scaled generators with zero dots, a staircase's
    its negated scaled vertices with dots -sum(w).  ``domain._search``
    keeps one per domain, so the rows and the bounds are prepared once for
    every k.
    """

    def __init__(self, domain: Union[Hull, Staircase]) -> None:
        _, rows = domain._scaled
        if domain.shape == "staircase":
            self.dots = [-sum(row) for row in rows]
            rows = tuple(tuple(-c for c in row) for row in rows)
        else:
            self.dots = [0] * len(rows)
        self.rows, self.n = rows, len(rows[0])
        self.cols = list(zip(*rows))
        self.last = self.cols[-1]
        if self.n > 1:
            self.slopes = [a - b for a, b in zip(self.cols[-2], self.last)]

    @cached_property
    def _bounds(self) -> tuple[list[tuple], tuple]:
        """(levels, root), for n >= 3, from the games of ``_tail_game``.

        For an entry at coord, levels[coord] is (column coord, each row's
        minimum over the tail coord + 1.., y, sum(y), <y, column coord>,
        the least <y, column> over the tail).  With m rows, a tail of at
        most 2m columns takes the y of its own game; a wider one takes the
        y of the whole row's game, whose least <y, column> over every tail
        comes from one pass of suffix minima.  root is (sum(y), the least
        <y, column>, <y, dots>, x) for that whole game.
        """
        rows, cols, n, m = self.rows, self.cols, self.n, len(self.rows)
        sums = [sum(col) for col in cols]
        tails = [list(accumulate(reversed(row), min))[::-1] for row in rows]  # min(row[i:])
        y, x = _tail_game(rows, sums, 0)
        mixed = [sum(map(operator.mul, y, col)) for col in cols]
        least = list(accumulate(reversed(mixed), min))[::-1]
        levels = []
        for start in range(1, n - 1):  # the tail's first column
            weights, step, low = y, mixed[start - 1], least[start]
            if n - start <= 2 * m:  # a narrow tail plays its own game
                weights, _ = _tail_game(rows, sums, start)
                step, *rest = [sum(map(operator.mul, weights, col)) for col in cols[start - 1 :]]
                low = min(rest)
            mins = [t[start] for t in tails]
            levels.append((cols[start - 1], mins, weights, sum(weights), step, low))
        return levels, (sum(y), least[0], sum(map(operator.mul, y, self.dots)), x)

    def _rounded(self, total: int, x: dict[int, int]) -> list[int]:
        """total * x / sum(x) rounded to a composition of total by largest
        remainders."""
        scale = sum(x.values())
        h = [0] * self.n
        for j, xj in x.items():
            h[j] = total * xj // scale
        ranked = sorted(x, key=lambda j: -(total * x[j] % scale))
        for j in ranked[: total - sum(h)]:
            h[j] += 1
        return h

    def __call__(self, total: int) -> tuple[int, tuple[int, ...]]:
        """(value, witness) at one total.

        The incumbent starts at the lexicographically first u, (0, ..., 0,
        total).  Compositions are visited depth-first in lexicographic order
        with the running dots_w + <u_partial, w>, one frame per coordinate on
        an explicit stack, so a high dimension meets no recursion limit.
        The values are integers, so an entry is skipped once a lower bound
        on its completions exceeds the incumbent less one.  With r units
        left after the entry, there are two bounds:

        * per row, its dot product plus r * min_{i>coord} w_i;
        * the surrogate row: the mix of those dot products by the tail
          game's integer weights y, plus r * min_{i>coord} <y, column i>,
          over sum(y) (Glover's surrogate constraint).

        Either is linear in the entry; once one excludes both this entry
        and the largest, the loop ends.  One unit left is tried at each
        later coordinate, the last first, and the last two coordinates
        (e, R - e) go to ``_lowest_minimizer``, the objective being convex
        in e.

        From n = 3 and a positive total the root game adds the rounded
        incumbent F(h) + 1, whose witness stays (0, ..., 0, total), and the
        root stop.  Only strict improvements replace the incumbent and the
        order is lexicographic, so the witness is the lexicographically
        first minimizer.
        """
        n, dots, last = self.n, self.dots, self.last
        best = max(d + total * c for d, c in zip(dots, last))
        witness = (0,) * (n - 1) + (total,)
        if n == 1 or total == 0:
            return best, witness
        prefix = [0] * (n - 2)

        def solve_pair(remaining: int, current: Sequence[int]) -> None:
            nonlocal best, witness
            base = [d + remaining * c for d, c in zip(current, last)]
            e, value = _lowest_minimizer(base, self.slopes, 0, remaining)
            if value < best:
                best, witness = value, (*prefix, e, remaining - e)

        def solve_unit(coord: int, current: Sequence[int]) -> None:
            nonlocal best, witness
            for j in range(n - 1, coord, -1):
                value = max(map(operator.add, current, self.cols[j]))
                if value < best:
                    unit = [0] * (n - coord - 1)
                    unit[j - coord - 1] = 1
                    best, witness = value, (*prefix[: coord + 1], *unit)

        if n == 2:
            solve_pair(total, dots)
            return best, witness
        levels, (weight, least, mixed, x) = self._bounds
        stop = -(-(mixed + total * least) // weight)  # the surrogate bound at the root, rounded up
        h = self._rounded(total, x)
        rounded = max(d + sum(map(operator.mul, h, w)) for d, w in zip(dots, self.rows))
        best = min(best, rounded + 1)
        if best <= stop:
            return best, witness
        # one frame per coordinate on the current path: the first entry to
        # try, the budget at that coordinate, the dot products with that
        # entry and their mix by that level's y
        stack = [(0, total, dots, sum(map(operator.mul, levels[0][2], dots)))]
        while stack:
            coord = len(stack) - 1
            first, remaining, current, mixed = stack.pop()
            column, mins, _, weight, step, least = levels[coord]
            for entry in range(first, remaining + 1):
                rest = remaining - entry
                cap = (best - 1) * weight
                if mixed + rest * least > cap:
                    if mixed + rest * step > cap:
                        break
                else:
                    floors = [d + rest * w for d, w in zip(current, mins)]
                    if max(floors) < best:
                        prefix[coord] = entry
                        if coord == n - 3:
                            solve_pair(rest, current)
                        elif rest == 1:
                            solve_unit(coord, current)
                        else:
                            following = [d + c for d, c in zip(current, column)]
                            child = sum(map(operator.mul, levels[coord + 1][2], current))
                            stack += [
                                (entry + 1, remaining, following, mixed + step),
                                (0, rest, current, child),
                            ]
                            break
                        if best <= stop:
                            return best, witness
                    elif any(
                        f >= best and d + rest * c >= best
                        for f, d, c in zip(floors, current, column)
                    ):
                        break
                current = [d + c for d, c in zip(current, column)]
                mixed += step
        return best, witness


def convex_capacity(domain: Hull, k: int) -> CapacityResult:
    """Minimize the support value max_w <v, w> over v in N^n with sum(v) = k:
    the lattice search on the hull's scaled generators, from zero dot
    products."""
    positive_int(k, "capacity index k")
    shape_of(domain, "hull")
    best, witness = domain._search(k)
    return CapacityResult(k, Fraction(best, domain._scaled[0]), witness, Branch.CONVEX_SEARCH)


def concave_capacity(domain: Staircase, k: int) -> CapacityResult:
    """Maximize the anti-norm min_w <v, w> over v > 0 with sum(v) = k + n - 1:
    with u = v - 1, minus the lattice search on the negated vertices from
    dot products -sum(w).  Adding 1 to every entry keeps lexicographic
    order, so u + 1 is the lexicographically smallest maximizer."""
    positive_int(k, "capacity index k")
    shape_of(domain, "staircase")
    best, witness = domain._search(k - 1)
    return CapacityResult(
        k, Fraction(-best, domain._scaled[0]), tuple(e + 1 for e in witness),
        Branch.CONCAVE_SEARCH,
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
    shape = shape_of(domain)
    if type(domain) not in _CLOSED_FORMS:
        search = convex_capacity if shape == "hull" else concave_capacity
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
    shape = shape_of(domain)
    if type(domain) not in _CLOSED_FORMS:
        results = tuple(capacity_at(domain, k) for k in range(1, kmax + 1))
        _require_nondecreasing([r.value for r in results])
        return CapacitySequence(domain=domain, values=results)
    branch, c_k = _CLOSED_FORMS[type(domain)]
    if shape == "ellipsoid":
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
