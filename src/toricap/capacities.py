"""The capacity sequence c_k of a toric domain.

One table, ``_CLOSED_FORMS``, gives each domain kind that has a closed form
its branch label and its formula for c_k, which checks its arguments by
building that kind:

* ellipsoid: c_k is the k-th smallest positive-integer multiple among the
  finite axes, counted with repetition.  With the axes scaled to integers
  p_i over one common denominator, c_k is the least integer L with
  sum_i floor(L / p_i) >= k, found by binary search, and a sequence is
  every multiple m * p_i up to c_K, sorted;
* polydisk (and cube): c_k = k * min(areas);
* cylinder union: c_k = delta * (k + n - 1).

The last two are arithmetic progressions in k, so a whole sequence is c_1
and c_2 from the closed form, scaled to integers over one denominator and
extended by their difference.  Either way a sequence stays integers over
one denominator: the CLI formats them as they are, and a
``CapacitySequence`` holds them, building one ``Fraction`` and one
``CapacityResult`` per value only when its ``values`` are read.

A kind without a closed form is searched by the shape of its region (see
``domains``).  A hull's c_k is the least support value max_w <v, w> over
v in N^n with sum(v) = k; a staircase's is the greatest anti-norm
min_w <v, w> over v >= 1 with sum(v) = k + n - 1, which with u = v - 1 is
minus the least max_w(-sum(w) + <u, -w>) over u in N^n with
sum(u) = k - 1.  So one exact branch-and-bound finds the least
max_w(d_w + <u, w>) over u in N^n with a given sum: a hull passes its rows
and d = 0, a staircase its negated rows and d_w = -sum(w); ``_Search``
alone makes that shift.  It runs depth-first over the leading coordinates
and skips an entry whose bound over all completions cannot beat the
incumbent.  That bound is linear in the entry, so a coordinate's loop ends
once it fails at both ends, and otherwise jumps over a whole run of cut
entries by one ceiling division.
The search tries a last unit at each later coordinate, and solves the last
two coordinates (e, R - e) only inside the window of e where every row
stays below the incumbent: an empty window costs no search, and in a
nonempty one a binary search on the objective, convex in e, takes
O(m log R).

Its bounds come from the matrix game of the rows against the coordinates,
whose strategies ``domains._game`` returns: the one solver of matrix games,
which also gives the diagonal.  Where the whole game plays every column it
is the region's game, kept with the domain and played once for the
diagonal and the search.  Three devices use them, all exact:

* a surrogate row per level: a game gives integer weights y on the
  rows, and a completion's value is at least its y-mix of the rows'
  values over sum(y) (Glover's surrogate constraint; Geoffrion's
  Lagrangean relaxation).  A node is cut once that mix exceeds the
  incumbent less one, the values being integers.  With m rows, a tail of
  at most 2m columns plays its own game and a wider one takes the whole
  game's y.  A row constant over a tail where another varies gets no
  weight: its per-row floor is already exact;
* a root stop: the whole game's bound, rounded up, is at most the
  optimum, so once the incumbent reaches it no further frame is taken;
* one start: a seed u, a composition of sum - 1 given by its row values
  d_w + <u, w>, starts the incumbent at F(h) + 1 for h the best of
  u + e_j, while the witness stays (0, ..., 0, sum).  With no seed, u is
  the game's column strategy times sum - 1, rounded by largest remainders.

The search visits compositions in lexicographic order and keeps only
strict improvements, so the witness is the lexicographically first
optimizer and output is reproducible.  The rows, their tail minima and the
weights are prepared once per domain, kept with it as ``_scaled`` is.

``capacity_at`` reads the table and otherwise searches.  Every sequence
comes from one engine, ``capacity_sequence``, and is one
``CapacitySequence``: its integers c_k * denom, from the ellipsoid's
multiples, a progression, or the search, with the witnesses and branch
label of its records.  A searched sequence takes c_1 from
``capacity_at`` and c_2 .. c_K from one run of the region's search on the
domain's denominator, each k seeded with the row values of the witness
before it: c_k and c_(k-1) are neighbouring lattice problems, and one unit
added to the last optimizer is often optimal again.  The CLI formats the integers directly,
and ``obstruct`` compares them.  The product combinator
takes its min-plus convolution on the factors' integers, each rescaled to
the lcm of their two denominators, and keeps its own the same way; a
sequence built by hand from its records derives its integers from them
once, so every factor takes that one path.  When either factor, with its
c_0 = 0, is linear, c_i = i * s (a polydisk or a cube), the min-plus is
k * s plus a prefix minimum of the other factor less j * s, one O(K)
pass; any other pair of factors reads all O(K^2) pairs.  Every sequence
passes one check, on its integers, that it is nondecreasing.
"""

from __future__ import annotations

import heapq
import math
import operator
from itertools import accumulate, chain, count, repeat
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
    _Value,
    _game,
    _scaled_integer_rows,
    shape_of,
)
from .errors import ToricapError
from .rationals import ExtendedRational, positive_int


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


class CapacitySequence(_Value):
    """Capacities c_1 .. c_K of one domain (or of a product of domains).

    The engine builds one by ``_from`` with its integers, ``_scaled`` =
    (denom, ints) with c_k = ints[k - 1] / denom, and ``_labels`` =
    (witnesses or None, branch), and builds ``values``, one
    ``CapacityResult`` per k, only on its first read; ``kmax``,
    ``value(k)`` and ``raw_values()`` read the integers, and only this
    class turns them into ``Fraction``s.  A sequence built from its
    records derives its integers from them once.
    """

    _fields = ("domain", "values")
    domain: Union[ToricDomain, str]

    def __init__(
        self, domain: Union[ToricDomain, str], values: tuple[CapacityResult, ...]
    ) -> None:
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)

    @cached_property
    def values(self) -> tuple[CapacityResult, ...]:
        (denom, values), (witnesses, branch) = self._scaled, self._labels
        fractions = map(Fraction, values, repeat(denom))
        witnesses = repeat(None) if witnesses is None else witnesses
        return tuple(map(CapacityResult, count(1), fractions, witnesses, repeat(branch)))

    @cached_property
    def _scaled(self) -> tuple[int, Sequence[int]]:
        """(denom, integers): c_k = integers[k - 1] / denom."""
        denom, (values,) = _scaled_integer_rows(([r.value for r in self.values],))
        return denom, values

    @property
    def kmax(self) -> int:
        return len(self._scaled[1])

    def value(self, k: int) -> Fraction:
        if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= self.kmax:
            raise ValueError(f"k={k} outside computed range 1..{self.kmax}")
        denom, values = self._scaled
        return Fraction(values[k - 1], denom)

    def raw_values(self) -> list[Fraction]:
        denom, values = self._scaled
        return list(map(Fraction, values, repeat(denom)))


def _ellipsoid_cut(domain: Ellipsoid, k: int) -> tuple[int, tuple[int, ...], int]:
    """(denom, p, L): the finite axes are the positive integers p_i over
    denom, and L = c_k * denom is the least integer with
    sum_i floor(L / p_i) >= k.

    That count only grows at multiples of some p_i, so its least solution
    is one of them.  A binary search over L in [1, k * min(p)] costs
    O(n log(k * min(p))) integer divisions, so a huge k stays cheap.
    """
    denom, (steps,) = _scaled_integer_rows((domain.finite_axes,))
    lo, hi = 1, k * min(steps)
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(mid // p for p in steps) >= k:
            hi = mid
        else:
            lo = mid + 1
    return denom, steps, lo


def ellipsoid_capacity(axes: Sequence[ExtendedRational], k: int) -> Fraction:
    """k-th smallest integer multiple among the finite axes, counted with
    repetition: the cut of ``_ellipsoid_cut``."""
    positive_int(k, "capacity index k")
    denom, _, cut = _ellipsoid_cut(Ellipsoid(axes), k)
    return Fraction(cut, denom)


def _ellipsoid_sequence(domain: Ellipsoid, kmax: int) -> tuple[int, list[int]]:
    """(denom, scaled c_1 .. c_kmax) of the ellipsoid: every multiple
    m * p_i up to the cut c_kmax * denom, sorted, so equal axes count twice.
    At most kmax + n - 1 multiples reach the cut: fewer than kmax lie below
    it, and at most n end on it."""
    denom, steps, cut = _ellipsoid_cut(domain, kmax)
    return denom, sorted(chain.from_iterable(range(p, cut + 1, p) for p in steps))[:kmax]


def polydisk_capacity(areas: Sequence[object], k: int) -> Fraction:
    """c_k = k * min(areas)."""
    positive_int(k, "capacity index k")
    return k * min(Polydisk(areas).areas)


def cylinder_union_capacity(n: int, delta: object, k: int) -> Fraction:
    """c_k = delta * (k + n - 1)."""
    positive_int(k, "capacity index k")
    return CylinderUnion(n, delta).delta * (k + n - 1)


def _lowest_minimizer(
    base: list[int], slopes: Sequence[int], lo: int, hi: int
) -> tuple[int, int]:
    """(e, f(e)) for the smallest minimizer e in [lo, hi] of
    f(e) = max_i(base_i + e * slopes_i).

    f is convex, so that e is the first one with f(e + 1) >= f(e), and a
    binary search finds it in O(len(base) * log(hi - lo)).  The search
    passes the window where f is below its incumbent, not all of [0, R]:
    f being convex, that window holds every minimizer when it is nonempty.
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
    of least sum.  Where some row varies over the tail, a row constant
    over it (one value in row[start:]) plays as a constant below every
    entry, so it is strictly dominated and gets no weight: the per-row
    floors already give such a row's value, and a weight on it would
    blunt the surrogate row.  A tail has two or more columns:
    ``itemgetter`` gives tuples.
    """
    m, tail = len(rows), range(start, len(sums))
    if len(tail) > 2 * m:
        cheapest = [min(tail, key=row.__getitem__) for row in rows]
        lowest = heapq.nsmallest(2 * m, tail, key=sums.__getitem__)
        tail = sorted(list(dict.fromkeys(cheapest + lowest))[: 2 * m])
    matrix = list(map(operator.itemgetter(*tail), rows))
    flat = [len(set(row[start:])) == 1 for row in rows]
    if any(flat) and not all(flat):
        low = (min(map(min, matrix)) - 1,) * len(tail)
        matrix = [low if f else row for row, f in zip(matrix, flat)]
    _, y, x = _game(matrix)
    return y, {j: xj for j, xj in zip(tail, x) if xj}


class _Search:
    """The lattice search of one region: c_k * denom and its
    lexicographically first witness, from the least max_w(dots_w + <u, w>)
    over the rows w of ``domain._rows`` and u in N^n with a given sum.

    A hull's dots are zero, a staircase's the sums of its negated rows.
    ``domain._search`` keeps one per domain, so the rows and the bounds are
    prepared once for every k, and one ``run`` computes c_a .. c_b.
    """

    def __init__(self, domain: Union[Hull, Staircase]) -> None:
        rows = domain._rows
        self.domain, self.lift = domain, domain.shape == "staircase"
        self.dots = list(map(sum, rows)) if self.lift else [0] * len(rows)
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
        <y, column>, <y, dots>, x) for that whole game: with n <= 2m the
        region's game, which the diagonal also reads
        (``domain._region_game``), else ``_tail_game``'s 2m columns.
        """
        rows, cols, n, m = self.rows, self.cols, self.n, len(self.rows)
        sums = [sum(col) for col in cols]
        tails = [list(accumulate(reversed(row), min))[::-1] for row in rows]  # min(row[i:])
        if n <= 2 * m:
            _, y, x = self.domain._region_game
            x = {j: xj for j, xj in enumerate(x) if xj}
        else:
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
        remainders: the seed of a search given none."""
        scale = sum(x.values())
        h = [0] * self.n
        for j, xj in x.items():
            h[j] = total * xj // scale
        ranked = sorted(x, key=lambda j: -(total * x[j] % scale))
        for j in ranked[: total - sum(h)]:
            h[j] += 1
        return h

    def __call__(self, k: int, seed: Optional[Sequence[int]] = None) -> tuple[int, tuple[int, ...]]:
        """(c_k * denom, witness), from a witness of c_(k-1) as seed if
        given: the run's one-k case."""
        return self.run(k, k, seed)[0]

    def run(self, first: int, last: int, seed: Optional[Sequence[int]] = None) -> list[tuple]:
        """(c_k * denom, witness) for k = first .. last: one ``_least`` per
        k, handed the row values d_w + <u, w> of the witness before it, the
        first those of ``seed``, a witness of c_(first-1), if given.

        A hull's c_k is ``_least`` at total k.  A staircase's witness v is
        u + 1 for u of sum k - 1, so it searches total k - 1 and negates the
        value; adding 1 keeps lexicographic order.  Its dots are its rows'
        sums, so d_w + <v - 1, w> = <v, w> is the seed's in either shape.
        """
        lift = self.lift
        vals = None if seed is None else [sum(map(operator.mul, seed, w)) for w in self.rows]
        results = []
        for total in range(first - lift, last + 1 - lift):
            value, witness, vals = self._least(total, vals)
            results.append((-value, tuple(e + 1 for e in witness)) if lift else (value, witness))
        return results

    def _pair(self, remaining: int, current: Sequence[int], best: int) -> Optional[tuple]:
        """(e, value, row values) of the best split (e, remaining - e) of the
        last two coordinates below ``best``, after the running values
        ``current``; None when no split is below it."""
        lo, hi, cap = 0, remaining, best - 1
        for d, c, s in zip(current, self.last, self.slopes):  # the e with room >= e * s
            room = cap - d - remaining * c
            if s > 0:
                if room // s < hi:
                    hi = room // s
            elif s:
                if -(room // -s) > lo:
                    lo = -(room // -s)
            elif room < 0:
                return None
        if lo <= hi:
            base = [d + remaining * c for d, c in zip(current, self.last)]
            e, value = _lowest_minimizer(base, self.slopes, lo, hi)
            return e, value, [b + e * s for b, s in zip(base, self.slopes)]

    def _least(
        self, total: int, seed: Optional[Sequence[int]] = None
    ) -> tuple[int, tuple[int, ...], list[int]]:
        """(value, witness, its row values dots_w + <witness, w>) at one
        total, from the row values of a seed composition of total - 1.

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
        and the largest, the loop ends.  Otherwise the loop moves straight
        to the first entry that the cutting bound passes, one ceiling
        division away (the largest over the cutting rows, for the floors);
        ``best`` changes only at leaves, so every entry jumped over is cut.
        One unit left is tried at each later coordinate, the last first, an
        improvement keeping its row values current + column.  The last two
        coordinates (e, R - e) go to ``_lowest_minimizer``, the objective
        being convex in e, on the window of e where every row's
        b_w + e * s_w is below ``best`` (``_pair``): a floor division per
        positive slope, a ceiling division per negative one, and a
        zero-slope row at or above ``best`` empties it.  An empty window
        has no improving split and is not searched, so every pair solve
        improves the incumbent, keeping its row values b + e * s.

        From n = 3 and a positive total the root game adds the root stop and
        a starting incumbent F(h) + 1 whose witness stays (0, ..., 0,
        total): h is the best of the seed's n one-unit extensions u + e_j,
        each its row values plus column j, the seed being ``_rounded``'s
        when none is given.  F(h) is at least the optimum, so a bound above
        best - 1 = F(h) cuts no optimal completion, and an earlier
        composition replaces the incumbent only by a strictly lower value.
        Only strict improvements replace it and the order is lexicographic,
        so the witness is the lexicographically first minimizer, whatever
        the seed.
        """
        n, dots, cols = self.n, self.dots, self.cols
        vals = [d + total * c for d, c in zip(dots, self.last)]
        best, witness = max(vals), (0,) * (n - 1) + (total,)
        if n == 1 or total == 0:
            return best, witness, vals
        if n == 2:
            e, best, vals = self._pair(total, dots, best) or (0, best, vals)
            return best, (e, total - e), vals
        levels, (weight, least, mixed, x) = self._bounds
        stop = -(-(mixed + total * least) // weight)  # the surrogate bound at the root, rounded up
        if seed is None:
            rounded = self._rounded(total - 1, x)
            seed = [d + sum(map(operator.mul, rounded, w)) for d, w in zip(dots, self.rows)]
        best = min(best, min(max(map(operator.add, seed, col)) for col in cols) + 1)
        prefix = [0] * (n - 2)
        # one frame per coordinate on the current path: the first entry to
        # try, the budget at that coordinate, the dot products with that
        # entry and their mix by that level's y
        stack = [(0, total, dots, sum(map(operator.mul, levels[0][2], dots)))]
        while stack and best > stop:
            coord = len(stack) - 1
            entry, remaining, current, mixed = stack.pop()
            column, mins, _, weight, step, least = levels[coord]
            while entry <= remaining:
                rest = remaining - entry
                cap = (best - 1) * weight
                over = mixed + rest * least - cap
                if over > 0:
                    if mixed + rest * step > cap:
                        break
                    skip = -(-over // (least - step))  # to the first entry it passes
                else:
                    floors = [d + rest * w for d, w in zip(current, mins)]
                    if max(floors) < best:
                        prefix[coord] = entry
                        if coord == n - 3:
                            pair = self._pair(rest, current, best)
                            if pair:
                                e, best, vals = pair
                                witness = (*prefix, e, rest - e)
                        elif rest == 1:
                            units = range(coord + 1, n)
                            for j in reversed(units):
                                value = max(map(operator.add, current, cols[j]))
                                if value < best:
                                    best, vals = value, list(map(operator.add, current, cols[j]))
                                    witness = (*prefix[: coord + 1], *(int(i == j) for i in units))
                        else:
                            following = list(map(operator.add, current, column))
                            child = sum(map(operator.mul, levels[coord + 1][2], current))
                            stack += [
                                (entry + 1, remaining, following, mixed + step),
                                (0, rest, current, child),
                            ]
                            break
                        skip = 1
                    elif any(
                        f >= best and d + rest * c >= best
                        for f, d, c in zip(floors, current, column)
                    ):
                        break
                    else:  # to the first entry every cutting row passes
                        skip = max(
                            -((best - 1 - f) // (w - c))
                            for f, w, c in zip(floors, mins, column)
                            if f >= best
                        )
                entry += skip
                if skip == 1:
                    current = list(map(operator.add, current, column))
                else:
                    current = [d + skip * c for d, c in zip(current, column)]
                mixed += skip * step
        return best, witness, vals


def convex_capacity(domain: Hull, k: int) -> CapacityResult:
    """Minimize the support value max_w <v, w> over v in N^n with sum(v) = k:
    the lattice search on the hull's scaled generators."""
    positive_int(k, "capacity index k")
    shape_of(domain, "hull")
    value, witness = domain._search(k)
    return CapacityResult(k, Fraction(value, domain._scaled[0]), witness, Branch.CONVEX_SEARCH)


def concave_capacity(domain: Staircase, k: int) -> CapacityResult:
    """Maximize the anti-norm min_w <v, w> over v > 0 with sum(v) = k + n - 1:
    the lattice search on the staircase's negated vertices, over u = v - 1."""
    positive_int(k, "capacity index k")
    shape_of(domain, "staircase")
    value, witness = domain._search(k)
    return CapacityResult(k, Fraction(value, domain._scaled[0]), witness, Branch.CONCAVE_SEARCH)


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
    denominator, must never decrease."""
    if any(map(operator.gt, values, values[1:])):
        k = next(k for k, a, b in zip(count(2), values, values[1:]) if a > b)
        raise ToricapError(f"internal error: capacity sequence decreased at k={k}")


def _progression(first: Fraction, second: Fraction, kmax: int) -> tuple[int, range]:
    """(denom, scaled c_1 .. c_kmax) of the arithmetic progression through
    c_1 = first and c_2 = second: a polydisk, cube or cylinder union."""
    denom, ((start, stop),) = _scaled_integer_rows(((first, second),))
    step = stop - start
    return denom, range(start, start + kmax * step, step)


def capacity_sequence(domain: ToricDomain, kmax: int) -> CapacitySequence:
    """c_1 .. c_kmax of the domain, the one source of capacity sequences:
    its integers c_k * denom, whose records are built when first read.

    A closed-form kind takes one pass on integers: an ellipsoid sorts its
    multiples up to c_kmax, and a polydisk, cube or cylinder union extends
    the progression through c_1 and c_2; its witnesses are None.
    A searched kind takes c_1 from ``capacity_at``, the one cold search,
    and c_2 .. c_kmax from one ``run`` of ``domain._search`` on the
    domain's own denominator, seeded with c_1's witness.  The integers pass
    the monotonicity check.
    """
    positive_int(kmax, "kmax")
    if type(domain) in _CLOSED_FORMS:
        branch, c_k = _CLOSED_FORMS[type(domain)]
        if type(domain) is Ellipsoid:
            denom, values = _ellipsoid_sequence(domain, kmax)
        else:
            denom, values = _progression(c_k(domain, 1), c_k(domain, 2), kmax)
        witnesses = None
    else:
        first = capacity_at(domain, 1)
        branch, denom = first.branch, domain._scaled[0]
        runs = domain._search.run(2, kmax, first.witness)
        values, witnesses = map(list, zip((int(first.value * denom), first.witness), *runs))
    _require_nondecreasing(values)
    return CapacitySequence._from(
        domain=domain, _scaled=(denom, values), _labels=(witnesses, branch)
    )


def _linear(values: Sequence[int]) -> bool:
    """Whether values[i] = i * values[1] for every i."""
    step = values[1]
    return all(v == i * step for i, v in enumerate(values))


def _min_plus(li: Sequence[int], ri: Sequence[int], kmax: int) -> list[int]:
    """min over i + j = k of li[i] + ri[j], for k = 1 .. kmax, from
    li[0 .. kmax] and ri[0 .. kmax].

    When a factor a is linear, a[i] = i * s, the min over j <= k of
    (k - j) * s + b[j] for the other factor b is k * s plus the least
    b[j] - j * s over j <= k: one pass of prefix minima, O(K).  Any other
    pair, a convex but nonlinear factor included, reads all K(K + 3) / 2
    entries, each k by one ``map`` over two slices.
    """
    if _linear(ri):
        li, ri = ri, li
    if not _linear(li):
        return [min(map(operator.add, li[: k + 1], ri[k::-1])) for k in range(1, kmax + 1)]
    step = li[1]
    shifted = [b - j * step for j, b in enumerate(ri[: kmax + 1])]
    return [k * step + low for k, low in enumerate(accumulate(shifted, min))][1:]


def product_capacities(
    left: CapacitySequence, right: CapacitySequence, kmax: int
) -> CapacitySequence:
    """Capacities of the symplectic product: c_k = min over i+j=k of c_i + c'_j.

    The index 0 terms are taken to be 0, so each factor's own c_k is always
    among the candidates.  The min-plus (``_min_plus``) runs on the factors'
    first kmax integers, rescaled to the lcm of their denominators, in
    O(K) when either factor is linear with its c_0 = 0 (a polydisk or a
    cube) and in O(K^2) otherwise.  The product's records are built when
    first read.
    """
    positive_int(kmax, "kmax")
    if left.kmax < kmax or right.kmax < kmax:
        raise ValueError(
            f"need both factors computed to index {kmax}, "
            f"got {left.kmax} and {right.kmax}"
        )
    (dl, li), (dr, ri) = left._scaled, right._scaled
    denom = math.lcm(dl, dr)
    li = [0, *(v * (denom // dl) for v in li[:kmax])]
    ri = [0, *(v * (denom // dr) for v in ri[:kmax])]
    values = _min_plus(li, ri, kmax)
    _require_nondecreasing(values)
    label = f"({left.domain}) x ({right.domain})"
    return CapacitySequence._from(
        domain=label, _scaled=(denom, values), _labels=(None, Branch.PRODUCT_COMBINATOR)
    )
