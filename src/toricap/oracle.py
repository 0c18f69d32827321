"""Deliberately naive reference computations.

These re-evaluate the same formulas as the engine by exhaustive
enumeration, with no pruning and no shortcuts, so the test suite (and the
CLI's ``--oracle`` flag) can cross-check the fast paths against them.  A
configurable cap keeps an accidental huge enumeration from running for
hours.  An ellipsoid is a staircase, so ``brute_concave_capacity`` checks
its closed form too; ``brute_capacity`` gives it the merge of its
multiples instead, which reaches the cap much later.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .domains import Ellipsoid, Hull, Staircase, ToricDomain, _scaled_integer_rows
from .domains import antinorm_value, shape_of, support_value
from .errors import EnumerationCapExceeded
from .rationals import ExtendedRational, positive_int

DEFAULT_ENUMERATION_CAP = 10**7


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total`, in lex order.

    Each is the gaps between parts - 1 bars placed among total + parts - 1
    slots; taking the bars in lex order keeps the tuples in lex order, and
    no recursion means no depth limit on `parts`.
    """
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))


def _check_cap(count: int, cap: int, what: str = "compositions") -> None:
    if count > cap:
        raise EnumerationCapExceeded(f"{count} {what} exceed the enumeration cap of {cap}")


def brute_convex_capacity(
    domain: Hull, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Fraction:
    """Min support value over every composition of k, no pruning."""
    positive_int(k, "k")
    n = domain.n
    _check_cap(comb(k + n - 1, n - 1), cap)
    return min(support_value(domain, v) for v in compositions(k, n))


def brute_concave_capacity(
    domain: Staircase, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Fraction:
    """Max anti-norm over every strictly positive composition of k+n-1."""
    positive_int(k, "k")
    n = domain.n
    _check_cap(comb(k + n - 2, n - 1), cap)
    shifted = (
        tuple(e + 1 for e in v) for v in compositions(k - 1, n)
    )  # strictly positive, sum k+n-1
    return max(antinorm_value(domain, v) for v in shifted)


def brute_ellipsoid_capacity(
    axes: Sequence[ExtendedRational], k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Fraction:
    """k-th element of the sorted merge of the first k multiples of each
    finite axis: n * k of them, which the cap bounds.  The axes are scaled
    to integers over their least common denominator, so the sort compares
    plain ints."""
    positive_int(k, "k")
    denom, (steps,) = _scaled_integer_rows((Ellipsoid(axes).finite_axes,))
    _check_cap(len(steps) * k, cap, "multiples")
    merged = sorted(m * p for p in steps for m in range(1, k + 1))
    return Fraction(merged[k - 1], denom)


def brute_capacity(
    domain: ToricDomain, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Fraction:
    """Oracle value of c_k for any domain kind, by the shape of its region.

    A polydisk or cube is a one-generator hull, a cylinder union the
    one-vertex staircase whose anti-norm is delta * sum(v).  An ellipsoid
    takes the merge of its multiples: n * k of them, where its staircase
    would enumerate C(k + n - 2, n - 1) compositions.
    """
    shape = shape_of(domain)
    if type(domain) is Ellipsoid:
        return brute_ellipsoid_capacity(domain.axes, k, cap)
    if shape == "hull":
        return brute_convex_capacity(domain, k, cap)
    return brute_concave_capacity(domain, k, cap)
