"""Deliberately naive reference computations.

These re-evaluate the same formulas as the engine by exhaustive
enumeration, with no pruning and no shortcuts, so the test suite (and the
CLI's ``--oracle`` flag) can cross-check the fast paths against them.  A
configurable cap keeps an accidental huge enumeration from running for
hours.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Iterator, Sequence

from .domains import Hull, Staircase, ToricDomain, antinorm_value, shape_of, support_value
from .errors import EnumerationCapExceeded, UnboundedDomainError
from .rationals import ExtendedRational, is_infinite, positive_int, to_rational

DEFAULT_ENUMERATION_CAP = 10**7


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total`, in lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


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
    rationals = [to_rational(a, allow_infinite=True) for a in axes]
    finite = [a for a in rationals if not is_infinite(a)]
    if not finite:
        raise UnboundedDomainError("every axis is infinite: the spectrum is empty")
    _check_cap(len(finite) * k, cap, "multiples")
    denom = lcm(*(a.denominator for a in finite))
    steps = [a.numerator * (denom // a.denominator) for a in finite]
    merged = sorted(m * p for p in steps for m in range(1, k + 1))
    return Fraction(merged[k - 1], denom)


def brute_capacity(
    domain: ToricDomain, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Fraction:
    """Oracle value of c_k for any domain kind, by the shape of its region.

    Every kind but the ellipsoid goes through an enumerative path: a
    polydisk or cube is a one-generator hull, a cylinder union the
    one-vertex staircase whose anti-norm is delta * sum(v).
    """
    shape = shape_of(domain)
    if shape == "ellipsoid":
        return brute_ellipsoid_capacity(domain.axes, k, cap)
    if shape == "hull":
        return brute_convex_capacity(domain, k, cap)
    return brute_concave_capacity(domain, k, cap)
