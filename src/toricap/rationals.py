"""Exact scalar arithmetic for the whole package.

Every geometric quantity is a ``fractions.Fraction`` (arbitrary precision,
always in lowest terms with positive denominator).  The single allowed
non-rational value is ``math.inf``, used as the marker for an infinite
ellipsoid axis or an unbounded capacity; ``math.inf`` compares correctly
against ``Fraction`` so ordinary ``min``/``max``/``sorted`` just work.

Floats other than ``math.inf`` are rejected everywhere: binary floating
point would silently break the min/max ties the capacity formulas hinge on.
"""

from __future__ import annotations

import math
import re
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from typing import Union

INF = math.inf

Rational = Fraction
#: A Fraction, or math.inf (the only float ever allowed through).
ExtendedRational = Union[Fraction, float]
RationalLike = Union[Fraction, int, str]

# integer or integer/integer, no decimal point, no exponent
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_INF_STRINGS = frozenset({"inf", "+inf", "infinity", "oo"})


def is_infinite(x: ExtendedRational) -> bool:
    return isinstance(x, float) and math.isinf(x)


def to_rational(value: object, allow_infinite: bool = False) -> ExtendedRational:
    """Coerce ``value`` to an exact Fraction (or INF when allowed).

    Accepts Fraction, int, and strings of the form ``"p"`` or ``"p/q"``.
    Decimal literals (float objects, strings with a decimal point or
    exponent) are rejected to preserve exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isinf(value) and value > 0:
            if allow_infinite:
                return INF
            raise ValueError("infinity is not allowed here")
        raise TypeError(
            f"floating-point value {value!r} rejected: use an int, a Fraction, "
            "or a 'p/q' string"
        )
    if isinstance(value, str):
        text = value.strip()
        if text.lower() in _INF_STRINGS:
            if allow_infinite:
                return INF
            raise ValueError("infinity is not allowed here")
        if not _RATIONAL_RE.match(text):
            raise ValueError(
                f"cannot parse {value!r} as an exact rational: expected 'p' or 'p/q'"
            )
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(x: ExtendedRational) -> str:
    """Serialize as ``"p/q"`` (or ``"p"`` for integers, ``"inf"``)."""
    if is_infinite(x):
        return "inf"
    return str(x)


# Shared by every call: divisions set its Inexact and Rounded flags, but
# neither is trapped, so no result depends on them.
_DECIMAL_CONTEXT = Context(prec=20, rounding=ROUND_HALF_EVEN)


def decimal_string(x: ExtendedRational, digits: int = 20) -> str:
    """Decimal rendering with ``digits`` significant digits, round-half-even.

    The division and the rendering use a context of their own, so the
    caller's thread context (its precision, ``capitals``) never applies.
    """
    if is_infinite(x):
        return "inf"
    if digits == 20:
        ctx = _DECIMAL_CONTEXT
    else:
        ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN)
    # Context.divide converts the integer operands exactly
    return ctx.to_sci_string(ctx.divide(x.numerator, x.denominator))
