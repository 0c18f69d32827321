"""Exact scalar arithmetic for the whole package.

Every geometric quantity is a ``fractions.Fraction`` (arbitrary precision,
always in lowest terms with positive denominator).  The single allowed
non-rational value is ``math.inf``, used as the marker for an infinite
ellipsoid axis or an unbounded capacity; ``math.inf`` compares correctly
against ``Fraction`` so ordinary ``min``/``max``/``sorted`` just work.

Floats other than ``math.inf`` are rejected everywhere: binary floating
point would silently break the min/max ties the capacity formulas hinge on.
``rational_pair`` is the one reading of a rational: ``to_rational`` builds
its ``Fraction`` from that pair, and a point set takes the pair as it is.
"""

from __future__ import annotations

import math
import re
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from typing import Union

INF = math.inf

#: A Fraction, or math.inf (the only float ever allowed through).
ExtendedRational = Union[Fraction, float]

# integer or integer/integer, no decimal point, no exponent: the signed
# numerator and the denominator's digits
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")
_INF_STRINGS = frozenset({"inf", "+inf", "infinity", "oo"})


def is_infinite(x: ExtendedRational) -> bool:
    return isinstance(x, float) and math.isinf(x)


def rational_pair(value: object) -> tuple[int, int]:
    """The numerator and positive denominator, in lowest terms, of the
    finite rational ``value`` names: the one reading of a rational.

    Accepts Fraction, int, and strings of the form ``"p"`` or ``"p/q"``.
    Decimal literals (float objects, strings with a decimal point or
    exponent) are rejected to preserve exactness, and so is infinity.
    """
    if isinstance(value, str):
        text = value.strip()
        match = _RATIONAL_RE.fullmatch(text)
        if match is None:
            if text.lower() in _INF_STRINGS:
                raise ValueError("infinity is not allowed here")
            raise ValueError(f"cannot parse {value!r} as an exact rational: expected 'p' or 'p/q'")
        numerator, denominator = match.groups()
        p = int(numerator)
        if denominator is None:
            return p, 1
        q = int(denominator)
        if not q:
            raise ValueError(f"zero denominator in {value!r}")
        g = math.gcd(p, q)
        return p // g, q // g
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, float):
        if math.isinf(value) and value > 0:
            raise ValueError("infinity is not allowed here")
        raise TypeError(
            f"floating-point value {value!r} rejected: use an int, a Fraction, "
            "or a 'p/q' string"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def to_rational(value: object, allow_infinite: bool = False) -> ExtendedRational:
    """Coerce ``value`` to an exact Fraction as ``rational_pair`` reads it,
    or to INF when allowed for ``math.inf`` or an infinite spelling."""
    if isinstance(value, Fraction):
        return value
    if allow_infinite and (
        value.strip().lower() in _INF_STRINGS if isinstance(value, str)
        else isinstance(value, float) and value == INF
    ):
        return INF
    return Fraction(*rational_pair(value))


def positive_int(value: object, what: str) -> int:
    """``value`` if it is a positive int, else ValueError naming ``what``;
    a ``bool`` is an ``int`` but never a count or an index."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value}")
    return value


def _bad_denom(denom: object) -> ValueError:
    return ValueError(f"denom must be a positive integer, and 1 unless x is an int; got {denom!r}")


def format_rational(x: ExtendedRational, denom: int = 1) -> str:
    """Serialize as ``"p/q"`` (or ``"p"`` for integers, ``"inf"``).

    An int ``x`` may come with a positive int ``denom``: the value is then
    ``x / denom``, written in lowest terms as ``Fraction(x, denom)`` would
    be, without building one.  Any other ``denom`` raises ``ValueError``.
    """
    if type(x) is int and type(denom) is int and denom > 0:
        g = math.gcd(x, denom)
        return str(x // g) if g == denom else f"{x // g}/{denom // g}"
    if type(denom) is not int or denom != 1:
        raise _bad_denom(denom)
    if isinstance(x, (bool, float)):
        to_rational(x, allow_infinite=True)  # rejects a bool and every float but math.inf
        return "inf"
    return str(x)


# Shared by every call: divisions set its Inexact and Rounded flags, but
# neither is trapped, so no result depends on them.
_DECIMAL_CONTEXT = Context(prec=20, rounding=ROUND_HALF_EVEN)

#: The most significant digits ``decimal_string`` renders: far past any
#: use, and far below ``decimal.MAX_PREC``, whose divisions would run for
#: minutes or fail inside ``decimal``.
MAX_DIGITS = 10_000


def decimal_string(x: ExtendedRational, digits: int = 20, denom: int = 1) -> str:
    """Decimal rendering with ``digits`` significant digits, round-half-even.

    ``digits`` is a positive int of at most ``MAX_DIGITS``.  The division
    and the rendering use a context of their own, so the caller's thread
    context (its precision, ``capitals``) never applies.  An int ``x`` may
    come with a positive int ``denom``: the value is then ``x / denom``,
    divided as it stands, which renders the same as its lowest terms (the
    rounded quotient and its ideal exponent 0 depend only on the value).
    Any other ``denom`` raises ``ValueError``.
    """
    if digits == 20 and type(digits) is int:
        ctx = _DECIMAL_CONTEXT
    elif positive_int(digits, "digits") > MAX_DIGITS:
        raise ValueError(f"digits must be a positive integer at most {MAX_DIGITS}, got {digits}")
    else:
        ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN)
    if type(x) is int and type(denom) is int and denom > 0:
        return ctx.to_sci_string(ctx.divide(x, denom))
    if type(denom) is not int or denom != 1:
        raise _bad_denom(denom)
    if isinstance(x, (bool, float)):
        to_rational(x, allow_infinite=True)  # rejects a bool and every float but math.inf
        return "inf"
    # Context.divide converts the integer operands exactly
    return ctx.to_sci_string(ctx.divide(*x.as_integer_ratio()))
