import decimal
import math
import random
import re
import time
from fractions import Fraction

import pytest

from toricap import INF, decimal_string, format_rational, is_infinite, to_rational
from toricap.rationals import MAX_DIGITS, rational_pair

F = Fraction


def test_parse_integer_and_fraction_strings():
    assert to_rational("3") == Fraction(3)
    assert to_rational("-7/2") == Fraction(-7, 2)
    assert to_rational("4/2") == Fraction(2)
    assert to_rational(5) == Fraction(5)
    value = Fraction(1, 3)
    assert to_rational(value) is value


def test_infinity_only_where_allowed():
    assert to_rational("inf", allow_infinite=True) == INF
    assert to_rational(math.inf, allow_infinite=True) == INF
    with pytest.raises(ValueError):
        to_rational("inf")
    with pytest.raises(ValueError):
        to_rational(math.inf)


@pytest.mark.parametrize("bad", ["0.5", "1e3", "1.0", ".5", "2/0", "a/b", ""])
def test_decimal_and_malformed_strings_rejected(bad):
    with pytest.raises(ValueError):
        to_rational(bad)


def test_floats_and_bools_rejected():
    with pytest.raises(TypeError):
        to_rational(0.5)
    for convert in (to_rational, format_rational, decimal_string):
        for x in (True, False):
            with pytest.raises(TypeError, match="booleans are not rationals"):
                convert(x)


def test_format_rational():
    assert format_rational(Fraction(2, 3)) == "2/3"
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(INF) == "inf"


def test_decimal_string_twenty_significant_digits():
    assert decimal_string(Fraction(2, 3)) == "0.66666666666666666667"
    assert decimal_string(Fraction(1)) == "1"
    assert decimal_string(Fraction(1, 3), digits=5) == "0.33333"


def test_decimal_string_round_half_even():
    # 1/16 = 0.0625: the 2-digit result must round to even (0.062, not 0.063)
    assert decimal_string(Fraction(1, 16), digits=2) == "0.062"
    assert decimal_string(Fraction(3, 16), digits=3) == "0.188"


class _Float(float):
    """A float subclass, as numeric libraries define them."""


@pytest.mark.parametrize(
    "x", [1.5, -math.inf, math.nan, 0.0, _Float(1.5)], ids=lambda x: f"{type(x).__name__}-{x}"
)
def test_formatters_reject_every_float_but_inf(x):
    message = re.escape(f"floating-point value {x!r} rejected: use an int, a Fraction, ")
    for formatter in (format_rational, decimal_string):
        with pytest.raises(TypeError, match=message):
            formatter(x)
    # the wording to_rational uses for the same value
    with pytest.raises(TypeError, match=message):
        to_rational(x)


def test_formatters_accept_inf_and_ints():
    for inf in (INF, _Float("inf")):
        assert format_rational(inf) == decimal_string(inf) == "inf"
        assert decimal_string(inf, 3) == "inf"
    assert format_rational(-7) == decimal_string(-7) == "-7"


@pytest.mark.parametrize("digits", [True, False, 0, -1, 2.5, 20.0, "3", None])
def test_decimal_string_digits_is_a_positive_int(digits):
    for x in (Fraction(2, 3), INF):
        with pytest.raises(ValueError, match=f"^digits must be a positive integer, got {digits}$"):
            decimal_string(x, digits)


def test_decimal_string_digits_edges():
    assert decimal_string(Fraction(2, 3), 1) == "0.7"
    assert decimal_string(Fraction(-2, 3), 2) == "-0.67"
    assert decimal_string(Fraction(2, 3), 20) == decimal_string(Fraction(2, 3))


@pytest.mark.parametrize("digits", [MAX_DIGITS + 1, 10**9, 10**18, 10**30])
def test_decimal_string_digits_has_a_maximum(digits):
    # 10**9 would start a billion-digit division, 10**18 is past
    # decimal.MAX_PREC and 10**30 past a C ssize_t: each is refused at once
    start = time.perf_counter()
    message = f"^digits must be a positive integer at most {MAX_DIGITS}, got {digits}$"
    for x in (Fraction(2, 3), INF):
        with pytest.raises(ValueError, match=message):
            decimal_string(x, digits)
    assert time.perf_counter() - start < 1


def test_decimal_string_renders_the_most_digits():
    assert decimal_string(Fraction(2, 3), MAX_DIGITS) == "0." + "6" * (MAX_DIGITS - 1) + "7"


def test_is_infinite():
    assert is_infinite(INF)
    assert not is_infinite(Fraction(10**30))


def _decimal_string_reference(x, digits=20):
    # the former implementation: a local copy of the thread context
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        return str(decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator))


def _decimal_cases():
    rng = random.Random(61)
    fixed = [
        Fraction(0), Fraction(1), Fraction(7), Fraction(-3), Fraction(10**25),
        Fraction(1, 10**30), Fraction(10**40, 3), Fraction(-10**40, 3),
        Fraction(-2, 3), Fraction(1, 16), Fraction(5, 2), Fraction(-5, 2),
        Fraction(999999, 1000000), Fraction(123456789, 10**12),
        # halfway at the 21st significant digit: round half even at 20
        Fraction(10**20 + 5), Fraction(-(10**20 + 15)),
        Fraction(123456789012345678925, 10**21),
    ]
    randoms = [
        Fraction(rng.randint(-(10**rng.randint(1, 45)), 10**rng.randint(1, 45)),
                 rng.randint(1, 10**rng.randint(1, 45)))
        for _ in range(300)
    ]
    return fixed + randoms


def test_decimal_string_matches_former_implementation():
    for x in _decimal_cases():
        assert decimal_string(x) == _decimal_string_reference(x)
        for digits in range(1, 31):
            assert decimal_string(x, digits) == _decimal_string_reference(x, digits)


def test_decimal_string_ignores_the_thread_context():
    cases = _decimal_cases()
    expected = [[_decimal_string_reference(x, d) for d in (20, 3, 30)] for x in cases]
    with decimal.localcontext() as ctx:
        ctx.capitals = 0
        ctx.prec = 2
        ctx.rounding = decimal.ROUND_DOWN
        ctx.traps[decimal.Inexact] = True
        assert decimal_string(Fraction(10**40, 3)) == "3.3333333333333333333E+39"
        got = [[decimal_string(x), decimal_string(x, 3), decimal_string(x, 30)] for x in cases]
    assert got == expected


def _scaled_cases():
    """(value, denom) pairs as the sequence engine hands them to the
    formatters: zero, negatives, terminating decimals (denom a product of
    2s and 5s, value a multiple of denom or of 10^j * denom) and values of
    more than 20 digits."""
    rng = random.Random(1607)
    sign = lambda: rng.choice((1, -1))  # noqa: E731
    cases = [(0, 1), (0, 7), (0, 10**30), (-5, 1), (10**25, 1), (-(10**40), 3), (6, 4)]
    for _ in range(2500):
        two_five = 2 ** rng.randint(0, 70) * 5 ** rng.randint(0, 70)
        d = rng.choice((rng.randint(1, 10 ** rng.randint(1, 30)), two_five))
        cases += [
            (sign() * rng.randint(0, 10 ** rng.randint(1, 45)), d),
            (sign() * rng.randint(0, 10**30), two_five),
            (sign() * d * rng.randint(0, 10 ** rng.randint(0, 25)), d),
            (sign() * d * rng.randint(1, 999) * 10 ** rng.randint(1, 40), d),
            (sign() * rng.randint(10**20, 10**45), rng.randint(1, 999)),
        ]
    return cases


def test_scaled_formatters_match_the_fraction_path():
    for value, denom in _scaled_cases():
        x = Fraction(value, denom)
        assert format_rational(value, denom) == format_rational(x), (value, denom)
        for digits in (1, 3, 20, 60):
            assert decimal_string(value, digits, denom) == decimal_string(x, digits), (
                value, denom, digits)


@pytest.mark.parametrize("denom", [0, -1, -6, True, False, 2.0, F(2), "2", None])
def test_formatters_reject_a_bad_denom(denom):
    # never a silent "1/0", a sign in the denominator or a float scale
    for value in (1, 0, -4):
        with pytest.raises(ValueError, match="^denom must be a positive integer"):
            format_rational(value, denom)
        for digits in (20, 3):
            with pytest.raises(ValueError, match="^denom must be a positive integer"):
                decimal_string(value, digits, denom)


@pytest.mark.parametrize("x", [F(2, 3), F(4), INF], ids=str)
@pytest.mark.parametrize("denom", [2, 3, 0, -1, True, 1.0])
def test_formatters_take_a_denom_only_with_an_int(x, denom):
    with pytest.raises(ValueError, match="^denom must be a positive integer"):
        format_rational(x, denom)
    with pytest.raises(ValueError, match="^denom must be a positive integer"):
        decimal_string(x, 20, denom)


_CANNOT = "cannot parse {!r} as an exact rational: expected 'p' or 'p/q'"
_TOO_LONG = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has {} digits; "
    "use sys.set_int_max_str_digits() to increase the limit"
)

# (text, its Fraction or the exact message of the ValueError it raises)
PARSE_TABLE = [
    ("3", F(3)),
    (" 3 ", F(3)),
    ("+3", F(3)),
    ("+7", F(7)),
    (" 3/2 ", F(3, 2)),
    ("-3", F(-3)),
    ("\t-7/2\n", F(-7, 2)),
    ("+4/2", F(2)),
    ("-0", F(0)),
    ("0/5", F(0)),
    ("\xa05\xa0", F(5)),
    ("- 3", _CANNOT.format("- 3")),
    ("+-3", _CANNOT.format("+-3")),
    ("3 /4", _CANNOT.format("3 /4")),
    ("3/ 4", _CANNOT.format("3/ 4")),
    ("3/-4", _CANNOT.format("3/-4")),
    ("1/0", "zero denominator in '1/0'"),
    ("-0/0", "zero denominator in '-0/0'"),
    ("1/00", "zero denominator in '1/00'"),
    ("1.5", _CANNOT.format("1.5")),
    ("3/", _CANNOT.format("3/")),
    ("/3", _CANNOT.format("/3")),
    ("1e3", _CANNOT.format("1e3")),
    ("1_000", _CANNOT.format("1_000")),
    ("", _CANNOT.format("")),
    (" ", _CANNOT.format(" ")),
    ("inf", "infinity is not allowed here"),
    ("-inf", _CANNOT.format("-inf")),
    # decimal digits of other scripts are digits; a superscript is not
    ("٣", F(3)),
    ("١/٤", F(1, 4)),
    ("７/２", F(7, 2)),
    ("²", _CANNOT.format("²")),
    # past int's default limit on the length of a decimal string
    ("1" + "0" * 4400, _TOO_LONG.format(4401)),
    ("-1" + "0" * 4400, _TOO_LONG.format(4401)),
    ("1/" + "1" * 4400, _TOO_LONG.format(4400)),
    ("9" * 4300 + "/7", F(10**4300 - 1, 7)),
]


@pytest.mark.parametrize("text, expected", PARSE_TABLE, ids=lambda v: repr(v)[:12])
def test_string_parsing_table(text, expected):
    if isinstance(expected, Fraction):
        value = to_rational(text)
        assert type(value) is Fraction and value == expected
    else:
        with pytest.raises(ValueError) as info:
            to_rational(text)
        assert str(info.value) == expected


@pytest.mark.parametrize("text", ["inf", "+inf", "infinity", "oo", "INF", "+Inf", "Infinity",
                                  "OO", " inf\n"])
def test_every_infinity_spelling(text):
    assert to_rational(text, allow_infinite=True) == INF
    with pytest.raises(ValueError, match="^infinity is not allowed here$"):
        to_rational(text)


class _Int(int):
    """An int subclass, as enums and numeric libraries define them."""


# Values of every type a coordinate arrives as, well-formed or not
_READINGS = [
    "3", "-7/2", "4/2", " +6/4 ", "-0", "0/5", "007/010", "\t12\n", "1/0", "-3/00",
    "0.5", "1e3", ".5", "", " ", "a/b", "1/-2", "1_0", "+-1", "1/2/3", "١٢/٣",
    "inf", " +Inf ", "oo", "infinity", "-inf", "infty", "9" * 4301, "1/" + "9" * 4301,
    0, 5, -12, 10**40, _Int(4), F(0), F(-5, 3), F(10**30, 7),
    True, False, 1.5, 0.0, -2.0, math.inf, -math.inf, math.nan, _Float(math.inf),
    None, [1], (1, 2), 1j,
]


def _slow_rational(value):
    """The reading of a finite rational spelled out case by case, through
    ``Fraction``: the independent slow path."""
    if isinstance(value, str):
        text = value.strip()
        match = re.fullmatch(r"([+-]?\d+)(?:/(\d+))?", text)
        if match is None:
            if text.lower() in ("inf", "+inf", "infinity", "oo"):
                raise ValueError("infinity is not allowed here")
            raise ValueError(f"cannot parse {value!r} as an exact rational: expected 'p' or 'p/q'")
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value == math.inf:
            raise ValueError("infinity is not allowed here")
        raise TypeError(
            f"floating-point value {value!r} rejected: use an int, a Fraction, or a 'p/q' string"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _reading(read, value):
    try:
        return "value", read(value)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("value", _READINGS, ids=lambda v: repr(v)[:24])
def test_rational_pair_reads_exactly_as_to_rational(value):
    """The integer pair and ``to_rational`` raise where the slow path
    raises, with its type and message, and otherwise give its value: the
    pair as its lowest terms."""
    kind, expected = _reading(_slow_rational, value)
    assert _reading(to_rational, value) == (kind, expected)
    if kind == "value":
        expected = (expected.numerator, expected.denominator)
        assert {type(x) for x in rational_pair(value)} == {int}
    assert _reading(rational_pair, value) == (kind, expected)
