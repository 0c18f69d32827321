import decimal
import math
import random
from fractions import Fraction

import pytest

from toricap import INF, decimal_string, format_rational, is_infinite, to_rational

F = Fraction


def test_parse_integer_and_fraction_strings():
    assert to_rational("3") == Fraction(3)
    assert to_rational("-7/2") == Fraction(-7, 2)
    assert to_rational("4/2") == Fraction(2)
    assert to_rational(5) == Fraction(5)
    assert to_rational(Fraction(1, 3)) == Fraction(1, 3)


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
    with pytest.raises(TypeError):
        to_rational(True)


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
    ("1.5", _CANNOT.format("1.5")),
    ("3/", _CANNOT.format("3/")),
    ("/3", _CANNOT.format("/3")),
    ("1e3", _CANNOT.format("1e3")),
    ("1_000", _CANNOT.format("1_000")),
    ("", _CANNOT.format("")),
    (" ", _CANNOT.format(" ")),
    ("inf", "infinity is not allowed here"),
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
