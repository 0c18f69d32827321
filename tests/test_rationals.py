import decimal
import math
import random
from fractions import Fraction

import pytest

from toricap import INF, decimal_string, format_rational, is_infinite, to_rational


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
