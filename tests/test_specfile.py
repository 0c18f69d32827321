import random
from fractions import Fraction

import pytest

from toricap import (
    ConcaveToricDomain,
    ConvexToricDomain,
    Cube,
    CylinderUnion,
    DomainFormatError,
    Ellipsoid,
    Polydisk,
    parse_domain,
    render_domain,
)
from helpers import random_axes, random_concave, random_convex

F = Fraction


def test_parse_examples():
    assert parse_domain('{"type":"ellipsoid","a":["1","2"]}') == Ellipsoid((1, 2))
    assert parse_domain(
        '{"type":"concave","sigma":[["1","0"],["0","2"]]}'
    ) == ConcaveToricDomain(((1, 0), (0, 2)))
    cyl = parse_domain('{"type":"ellipsoid","a":["1","inf"]}')
    assert cyl.finite_axes == (F(1),) and cyl.n == 2


def test_parse_all_kinds():
    assert parse_domain('{"type":"polydisk","a":[2,"3/2"]}') == Polydisk((2, F(3, 2)))
    assert parse_domain('{"type":"cube","n":3,"delta":"7/5"}') == Cube(3, F(7, 5))
    assert parse_domain(
        '{"type":"cylinder_union","n":2,"delta":"9/10"}'
    ) == CylinderUnion(2, F(9, 10))
    assert parse_domain(
        '{"type":"convex","generators":[["1","0"],["0","2"]]}'
    ) == ConvexToricDomain(((1, 0), (0, 2)))


def test_syntax_error_reports_line_and_column():
    with pytest.raises(DomainFormatError, match=r"line 2, column"):
        parse_domain('{"type": "ellipsoid",\n "a": [,]}')


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"type":"ellipsoid","a":["1","0.5"]}', r"a\[1\]"),
        ('{"type":"ellipsoid","a":[1.5]}', r"a\[0\]"),
        ('{"type":"ellipsoid","a":["0"]}', "positive"),
        ('{"type":"polydisk","a":[]}', "a"),
        ('{"type":"cube","n":0,"delta":"1"}', "n"),
        ('{"type":"cube","n":true,"delta":"1"}', "n: expected a positive integer"),
        ('{"type":"cylinder_union","n":false,"delta":"1"}', "n: expected a positive integer"),
        ('{"type":"cube","n":2,"delta":"-1"}', "positive"),
        ('{"type":"convex","generators":[["1","-2"]]}', "nonnegative"),
        ('{"type":"convex","generators":[["1"],["1","2"]]}', "dimension"),
        ('{"type":"concave","sigma":[["1","2"],"x"]}', r"sigma\[1\]"),
        ('{"type":"banana"}', "unknown domain type"),
        ('{"type": 4}', "type"),
        ("[1,2]", "object"),
    ],
)
def test_semantic_errors_carry_field_paths(text, fragment):
    with pytest.raises(DomainFormatError, match=fragment):
        parse_domain(text)


def test_decimal_json_numbers_rejected():
    with pytest.raises(DomainFormatError):
        parse_domain('{"type":"cube","n":2,"delta":0.5}')


def test_round_trip_fixed_domains():
    domains = [
        Ellipsoid((1, F(9, 10), "inf")),
        Polydisk((F(1, 3), 2)),
        Cube(3, F(7, 2)),
        CylinderUnion(2, F(9, 10)),
        ConvexToricDomain(((F(1, 2), 0), (0, 2))),
        ConcaveToricDomain(((1, 0), (F(1, 2), F(1, 2)), (0, 1))),
    ]
    for d in domains:
        assert parse_domain(render_domain(d)) == d


def test_round_trip_random_domains():
    rng = random.Random(79)
    for _ in range(40):
        kind = rng.randrange(4)
        if kind == 0:
            d = Ellipsoid(random_axes(rng, rng.randint(1, 4)))
        elif kind == 1:
            d = Polydisk(random_axes(rng, rng.randint(1, 4)))
        elif kind == 2:
            d = random_convex(rng)
        else:
            d = random_concave(rng)
        assert parse_domain(render_domain(d)) == d
