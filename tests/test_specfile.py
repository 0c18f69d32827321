import json
import random
import re
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
    domain_to_jsonable,
    load_domain,
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
        ('{"type":"ellipsoid","a":["1",1e400]}', r"a\[1\]: infinite JSON number"),
        ('{"type":"ellipsoid","a":["1",Infinity]}', r"a\[1\]: infinite JSON number"),
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


_CANNOT = "cannot parse {!r} as an exact rational: expected 'p' or 'p/q'"

# (point list, the exact message it raises), as parsing each coordinate with its path gave
POINT_ERRORS = [
    ('"generators":[["1","x"]]', "generators[0][1]: " + _CANNOT.format("x")),
    (
        '"generators":[["1","0"],["2",1.5]]',
        "generators[1][1]: floating-point value 1.5 rejected: use an int, a Fraction, "
        "or a 'p/q' string",
    ),
    ('"sigma":[["1","2"],["3",1e400]]', 'sigma[1][1]: infinite JSON number rejected: write "inf"'),
    ('"sigma":[["1",true]]', "sigma[0][1]: booleans are not rationals"),
    ('"sigma":[["1",["2"]]]', "sigma[0][1]: cannot interpret list as a rational"),
    ('"generators":[["1/0","x"]]', "generators[0][0]: zero denominator in '1/0'"),
    ('"generators":[["1","inf"]]', "generators[0][1]: infinity is not allowed here"),
    ('"generators":[[null]]', "generators[0][0]: cannot interpret NoneType as a rational"),
    ('"generators":[]', "generators: expected a nonempty list of points"),
    ('"generators":[["1"],[]]', "generators[1]: expected a nonempty coordinate list"),
    ('"generators":[["-1","2"]]', "convex: generators must have nonnegative coordinates, got -1"),
    (
        '"sigma":[["0","-1/2"]]',
        "concave: staircase vertices must have nonnegative coordinates, got -1/2",
    ),
    # more than one fault: the first in document order is reported
    ('"generators":[["1","x"],[]]', "generators[0][1]: " + _CANNOT.format("x")),
    ('"sigma":[[],["1","x"]]', "sigma[0]: expected a nonempty coordinate list"),
    ('"generators":[["1"],[],["x"]]', "generators[1]: expected a nonempty coordinate list"),
    ('"generators":[["1"],["1","x"]]', "generators[1][1]: " + _CANNOT.format("x")),
    ('"generators":[["1","x"],["1"]]', "generators[0][1]: " + _CANNOT.format("x")),
    ('"generators":[["1","2"],["-1","2","3"]]',
     "convex: generators have inconsistent dimensions (3 vs 2)"),
    ('"sigma":[["1","2"],"12"]', "sigma[1]: expected a nonempty coordinate list"),
    ('"generators":[{"a":1},["1","x"]]', "generators[0]: expected a nonempty coordinate list"),
    ('"generators":[["1",1e400],{"a":1}]',
     'generators[0][1]: infinite JSON number rejected: write "inf"'),
    ('"generators":[["x","-1"]]', "generators[0][0]: " + _CANNOT.format("x")),
    ('"sigma":[["1","2"],["y","3"],["-1","2"]]', "sigma[1][0]: " + _CANNOT.format("y")),
    ('"sigma":[["-1","2"],["1","y"]]', "sigma[1][1]: " + _CANNOT.format("y")),
]


@pytest.mark.parametrize("points, message", POINT_ERRORS, ids=[p for p, _ in POINT_ERRORS])
def test_point_list_errors_name_the_first_bad_coordinate(points, message):
    kind = "concave" if points.startswith('"sigma"') else "convex"
    with pytest.raises(DomainFormatError) as info:
        parse_domain(f'{{"type":"{kind}",{points}}}')
    assert str(info.value) == message


def test_only_a_toric_domain_renders():
    with pytest.raises(TypeError) as info:
        domain_to_jsonable(object())
    assert str(info.value) == "not a toric domain: object"


def test_non_utf8_spec_file_names_its_path(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(DomainFormatError, match=f"cannot read {re.escape(str(path))}: "):
        load_domain(str(path))


def test_a_json_integer_past_the_digit_limit_is_a_format_error():
    with pytest.raises(DomainFormatError) as info:
        parse_domain('{"type":"polydisk","a":[' + "9" * 5000 + "]}")
    assert str(info.value).startswith("unreadable JSON: Exceeds the limit (4300 digits)")
    # a syntax error still reports where it is
    with pytest.raises(DomainFormatError) as info:
        parse_domain('{"type":"polydisk",\n "a":[1,]}')
    assert str(info.value) == "syntax error at line 2, column 9: Expecting value"


def test_a_deeply_nested_spec_is_a_format_error():
    # json.loads recurses once per bracket; past the recursion limit that is
    # a format error, not a RecursionError
    text = '{"type":"convex","generators":' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(DomainFormatError) as info:
        parse_domain(text)
    assert str(info.value).startswith("unreadable JSON: maximum recursion depth exceeded")


def test_a_huge_dimension_is_a_format_error():
    assert parse_domain('{"type":"cube","n":1000000,"delta":"1"}') == Cube(10**6, 1)
    with pytest.raises(DomainFormatError) as info:
        parse_domain('{"type":"cylinder_union","n":1000001,"delta":"1"}')
    assert str(info.value) == (
        "cylinder_union: cylinder-union dimension must be at most 1000000, got 1000001"
    )


@pytest.mark.parametrize(
    "spelling",
    ["inf", "+inf", "infinity", "oo", "INF", "Infinity", "+Inf", "OO", " inf ", "\too\n"],
)
def test_infinite_axis_spellings(spelling):
    domain = parse_domain(json.dumps({"type": "ellipsoid", "a": ["1", spelling]}))
    assert domain == Ellipsoid((1, "inf")) and domain.finite_axes == (1,)


@pytest.mark.parametrize(
    "axis, message",
    [
        ("Infinity", 'a[1]: infinite JSON number rejected: write "inf"'),
        ("1e400", 'a[1]: infinite JSON number rejected: write "inf"'),
        ('"-inf"', "a[1]: cannot parse '-inf' as an exact rational: expected 'p' or 'p/q'"),
        ('"infty"', "a[1]: cannot parse 'infty' as an exact rational: expected 'p' or 'p/q'"),
    ],
)
def test_other_infinities_are_rejected(axis, message):
    with pytest.raises(DomainFormatError) as info:
        parse_domain(f'{{"type":"ellipsoid","a":["1",{axis}]}}')
    assert str(info.value) == message


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
