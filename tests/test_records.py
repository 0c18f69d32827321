"""The value semantics of the package's records.

Domains compare by their kind and their fields, hash alike when equal,
refuse assignment and deletion, build positionally or by field name and
print as ``Kind(field=value, ...)``.  The result records keep their field
order, their attribute access and their immutability.
"""

from fractions import Fraction

import pytest

from toricap import (
    Branch,
    CapacityResult,
    CapacitySequence,
    ConcaveToricDomain,
    ConvexToricDomain,
    Cube,
    CylinderUnion,
    Ellipsoid,
    ObstructionReport,
    Polydisk,
    capacity_sequence,
    obstruct,
    scale_domain,
)

F = Fraction

# per kind: its class, its fields by name and the repr they give
KINDS = [
    (Ellipsoid, {"axes": (1, "inf")}, "Ellipsoid(axes=(Fraction(1, 1), inf))"),
    (Polydisk, {"areas": (1, F(1, 2))}, "Polydisk(areas=(Fraction(1, 1), Fraction(1, 2)))"),
    (Cube, {"n": 2, "delta": 1}, "Cube(n=2, delta=Fraction(1, 1))"),
    (CylinderUnion, {"n": 3, "delta": "1/2"}, "CylinderUnion(n=3, delta=Fraction(1, 2))"),
    (
        ConvexToricDomain,
        {"generators": ((1, 0), (0, 2))},
        "ConvexToricDomain(generators=((Fraction(1, 1), Fraction(0, 1)),"
        " (Fraction(0, 1), Fraction(2, 1))))",
    ),
    (
        ConcaveToricDomain,
        {"vertices": ((1, 0),)},
        "ConcaveToricDomain(vertices=((Fraction(1, 1), Fraction(0, 1)),))",
    ),
]
IDS = [cls.__name__ for cls, _, _ in KINDS]


@pytest.mark.parametrize("cls, fields, text", KINDS, ids=IDS)
def test_domains_are_values(cls, fields, text):
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and hash(a) == hash(b)
    assert not a != b
    assert repr(a) == repr(b) == text
    # the search caches kept with a domain take no part in its value
    if cls is not Ellipsoid:
        assert a._scaled[0] >= 1
        assert a == b and hash(a) == hash(b)
    assert a != scale_domain(a, 2)


@pytest.mark.parametrize("cls, fields, text", KINDS, ids=IDS)
def test_domains_are_immutable(cls, fields, text):
    domain = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(domain, name, getattr(domain, name))
        with pytest.raises(AttributeError):
            delattr(domain, name)
    with pytest.raises(AttributeError):
        domain.extra = 1
    assert repr(domain) == text


@pytest.mark.parametrize("cls, fields, text", KINDS, ids=IDS)
def test_scale_domain_round_trips(cls, fields, text):
    domain = cls(**fields)
    scaled = scale_domain(domain, F(3, 2))
    assert type(scaled) is cls and scaled != domain
    assert scale_domain(scaled, F(2, 3)) == domain
    assert hash(scale_domain(scaled, F(2, 3))) == hash(domain)


def test_equality_is_class_sensitive():
    assert Cube(2, 1) != CylinderUnion(2, 1)
    assert not Cube(2, 1) == CylinderUnion(2, 1)
    assert Cube(2, 1) != Polydisk((1, 1))
    assert ConvexToricDomain(((1, 0),)) != ConcaveToricDomain(((1, 0),))
    assert Cube(2, 1) != (2, F(1))
    assert len({Cube(2, 1), Cube(2, F(2, 2)), CylinderUnion(2, 1)}) == 2


def test_capacity_result_fields():
    result = CapacityResult(3, F(5, 2), (1, 2), Branch.CONVEX_SEARCH)
    assert (result.k, result.value, result.witness, result.branch) == (
        3, F(5, 2), (1, 2), Branch.CONVEX_SEARCH,
    )
    assert result == CapacityResult(
        k=3, value=F(5, 2), witness=(1, 2), branch=Branch.CONVEX_SEARCH
    )
    assert hash(result) == hash(CapacityResult(3, F(5, 2), (1, 2), Branch.CONVEX_SEARCH))
    assert repr(result) == (
        "CapacityResult(k=3, value=Fraction(5, 2), witness=(1, 2), "
        "branch=<Branch.CONVEX_SEARCH: 'ConvexSearch'>)"
    )


def test_capacity_sequence_fields():
    seq = capacity_sequence(Cube(1, 1), 2)
    values = (
        CapacityResult(1, F(1), None, Branch.POLYDISK_CLOSED_FORM),
        CapacityResult(2, F(2), None, Branch.POLYDISK_CLOSED_FORM),
    )
    assert (seq.domain, seq.values) == (Cube(1, 1), values)
    assert seq == CapacitySequence(Cube(1, 1), values)
    assert seq == CapacitySequence(domain=Cube(1, 1), values=values)
    assert (seq.kmax, seq.value(2), seq.raw_values()) == (2, F(2), [F(1), F(2)])
    assert repr(CapacitySequence("label", values[:1])) == (
        "CapacitySequence(domain='label', values=(CapacityResult(k=1, value=Fraction(1, 1), "
        "witness=None, branch=<Branch.POLYDISK_CLOSED_FORM: 'PolydiskClosedForm'>),))"
    )


def test_obstruction_report_fields():
    report = obstruct(Cube(1, 2), Cube(1, 1), 2)
    rows = ((1, F(2), F(1)), (2, F(4), F(2)))
    assert (report.kmax, report.first_violation, report.rows) == (2, 1, rows)
    assert report == ObstructionReport(2, 1, rows)
    assert report == ObstructionReport(kmax=2, first_violation=1, rows=rows)
    assert repr(ObstructionReport(1, None, rows[:1])) == (
        "ObstructionReport(kmax=1, first_violation=None, "
        "rows=((1, Fraction(2, 1), Fraction(1, 1)),))"
    )


@pytest.mark.parametrize(
    "record, fields",
    [
        (CapacityResult(1, F(1), None, Branch.CONVEX_SEARCH), ("k", "value", "witness", "branch")),
        (CapacitySequence("label", ()), ("domain", "values")),
        (ObstructionReport(1, None, ()), ("kmax", "first_violation", "rows")),
    ],
    ids=["CapacityResult", "CapacitySequence", "ObstructionReport"],
)
def test_result_records_are_immutable(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
