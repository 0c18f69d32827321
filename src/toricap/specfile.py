"""The domain-spec file format: JSON syntax, exact rational content.

Rationals travel as ``"p/q"`` strings or plain JSON integers; a number
with a decimal point or exponent, or ``Infinity``, is rejected so nothing
rounds.  An infinite axis is a string, accepted only for ellipsoid axes:
``"inf"``, ``"+inf"``, ``"infinity"`` or ``"oo"``, in any case and with
surrounding spaces (``"-inf"`` is rejected).  Examples::

    {"type": "ellipsoid", "a": ["1", "2"]}
    {"type": "ellipsoid", "a": ["1", "inf"]}
    {"type": "polydisk", "a": ["2", "3"]}
    {"type": "cube", "n": 2, "delta": "1"}
    {"type": "cylinder_union", "n": 2, "delta": "9/10"}
    {"type": "convex", "generators": [["1", "0"], ["0", "2"]]}
    {"type": "concave", "sigma": [["1", "0"], ["0", "2"]]}

Syntax errors report line and column; semantic errors report the offending
field path.  The numbers of a list (an ellipsoid's axes, a polydisk's
areas, a point list's coordinates) are read once, by the domain's
constructor; only when that fails does one walk (``_name_bad_number``),
over the numbers or over the rows of numbers, name the first bad one by
its path.  ``parse_domain(render_domain(d))`` returns a domain
equal to ``d``.
"""

from __future__ import annotations

import json

from .domains import (
    ConcaveToricDomain,
    ConvexToricDomain,
    Cube,
    CylinderUnion,
    Ellipsoid,
    Polydisk,
    ToricDomain,
)
from .errors import DimensionMismatch, DomainFormatError
from .rationals import INF, ExtendedRational, format_rational, positive_int, to_rational


def _rational_field(raw: object, path: str, allow_infinite: bool = False) -> ExtendedRational:
    if raw == INF:  # json.loads reads 1e400 and Infinity as a float infinity
        raise DomainFormatError(f'{path}: infinite JSON number rejected: write "inf"')
    try:
        return to_rational(raw, allow_infinite=allow_infinite)
    except (TypeError, ValueError) as exc:
        raise DomainFormatError(f"{path}: {exc}") from None


def _rational_list(raw: object, path: str, allow_infinite: bool = False) -> list:
    """``raw`` once it is a nonempty list, unconverted: the domain's
    constructor reads each item.  A JSON infinity, which an ellipsoid would
    read as an infinite axis, is named by its path here, after any bad item
    before it."""
    if not isinstance(raw, list) or not raw:
        raise DomainFormatError(f"{path}: expected a nonempty list")
    if INF in raw:
        _name_bad_number(raw, path, allow_infinite=allow_infinite)
    return raw


def _axis_list(raw: object, path: str) -> list:
    return _rational_list(raw, path, allow_infinite=True)


def _point_list(raw: object, path: str) -> list:
    """``raw`` once it is a nonempty list of nonempty lists, unconverted:
    the domain's constructor reads each coordinate.  A row that is no such
    list is named by its path after any bad coordinate before it."""
    if not isinstance(raw, list) or not raw:
        raise DomainFormatError(f"{path}: expected a nonempty list of points")
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            _name_bad_number(raw[:i], path, rows=True)
            raise DomainFormatError(f"{path}[{i}]: expected a nonempty coordinate list")
    return raw


def _name_bad_number(items: list, path: str, rows: bool = False,
                     allow_infinite: bool = False) -> None:
    """Raise the ``_rational_field`` error of the first number of ``items``
    that is no rational, in document order, if there is one: ``items`` are
    numbers, or with ``rows`` lists of finite numbers (a point list's)."""
    for i, item in enumerate(items):
        if rows:
            _name_bad_number(item, f"{path}[{i}]")
        else:
            _rational_field(item, f"{path}[{i}]", allow_infinite=allow_infinite)


def _dimension_field(raw: object, path: str) -> int:
    try:
        return positive_int(raw, path)
    except ValueError:
        raise DomainFormatError(f"{path}: expected a positive integer dimension") from None


def _jsonable(value: object) -> object:
    # coordinate tuples recurse; a dimension n stays a JSON integer
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value if isinstance(value, int) else format_rational(value)


# The wire format: type name, class, and per field its JSON key, its
# attribute and the parser of its JSON value, in the order of the class's
# fields.  Every field renders back through ``_jsonable``.
_SIZED = (("n", "n", _dimension_field), ("delta", "delta", _rational_field))
_KINDS = (
    ("ellipsoid", Ellipsoid, (("a", "axes", _axis_list),)),
    ("polydisk", Polydisk, (("a", "areas", _rational_list),)),
    ("cube", Cube, _SIZED),
    ("cylinder_union", CylinderUnion, _SIZED),
    ("convex", ConvexToricDomain, (("generators", "generators", _point_list),)),
    ("concave", ConcaveToricDomain, (("sigma", "vertices", _point_list),)),
)


def parse_domain(text: str) -> ToricDomain:
    """Parse a domain-spec document into a domain value."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's digit limit, or lists or objects
        # nested past its recursion limit
        raise DomainFormatError(f"unreadable JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainFormatError("top level: expected a JSON object")
    kind = data.get("type")
    if not isinstance(kind, str):
        raise DomainFormatError("type: missing or not a string")
    for name, cls, spec in _KINDS:
        if name == kind:
            values = [parse(data.get(key), key) for key, _, parse in spec]
            try:
                return cls(*values)
            except (ValueError, TypeError, DimensionMismatch) as exc:
                for (key, _, parse), value in zip(spec, values):
                    if isinstance(value, list):  # a list field's bad number names its path
                        _name_bad_number(value, key, parse is _point_list, parse is _axis_list)
                raise DomainFormatError(f"{kind}: {exc}") from None
    names = [name for name, _, _ in _KINDS]
    raise DomainFormatError(
        f"type: unknown domain type {kind!r} (expected {', '.join(names[:-1])}, "
        f"or {names[-1]})"
    )


def domain_to_jsonable(domain: ToricDomain) -> dict:
    """The JSON-ready dict form of a domain: a point list is written from
    its integer rows, with no ``Fraction``."""
    for name, cls, spec in _KINDS:
        if type(domain) is cls:
            (key, attr, parse), *_ = spec
            if parse is _point_list:
                denom, rows = domain._scaled
                points = [[format_rational(a, denom) for a in row] for row in rows]
                return {"type": name, key: points}
            fields = {key: _jsonable(getattr(domain, attr)) for key, attr, _ in spec}
            return {"type": name, **fields}
    raise TypeError(f"not a toric domain: {type(domain).__name__}")


def render_domain(domain: ToricDomain) -> str:
    """Serialize a domain back to spec-file text (inverse of parse_domain)."""
    return json.dumps(domain_to_jsonable(domain), indent=2) + "\n"


def load_domain(path: str) -> ToricDomain:
    """Read and parse a domain-spec file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:  # a decoding error has no strerror
        raise DomainFormatError(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from None
    return parse_domain(text)
