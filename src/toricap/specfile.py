"""The domain-spec file format: JSON syntax, exact rational content.

Rationals travel as ``"p/q"`` strings or plain JSON integers; anything
with a decimal point or exponent is rejected so nothing ever rounds.
``"inf"`` is accepted only for ellipsoid axes.  Examples::

    {"type": "ellipsoid", "a": ["1", "2"]}
    {"type": "ellipsoid", "a": ["1", "inf"]}
    {"type": "polydisk", "a": ["2", "3"]}
    {"type": "cube", "n": 2, "delta": "1"}
    {"type": "cylinder_union", "n": 2, "delta": "9/10"}
    {"type": "convex", "generators": [["1", "0"], ["0", "2"]]}
    {"type": "concave", "sigma": [["1", "0"], ["0", "2"]]}

Syntax errors report line and column; semantic errors report the offending
field path.  ``parse_domain(render_domain(d))`` returns a domain equal to
``d``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial

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
from .rationals import ExtendedRational, format_rational, positive_int, to_rational


def _rational_field(raw: object, path: str, allow_infinite: bool = False) -> ExtendedRational:
    try:
        return to_rational(raw, allow_infinite=allow_infinite)
    except (TypeError, ValueError) as exc:
        raise DomainFormatError(f"{path}: {exc}") from None


def _rational_list(raw: object, path: str, allow_infinite: bool = False) -> list:
    if not isinstance(raw, list) or not raw:
        raise DomainFormatError(f"{path}: expected a nonempty list")
    return [
        _rational_field(item, f"{path}[{i}]", allow_infinite=allow_infinite)
        for i, item in enumerate(raw)
    ]


def _point_list(raw: object, path: str) -> list[tuple[Fraction, ...]]:
    if not isinstance(raw, list) or not raw:
        raise DomainFormatError(f"{path}: expected a nonempty list of points")
    points = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            raise DomainFormatError(f"{path}[{i}]: expected a nonempty coordinate list")
        points.append(tuple(_rational_field(c, f"{path}[{i}][{j}]") for j, c in enumerate(row)))
    return points


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
    ("ellipsoid", Ellipsoid, (("a", "axes", partial(_rational_list, allow_infinite=True)),)),
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
                raise DomainFormatError(f"{kind}: {exc}") from None
    names = [name for name, _, _ in _KINDS]
    raise DomainFormatError(
        f"type: unknown domain type {kind!r} (expected {', '.join(names[:-1])}, "
        f"or {names[-1]})"
    )


def domain_to_jsonable(domain: ToricDomain) -> dict:
    """The JSON-ready dict form of a domain."""
    for name, cls, spec in _KINDS:
        if type(domain) is cls:
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
    except OSError as exc:
        raise DomainFormatError(f"cannot read {path}: {exc.strerror}") from None
    return parse_domain(text)
