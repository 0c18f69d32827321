"""Exact calculator for the symplectic capacity sequence of toric domains.

Domains are described by their moment-map images with rational data;
capacities, cube capacities, Gromov widths, embedding obstructions, and
asymptotic slopes are all computed in exact arithmetic.

``import toricap`` loads no submodule.  ``_PUBLIC`` maps each submodule
to the public names it defines; a name, or a submodule read as an
attribute, is imported on its first read (PEP 562) and then kept in this
module's globals.  ``__all__`` and ``dir(toricap)`` come from the same
table.
"""

__version__ = "0.1.0"

_PUBLIC = {
    "capacities": (
        "Branch", "CapacityResult", "CapacitySequence", "capacity_at", "capacity_sequence",
        "concave_capacity", "convex_capacity", "cylinder_union_capacity", "ellipsoid_capacity",
        "polydisk_capacity", "product_capacities",
    ),
    "cli": (),
    "domains": (
        "ConcaveToricDomain", "ConvexToricDomain", "Cube", "CylinderUnion", "Ellipsoid",
        "Polydisk", "ToricDomain", "antinorm_value", "diagonal_intersection", "scale_domain",
        "support_value",
    ),
    "embeddings": (
        "ObstructionReport", "SlopeReport", "asymptotic_slope", "cube_capacity", "gromov_width",
        "lagrangian_lower_bound", "obstruct",
    ),
    "errors": (
        "DimensionMismatch", "DomainFormatError", "EnumerationCapExceeded", "ToricapError",
        "UnboundedDomainError",
    ),
    "oracle": (
        "DEFAULT_ENUMERATION_CAP", "brute_capacity", "brute_concave_capacity",
        "brute_convex_capacity", "brute_ellipsoid_capacity",
    ),
    "rationals": (
        "INF", "ExtendedRational", "decimal_string", "format_rational", "is_infinite",
        "to_rational",
    ),
    "specfile": ("domain_to_jsonable", "load_domain", "parse_domain", "render_domain"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")  # binds the submodule here too
    if name in _HOME:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
