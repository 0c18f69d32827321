"""Exact calculator for the symplectic capacity sequence of toric domains.

Domains are described by their moment-map images with rational data;
capacities, cube capacities, Gromov widths, embedding obstructions, and
asymptotic slopes are all computed in exact arithmetic.
"""

from .capacities import (
    Branch,
    CapacityResult,
    CapacitySequence,
    capacity_at,
    capacity_sequence,
    concave_capacity,
    convex_capacity,
    cylinder_union_capacity,
    ellipsoid_capacity,
    polydisk_capacity,
    product_capacities,
)
from .domains import (
    ConcaveToricDomain,
    ConvexToricDomain,
    Cube,
    CylinderUnion,
    Ellipsoid,
    Polydisk,
    ToricDomain,
    antinorm_value,
    diagonal_intersection,
    scale_domain,
    support_value,
)
from .embeddings import (
    ObstructionReport,
    SlopeReport,
    asymptotic_slope,
    cube_capacity,
    gromov_width,
    lagrangian_lower_bound,
    obstruct,
)
from .errors import (
    DimensionMismatch,
    DomainFormatError,
    EnumerationCapExceeded,
    ToricapError,
    UnboundedDomainError,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    brute_capacity,
    brute_concave_capacity,
    brute_convex_capacity,
    brute_ellipsoid_capacity,
)
from .rationals import (
    INF,
    ExtendedRational,
    decimal_string,
    format_rational,
    is_infinite,
    to_rational,
)
from .specfile import domain_to_jsonable, load_domain, parse_domain, render_domain

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "CapacityResult",
    "CapacitySequence",
    "ConcaveToricDomain",
    "ConvexToricDomain",
    "Cube",
    "CylinderUnion",
    "DEFAULT_ENUMERATION_CAP",
    "DimensionMismatch",
    "DomainFormatError",
    "Ellipsoid",
    "EnumerationCapExceeded",
    "ExtendedRational",
    "INF",
    "ObstructionReport",
    "Polydisk",
    "SlopeReport",
    "ToricDomain",
    "ToricapError",
    "UnboundedDomainError",
    "antinorm_value",
    "asymptotic_slope",
    "brute_capacity",
    "brute_concave_capacity",
    "brute_convex_capacity",
    "brute_ellipsoid_capacity",
    "capacity_at",
    "capacity_sequence",
    "concave_capacity",
    "convex_capacity",
    "cube_capacity",
    "cylinder_union_capacity",
    "decimal_string",
    "diagonal_intersection",
    "domain_to_jsonable",
    "ellipsoid_capacity",
    "format_rational",
    "gromov_width",
    "is_infinite",
    "lagrangian_lower_bound",
    "load_domain",
    "obstruct",
    "parse_domain",
    "polydisk_capacity",
    "product_capacities",
    "render_domain",
    "scale_domain",
    "support_value",
    "to_rational",
]
