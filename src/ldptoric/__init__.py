"""Exact-integer toolkit for complete lattice fans and LDP polygons.

Validation of ray cycles and convex polygons, singularity and anticanonical
degree data, GL(2, Z) equivalence with canonical forms, the parametric
families covering at most three singular points, and exhaustive enumeration
of all classes with vertices in a coordinate box.
"""

from .lattice import (
    IDENTITY_MAP,
    LatticeOverflowError,
    RayVector,
    UnimodularMap,
    apply_map,
    compose_maps,
    det2,
    is_primitive,
)
from .polygon import (
    BadWinding,
    DuplicateRay,
    FanCycle,
    FanValidationError,
    LdpPolygon,
    NonPrimitiveRay,
    NotCounterclockwise,
    NotStrictlyConvex,
    angular_sort,
    format_vertices,
    parse_vertices,
    same_cycle,
    twice_area,
    validate_fan,
    validate_ldp_polygon,
)
from .surface import (
    ConeRecord,
    ConeSingular,
    SurfaceReport,
    analyze,
    blow_down,
    blow_down_candidates,
    blow_up,
    f_value,
    nonsingular_arc_contiguous,
)
from .equivalence import (
    apply_to_polygon,
    are_equivalent,
    canonical_form,
    random_unimodular_map,
)
from .families import (
    FAMILY_TAGS,
    FamilyInstance,
    FamilyParams,
    InvalidParams,
    check_params,
    classify_three,
    generate,
    identify,
)
from .enumeration import (
    BoxSpec,
    CatalogEntry,
    VerificationReport,
    classify_catalog,
    enumerate_ldp,
    enumerate_raw,
    primitive_points,
    verify_catalog,
)

__version__ = "0.1.0"

__all__ = [
    "IDENTITY_MAP",
    "LatticeOverflowError",
    "RayVector",
    "UnimodularMap",
    "apply_map",
    "compose_maps",
    "det2",
    "is_primitive",
    "BadWinding",
    "DuplicateRay",
    "FanCycle",
    "FanValidationError",
    "LdpPolygon",
    "NonPrimitiveRay",
    "NotCounterclockwise",
    "NotStrictlyConvex",
    "angular_sort",
    "format_vertices",
    "parse_vertices",
    "same_cycle",
    "twice_area",
    "validate_fan",
    "validate_ldp_polygon",
    "ConeRecord",
    "ConeSingular",
    "SurfaceReport",
    "analyze",
    "blow_down",
    "blow_down_candidates",
    "blow_up",
    "f_value",
    "nonsingular_arc_contiguous",
    "apply_to_polygon",
    "are_equivalent",
    "canonical_form",
    "random_unimodular_map",
    "FAMILY_TAGS",
    "FamilyInstance",
    "FamilyParams",
    "InvalidParams",
    "check_params",
    "classify_three",
    "generate",
    "identify",
    "BoxSpec",
    "CatalogEntry",
    "VerificationReport",
    "classify_catalog",
    "enumerate_ldp",
    "enumerate_raw",
    "primitive_points",
    "verify_catalog",
]
