"""Exact-arithmetic toolkit for ACM line bundles on strong del Pezzo surfaces."""

from .errors import (
    DivisorParseError,
    InternalError,
    NotFound,
    PreconditionViolated,
    SurfaceMismatch,
    UnsupportedSurface,
)
from .picard import (
    SURFACE_NAMES,
    DivisorClass,
    SurfaceModel,
    arithmetic_genus,
    degree,
    euler_characteristic,
    format_divisor,
    intersect,
    parse_divisor,
    surface_from_name,
)

__all__ = [
    "SURFACE_NAMES",
    "DivisorClass",
    "DivisorParseError",
    "InternalError",
    "NotFound",
    "PreconditionViolated",
    "SurfaceMismatch",
    "SurfaceModel",
    "UnsupportedSurface",
    "arithmetic_genus",
    "degree",
    "euler_characteristic",
    "format_divisor",
    "intersect",
    "parse_divisor",
    "surface_from_name",
]
