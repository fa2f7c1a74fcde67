"""Minimal invariant and globally attracting regions for planar toric
differential inclusions."""

from .errors import (
    ArcsDontMeet,
    ConstructionFailed,
    DeltaTooSmall,
    MonomialOverflow,
    NoCrossing,
    NonFinitePoint,
    NonPositiveDelta,
    OutOfBand,
    ParallelGenerators,
    StepCollapse,
    ToricRegionsError,
    UnsupportedFan,
    WitnessFailed,
    ZeroGenerator,
)
from .fan_geometry import (
    Cone,
    Fan,
    LineGenerator,
    LogPoint,
    PosPoint,
    delta_i,
    dist_to_cone,
    r_count,
)
from .region_construction import (
    IntersectionPoint,
    RegionBoundary,
    SlopeClasses,
    choose_start_points,
    compute_slope_classes,
    construct_region,
    conv_hull,
    hull_contains,
    intersection_points,
    phi_level,
    region_contains,
)
from .tdi_rhs import rhs_bruteforce

__version__ = "0.1.0"

__all__ = [
    "ArcsDontMeet", "Cone", "ConstructionFailed", "DeltaTooSmall", "Fan",
    "IntersectionPoint", "LineGenerator", "LogPoint", "MonomialOverflow",
    "NoCrossing", "NonFinitePoint", "NonPositiveDelta", "OutOfBand",
    "ParallelGenerators", "PosPoint", "RegionBoundary", "SlopeClasses",
    "StepCollapse", "ToricRegionsError", "UnsupportedFan", "WitnessFailed",
    "ZeroGenerator", "choose_start_points", "compute_slope_classes",
    "construct_region", "conv_hull", "delta_i", "dist_to_cone",
    "hull_contains", "intersection_points", "phi_level", "r_count",
    "region_contains", "rhs_bruteforce",
]
