"""Compactified divisors on the rational projective line: places, slope
families, roof functions, heights, and energies summed over places."""

from .places import (
    Place,
    LogLinear,
    abs_value,
    log_abs,
    support,
    product_formula_check,
)
from .family import (
    ToricCompactifiedDivisor,
    AdelicFamily,
    RoofFunction,
    NefStatus,
    canonical_fn,
    strongly_nef_local_check,
)
from .heights import (
    roof,
    global_height,
    point_height,
    point_height_exact,
    boundary_height,
    global_energy,
    extended_height,
    nef_status,
    twist,
)

__all__ = [
    "Place",
    "LogLinear",
    "abs_value",
    "log_abs",
    "support",
    "product_formula_check",
    "ToricCompactifiedDivisor",
    "AdelicFamily",
    "canonical_fn",
    "strongly_nef_local_check",
    "RoofFunction",
    "NefStatus",
    "roof",
    "global_height",
    "point_height",
    "point_height_exact",
    "boundary_height",
    "global_energy",
    "extended_height",
    "nef_status",
    "twist",
]
