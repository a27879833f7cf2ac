"""Ordered rational vector spaces with semilinear cones, their metric
completions, and multilinear intersection pairings extended by continuity."""

from .vectors import RationalVector
from .cones import (
    Constraint,
    Cell,
    SemilinearCone,
    DivisorialSpace,
    leq,
    d_b,
)
from .completion import CompletionElement, completion_distance
from .intersection import (
    IntersectionMap,
    AdmissibilityError,
    PositivityError,
    extend_intersection,
    check_intersection_axioms,
)

__all__ = [
    "RationalVector",
    "Constraint",
    "Cell",
    "SemilinearCone",
    "DivisorialSpace",
    "leq",
    "d_b",
    "CompletionElement",
    "completion_distance",
    "IntersectionMap",
    "AdmissibilityError",
    "PositivityError",
    "extend_intersection",
    "check_intersection_axioms",
]
