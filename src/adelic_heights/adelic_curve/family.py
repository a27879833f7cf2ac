"""Adelic families of concave profiles on the projective line.

A compactified divisor a[0] + b[infinity] on P^1 fixes a canonical concave
profile min(b*u, -a*u). A family assigns one profile per place; all but
finitely many places use the canonical one, so the family is described by
the divisor plus a finite table of exceptions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from ..convex_calculus.functions import (
    AffinePiece,
    ConcaveFn,
    sup_distance,
)
from ..divisorial_core.vectors import _to_fraction
from .places import Place


class ToricCompactifiedDivisor:
    """a[0] + b[infinity] with rational coefficients and a + b >= 0."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a, b = _to_fraction(a), _to_fraction(b)
        if a + b < 0:
            raise ValueError("divisor degree a + b must be nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("ToricCompactifiedDivisor is immutable")

    @property
    def degree(self) -> Fraction:
        return self.a + self.b

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ToricCompactifiedDivisor)
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"ToricCompactifiedDivisor(a={self.a}, b={self.b})"


def canonical_fn(divisor: ToricCompactifiedDivisor) -> ConcaveFn:
    """The profile min(b*u, -a*u); a single line when the degree is zero."""
    if divisor.degree == 0:
        return ConcaveFn.affine(divisor.b)
    return ConcaveFn([0], [AffinePiece(divisor.b, 0), AffinePiece(-divisor.a, 0)])


def _has_divisor_slopes(psi: ConcaveFn, divisor: ToricCompactifiedDivisor) -> bool:
    """Asymptotic slopes b toward -infinity and -a toward +infinity, exactly."""
    return psi.slope_neg == divisor.b and psi.slope_pos == -divisor.a


def strongly_nef_local_check(
    psi: ConcaveFn, divisor: ToricCompactifiedDivisor
) -> Tuple[bool, bool]:
    """(has the divisor's asymptotic slopes, stays within bounded distance
    of the canonical profile)."""
    strongly_nef = _has_divisor_slopes(psi, divisor)
    non_singular = strongly_nef and sup_distance(psi, canonical_fn(divisor)) < math.inf
    return strongly_nef, non_singular


class AdelicFamily:
    """A divisor with finitely many non-canonical local profiles.

    With strict=True every exceptional profile must carry the divisor's
    asymptotic slopes (b toward -infinity, -a toward +infinity); pass
    strict=False to hold a slope-violating family, which downstream
    classification reports as not relatively nef.
    """

    def __init__(
        self,
        divisor: ToricCompactifiedDivisor,
        exceptions: Optional[Mapping[Place, ConcaveFn]] = None,
        strict: bool = True,
    ):
        self.divisor = divisor
        canonical = canonical_fn(divisor)
        table: Dict[Place, ConcaveFn] = {}
        for place, psi in (exceptions or {}).items():
            if not isinstance(place, Place):
                raise TypeError("exception keys must be places")
            if psi == canonical:
                continue
            table[place] = psi
        self.exceptions: Dict[Place, ConcaveFn] = dict(
            sorted(table.items(), key=lambda kv: kv[0].sort_key())
        )
        self._canonical = canonical
        self.strict = strict
        self.slope_valid = all(
            _has_divisor_slopes(psi, divisor) for psi in self.exceptions.values()
        )
        if strict and not self.slope_valid:
            raise ValueError(
                "exceptional profile has wrong asymptotic slopes for the divisor"
            )
        self.singular_places: Tuple[Place, ...] = tuple(
            place
            for place, psi in self.exceptions.items()
            if not self.slope_valid
            or sup_distance(psi, canonical) == math.inf
        )

    @property
    def canonical(self) -> ConcaveFn:
        return self._canonical

    def psi_at(self, place: Place) -> ConcaveFn:
        return self.exceptions.get(place, self._canonical)

    def places(self) -> List[Place]:
        """Exceptional places in canonical order."""
        return list(self.exceptions)

    def is_canonical(self) -> bool:
        return not self.exceptions

    def __repr__(self) -> str:
        return (
            f"AdelicFamily({self.divisor!r}, "
            f"exceptions={list(self.exceptions)!r})"
        )
