"""Roof functions, heights, energies, and nef classification.

Everything global here is a finite sum over places: the canonical profile
contributes zero to duals and energies, so only the exceptional table and
the support of the evaluation point ever enter a computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence, Tuple, Union

from ..convex_calculus.duality import DualFn, legendre_dual, sum_duals
from ..convex_calculus.energy import _require_comparable, local_energy
from ..divisorial_core.vectors import _to_fraction
from .family import AdelicFamily, ToricCompactifiedDivisor
from .places import LogLinear, Place, _valuation, log_abs, support

Real = Union[Fraction, float]

S_AMPLE = "S_ample"
S_NEF_ONLY = "S_nef_only"
RELATIVELY_NEF_ONLY = "relatively_nef_only"
NOT_RELATIVELY_NEF = "not_relatively_nef"


class RoofFunction:
    """Concave function on [-a, b]: the sum of the local dual profiles.

    It holds the dual at each place, the canonical one first and then the
    exceptional places in order. Endpoint values, minimum, integral and
    height are sums over places, O(N*k) for N places of k breakpoints,
    exact rationals wherever the dual data is affine with rational
    coefficients; endpoint singularities evaluate to -inf. The merged
    function, `dual`, is built on first use by one sorted sweep.
    """

    def __init__(self, duals: Sequence[DualFn], divisor: ToricCompactifiedDivisor):
        self.duals = tuple(duals)
        self.divisor = divisor

    @cached_property
    def dual(self) -> DualFn:
        return sum_duals(self.duals)

    @property
    def domain(self) -> Tuple[Real, Real]:
        return (self.duals[0].lo, self.duals[0].hi)

    def __call__(self, m) -> float:
        return self.dual(m)

    def value(self, m) -> Real:
        return sum((d.value(m) for d in self.duals), Fraction(0))

    def endpoints(self) -> Tuple[Real, Real]:
        lo, hi = self.domain
        return self.value(lo), self.value(hi)

    def minimum(self) -> Real:
        # concave on a closed interval, so the minimum sits at an endpoint
        return min(self.endpoints())

    def integral(self) -> Real:
        return sum((d.integral() for d in self.duals), Fraction(0))

    def height(self) -> Real:
        """Twice the integral: the global height of the family."""
        return 2 * self.integral()

    def nef_status(self) -> "NefStatus":
        """Classification by the sign of the minimum, decided exactly."""
        mu = self.minimum()
        if mu > 0:
            return NefStatus(S_AMPLE, mu)
        if mu == 0:
            return NefStatus(S_NEF_ONLY, mu)
        return NefStatus(RELATIVELY_NEF_ONLY, mu)

    def __repr__(self) -> str:
        lo, hi = self.domain
        return f"RoofFunction(on [{lo}, {hi}], divisor={self.divisor!r})"


def roof(family: AdelicFamily) -> RoofFunction:
    """Pointwise sum of the dual profiles over all places.

    Only exceptional places contribute: the canonical dual vanishes
    identically on the divisor interval."""
    if not family.slope_valid:
        raise ValueError(
            "profiles with wrong asymptotic slopes have mismatched dual "
            "domains; no roof"
        )
    duals = [legendre_dual(family.canonical)]
    duals += [legendre_dual(family.exceptions[place]) for place in family.places()]
    return RoofFunction(duals, family.divisor)


def global_height(family: AdelicFamily) -> Real:
    """Twice the integral of the roof; -inf when an endpoint singularity
    is non-integrable. Exact rational for piecewise-affine rational data."""
    return roof(family).height()


def point_height(family: AdelicFamily, t) -> float:
    """Height of a nonzero rational point: -sum over places of
    psi_v(-log|t|_v). Only exceptional places and the support of t
    contribute."""
    t = _to_fraction(t)
    if t == 0:
        raise ValueError("0 lies on the boundary; use boundary_height")
    places = set(family.places()) | set(support(t)) | {Place.infinity()}
    total = 0.0
    for place in sorted(places):
        psi = family.psi_at(place)
        if place.is_infinite:
            u = math.log(t.denominator) - math.log(abs(t.numerator))
        else:
            u = _valuation(t, place.p) * math.log(place.p)
        total -= psi(u)
    return total


def point_height_exact(family: AdelicFamily, t) -> LogLinear:
    """Height of a nonzero rational point as an exact combination of
    log-primes. Only defined when every place carries the canonical
    profile, whose values at the relevant arguments stay log-linear."""
    t = _to_fraction(t)
    if t == 0:
        raise ValueError("0 lies on the boundary; use boundary_height")
    if family.exceptions:
        raise ValueError("exact heights need the canonical profile everywhere")
    a, b = family.divisor.a, family.divisor.b
    total = LogLinear.zero()
    for place in support(t):
        v = _valuation(t, place.p)
        coeff = a * v if v >= 0 else -b * v
        total = total + LogLinear({place.p: coeff})
    # archimedean contribution: the sign of -log|t| is the sign of 1 - |t|
    log_t = log_abs(t, Place.infinity())
    if abs(t) <= 1:
        total = total + log_t.scale(-a)
    else:
        total = total + log_t.scale(b)
    return total


def boundary_height(family: AdelicFamily, point: str) -> Real:
    """Height of the boundary point 0 or infinity: the roof value at the
    matching endpoint of its domain."""
    theta = roof(family)
    left, right = theta.endpoints()
    if point == "zero":
        return left
    if point == "infinity":
        return right
    raise ValueError("boundary point must be 'zero' or 'infinity'")


def _unequal_places(ref: AdelicFamily, sing: AdelicFamily):
    if ref.divisor != sing.divisor:
        raise ValueError("families must share the divisor")
    for place in sorted(set(ref.places()) | set(sing.places())):
        psi, phi = ref.psi_at(place), sing.psi_at(place)
        if psi != phi:
            yield place, psi, phi


def _at_place(place: Place, fn, psi, phi):
    """fn(psi, phi), with the place named in any ValueError it raises."""
    try:
        return fn(psi, phi)
    except ValueError as exc:
        raise type(exc)(f"at {place}: {exc}") from exc


def place_energies(
    ref: AdelicFamily, sing: AdelicFamily
) -> Iterator[Tuple[Place, float]]:
    """(place, local energy) at each place where the two profiles differ,
    in canonical order; each energy is finite or -inf.

    The second family must be at most as singular as the first allows:
    at every place sup(psi_ref - psi_sing) must be finite."""
    for place, psi, phi in _unequal_places(ref, sing):
        yield place, _at_place(place, local_energy, psi, phi)


def global_energy(ref: AdelicFamily, sing: AdelicFamily) -> float:
    """Sum of the place energies, finite or -inf. Places after the first
    -inf only have the precondition checked, so place order is irrelevant."""
    total = 0.0
    for place, psi, phi in _unequal_places(ref, sing):
        if total == -math.inf:
            _at_place(place, _require_comparable, psi, phi)
        else:
            total += _at_place(place, local_energy, psi, phi)
    return total


def extended_height(ref: AdelicFamily, sing: AdelicFamily) -> Real:
    """Height of a possibly singular family through an energy-regularized
    reference: global_height(ref) + global_energy(ref, sing)."""
    theta = roof(ref) if ref.slope_valid else None
    if theta is None or theta.nef_status().status not in (S_AMPLE, S_NEF_ONLY):
        raise ValueError("reference family is not arithmetically nef")
    base = theta.height()
    energy = global_energy(ref, sing)
    if energy == 0:
        return base
    return float(base) + energy


@dataclass(frozen=True)
class NefStatus:
    """Classification by the sign of the roof minimum; mu_min_asy is that
    minimum, or None when broken slopes leave no roof to measure."""

    status: str
    mu_min_asy: Optional[Real]


def nef_status(family: AdelicFamily) -> NefStatus:
    if not family.slope_valid:
        return NefStatus(NOT_RELATIVELY_NEF, None)
    return roof(family).nef_status()


def twist(family: AdelicFamily, c: Mapping[Place, object]) -> AdelicFamily:
    """Lower the profile at each supported place by c(v).

    The roof gains +sum(c) pointwise, so the global height gains
    2 * degree * sum(c) and every point height gains +sum(c)."""
    table = dict(family.exceptions)
    for place, amount in c.items():
        if not isinstance(place, Place):
            raise TypeError("twist keys must be places")
        amount = _to_fraction(amount)
        if amount == 0:
            continue
        table[place] = family.psi_at(place).shift(-amount)
    return AdelicFamily(family.divisor, table, strict=family.strict)
