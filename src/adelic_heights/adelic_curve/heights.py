"""Heights, energies, and nef classification.

Everything global here is a finite sum over places: the canonical profile
contributes zero to duals and energies, so only the exceptional table and
the support of the evaluation point ever enter a computation. The roof
route reads the one `RoofFunction` each family builds (family.py); the
energy route imports the energy pairing inside its two functions, so the
roof route loads no curvature measures.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from fractions import Fraction

from ..scalars import _scaled, _to_fraction
from .family import (
    NOT_RELATIVELY_NEF,
    S_AMPLE,
    S_NEF_ONLY,
    AdelicFamily,
    NefStatus,
    Real,
    RoofFunction,
)
from .places import LogLinear, Place, _valuations


def roof(family: AdelicFamily) -> RoofFunction:
    """Pointwise sum of the dual profiles over all places: the family's one
    roof, built on first use and read by every height and the nef verdict,
    so roof(family) is roof(family).

    Only exceptional places contribute: the canonical dual vanishes
    identically on the divisor interval."""
    if not family.slope_valid:
        raise ValueError(
            "profiles with wrong asymptotic slopes have mismatched dual "
            "domains; no roof"
        )
    return family._roof


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
    vals = _valuations(t)
    places = {*family.exceptions, *map(Place._proven, vals), Place.infinity()}
    total = 0.0
    for place in sorted(places):
        psi = family.psi_at(place)
        if place.is_infinite:
            u = math.log(t.denominator) - math.log(abs(t.numerator))
        else:
            u = vals.get(place.p, 0) * math.log(place.p)
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
    # archimedean contribution: the sign of -log|t| is the sign of 1 - |t|
    s = -a if abs(t.numerator) <= t.denominator else b
    # a prime with v = v_p(t) adds v*a (v > 0) or -v*b (v < 0) at its own
    # place, and v*s as its share of log|t| at infinity
    up, down = a + s, s - b
    coeffs = {}
    for p, v in sorted(_valuations(t).items()):
        w = up if v > 0 else down
        if w:
            coeffs[p] = _scaled(w, v)
    return LogLinear._of(coeffs)


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
    # both tables are in canonical order, so the sort merges two runs
    for place in sorted(dict.fromkeys([*ref.exceptions, *sing.exceptions])):
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
) -> Iterator[tuple[Place, Real]]:
    """(place, local energy) at each place where the two profiles differ,
    in canonical order; each energy is finite or -inf.

    The second family must be at most as singular as the first allows:
    at every place sup(psi_ref - psi_sing) must be finite."""
    from ..convex_calculus.energy import local_energy

    for place, psi, phi in _unequal_places(ref, sing):
        yield place, _at_place(place, local_energy, psi, phi)


def global_energy(ref: AdelicFamily, sing: AdelicFamily) -> Real:
    """Sum of the place energies, finite or -inf, and exact on
    piecewise-affine rational data. Places after the first -inf only have
    the precondition checked, so place order is irrelevant."""
    from ..convex_calculus.energy import _require_comparable, local_energy

    total = Fraction(0)
    for place, psi, phi in _unequal_places(ref, sing):
        if total == -math.inf:
            _at_place(place, _require_comparable, psi, phi)
        else:
            total += _at_place(place, local_energy, psi, phi)
    return total


def extended_height(ref: AdelicFamily, sing: AdelicFamily) -> Real:
    """Height of a possibly singular family through an energy-regularized
    reference: global_height(ref) + global_energy(ref, sing), exact on
    piecewise-affine rational data."""
    if nef_status(ref).status not in (S_AMPLE, S_NEF_ONLY):
        raise ValueError("reference family is not arithmetically nef")
    return global_height(ref) + global_energy(ref, sing)


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
