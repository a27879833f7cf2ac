"""Adelic families of concave profiles on the projective line.

A compactified divisor a[0] + b[infinity] on P^1 fixes a canonical concave
profile min(b*u, -a*u). A family assigns one profile per place; all but
finitely many places use the canonical one, so the family is described by
the divisor plus a finite table of exceptions. A family is read-only, so
it builds its local data once: the roof, the sum of the per-place Legendre
duals that every height and the nef verdict read, on first use.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from ..convex_calculus.duality import DualFn, legendre_dual, sum_duals
from ..convex_calculus.functions import AffinePiece, ConcaveFn, bounded_above
from ..scalars import Frozen, _float_of, _ratio_sum, _read, _to_fraction
from .places import Place

Real = Fraction | float

S_AMPLE = "S_ample"
S_NEF_ONLY = "S_nef_only"
RELATIVELY_NEF_ONLY = "relatively_nef_only"
NOT_RELATIVELY_NEF = "not_relatively_nef"


class ToricCompactifiedDivisor(Frozen):
    """a[0] + b[infinity] with rational coefficients and a + b >= 0."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a, b = _to_fraction(a), _to_fraction(b)
        if a + b < 0:
            raise ValueError("divisor degree a + b must be nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def degree(self) -> Fraction:
        return self.a + self.b


def canonical_fn(divisor: ToricCompactifiedDivisor) -> ConcaveFn:
    """The profile min(b*u, -a*u): one line when the degree is zero, as
    ConcaveFn merges equal pieces."""
    return ConcaveFn([0], [AffinePiece(divisor.b, 0), AffinePiece(-divisor.a, 0)])


def _has_divisor_slopes(psi: ConcaveFn, can: ConcaveFn) -> bool:
    """The asymptotic slopes of the divisor's canonical profile can, b
    toward -infinity and -a toward +infinity, compared exactly."""
    return psi.slope_neg == can.slope_neg and psi.slope_pos == can.slope_pos


def _local_check(psi: ConcaveFn, can: ConcaveFn) -> tuple[bool, bool]:
    """The one local nef rule, exact: (psi has the asymptotic slopes of the
    canonical profile can, psi - can is bounded above both ways)."""
    strongly_nef = _has_divisor_slopes(psi, can)
    return strongly_nef, strongly_nef and bounded_above(psi, can) and bounded_above(can, psi)


def strongly_nef_local_check(
    psi: ConcaveFn, divisor: ToricCompactifiedDivisor
) -> tuple[bool, bool]:
    """(has the divisor's asymptotic slopes, stays within bounded distance
    of the canonical profile)."""
    return _local_check(psi, canonical_fn(divisor))


class NefStatus(Frozen):
    """Classification by the sign of the roof minimum; mu_min_asy is that
    minimum, or None when broken slopes leave no roof to measure."""

    __slots__ = ("status", "mu_min_asy")

    def __init__(self, status: str, mu_min_asy: Real | None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "mu_min_asy", mu_min_asy)


class RoofFunction:
    """Concave function on [-a, b]: the sum of the local dual profiles.

    It holds the dual at each place, the canonical one first and then the
    exceptional places in order. Endpoint values, minimum, integral and
    height are sums over places, O(N*k) for N places of k breakpoints,
    exact rationals wherever the dual data is affine with rational
    coefficients; endpoint singularities evaluate to -inf. Each sum runs
    on integer ratios and is made one Fraction; once a float enters, it
    adds the places in order, as a Fraction sum would. The endpoint
    values are summed once, and the merged function, `dual`, is built on
    first use by one sorted sweep.
    """

    def __init__(self, duals: Sequence[DualFn], divisor: ToricCompactifiedDivisor):
        self.duals = tuple(duals)
        self.divisor = divisor

    @cached_property
    def dual(self) -> DualFn:
        return sum_duals(self.duals)

    @property
    def domain(self) -> tuple[Real, Real]:
        return (self.duals[0].lo, self.duals[0].hi)

    def __call__(self, m) -> float:
        return self.dual(m)

    def value(self, m) -> Real:
        return _read(_ratio_sum(d.piece_at(m)._value_term(m) for d in self.duals))

    @cached_property
    def _endpoints(self) -> tuple[Real, Real]:
        # every dual lives on the roof's domain, so its first piece holds
        # at lo and its last at hi
        lo, hi = self.domain
        return (
            _read(_ratio_sum(d.pieces[0]._value_term(lo) for d in self.duals)),
            _read(_ratio_sum(d.pieces[-1]._value_term(hi) for d in self.duals)),
        )

    def endpoints(self) -> tuple[Real, Real]:
        return self._endpoints

    def minimum(self) -> Real:
        # concave on a closed interval, so the minimum sits at an endpoint
        return min(self.endpoints())

    def integral(self) -> Real:
        return _read(_ratio_sum(d._integral_term() for d in self.duals))

    def height(self) -> Real:
        """Twice the integral: the global height of the family."""
        return 2 * self.integral()

    def nef_status(self) -> NefStatus:
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


class FloatRangeError(ValueError, OverflowError):
    """Exact profile data that no float can hold. The singular catalog and
    the distance checks work in floats, so such a family is refused when
    it is built; as an OverflowError it is an arithmetic limit, not
    malformed input."""


def _require_float_range(place: Place, psi: ConcaveFn) -> None:
    try:
        for x in psi.breakpoints:
            _float_of(x)
        for piece in psi.pieces:
            if isinstance(piece, AffinePiece):  # an alpha piece took its floats when built
                _float_of(piece.slope)
                _float_of(piece.intercept)
    except OverflowError as exc:
        raise FloatRangeError(
            f"at {place}: exact profile data beyond float range"
        ) from exc


class AdelicFamily:
    """A divisor with finitely many non-canonical local profiles.

    With strict=True every exceptional profile must carry the divisor's
    asymptotic slopes (b toward -infinity, -a toward +infinity); pass
    strict=False to hold a slope-violating family, which downstream
    classification reports as not relatively nef. Every breakpoint, slope
    and intercept of an exceptional profile must lie within float range
    (FloatRangeError otherwise).

    A family is read-only: `exceptions` is a read-only mapping and no
    attribute can be set. So its roof and `singular_places` are computed
    once, on first use.
    """

    def __init__(
        self,
        divisor: ToricCompactifiedDivisor,
        exceptions: Mapping[Place, ConcaveFn] | None = None,
        strict: bool = True,
    ):
        canonical = canonical_fn(divisor)
        table: dict[Place, ConcaveFn] = {}
        for place, psi in (exceptions or {}).items():
            if not isinstance(place, Place):
                raise TypeError("exception keys must be places")
            if not isinstance(psi, ConcaveFn):
                raise TypeError("exception values must be concave profiles")
            if psi == canonical:
                continue
            _require_float_range(place, psi)
            table[place] = psi
        slope_valid = all(_has_divisor_slopes(psi, canonical) for psi in table.values())
        if strict and not slope_valid:
            raise ValueError(
                "exceptional profile has wrong asymptotic slopes for the divisor"
            )
        self.__dict__.update(
            divisor=divisor,
            canonical=canonical,
            exceptions=MappingProxyType(
                dict(sorted(table.items(), key=lambda kv: kv[0].sort_key()))
            ),
            strict=strict,
            slope_valid=slope_valid,
        )

    # a family compares by identity and caches in its __dict__, so it is
    # not a Frozen value; it only shares the refusal to change
    __setattr__ = Frozen.__setattr__
    __delattr__ = Frozen.__delattr__

    @cached_property
    def singular_places(self) -> tuple[Place, ...]:
        """Exceptional places whose profile has the wrong asymptotic slopes
        or lies at unbounded distance from the canonical one, each decided
        by _local_check on that place's profile against the family's one
        canonical profile."""
        return tuple(
            place
            for place, psi in self.exceptions.items()
            if not _local_check(psi, self.canonical)[1]
        )

    @cached_property
    def _roof(self) -> RoofFunction:
        # heights.roof is the entry point: it checks the slopes first
        duals = [legendre_dual(psi) for psi in (self.canonical, *self.exceptions.values())]
        return RoofFunction(duals, self.divisor)

    def psi_at(self, place: Place) -> ConcaveFn:
        return self.exceptions.get(place, self.canonical)

    def is_canonical(self) -> bool:
        return not self.exceptions

    def __repr__(self) -> str:
        return (
            f"AdelicFamily({self.divisor!r}, "
            f"exceptions={list(self.exceptions)!r})"
        )
