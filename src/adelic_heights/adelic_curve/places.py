"""Places of the rationals and exact logarithmic absolute values.

Logarithms of rational numbers are kept symbolic as integer-coefficient
combinations of log p over primes, so identities like the product formula
certify exactly instead of within floating-point error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from sympy import factorint, isprime

from ..divisorial_core.vectors import _to_fraction


@lru_cache(maxsize=65536)
def _factor(n: int) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted(factorint(n).items()))


@dataclass(frozen=True, order=False)
class Place:
    """A prime p, or None for the archimedean place."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or not isprime(self.p):
                raise ValueError(f"{self.p} is not prime")

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    @staticmethod
    def infinity() -> "Place":
        return Place(None)

    @staticmethod
    def prime(p: int) -> "Place":
        return Place(p)

    def sort_key(self):
        return (1, 0) if self.p is None else (0, self.p)

    def __lt__(self, other: "Place") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return "Place(inf)" if self.p is None else f"Place({self.p})"


class LogLinear:
    """Exact element of the module spanned by {log p : p prime}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[int, Fraction]] = None):
        clean: Dict[int, Fraction] = {}
        for p, c in (coeffs or {}).items():
            c = _to_fraction(c)
            if c != 0:
                clean[int(p)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LogLinear is immutable")

    def __add__(self, other: "LogLinear") -> "LogLinear":
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + c
        return LogLinear(out)

    def __sub__(self, other: "LogLinear") -> "LogLinear":
        return self + (-other)

    def __neg__(self) -> "LogLinear":
        return LogLinear({p: -c for p, c in self.coeffs.items()})

    def scale(self, s) -> "LogLinear":
        s = _to_fraction(s)
        return LogLinear({p: s * c for p, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, LogLinear) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __float__(self) -> float:
        return sum(float(c) * math.log(p) for p, c in self.coeffs.items())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LogLinear(0)"
        parts = [f"{c}*log({p})" for p, c in sorted(self.coeffs.items())]
        return "LogLinear(" + " + ".join(parts) + ")"

    @staticmethod
    def zero() -> "LogLinear":
        return LogLinear()


def _valuation(q: Fraction, p: int) -> int:
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def support(q) -> List[Place]:
    """Finite places where q has a zero or pole, in increasing order."""
    q = _to_fraction(q)
    if q == 0:
        raise ValueError("zero has no finite support")
    primes = {p for p, _ in _factor(abs(q.numerator))}
    primes |= {p for p, _ in _factor(q.denominator)}
    return [Place.prime(p) for p in sorted(primes)]


def abs_value(q, place: Place) -> Fraction:
    """|q| at the place, exactly (p-adic: p**(-v_p(q)))."""
    q = _to_fraction(q)
    if q == 0:
        return Fraction(0)
    if place.is_infinite:
        return abs(q)
    v = _valuation(q, place.p)
    return Fraction(place.p) ** (-v)


def log_abs(q, place: Place) -> LogLinear:
    """log|q| at the place as an exact combination of log-primes."""
    q = _to_fraction(q)
    if q == 0:
        raise ValueError("log|0| is undefined")
    if place.is_infinite:
        coeffs: Dict[int, Fraction] = {}
        for p, e in _factor(abs(q.numerator)):
            coeffs[p] = coeffs.get(p, Fraction(0)) + e
        for p, e in _factor(q.denominator):
            coeffs[p] = coeffs.get(p, Fraction(0)) - e
        return LogLinear(coeffs)
    return LogLinear({place.p: -_valuation(q, place.p)})


def log_abs_by_place(q) -> Iterator[Tuple[Place, LogLinear]]:
    """(place, log|q| there) at each finite place of the support, in
    increasing order, then at infinity: every nonzero contribution."""
    q = _to_fraction(q)
    for place in support(q) + [Place.infinity()]:
        yield place, log_abs(q, place)


def product_formula_check(q) -> LogLinear:
    """Sum of log|q| over all places with nonzero contribution.

    Returns the exact symbolic total; it is the zero combination for every
    nonzero rational."""
    return sum((term for _, term in log_abs_by_place(q)), LogLinear.zero())
