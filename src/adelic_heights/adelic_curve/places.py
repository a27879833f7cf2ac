"""Places of the rationals and exact logarithmic absolute values.

Logarithms of rational numbers are kept symbolic as integer-coefficient
combinations of log p over primes, so identities like the product formula
certify exactly instead of within floating-point error.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import lru_cache

from ..scalars import Frozen, _keyed_sum, _to_fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (psi_k, k): psi_k is the least strong pseudoprime to all of the first k
# prime bases (Jaeschke, Math. Comp. 61, 1993; Sorenson & Webster, Math.
# Comp. 86, 2017), so Miller-Rabin to those k bases decides every n < psi_k.
# psi_7 = psi_8 and psi_9 = psi_10 = psi_11, hence the skipped counts.
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


def _miller_rabin(n: int, bases) -> bool:
    """Whether n, odd and above every base, is a strong probable prime to
    each base."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (P = 1, first D in
    5, -7, 9, -11, ... with Jacobi symbol -1); n odd, not a square, > 41."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    U, V, Qk = 1, 1, Q  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V  # 2 U_{k+1}, 2 V_{k+1}
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """Primality, proven below psi_13 ~ 3.3e24 and by Baillie-PSW above
    (no BPSW pseudoprime is known)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1681:  # 41**2: trial division has decided
        return True
    for bound, k in _MR_BOUNDS:
        if n < bound:
            return _miller_rabin(n, _SMALL_PRIMES[:k])
    r = math.isqrt(n)
    return (
        r * r != n
        and _miller_rabin(n, (2,))
        and _strong_lucas_probable_prime(n)
    )


# Pollard-Brent squarings one _factor call may spend. Some sqrt(p) of them
# split off a prime factor p: (10**12 + 39) * (3 * 10**12 + 13) is charged
# 2.1e6 (rounds up to r = 2**19), two 21-digit factors would need some 1e10.
_FACTOR_STEPS = 1 << 22


def _rho_brent(n: int, budget: int) -> tuple[int, int]:
    """A proper divisor of n, odd, composite and not a square, by Pollard
    rho on x -> x**2 + c with Brent's cycle finding and gcds batched over
    128 steps (Brent, BIT 20, 1980). Deterministic: c runs 1, 2, ...

    Returns the divisor and what is left of budget, the squarings it may
    take; each doubling round is charged in full before it runs, and the
    divisor is 0 once a round would overrun."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                return 0, 0
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget
    return 0, 0


# each memo entry holds about 440 B, so 1024 of them stay under 0.5 MB
@lru_cache(maxsize=1024)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of the integer n >= 1 as sorted (p, e) pairs.

    Raises ArithmeticError when the cofactors left after trial division
    need more than _FACTOR_STEPS Pollard-Brent squarings to split."""
    out: dict[int, int] = {}
    rest = n
    for p in _SMALL_PRIMES:
        while rest % p == 0:
            rest //= p
            out[p] = out.get(p, 0) + 1
    stack = [rest] if rest > 1 else []
    budget = _FACTOR_STEPS
    while stack:
        m = stack.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = math.isqrt(m)
        if d * d != m:
            d, budget = _rho_brent(m, budget)
            if not d:
                raise ArithmeticError(
                    f"cannot factor {n} within {_FACTOR_STEPS} Pollard-Brent steps"
                )
        stack += [d, m // d]
    return tuple(sorted(out.items()))


class Place(Frozen):
    """A prime p, or None for the archimedean place."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or not isprime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    @classmethod
    def _proven(cls, p: int) -> "Place":
        """The place of a prime that _factor has already proven."""
        place = object.__new__(cls)
        object.__setattr__(place, "p", p)
        return place

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


class LogLinear(Frozen):
    """Exact element of the module spanned by {log p : p prime}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        for p, c in (coeffs or {}).items():
            c = _to_fraction(c)
            if c != 0:
                clean[int(p)] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _of(cls, coeffs: dict[int, Fraction]) -> "LogLinear":
        """The combination with these coefficients: int keys and nonzero
        Fraction values, taken as they are."""
        x = object.__new__(cls)
        object.__setattr__(x, "coeffs", coeffs)
        return x

    @staticmethod
    def sum(terms: Iterable["LogLinear"]) -> "LogLinear":
        """The sum of the terms: each coefficient summed as an integer ratio
        and made one Fraction. A coefficient that cancels leaves at once,
        so the order of the coefficients (and of the float sum in
        __float__) is that of adding term by term."""
        return LogLinear._of(
            _keyed_sum(item for term in terms for item in term.coeffs.items())
        )

    def __add__(self, other: "LogLinear") -> "LogLinear":
        return LogLinear.sum((self, other))

    def __sub__(self, other: "LogLinear") -> "LogLinear":
        return self + (-other)

    def __neg__(self) -> "LogLinear":
        return LogLinear._of({p: -c for p, c in self.coeffs.items()})

    def scale(self, s) -> "LogLinear":
        s = _to_fraction(s)
        if not s:
            return LogLinear.zero()
        return LogLinear._of({p: s * c for p, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __hash__(self):
        # the field is a dict, so hash its items in a fixed order
        return hash(tuple(sorted(self.coeffs.items())))

    def __float__(self) -> float:
        return sum((float(c) * math.log(p) for p, c in self.coeffs.items()), 0.0)

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


def _valuations(q: Fraction) -> dict[int, int]:
    """{p: v_p(q)} for nonzero q: numerator primes first, then denominator primes."""
    if q == 0:
        raise ValueError("zero has no finite support")
    vals = dict(_factor(abs(q.numerator)))
    for p, e in _factor(q.denominator):
        vals[p] = -e
    return vals


def support(q) -> list[Place]:
    """Finite places where q has a zero or pole, in increasing order."""
    return [Place._proven(p) for p in sorted(_valuations(_to_fraction(q)))]


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
        return LogLinear._of({p: Fraction(v) for p, v in _valuations(q).items()})
    v = _valuation(q, place.p)
    return LogLinear._of({place.p: Fraction(-v)} if v else {})


def _local_terms(q) -> Iterator[tuple[int | None, Iterable[tuple[int, int]]]]:
    """(p, log|q|_p) at each prime p of the support, in increasing order,
    then (None, log|q| at infinity): every nonzero contribution, each as
    (prime, integer coefficient of its log) items."""
    vals = _valuations(_to_fraction(q))
    for p in sorted(vals):
        yield p, ((p, -vals[p]),)
    yield None, vals.items()


def log_abs_by_place(q) -> Iterator[tuple[Place, LogLinear]]:
    """(place, log|q| there) at each finite place of the support, in
    increasing order, then at infinity: every nonzero contribution."""
    for p, items in _local_terms(q):
        place = Place.infinity() if p is None else Place._proven(p)
        yield place, LogLinear._of({k: Fraction(v) for k, v in items})


def product_formula_check(q) -> LogLinear:
    """Sum of log|q| over all places with nonzero contribution.

    Returns the exact symbolic total; it is the zero combination for every
    nonzero rational. The integer coefficients are summed as they are, so
    a Fraction is built only for a coefficient that survives."""
    return LogLinear._of(
        _keyed_sum(item for _, items in _local_terms(q) for item in items)
    )
