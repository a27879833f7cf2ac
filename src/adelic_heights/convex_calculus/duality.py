"""Concave Legendre transform: duals live on the compact slope interval.

The dual of a piecewise function in the catalog is piecewise again:
breakpoints of the original become affine dual pieces, affine pieces
collapse to points, and singular pieces produce power profiles
k*(center-m)**e. Dual functions add by one sorted sweep, integrate in
closed form (with endpoint divergences classified exactly), and can be
conjugated back.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from ..scalars import (
    Frozen,
    PositiveDivergenceError,
    Term,
    _above,
    _add_twice_integral,
    _affine_ratio,
    _float_of,
    _increasing,
    _negated,
    _num,
    _read,
    _to_fraction,
)
from .functions import _ONE, AffinePiece, AlphaPiece, ConcaveFn, Number, _bisect_root


class PowerTerm(Frozen):
    """coeff * (center - m) ** exponent, singular only as m -> center."""

    __slots__ = ("coeff", "exponent", "center")

    def __init__(self, coeff: float, exponent: float, center: Number):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "center", center)

    def value(self, m: float) -> float:
        base = float(self.center) - m
        if base == 0.0:
            if self.exponent > 0:
                return 0.0
            if self.exponent == 0:
                return self.coeff
            return -math.inf if self.coeff < 0 else math.inf
        return self.coeff * base ** self.exponent

    def derivative(self, m: float) -> float:
        """Infinite, with its sign, at the center and wherever it exceeds
        the float range."""
        base = float(self.center) - m
        k = -self.coeff * self.exponent
        try:
            return k * base ** (self.exponent - 1.0)
        except (ZeroDivisionError, OverflowError):
            return math.copysign(math.inf, k)


class DualPiece(Frozen):
    """slope*m + intercept plus the power terms."""

    __slots__ = ("slope", "intercept", "terms")

    def __init__(self, slope: Number, intercept: Number, terms: Sequence[PowerTerm] = ()):
        object.__setattr__(self, "slope", _num(slope))
        object.__setattr__(self, "intercept", _num(intercept))
        object.__setattr__(self, "terms", tuple(terms))

    def value(self, m) -> float:
        v = float(self.slope) * float(m) + float(self.intercept)
        for t in self.terms:
            tv = t.value(float(m))
            if math.isinf(tv):
                return tv
            v += tv
        return v

    def derivative(self, m) -> float:
        v = float(self.slope)
        for t in self.terms:
            v += t.derivative(float(m))
        return v

    def _value_term(self, m) -> Term:
        """The value at m as DualFn.value gives it: the float value of a
        piece with power terms, else the value at the exact m, a ratio
        when slope and intercept are rational."""
        if self.terms:
            return self.value(m)
        return _affine_ratio(self, _to_fraction(m))


class DualFn(Frozen):
    """Concave function on [lo, hi] (a slope interval), piecewise affine
    plus power profiles; values -inf are allowed at the endpoints.
    A read-only value, like the profiles it is the dual of."""

    __slots__ = ("lo", "hi", "breakpoints", "pieces")

    def __init__(
        self,
        lo: Number,
        hi: Number,
        breakpoints: Sequence[Number],
        pieces: Sequence[DualPiece],
    ):
        lo, hi, bps, pieces = _num(lo), _num(hi), tuple(map(_num, breakpoints)), tuple(pieces)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)
        # exact on Fractions and floats alike; a point domain is no fault
        if not _increasing((lo, *bps, hi)):
            if lo == hi:
                if len(pieces) != 1 or bps:
                    raise ValueError("a point domain carries a single piece")
                return
            if not _increasing((lo, hi)):
                raise ValueError("empty dual domain")
            if len(pieces) == len(bps) + 1:
                raise ValueError("dual breakpoints must increase inside the domain")
        if len(pieces) != len(bps) + 1:
            raise ValueError("need exactly one more piece than breakpoints")

    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def piece_at(self, m) -> DualPiece:
        # a float probe (a grid point) is checked in float precision, so
        # float(lo) and float(hi) stay inside even when they round outward
        lo, hi = self.lo, self.hi
        if isinstance(m, float):
            lo, hi = float(lo), float(hi)
        if not lo <= m <= hi:
            raise ValueError(f"{m} outside the dual domain")
        return self.pieces[bisect.bisect_left(self.breakpoints, m)]

    def __call__(self, m) -> float:
        return self.piece_at(m).value(m)

    def value(self, m) -> Fraction | float:
        """A piece with power terms evaluates in floats (-inf at a
        non-integrable endpoint); an affine piece evaluates at the exact m,
        so its value is one Fraction when its coefficients are rational."""
        return _read(self.piece_at(m)._value_term(m))

    def value_exact(self, m) -> Fraction:
        value = self.value(m)
        if not isinstance(value, Fraction):
            raise ValueError("exact evaluation needs a rational affine dual piece")
        return value

    def derivative(self, m) -> float:
        return self.piece_at(m).derivative(m)

    def is_affine_piecewise(self) -> bool:
        return all(not p.terms for p in self.pieces)

    def integral(self) -> Fraction | float:
        """Integral over the whole domain: a Fraction when every piece is
        affine with rational coefficients and every edge is rational, a
        float otherwise.

        Endpoint singularities with exponent > -1 converge; at -1 and
        below the integral is -inf (positive divergence cannot occur for
        a concave dual, and would raise PositiveDivergenceError)."""
        return _read(self._integral_term())

    def _integral_term(self) -> Term:
        """The integral as a ratio or a float.

        Twice the integral of each rational affine piece goes into one
        exact sum, halved at the end. A piece with power terms, a float
        edge or a float coefficient is integrated in floats throughout,
        and the exact sum is rounded once and added to those."""
        if self.is_degenerate():
            return 0, 1
        twice, inexact, exact = (0, 1), 0.0, True
        edges = (self.lo, *self.breakpoints, self.hi)
        for piece, a, b in zip(self.pieces, edges, edges[1:]):
            total = None if piece.terms else _add_twice_integral(twice, piece, a, b)
            if total is not None:
                twice = total
                continue
            exact = False
            a, b, s, c = map(_float_of, (a, b, piece.slope, piece.intercept))
            inexact += (b - a) * (s * (a + b) / 2 + c)
            inexact += sum(_integrate_power_term(t, a, b) for t in piece.terms)
        num, den = twice
        if not exact:
            # int / int rounds once, as float() of the reduced Fraction does
            return num / den / 2 + inexact
        return num, 2 * den


def _integrate_power_term(t: PowerTerm, a: float, b: float) -> float:
    """Integral of coeff*(center-m)**exponent over [a, b], center >= b."""
    c, e, ctr = t.coeff, t.exponent, _float_of(t.center)
    if c == 0.0:
        return 0.0
    da, db = ctr - a, ctr - b
    if db < 0:
        raise ValueError("power term singular inside the integration range")
    if db == 0.0 and e + 1.0 <= 0.0:
        if c < 0:
            return -math.inf
        raise PositiveDivergenceError("dual integral diverges to +infinity")
    if e == -1.0:
        return c * (math.log(da) - math.log(db))
    return c * (da ** (e + 1.0) - db ** (e + 1.0)) / (e + 1.0)


class _RunningSum:
    """A sum of Fractions and floats, kept exactly as a Fraction; it reads
    back as that Fraction, or as a float rounded once while any float
    summand is in it."""

    __slots__ = ("exact", "floats")

    def __init__(self, xs):
        self.exact, self.floats = Fraction(0), 0
        for x in xs:
            self.swap(0, x)

    def swap(self, old: Number, new: Number) -> None:
        self.floats += isinstance(new, float) - isinstance(old, float)
        self.exact += _to_fraction(new) - _to_fraction(old)

    def read(self) -> Number:
        return float(self.exact) if self.floats else self.exact


def sum_duals(duals: Sequence[DualFn]) -> DualFn:
    """Pointwise sum of duals on one slope interval, by one sorted sweep.

    Every breakpoint of every summand is an event that swaps that
    summand's piece for its next one. Sorted by (breakpoint, summand), the
    events build each merged piece from running sums of slope and
    intercept, so the cost is O(B log B) in the total breakpoint count B.
    The merged breakpoints are the exact union of the summands' (a value
    shared by several keeps the first summand's copy), and each piece
    carries the power terms of the summands' pieces in summand order."""
    lo, hi = duals[0].lo, duals[0].hi
    if any(d.lo != lo or d.hi != hi for d in duals):
        raise ValueError("dual functions live on different slope intervals")
    slope = _RunningSum(d.pieces[0].slope for d in duals)
    intercept = _RunningSum(d.pieces[0].intercept for d in duals)
    # the power terms of the current piece of each summand that has had any
    active = {i: d.pieces[0].terms for i, d in enumerate(duals) if d.pieces[0].terms}
    terms = tuple(t for k in sorted(active) for t in active[k])

    events = sorted(
        (b, i, j)
        for i, d in enumerate(duals)
        for j, b in enumerate(d.breakpoints, 1)
    )
    breakpoints: list[Number] = []
    pieces = [DualPiece(slope.read(), intercept.read(), terms)]
    for b, group in groupby(events, key=itemgetter(0)):
        for _, i, j in group:
            old, new = duals[i].pieces[j - 1], duals[i].pieces[j]
            slope.swap(old.slope, new.slope)
            intercept.swap(old.intercept, new.intercept)
            if old.terms or new.terms:
                active[i] = new.terms
                terms = tuple(t for k in sorted(active) for t in active[k])
        breakpoints.append(b)
        pieces.append(DualPiece(slope.read(), intercept.read(), terms))
    return DualFn(lo, hi, breakpoints, pieces)


# ---------------------------------------------------------------------------
# The transform itself.
# ---------------------------------------------------------------------------


def legendre_dual(f: ConcaveFn) -> DualFn:
    """Concave conjugate inf_u (m*u - f(u)) on [slope_pos, slope_neg].

    Affine pieces collapse to single slope values, breakpoints open up
    affine dual pieces (slope = breakpoint, intercept = -f there), and
    each singular piece contributes the profile
    (m - s) - c + (1 - 1/alpha)*(s - m)**(alpha/(alpha-1)), with 1 - alpha
    taken on the exact alpha (nonzero even where float(alpha) is 1.0).
    """
    lo, hi = f.slope_pos, f.slope_neg
    if lo == hi:
        return DualFn(lo, hi, [], [DualPiece(0, -f.pieces[0].intercept)])
    entries: list[tuple[Number, DualPiece]] = []  # (upper edge, piece)
    cur: Number = lo
    n = len(f.pieces)
    for i in range(n - 1, -1, -1):
        piece = f.pieces[i]
        # breakpoint to the right of this piece: dual piece across the slope gap
        if i < n - 1:
            t = f.breakpoints[i]
            d_hi = piece.derivative(t)
            if _above(d_hi, cur):
                # one Fraction when the piece is affine with rational coefficients
                entries.append((d_hi, DualPiece(t, _read(_negated(piece._value_term(t))))))
                cur = d_hi
        if isinstance(piece, AlphaPiece):
            left = f.breakpoints[i - 1] if i >= 1 else None
            s = piece.slope
            d_left: Number = s if left is None else piece.derivative(left)
            if _above(d_left, cur):
                alpha, _, _, _, b = piece._floats  # float(alpha), float(1 - alpha)
                term = PowerTerm(-b / alpha, -alpha / b, s)
                top = _read(_negated(_affine_ratio(piece, _ONE)))  # -(s + c), as a term
                entries.append((d_left, DualPiece(_ONE, top, (term,))))
                cur = d_left
        else:
            # derivative is constant here; realign exactly on the slope
            cur = piece.slope
    bps = [e for e, _ in entries[:-1]]
    pieces = [p for _, p in entries]
    return DualFn(lo, hi, bps, pieces)


def legendre_bidual(d: DualFn) -> ConcaveFn:
    """Conjugate back to a concave function on the line; exact, and only
    defined for piecewise-affine duals (finite endpoint values)."""
    if not d.is_affine_piecewise():
        raise ValueError("exact biconjugation needs a piecewise-affine dual")
    if d.is_degenerate():
        m = _to_fraction(d.lo)
        return ConcaveFn([], [AffinePiece(m, -d.value_exact(m))])
    ms = [d.lo] + list(d.breakpoints) + [d.hi]
    vertices = []
    for m in ms:
        mf = _to_fraction(m)
        vertices.append((mf, d.value_exact(mf)))
    vertices.sort(key=lambda t: t[0], reverse=True)  # slopes decrease rightward
    pieces = [AffinePiece(m, -v) for m, v in vertices]
    bps: list[Fraction] = []
    for (m1, v1), (m2, v2) in zip(vertices, vertices[1:]):
        bps.append((v1 - v2) / (m1 - m2))
    return ConcaveFn(bps, pieces)


def conjugate_eval(d: DualFn, u: float) -> float:
    """Value at u of the conjugate of a dual function (numeric).

    Minimises m*u - d(m) over the domain; the objective is convex, so a
    sign bisection on its slope u - d'(m), to float resolution, suffices.
    An endpoint decides it wherever that slope keeps one sign, so on a
    point domain as well.
    """
    lo, hi = float(d.lo), float(d.hi)

    def g(m: float) -> float:
        return u - d.derivative(m)

    if g(lo) >= 0:
        va = d(d.lo)
        return u * lo - va if not math.isinf(va) else math.inf
    if g(hi) <= 0:
        vb = d(d.hi)
        return u * hi - vb if not math.isinf(vb) else math.inf
    m_star = _bisect_root(g, lo, hi)
    return u * m_star - d(m_star)


def dual_sup_distance(d1: DualFn, d2: DualFn) -> float:
    """Sup of |d1 - d2| over the common domain, for piecewise-affine duals."""
    if not (d1.is_affine_piecewise() and d2.is_affine_piecewise()):
        raise ValueError("sup distance implemented for piecewise-affine duals")
    if d1.lo != d2.lo or d1.hi != d2.hi:
        raise ValueError("dual functions live on different slope intervals")
    ms = {d1.lo, d1.hi, *d1.breakpoints, *d2.breakpoints}
    return max(abs(d1(m) - d2(m)) for m in ms)
