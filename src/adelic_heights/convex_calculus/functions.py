"""Concave functions on the line, piecewise over a rational partition.

Two piece kinds are supported: affine pieces, and "alpha" pieces which add
the singular profile (1/alpha)*(1-u)**alpha (0 < alpha < 1) to an affine
part. Alpha pieces are restricted to intervals with right endpoint <= 0,
so 1-u >= 1 on their domain and every power expression stays smooth.

Arithmetic and every decision are exact (Fractions) wherever only affine
data is involved; crossings against alpha pieces are bracketed by exact
sign analysis and then bisected to float resolution, each decision taken
on the sign of the difference of the two pieces.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction

from ..scalars import (
    Frozen,
    _above,
    _affine_ratio,
    _difference,
    _float_of,
    _in_unit_interval,
    _increasing,
    _num,
    _read,
    _to_fraction,
)

Number = int | Fraction | float
_ZERO, _ONE = Fraction(0), Fraction(1)

class AffinePiece(Frozen):
    """slope*u + intercept."""

    __slots__ = ("slope", "intercept")

    def __init__(self, slope: Number, intercept: Number):
        object.__setattr__(self, "slope", _num(slope))
        object.__setattr__(self, "intercept", _num(intercept))

    def value(self, u):
        """A Fraction at a rational u when slope and intercept are
        rational, built once from integer cross-products; a float once
        any of the three is a float."""
        return _read(_affine_ratio(self, u))

    _value_term = _affine_ratio

    def derivative(self, u):
        return self.slope

    def shifted(self, c) -> "AffinePiece":
        return AffinePiece(self.slope, self.intercept + _num(c))

    @property
    def alpha_term(self):
        return None


class AlphaPiece(Frozen):
    """slope*u + intercept + (1/alpha)*(1-u)**alpha, on intervals with u <= 0.

    The floats of alpha, slope, intercept, the power term (1/alpha, alpha)
    and 1 - alpha (on the exact alpha: nonzero where float(alpha) is 1.0)
    are taken once, when the piece is built, or OverflowError when one is
    no float; the piece, its curvature measure and its dual read them."""

    __slots__ = ("alpha", "slope", "intercept", "_floats")

    def __init__(self, alpha: Number, slope: Number, intercept: Number):
        alpha, slope, intercept = _num(alpha), _num(slope), _num(intercept)
        if not _in_unit_interval(alpha):
            raise ValueError("alpha must lie strictly between 0 and 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)
        a, b = _float_of(alpha), _float_of(_difference(_ONE, alpha))
        if not a or 1.0 / a == math.inf:
            raise OverflowError("alpha below float range: 1/alpha exceeds the largest float")
        s, c = _float_of(slope), _float_of(intercept)
        object.__setattr__(self, "_floats", (a, s, c, (1.0 / a, a), b))

    def value(self, u) -> float:
        a, s, c, _, _ = self._floats
        u = _float_of(u)
        return s * u + c + (1.0 - u) ** a / a

    _value_term = value  # a float is its own term

    def derivative(self, u) -> float:
        a, s, _, _, _ = self._floats
        return s - (1.0 - _float_of(u)) ** (a - 1.0)

    def shifted(self, c) -> "AlphaPiece":
        return AlphaPiece(self.alpha, self.slope, self.intercept + _num(c))

    @property
    def alpha_term(self):
        # coefficient of (1-u)**alpha is pinned to 1/alpha in this catalog
        return self._floats[3]


Piece = AffinePiece | AlphaPiece


# ---------------------------------------------------------------------------
# Difference expressions slope*u + intercept + sum of c*(1-u)**a, with the
# root finding used for crossings and extrema: every decision is the sign
# of the expression itself, taken at face value.
# ---------------------------------------------------------------------------


class _Expr:
    """Power terms have nonzero coefficients and distinct exponents."""

    __slots__ = ("slope", "intercept", "terms")

    def __init__(self, slope: Number, intercept: Number, terms: tuple[tuple[float, float], ...]):
        self.slope, self.intercept = slope, intercept
        self.terms = terms  # (coeff, exponent) of (1-u)**e

    @staticmethod
    def difference(p: Piece, q: Piece) -> "_Expr":
        tp, tq = p.alpha_term, q.alpha_term
        terms: tuple[tuple[float, float], ...] = ()
        # the coefficient is pinned to 1/alpha, so the same alpha on both
        # sides cancels exactly
        if tp != tq:
            terms = ((tp,) if tp else ()) + (((-tq[0], tq[1]),) if tq else ())
        slope, intercept = _difference(p.slope, q.slope), _difference(p.intercept, q.intercept)
        return _Expr(_read(slope), _read(intercept), terms)

    def value(self, u):
        """Exact at a rational u when there are no power terms; float otherwise."""
        if not self.terms:
            return self.slope * u + self.intercept
        v = _float_of(self.slope) * _float_of(u) + _float_of(self.intercept)
        for c, e in self.terms:
            v += c * (1.0 - _float_of(u)) ** e
        return v

    def derivative_expr(self) -> "_Expr":
        # d/du of c*(1-u)**e is c*e*(1-u)**(e-1) * (-1)
        return _Expr(
            Fraction(0),
            self.slope,
            tuple((-c * e, e - 1.0) for c, e in self.terms),
        )

    def tail(self) -> Number:
        """What the expression does toward -infinity: +inf or -inf when it
        diverges, else its finite limit (exact when that is rational). The
        linear term decides first, then the power term with the largest
        positive exponent; negative exponents vanish."""
        if self.slope != 0:
            return -math.inf if self.slope > 0 else math.inf
        e_lead, c_lead = max(((e, c) for c, e in self.terms), default=(0.0, 0.0))
        if e_lead > 0:
            return math.copysign(math.inf, c_lead)
        return self.intercept + sum(c for c, e in self.terms if e == 0.0)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _bisect_root(fn: Callable[[float], float], a: float, b: float) -> float:
    """Sign change of fn on [a, b], where fn(a) and fn(b) are nonzero with
    opposite signs, to float resolution: halves until the midpoint is an
    end. 2100 halvings shrink any finite bracket to adjacent floats."""
    a_neg = fn(a) < 0
    m = a
    for _ in range(2100):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = fn(m)
        if fm == 0.0:
            break
        if (fm < 0) == a_neg:
            a = m
        else:
            b = m
    return m


def _extend_left(expr: _Expr, right: float, target_sign: int) -> float | None:
    """Finite point left of `right` where expr has the asymptotic sign.

    Valid on intervals where expr is monotone; doubles the step outward.
    """
    step = 1.0
    for _ in range(200):
        a = min(right, 0.0) - step
        if _sign(expr.value(a)) == target_sign:
            return a
        step *= 2.0
    return None


def _monotone_roots(expr: _Expr, seg_lo: float | None, seg_hi: float) -> list[float]:
    """Roots on a segment where expr is monotone. seg_lo None means -inf."""
    s_hi = _sign(expr.value(seg_hi))
    if s_hi == 0:
        return [seg_hi]
    if seg_lo is None:
        s_lo = _sign(expr.tail())
        seg_lo = _extend_left(expr, seg_hi, s_lo) if s_lo == -s_hi else None
        if seg_lo is None:
            return []
    else:
        s_lo = _sign(expr.value(seg_lo))
        if s_lo == 0:
            return [seg_lo]
        if s_lo == s_hi:
            return []
    return [_bisect_root(expr.value, seg_lo, seg_hi)]


def _critical_points(expr: _Expr, lo: float | None, hi: float) -> list[float]:
    """Zeros of the derivative of expr on (lo, hi), hi finite, for an expr
    with one or two power terms.

    With one term the derivative is monotone; with two, it is monotone on
    each side of the point where the derivatives of its terms balance.
    """
    d = expr.derivative_expr()
    if len(d.terms) > 2:
        raise NotImplementedError("more than two singular terms in one difference")
    segs: list[tuple[float | None, float]] = [(lo, hi)]
    if len(d.terms) == 2:
        (c1, e1), (c2, e2) = d.terms
        # the second derivative vanishes where (1-u)**(e1-e2) = -k2/k1
        k1, k2 = c1 * e1, c2 * e2
        if k1 != 0 and k2 != 0 and e1 != e2 and -k2 / k1 > 0:
            try:
                t = (-k2 / k1) ** (1.0 / (e1 - e2))
            except OverflowError:
                t = 0.0  # the balance point lies beyond float range: no split
            split = 1.0 - t
            if t >= 1.0 and (lo is None or split > lo) and split < hi:
                segs = [(lo, split), (split, hi)]
    return sorted({r for a, b in segs for r in _monotone_roots(d, a, b)})


def _expr_roots(expr: _Expr, lo: Fraction | None, hi: Fraction | None) -> list[Fraction]:
    """All roots of expr strictly inside (lo, hi), as exact Fractions.

    Float roots are converted exactly; affine-only expressions solve
    exactly in rational arithmetic.
    """
    if not expr.terms:
        if expr.slope == 0:
            return []
        root = _to_fraction(-expr.intercept / expr.slope)
        if (lo is None or root > lo) and (hi is None or root < hi):
            return [root]
        return []
    if hi is None:
        raise ValueError("singular terms cannot appear on a right-unbounded piece")
    hi_f = float(hi)
    lo_f = None if lo is None else float(lo)
    edges = [lo_f, *_critical_points(expr, lo_f, hi_f), hi_f]
    roots = {Fraction(r) for a, b in zip(edges, edges[1:]) for r in _monotone_roots(expr, a, b)}
    return sorted(r for r in roots if (lo is None or r > lo) and r < hi)


# ---------------------------------------------------------------------------
# The concave function type.
# ---------------------------------------------------------------------------


class ConcaveFn(Frozen):
    """Concave, continuous, piecewise function over rational breakpoints.

    pieces[i] lives on [breakpoints[i-1], breakpoints[i]] (unbounded at the
    ends). Continuity and concavity are validated on construction: exactly
    where both sides are affine with rational coefficients, numerically
    against the closed forms otherwise. Identical adjacent pieces are
    merged. A profile is read-only, so a family that has read it can keep
    what it computed from it; its curvature measure is kept in the derived
    slot _ma, filled on the first monge_ampere call.
    """

    __slots__ = ("breakpoints", "pieces", "_ma")

    def __init__(self, breakpoints: Sequence, pieces: Sequence[Piece]):
        bps = [_to_fraction(b) for b in breakpoints]
        pieces = list(pieces)
        if len(pieces) != len(bps) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        if not _increasing(bps):
            raise ValueError("breakpoints must be strictly increasing")
        bps, pieces = self._merge(bps, pieces)
        object.__setattr__(self, "breakpoints", tuple(bps))
        object.__setattr__(self, "pieces", tuple(pieces))
        self._validate()

    @staticmethod
    def _merge(bps, pieces):
        out_b, out_p = [], [pieces[0]]
        for b, p in zip(bps, pieces[1:]):
            if p == out_p[-1]:
                continue
            out_b.append(b)
            out_p.append(p)
        return out_b, out_p

    def _validate(self) -> None:
        """The one check of each breakpoint's values and slopes, which
        monge_ampere and legendre_dual trust. Exact when both sides are
        affine with rational coefficients, so that both values are integer
        ratios; with a singular or float side, in floats with slack."""
        for i, piece in enumerate(self.pieces):
            hi = self.breakpoints[i] if i < len(self.breakpoints) else None
            if isinstance(piece, AlphaPiece) and (hi is None or _above(hi, _ZERO)):
                raise ValueError("singular pieces require an interval with right endpoint <= 0")
        for i, t in enumerate(self.breakpoints):
            left, right = self.pieces[i], self.pieces[i + 1]
            lv, rv = left._value_term(t), right._value_term(t)
            if type(lv) is tuple and type(rv) is tuple:
                continuous = lv[0] * rv[1] == rv[0] * lv[1]
                concave = not _above(right.slope, left.slope)
            else:
                lv, rv = _float_of(lv), _float_of(rv)
                ld, rd = _float_of(left.derivative(t)), _float_of(right.derivative(t))
                continuous = abs(lv - rv) <= 1e-8 + 1e-8 * max(abs(lv), abs(rv))
                concave = ld >= rd - 1e-9 * max(1.0, abs(ld), abs(rd))
            if not continuous:
                raise ValueError(f"discontinuity at breakpoint {t}")
            if not concave:
                raise ValueError(f"not concave at breakpoint {t}")

    @property
    def slope_neg(self) -> Number:
        """Asymptotic slope toward -infinity (singular profiles flatten out)."""
        return self.pieces[0].slope

    @property
    def slope_pos(self) -> Number:
        return self.pieces[-1].slope

    def piece_at(self, u) -> Piece:
        i = bisect.bisect_left(self.breakpoints, _to_fraction(u))
        return self.pieces[i]

    def intervals(self) -> list[tuple[Fraction | None, Fraction | None, Piece]]:
        lo: Fraction | None = None
        out = []
        for i, p in enumerate(self.pieces):
            hi = self.breakpoints[i] if i < len(self.breakpoints) else None
            out.append((lo, hi, p))
            lo = hi
        return out

    def __call__(self, u) -> float:
        return float(self.piece_at(u).value(u))

    def value_exact(self, u) -> Fraction:
        value = self.piece_at(u).value(_to_fraction(u))
        if not isinstance(value, Fraction):
            raise ValueError("exact evaluation needs a rational affine piece")
        return value

    def shift(self, c) -> "ConcaveFn":
        return ConcaveFn(self.breakpoints, [p.shifted(c) for p in self.pieces])

    @staticmethod
    def affine(slope, intercept=0) -> "ConcaveFn":
        return ConcaveFn([], [AffinePiece(slope, intercept)])


def _pair_walk(
    f: ConcaveFn,
    g: ConcaveFn,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
) -> Iterator[tuple[Fraction | None, Fraction | None, Piece, Piece]]:
    """Walk (lo, hi) cut at the breakpoints of f and g.

    Yields (lo, hi, f-piece, g-piece) for each interval; None ends are
    infinite. One merge over the two breakpoint tuples, compared exactly:
    each breakpoint inside (lo, hi) ends an interval and advances the
    piece index of each profile it belongs to.
    """
    fb, gb = f.breakpoints, g.breakpoints
    nf, ng = len(fb), len(gb)
    i = 0 if lo is None else bisect.bisect_right(fb, lo)
    j = 0 if lo is None else bisect.bisect_right(gb, lo)
    a = lo
    while True:
        fp, gp = f.pieces[i], g.pieces[j]
        if i < nf and (j == ng or not _above(fb[i], gb[j])):
            b = fb[i]
            i += 1
            if j < ng and gb[j] == b:
                j += 1
        elif j < ng:
            b = gb[j]
            j += 1
        else:
            b = None
        if b is None or (hi is not None and not _above(hi, b)):
            yield a, hi, fp, gp
            return
        yield a, b, fp, gp
        a = b


def min_concave(f: ConcaveFn, g: ConcaveFn) -> ConcaveFn:
    """Pointwise minimum, again concave and piecewise in the catalog.

    Crossings inside each merged interval are located exactly for
    affine/affine pairs and by sign-bracketed bisection otherwise; each
    piece of the result is chosen by the sign of f - g at a probe point
    between consecutive crossings.
    """
    cuts: list[Fraction] = []
    pieces: list[Piece] = []
    for lo, hi, fp, gp in _pair_walk(f, g):
        d = _Expr.difference(fp, gp)
        edges = [lo, *_expr_roots(d, lo, hi), hi]
        for a, b in zip(edges, edges[1:]):
            if a is not None:
                cuts.append(a)
            # exact when the difference is affine (the same alpha cancels)
            pieces.append(fp if d.value(_probe_point(a, b)) <= 0 else gp)
    return ConcaveFn(cuts, pieces)


def _probe_point(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


def cutoff(phi: ConcaveFn, psi: ConcaveFn, n) -> ConcaveFn:
    """Truncation min(psi + n, phi): bounded near psi, increasing to phi.

    Requires phi to dominate psi up to a constant (phi at most a bounded
    amount below psi), so the minimum eventually equals phi everywhere.
    """
    if not bounded_above(psi, phi):
        raise ValueError("psi - phi must be bounded above for the truncation")
    return min_concave(psi.shift(n), phi)


def bounded_above(f: ConcaveFn, g: ConcaveFn) -> bool:
    """Whether f - g is bounded above on the whole line: toward +infinity
    by the slopes, toward -infinity by the tail of the first pieces'
    difference."""
    return _bounded_head(f, g) is not None


def _bounded_head(f: ConcaveFn, g: ConcaveFn) -> _Expr | None:
    """The first pieces' difference when f - g is bounded above, else None."""
    head = _Expr.difference(f.pieces[0], g.pieces[0])
    return head if f.slope_pos <= g.slope_pos and head.tail() < math.inf else None


def sup_distance(f: ConcaveFn, g: ConcaveFn) -> float:
    """Supremum of |f - g| over the line; +inf when the deviation is unbounded."""
    if not (bounded_above(f, g) and bounded_above(g, f)):
        return math.inf
    best = 0.0
    for lo, hi, fp, gp in _pair_walk(f, g):
        d = _Expr.difference(fp, gp)
        if lo is None:
            best = max(best, abs(float(d.tail())))
        if hi is None:
            # slopes agree, so the difference is a constant out here
            best = max(best, abs(d.value(0.0 if lo is None else float(lo) + 1.0)))
            continue
        candidates: list[float] = []
        if lo is not None:
            candidates.append(float(lo))
        candidates.append(float(hi))
        if d.terms:
            candidates.extend(
                _critical_points(d, None if lo is None else float(lo), float(hi))
            )
        for u in candidates:
            best = max(best, abs(d.value(u)))
    return best
