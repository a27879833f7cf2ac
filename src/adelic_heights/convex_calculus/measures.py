"""Measures on the line with atoms plus power-law densities, the
second-derivative measure of a concave function, and integration of
piece differences against it, in closed form or by quadrature.

Divergence convention: an integral is a finite value or -inf; an integral
that diverges to +inf raises PositiveDivergenceError. In closed form the
leading divergent exponent decides which.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from fractions import Fraction

from ..scalars import Frozen, PositiveDivergenceError, _above, _difference, _float_of
from ..scalars import _ratio_sum, _read, _times, _to_fraction
from .functions import _ZERO, AlphaPiece, ConcaveFn, Number, _Expr, _pair_walk

QUAD_TOL = 1e-9  # agreement of successive double-exponential sums
_WEAK_TOL = 1e-3  # largest last gap a weak-convergence verdict passes


class DensityPiece(Frozen):
    """Density coeff*(1-u)**exponent du on [lo, hi]; lo of None means -inf.

    Singular exponents (nonzero) require hi <= 0 so the density stays
    smooth and positive powers of (1-u) stay >= 1 on the interval.
    """

    __slots__ = ("lo", "hi", "coeff", "exponent")

    def __init__(self, lo: Fraction | None, hi: Fraction, coeff: float, exponent: float):
        lo = None if lo is None else _to_fraction(lo)
        hi = _to_fraction(hi)
        if lo is not None and lo >= hi:
            raise ValueError("empty density interval")
        if exponent != 0 and _above(hi, _ZERO):
            raise ValueError("singular density requires right endpoint <= 0")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "exponent", exponent)

    def density(self, u: float) -> float:
        return self.coeff * (1.0 - u) ** self.exponent

    def mass(self) -> float:
        return _integrate_terms_in_t(
            [(self.coeff, _float_of(self.exponent))], self.lo, self.hi
        )


def _integrate_terms_in_t(
    terms: Sequence[tuple[float, float]], lo: Fraction | None, hi: Fraction
) -> float:
    """Integral over u in [lo, hi] of sum coeff*(1-u)**e, via t = 1-u.

    When lo is -inf, the terms with exponent >= -1 diverge. Their
    coefficients are summed per exponent, and the leading exponent whose
    sum is nonzero decides: a negative sum gives -inf, a positive one
    raises PositiveDivergenceError. A coefficient is zero only when it is
    exactly 0.0.
    """
    t0 = 1.0 - _float_of(hi)
    if lo is None:
        convergent = 0.0
        divergent: dict[float, float] = {}
        for c, e in terms:
            if e < -1.0:
                convergent += -c * t0 ** (e + 1.0) / (e + 1.0)
            else:
                divergent[e] = divergent.get(e, 0.0) + c
        for e in sorted(divergent, reverse=True):
            if divergent[e] > 0:
                raise PositiveDivergenceError("integral diverges to +infinity")
            if divergent[e] < 0:
                return -math.inf
        return convergent
    t1 = 1.0 - _float_of(lo)
    total = 0.0
    for c, e in terms:
        if e == -1.0:
            total += c * (math.log(t1) - math.log(t0))
        else:
            total += c * (t1 ** (e + 1.0) - t0 ** (e + 1.0)) / (e + 1.0)
    return total


def _expr_times_density_terms(
    expr: _Expr, piece: DensityPiece
) -> list[tuple[float, float]]:
    """(slope*u + intercept + sum c*(1-u)**a) * k*(1-u)**q as t-power terms."""
    k, q = piece.coeff, _float_of(piece.exponent)
    slope, intercept = _float_of(expr.slope), _float_of(expr.intercept)
    out = [(k * (slope + intercept), q), (k * -slope, q + 1.0)]  # u = 1 - t
    for c, e in expr.terms:
        out.append((k * c, q + e))
    return out


class Measure1D(Frozen):
    """Nonnegative measure: finitely many atoms plus catalog densities."""

    __slots__ = ("atoms", "densities")

    def __init__(
        self,
        atoms: Sequence[tuple[Fraction, Number]] = (),
        densities: Sequence[DensityPiece] = (),
    ):
        atoms = tuple((_to_fraction(loc), m) for loc, m in atoms)
        densities = tuple(densities)
        for _, m in atoms:
            if m < 0:
                raise ValueError("atom masses must be nonnegative")
        for d in densities:
            if d.coeff < 0:
                raise ValueError("density coefficients must be nonnegative")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "densities", densities)

    @property
    def total_mass(self) -> Fraction | float:
        """Exact Fraction when there are no densities and the atom masses
        are rational; float otherwise."""
        total = sum((m for _, m in self.atoms), Fraction(0))
        for d in self.densities:
            total += d.mass()
        return total


def monge_ampere(f: ConcaveFn) -> Measure1D:
    """Curvature measure -f'' of a concave function.

    Every breakpoint with a positive slope gap carries an atom of that
    gap: a Fraction when both one-sided slopes are (affine sides with
    rational slopes), a float otherwise. A float gap that rounds to zero
    or below is dropped; construction has already bounded it. Each singular piece contributes
    the density (1-alpha)*(1-u)**(alpha-2) on its interval, 1 - alpha
    taken on the exact alpha. The total mass equals slope_neg - slope_pos:
    exactly without densities, up to float rounding of alpha - 2 and
    1 - alpha. A profile is read-only, so its measure is built once and
    kept on it.
    """
    try:
        return f._ma
    except AttributeError:
        pass
    atoms: list[tuple[Fraction, Number]] = []
    for i, t in enumerate(f.breakpoints):
        left, right = f.pieces[i].derivative(t), f.pieces[i + 1].derivative(t)
        if _above(left, right):
            atoms.append((t, _read(_difference(left, right))))
    densities: list[DensityPiece] = []
    for lo, hi, piece in f.intervals():
        if isinstance(piece, AlphaPiece):
            b = piece._floats[4]  # float(1 - alpha)
            densities.append(DensityPiece(lo, hi, b, -1.0 - b))
    mu = Measure1D(tuple(atoms), tuple(densities))
    object.__setattr__(f, "_ma", mu)
    return mu


def integrate_against(
    pair: tuple[ConcaveFn, ConcaveFn],
    mu: Measure1D,
    method: str = "exact",
) -> Fraction | float:
    """Integral of f - g against mu.

    Atoms are summed directly: the sum is a Fraction while every mass and
    both pieces at every atom are rational, and there are no densities
    (Fraction(0) for no atoms either). With method "exact", density pieces
    integrate in closed form through the power catalog; with method
    "quad", by double-exponential quadrature to QUAD_TOL (see _quad_piece,
    whose divergence verdict is approximate). A negatively divergent
    integral returns -inf; a positively divergent one raises
    PositiveDivergenceError.
    """
    return _integrate_against(pair, mu, method, None)


def _integrate_against(pair, mu: Measure1D, method: str, head: _Expr | None):
    """integrate_against, reading head, if given, as the pair's first pieces' difference."""
    if method not in ("exact", "quad"):
        raise ValueError(f"unknown method {method!r}")
    f, g = pair
    terms = []
    for loc, m in mu.atoms:  # exact wherever the mass and both pieces are
        diff = _difference(f.piece_at(loc)._value_term(loc), g.piece_at(loc)._value_term(loc))
        terms.append(_times(m, diff))
    for piece in mu.densities:
        for lo, hi, fp, gp in _pair_walk(f, g, lo=piece.lo, hi=piece.hi):
            expr = head if lo is None and head is not None else _Expr.difference(fp, gp)
            if method == "quad":
                sub = DensityPiece(lo, hi, piece.coeff, piece.exponent)
                terms.append(_quad_piece(expr.value, sub))
            else:
                terms.append(_integrate_terms_in_t(_expr_times_density_terms(expr, piece), lo, hi))
    return _read(_ratio_sum(terms))


_HALF_PI = math.pi / 2
_DE_LEVELS = 8  # step halvings after the first step 1/2; 2**-9 at the finest
# tanh-sinh: the node at |x| = 3.2 is 2e-17 of the y-range from its end
_TANH_SINH_X = 3.2
# exp-sinh: from t - t0 = 2e-19 (x = -4) to t - t0 = 1e300 (x ~ 6.78)
_EXP_SINH_X = (-4.0, math.asinh(math.log(1e300) / _HALF_PI))


def _de_trapezoid(term: Callable[[float], float], a: float, b: float) -> float:
    """Trapezoid sums of term on the nodes b, b - h, ... down to a, the
    step h halving from 1/2 until two successive sums agree within QUAD_TOL."""
    h = 0.5
    n = math.ceil((b - a) / h)
    s = math.fsum(term(b - j * h) for j in range(n + 1))
    prev = h * s
    for _ in range(_DE_LEVELS):
        h /= 2
        n *= 2
        s += math.fsum(term(b - j * h) for j in range(1, n, 2))
        if abs(h * s - prev) <= QUAD_TOL:
            break
        prev = h * s
    return h * s


def _quad_piece(fn: Callable[[float], float], piece: DensityPiece) -> float:
    """Double-exponential quadrature of fn against one density piece
    (Takahasi & Mori, Publ. RIMS 9, 1974).

    In t = 1 - u the piece is coeff * t**exponent on t >= t0 = 1 - hi.
    A finite piece integrates by tanh-sinh in y = log(1 + t - t0), so that
    a wide piece resolves the density near t0 as well as at its far end.
    The half-line integrates by exp-sinh, t = t0 + exp(pi/2 sinh x).

    Divergence verdict: the half-line sum ends at t - t0 = 1e300. If its
    term there exceeds QUAD_TOL in magnitude, the integral is judged divergent:
    -inf for a negative term, PositiveDivergenceError for a positive one.
    So an integrand that decays more slowly than about t**-1.04 is judged
    divergent even when its integral converges. The rule assumes fn does
    not oscillate: cos(u) against a half-line density is off by ~3e-4.
    """
    hi = _float_of(piece.hi)
    if piece.lo is None:
        k, e, t0 = piece.coeff, piece.exponent, 1.0 - hi

        def term(x: float) -> float:
            v = _HALF_PI * math.sinh(x)
            t = t0 + math.exp(v)
            # dt/dx * t**e in logs: t**e alone underflows where fn(1 - t) is huge
            w = math.exp(v + e * math.log(t)) if e else math.exp(v)
            return fn(1.0 - t) * k * w * _HALF_PI * math.cosh(x)

        a, b = _EXP_SINH_X
        last = term(b)
        if abs(last) > QUAD_TOL:
            if last > 0:
                raise PositiveDivergenceError("integral diverges to +infinity")
            return -math.inf
        return _de_trapezoid(term, a, b)

    half = math.log1p(_float_of(_difference(piece.hi, piece.lo))) / 2

    def term(x: float) -> float:
        v = _HALF_PI * math.sinh(x)
        d = 2 * half / (1.0 + math.exp(2 * abs(v)))  # distance to the nearer end
        y = d if x < 0 else 2 * half - d
        u = hi - math.expm1(y)  # t = t0 + expm1(y)
        dt = math.exp(y) * half * _HALF_PI * math.cosh(x) / math.cosh(v) ** 2
        return fn(u) * piece.density(u) * dt

    return _de_trapezoid(term, -_TANH_SINH_X, _TANH_SINH_X)


def integrate_measure(fn: Callable[[float], float], mu: Measure1D) -> float:
    """Integral of an arbitrary (bounded, continuous) function against mu:
    finite, -inf, or PositiveDivergenceError like integrate_against."""
    total = 0.0
    for loc, m in mu.atoms:
        total += _float_of(m) * fn(_float_of(loc))
    for piece in mu.densities:
        total += _quad_piece(fn, piece)
    return total


class WeakConvergenceReport:
    """Per test function, the gaps along the sequence; the total-mass gaps;
    and the tolerance the verdicts read them against."""

    __slots__ = ("fn_gaps", "mass_gaps", "tol")

    def __init__(self, fn_gaps: list[list[float]], mass_gaps: list[float], tol: float):
        self.fn_gaps, self.mass_gaps, self.tol = fn_gaps, mass_gaps, tol

    @property
    def vague_pass(self) -> bool:
        return all(gaps[-1] <= self.tol for gaps in self.fn_gaps)

    @property
    def mass_pass(self) -> bool:
        return bool(self.mass_gaps) and self.mass_gaps[-1] <= self.tol

    @property
    def weak_pass(self) -> bool:
        return self.vague_pass and self.mass_pass


def weak_convergence_check(
    mu_seq: Sequence[Measure1D],
    mu: Measure1D,
    test_fns: Sequence[Callable[[float], float]],
) -> WeakConvergenceReport:
    """Gap report for weak convergence: vague gaps against the test
    functions together with total-mass gaps (weak = vague + masses)."""
    fn_gaps = []
    for fn in test_fns:
        lim = integrate_measure(fn, mu)
        fn_gaps.append([abs(integrate_measure(fn, m) - lim) for m in mu_seq])
    mass = mu.total_mass
    mass_gaps = [abs(m.total_mass - mass) for m in mu_seq]
    return WeakConvergenceReport(fn_gaps, mass_gaps, _WEAK_TOL)
