"""Concave calculus: minima, duality, curvature measures, energies.

Reference values are frozen from closed-form antiderivative computations
(power-rule integrals checked independently by quadrature in oracle runs)
and from hand evaluation of small piecewise-affine examples.
"""

import bisect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelic_heights.convex_calculus import (
    AffinePiece,
    AlphaPiece,
    ConcaveFn,
    DualFn,
    DualPiece,
    Measure1D,
    DensityPiece,
    PositiveDivergenceError,
    bounded_above,
    conjugate_eval,
    cutoff,
    dual_sup_distance,
    integrate_against,
    integrate_measure,
    legendre_bidual,
    legendre_dual,
    local_energy,
    min_concave,
    mixed_local_energy,
    monge_ampere,
    sup_distance,
    weak_convergence_check,
)
from adelic_heights.convex_calculus.duality import _integrate_power_term, sum_duals
from adelic_heights.convex_calculus.functions import _pair_walk

from profiles import (
    affine_head_alpha_profiles,
    alpha_profiles,
    near_colliding_profiles,
    profile_through,
)

F = Fraction


def ramp():
    """min(u, 0): slope 1 then 0, kink at the origin."""
    return ConcaveFn([0], [AffinePiece(1, 0), AffinePiece(0, 0)])


def singular_ramp(alpha):
    """ramp + (1/alpha)*(1-u)**alpha for u <= 0, constant part matched."""
    a = F(alpha) if not isinstance(alpha, float) else alpha
    inv = 1 / F(a) if isinstance(a, Fraction) else 1.0 / a
    return ConcaveFn([0], [AlphaPiece(a, 1, 0), AffinePiece(0, inv)])


def three_slope():
    """slopes 1, 1/2, 0 with kinks at 0 and 2; value 1 at the top."""
    return ConcaveFn(
        [0, 2],
        [AffinePiece(1, 0), AffinePiece(F(1, 2), 0), AffinePiece(0, 1)],
    )


def random_piecewise_affine(rng, slope_neg=F(1), slope_pos=F(0), kinks=2):
    """Concave piecewise-affine with the given outer slopes."""
    inner = sorted(
        {F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(kinks)},
        reverse=True,
    )
    slopes = [slope_neg] + [s for s in inner if slope_pos < s < slope_neg] + [slope_pos]
    bps = sorted({F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(len(slopes) - 1)})
    while len(bps) < len(slopes) - 1:
        bps.append((bps[-1] if bps else F(0)) + 1)
    bps = bps[: len(slopes) - 1]
    c = F(rng.randint(-5, 5))
    pieces = [AffinePiece(slopes[0], c)]
    for s_prev, s_next, t in zip(slopes, slopes[1:], bps):
        c = c + (s_prev - s_next) * t
        pieces.append(AffinePiece(s_next, c))
    return ConcaveFn(bps, pieces)


class TestConstruction:
    def test_ramp_evaluation(self):
        f = ramp()
        assert f(-2) == -2
        assert f(3) == 0
        assert f.slope_neg == 1
        assert f.slope_pos == 0

    def test_discontinuity_rejected(self):
        with pytest.raises(ValueError, match="discontinuity"):
            ConcaveFn([0], [AffinePiece(1, 0), AffinePiece(0, 5)])

    def test_convex_kink_rejected(self):
        with pytest.raises(ValueError, match="concave"):
            ConcaveFn([0], [AffinePiece(0, 0), AffinePiece(1, 0)])

    def test_singular_piece_needs_nonpositive_interval(self):
        with pytest.raises(ValueError, match="right endpoint"):
            ConcaveFn([], [AlphaPiece(F(1, 4), 1, 0)])
        with pytest.raises(ValueError, match="right endpoint"):
            ConcaveFn([1], [AlphaPiece(F(1, 4), 1, 0), AffinePiece(0, 4)])

    def test_alpha_range_enforced(self):
        for bad in (0, 1, F(3, 2), -F(1, 2)):
            with pytest.raises(ValueError, match="alpha"):
                AlphaPiece(bad, 1, 0)

    def test_identical_adjacent_pieces_merge(self):
        f = ConcaveFn([0], [AffinePiece(1, 2), AffinePiece(1, 2)])
        assert f.breakpoints == ()
        assert len(f.pieces) == 1

    def test_singular_ramp_continuity(self):
        f = singular_ramp(F(1, 4))
        assert abs(f(0) - 4.0) < 1e-12
        assert f(10) == 4.0
        assert abs(f(-3) - (-3 + 4 * 4 ** 0.25)) < 1e-12

    @given(
        st.fractions(-5, 5, max_denominator=7),
        st.fractions(-9, 9, max_denominator=11),
        st.fractions(-4, 4, max_denominator=9),
        st.one_of(st.just(F(0)), st.fractions(-2, 2, max_denominator=5)),
        st.one_of(st.just(F(0)), st.fractions(-1, 1, max_denominator=13)),
    )
    @example(F(1, 2), F(-3, 4), F(-5, 3), F(0), F(0))  # one line: merged
    @example(F(-2, 3), F(5, 7), F(7, 9), F(-1, 6), F(0))  # convex kink
    @example(F(3, 5), F(1, 3), F(-2, 7), F(4, 3), F(1, 10**12))  # a tiny jump
    @settings(max_examples=300, deadline=None)
    def test_rational_breakpoint_decided_as_in_fractions(self, ls, lc, t, gap, jump):
        # right slope ls - gap; right intercept continuous at t, plus jump
        rs = ls - gap
        rc = gap * t + lc + jump
        pieces = [AffinePiece(ls, lc), AffinePiece(rs, rc)]
        if ls * t + lc != rs * t + rc:
            with pytest.raises(ValueError, match=f"^discontinuity at breakpoint {t}$"):
                ConcaveFn([t], pieces)
        elif ls < rs:
            with pytest.raises(ValueError, match=f"^not concave at breakpoint {t}$"):
                ConcaveFn([t], pieces)
        else:
            assert ConcaveFn([t], pieces).pieces == tuple(dict.fromkeys(pieces))

    @given(
        st.fractions(-5, 5, max_denominator=10**6),
        st.fractions(-10**6, 10**6, max_denominator=10**12),
        st.fractions(-8, 8, max_denominator=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_affine_value_exact_and_float(self, s, c, u):
        piece = AffinePiece(s, c)
        value = piece.value(u)
        assert type(value) is Fraction and value == s * u + c
        for p, x in ((AffinePiece(float(s), c), u), (AffinePiece(s, float(c)), u), (piece, float(u))):
            got = p.value(x)
            assert type(got) is float and got == p.slope * x + p.intercept


class TestMinConcave:
    def test_two_lines_make_ramp(self):
        m = min_concave(ConcaveFn.affine(1), ConcaveFn.affine(0))
        assert m == ramp()

    def test_min_with_itself(self):
        f = three_slope()
        assert min_concave(f, f) == f

    def test_parallel_lines_keep_the_lower(self):
        # no crossing: the difference is a nonzero constant
        low, high = ConcaveFn.affine(1, 0), ConcaveFn.affine(1, 2)
        assert min_concave(low, high) == low
        assert min_concave(high, low) == low

    def test_affine_crossing_exact(self):
        # u + 4 and -u cross at u = -2
        m = min_concave(ConcaveFn.affine(1, 4), ConcaveFn.affine(-1, 0))
        assert m.breakpoints == (F(-2),)
        assert m(-10) == -6
        assert m(10) == -10

    def test_crossing_against_singular_piece(self):
        # shifted ramp vs singular ramp, alpha = 1/4, shift 8:
        # (1-u)**alpha = n*alpha at the crossing, so u = 1 - (2)**4 = -15
        phi = singular_ramp(F(1, 4))
        m = min_concave(ramp().shift(8), phi)
        assert len(m.breakpoints) == 2
        u_star = float(m.breakpoints[0])
        assert abs(u_star + 15) < 1e-8
        assert m(-20) == -12  # the affine branch
        assert abs(m(-10) - phi(-10)) < 1e-12  # the singular branch
        assert m(5) == 4.0

    def test_no_crossing_when_shift_too_small(self):
        phi = singular_ramp(F(1, 4))
        m = min_concave(ramp().shift(2), phi)
        assert m == ramp().shift(2)

    def test_balance_point_beyond_float_range(self):
        # the second derivatives of the two singular parts balance only
        # where (1-u) overflows a float: no split of the interval
        f = singular_ramp(F(10**14 - 1, 10**14))
        g = singular_ramp(F(49, 50)).shift(F(4, 3))
        m = min_concave(f, g)
        for u in (-1e6, -1e3, -50, -3.3, -1, -0.1, 0, 0.5, 3):
            assert m(u) == pytest.approx(min(f(u), g(u)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha_f, alpha_g, shift",
        [
            (F(7, 100), F(1, 20), F(38, 7)),
            (F(3, 25), F(1, 10), F(20)),
            (F(1, 2), F(1, 10**6), F(0)),
            (F(1, 10**6), F(10**14 - 1, 10**14), F(4, 3)),
            (F(10**14 - 1, 10**14), F(10**15 - 1, 10**15), F(0)),
        ],
    )
    def test_far_crossing_of_two_singular_pieces(self, alpha_f, alpha_g, shift):
        # the crossings lie far left (near u = -1.8e9 in the first case);
        # each piece of the minimum is one of f's or g's, so away from a
        # crossing it evaluates to min(f(u), g(u)) up to rounding
        f, g = singular_ramp(alpha_f), singular_ramp(alpha_g).shift(shift)
        m = min_concave(f, g)
        for u in (-1e6, -1e10, -1e12):
            assert m(u) == pytest.approx(min(f(u), g(u)), rel=1e-14)

    def test_two_crossings_against_one_singular_piece(self):
        # u/2 + 4*(1-u)**(1/4) - 41/10 rises to a maximum near u = -1.52
        # and falls again: f - g changes sign twice on (-inf, 0]
        f, g = singular_ramp(F(1, 4)), ConcaveFn.affine(F(1, 2), F(41, 10))
        m = min_concave(f, g)
        assert len(m.breakpoints) == 3
        for u in (-1e6, -10, -3, -1.52, -0.5, -0.1, 0, 0.1, 5):
            assert m(u) == pytest.approx(min(f(u), g(u)), rel=1e-14, abs=1e-14)

    @given(
        st.fractions(0, 1, max_denominator=10**6).filter(lambda a: 0 < a < 1),
        st.fractions(0, 1, max_denominator=10**6).filter(lambda a: 0 < a < 1),
        st.fractions(-100, 100, max_denominator=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_min_of_singular_ramps_is_pointwise_min(self, alpha_f, alpha_g, shift):
        f, g = singular_ramp(alpha_f), singular_ramp(alpha_g).shift(shift)
        m = min_concave(f, g)
        for u in [-(10.0**k) for k in range(13)] + [-0.5, 0.0, 2.0]:
            fu, gu = f(u), g(u)
            assert abs(m(u) - min(fu, gu)) <= 1e-9 * max(1.0, abs(fu), abs(gu))

    def test_cutoff_increases_pointwise(self):
        phi = singular_ramp(F(1, 4))
        psi = ramp()
        prev = cutoff(phi, psi, 5)
        for n in (8, 20, 100):
            cur = cutoff(phi, psi, n)
            for u in (-50, -10, -1, 0, 3):
                assert prev(u) <= cur(u) + 1e-12
                assert cur(u) <= phi(u) + 1e-12
            prev = cur

    def test_cutoff_between_two_singular_ramps(self):
        # psi - phi <= 1 although both carry power terms: the truncation
        # answers, lies between the two profiles and increases with n
        phi, psi = singular_ramp(F(1, 3)), singular_ramp(F(1, 4))
        prev = None
        for n in (2, 10, 100):
            cur = cutoff(phi, psi, n)
            for u in (-1e8, -1e4, -500, -50, -1, 0, 3):
                lo, hi = min(psi(u), phi(u)), phi(u)
                tol = 1e-12 * max(1.0, abs(lo), abs(hi))
                assert lo - tol <= cur(u) <= hi + tol
                assert cur(u) == pytest.approx(min(psi(u) + n, phi(u)), rel=1e-12, abs=1e-12)
                if prev is not None:
                    assert prev(u) <= cur(u) + tol
            prev = cur

    def test_cutoff_requires_comparability(self):
        with pytest.raises(ValueError, match="bounded above"):
            cutoff(ramp(), singular_ramp(F(1, 4)), 3)


class TestSupDistance:
    def test_constant_shift(self):
        assert sup_distance(ramp(), ramp().shift(-3)) == 3

    def test_three_slope_vs_ramp(self):
        assert sup_distance(three_slope(), ramp()) == 1

    def test_slope_mismatch_is_infinite(self):
        assert sup_distance(ramp(), ConcaveFn.affine(1, 0)) == math.inf

    def test_singular_deviation_is_infinite(self):
        assert sup_distance(ramp(), singular_ramp(F(1, 4))) == math.inf

    def test_interior_extremum_against_a_singular_piece(self):
        # on [-8, 0], f - g = u/2 + 4*(1-u)**(1/4) peaks at u = 1 - 2**(4/3)
        # with value 1/2 + 3*2**(1/3), above its values at both ends
        a = AlphaPiece(F(1, 4), 1, 0)
        f = ConcaveFn([-8, 0], [AffinePiece(1, a.value(-8) + 8), a, AffinePiece(0, 4)])
        g = profile_through([F(1), F(1, 2), F(0)], [F(-8), F(0)], F(4))
        assert sup_distance(f, g) == pytest.approx(0.5 + 3 * 2 ** (1 / 3), rel=1e-12)

    def test_bounded_above_orientation(self):
        phi = singular_ramp(F(1, 4))
        assert bounded_above(ramp(), phi)  # ramp - phi = -profile <= 0
        assert not bounded_above(phi, ramp())
        # 4*(1-u)**(1/4) - 3*(1-u)**(1/3) <= 1: the larger exponent leads
        # toward -inf, though the other power term has a positive coefficient
        third = singular_ramp(F(1, 3))
        assert bounded_above(phi, third)
        assert not bounded_above(third, phi)
        assert bounded_above(third, third.shift(F(-5, 2)))
        assert bounded_above(third.shift(F(-5, 2)), third)

    @given(
        st.fractions(0, 1, max_denominator=10**6).filter(lambda a: 0 < a < 1),
        st.fractions(0, 1, max_denominator=10**6).filter(lambda a: 0 < a < 1),
        st.fractions(-100, 100, max_denominator=1000),
    )
    @example(F(1, 4), F(1, 3), F(0))
    @example(F(1, 3), F(1, 4), F(7))
    @settings(max_examples=100, deadline=None)
    def test_bounded_above_between_singular_ramps(self, a, b, c):
        # the difference's leading power term toward -inf has exponent
        # max(a, b) and the sign of that side
        assert bounded_above(singular_ramp(a), singular_ramp(b).shift(c)) == (a <= b)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_shift_distance_random(self, c):
        f = three_slope()
        shift = float(F(c, 997))
        assert abs(sup_distance(f, f.shift(F(c, 997))) - shift) <= 1e-12 * max(
            1.0, shift
        )


class TestLegendreDual:
    def test_ramp_dual_vanishes(self):
        d = legendre_dual(ramp())
        assert (float(d.lo), float(d.hi)) == (0.0, 1.0)
        assert d.value_exact(F(1, 2)) == 0
        assert d.value_exact(0) == 0
        assert d.value_exact(1) == 0

    def test_shift_moves_dual_by_constant(self):
        d = legendre_dual(ramp().shift(F(7, 3)))
        assert d.value_exact(F(1, 2)) == F(-7, 3)

    def test_three_slope_dual_exact(self):
        d = legendre_dual(three_slope())
        assert d.value_exact(0) == -1
        assert d.value_exact(F(1, 2)) == 0
        assert d.value_exact(1) == 0
        assert d.value_exact(F(1, 4)) == F(-1, 2)  # on the 2m - 1 branch
        assert d.value_exact(F(3, 4)) == 0

    def test_singular_dual_closed_form(self):
        # dual is m - 1 - 3*(1-m)**(-1/3) for alpha = 1/4, singular at 1
        d = legendre_dual(singular_ramp(F(1, 4)))
        assert d(0) == -4.0
        for m in (0.1, 0.5, 0.9):
            expected = m - 1 - 3 * (1 - m) ** (-1 / 3)
            assert abs(d(m) - expected) < 1e-12
        assert d(1) == -math.inf

    def test_isometry_on_example(self):
        f, g = three_slope(), ramp()
        assert dual_sup_distance(legendre_dual(f), legendre_dual(g)) == sup_distance(
            f, g
        )

    def test_order_reversal(self):
        lowered = ramp().shift(-1)
        d_low = legendre_dual(lowered)
        d = legendre_dual(ramp())
        for m in (0, F(1, 3), F(2, 3), 1):
            assert d_low.value_exact(m) >= d.value_exact(m)

    def test_fenchel_inequality(self):
        f = three_slope()
        d = legendre_dual(f)
        for u in (-3, -1, 0, 1, 2, 5):
            for m in (0, F(1, 4), F(1, 2), F(3, 4), 1):
                assert F(m) * u >= F(f.value_exact(F(u))) + d.value_exact(m)

    def test_degenerate_affine_dual(self):
        d = legendre_dual(ConcaveFn.affine(F(2, 3), 5))
        assert d.is_degenerate()
        assert float(d.lo) == float(d.hi) == float(F(2, 3))
        assert d.pieces[0].value(d.lo) == -5.0
        assert d.integral() == 0


def brute_conjugate(f: ConcaveFn, m: float) -> float:
    """inf over u of m*u - f(u), by brute force: the objective is convex,
    so a golden-section search over [-1e7, 1e3], run until the bracket
    stops shrinking, and then the least of its end and the objective at
    every breakpoint (where a slope gap puts the minimum on a kink)."""

    def h(u):
        return m * u - f(u)

    a, b = -1e7, 1e3
    r = (math.sqrt(5) - 1) / 2
    for _ in range(400):
        x, y = b - r * (b - a), a + r * (b - a)
        if not a < x < y < b:
            break
        if h(x) <= h(y):
            b = y
        else:
            a = x
    return min([h(a), *(h(float(t)) for t in f.breakpoints)])


class TestDualAfterTheHead:
    """legendre_dual of profiles whose alpha piece is not the first: every
    slope gap left of the alpha piece opens its own affine dual piece."""

    @given(affine_head_alpha_profiles())
    @example(cutoff(singular_ramp(F(1, 4)), ramp(), 10))
    @settings(max_examples=40, deadline=None)
    def test_matches_a_brute_force_conjugate(self, f):
        d = legendre_dual(f)
        slopes = [0.1, 0.5]
        for i, t in enumerate(f.breakpoints):
            left, right = f.pieces[i].derivative(t), f.pieces[i + 1].derivative(t)
            slopes.append((float(left) + float(right)) / 2)  # inside the gap at t
        for m in slopes:
            want = brute_conjugate(f, m)
            # the search meets the minimum to a few ulps of the values it compares
            assert abs(d(m) - want) <= 1e-12 * max(1.0, abs(want))

    def test_cutoff_keeps_the_piece_across_its_first_kink(self):
        # u + 10 up to -609/16, where the alpha = 1/4 piece takes over
        f = cutoff(singular_ramp(F(1, 4)), ramp(), 10)
        assert f.breakpoints == (F(-609, 16), 0)
        d = legendre_dual(f)
        assert len(d.pieces) == 2
        assert d.pieces[-1] == DualPiece(F(-609, 16), F(449, 16))
        assert d.value(d.hi) == -10 and d.value(d.lo) == -4.0


def probe_walk(f, g, lo=None, hi=None):
    """The pairing walk as it was before the index merge, kept as the
    oracle of _pair_walk: the sorted union of both breakpoint sets cut to
    (lo, hi), and each interval's pieces found by bisecting at a probe
    point inside it."""
    inner = sorted(set(f.breakpoints).union(g.breakpoints))
    i = 0 if lo is None else bisect.bisect_right(inner, lo)
    j = len(inner) if hi is None else bisect.bisect_left(inner, hi)
    edges = [lo, *inner[i:j], hi]
    for a, b in zip(edges, edges[1:]):
        if a is None and b is None:
            probe = F(0)
        elif a is None:
            probe = b - 1
        elif b is None:
            probe = a + 1
        else:
            probe = (a + b) / 2
        yield a, b, f.piece_at(probe), g.piece_at(probe)


WALK_PROFILES = st.one_of(
    alpha_profiles(),
    affine_head_alpha_profiles(),
    near_colliding_profiles([F(1, 3), F(1, 2)], max_inner=3),
    st.builds(ConcaveFn.affine, st.fractions(-2, 2, max_denominator=5), st.fractions(-3, 3)),
)


class TestPairWalk:
    """The index merge yields what the probe-point walk yielded."""

    @given(WALK_PROFILES, WALK_PROFILES, st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_merge_matches_the_probe_walk(self, f, g, same, data):
        if same:
            g = f
        knots = sorted(set(f.breakpoints).union(g.breakpoints))
        ends = [knots[0] - 1, knots[-1] + 1] if knots else [F(-1), F(1)]
        # on a breakpoint, between two, and outside them all
        windows = sorted({*knots, *((a + b) / 2 for a, b in zip(knots, knots[1:])), *ends})
        lo = data.draw(st.sampled_from([None, *windows]))
        hi = data.draw(st.sampled_from([None, *(w for w in windows if lo is None or w > lo)]))
        got, want = list(_pair_walk(f, g, lo, hi)), list(probe_walk(f, g, lo, hi))
        assert [(a, b) for a, b, _, _ in got] == [(a, b) for a, b, _, _ in want]
        for (_, _, fp, gp), (_, _, fq, gq) in zip(got, want):
            assert fp is fq and gp is gq

    def test_no_breakpoints(self):
        f, g = ConcaveFn.affine(1, 2), ConcaveFn.affine(F(1, 2))
        assert list(_pair_walk(f, g)) == [(None, None, f.pieces[0], g.pieces[0])]
        assert list(_pair_walk(f, g, F(-1), F(3))) == [(F(-1), F(3), f.pieces[0], g.pieces[0])]

    def test_shared_breakpoint_advances_both(self):
        f, g = ramp(), singular_ramp(F(1, 4))
        assert list(_pair_walk(f, g)) == [
            (None, 0, f.pieces[0], g.pieces[0]),
            (0, None, f.pieces[1], g.pieces[1]),
        ]
        # a window ending on the breakpoint stops before it
        assert list(_pair_walk(f, g, None, F(0))) == [(None, 0, f.pieces[0], g.pieces[0])]


def per_piece_integral(d: DualFn):
    """Reference for DualFn.integral: (integral, scale). Each piece's
    integral slope*(b*b - a*a)/2 + intercept*(b - a), plus its power terms,
    is added to the total in piece order, in the piece's own numbers; scale
    is the sum of the pieces' magnitudes."""
    total, scale = Fraction(0), 0.0
    if d.is_degenerate():
        return total, scale
    edges = [d.lo, *d.breakpoints, d.hi]
    for piece, a, b in zip(d.pieces, edges, edges[1:]):
        part = piece.slope * (b * b - a * a) / 2 + piece.intercept * (b - a)
        part += sum(_integrate_power_term(t, float(a), float(b)) for t in piece.terms)
        total += part
        scale += abs(part)
    return total, scale


class TestDualIntegral:
    @given(
        st.lists(near_colliding_profiles([F(1, 3), F(1, 2)], max_inner=3), min_size=1, max_size=4)
    )
    @settings(max_examples=80, deadline=None)
    def test_rational_duals_match_the_per_piece_sum(self, profiles):
        duals = [legendre_dual(psi) for psi in profiles]
        for d in duals + [sum_duals(duals)]:
            got, (expected, _) = d.integral(), per_piece_integral(d)
            assert type(got) is type(expected) is Fraction
            assert got == expected

    @given(alpha_profiles())
    @example(
        ConcaveFn([-8], [AlphaPiece(F(7, 20), 1, -3), AffinePiece(0, -4.83523062864402)])
    )
    @example(
        ConcaveFn([0, 2], [AlphaPiece(F(1, 4), 2, 0), AffinePiece(F(1, 2), 4), AffinePiece(0, 5)])
    )
    @example(
        ConcaveFn(
            [0, 2, 4],
            [
                AlphaPiece(F(1, 4), 2, 0),
                AffinePiece(F(3, 4), 4),
                AffinePiece(F(1, 3), F(29, 6)),
                AffinePiece(0, F(37, 6)),
            ],
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_alpha_duals_match_the_per_piece_sum(self, psi):
        # Within 1e-15 of the pieces' magnitudes, since the total can cancel
        # to near 0: in the first example it is -0.0269 from pieces of size
        # about 5. The second has a rational affine piece on [0, 1/2] beside
        # float ones; the third two rational affine pieces, on [0, 1/3] and
        # [1/3, 3/4], beside a float one and a power-term one.
        d = legendre_dual(psi)
        got, (expected, scale) = d.integral(), per_piece_integral(d)
        assert type(got) is type(expected) is float
        if expected == -math.inf:
            assert got == -math.inf
        else:
            assert abs(got - expected) <= 1e-15 * scale


class TestFractionChurn:
    """Rational profiles are validated, dualized and integrated on integer
    numerators and denominators, building a Fraction per result and none
    per arithmetic step; a family's roof sums its places the same way.
    The counts are those of these kernels on fixed rational data;
    Fraction operator chains in their place build many times more."""

    @pytest.fixture
    def count(self, monkeypatch):
        """count(build) -> (Fractions built while build() runs, its result)."""
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+: operators skip __new__
            coprime = Fraction._from_coprime_ints
            monkeypatch.setattr(
                Fraction,
                "_from_coprime_ints",
                classmethod(lambda cls, n, d: made.append(cls) or coprime(n, d)),
            )

        def count(build):
            made.clear()
            result = build()
            return len(made), result

        return count

    def test_constructions_on_a_rational_profile(self, count):
        f = profile_through(
            [F(1), F(3, 7), F(-2, 11), F(-5, 13), F(-1)],
            [F(-7, 3), F(-1, 5), F(2, 9), F(31, 6)],
            F(5, 17),
        )
        validated, g = count(lambda: ConcaveFn(f.breakpoints, f.pieces))
        dualized, d = count(lambda: legendre_dual(g))
        integrated, total = count(d.integral)
        assert g == f and total == per_piece_integral(d)[0]
        # none to validate; one per breakpoint, the negated value -f(t);
        # one for the integral
        assert (validated, dualized, integrated) == (0, 4, 1)

    def test_alpha_affine_breakpoint_validates_without_fractions(self, count):
        # the affine side's float is one int/int division of its integer
        # cross-products, the same float as float(AffinePiece.value(t))
        f = singular_ramp(F(3, 20))
        validated, g = count(lambda: ConcaveFn(f.breakpoints, f.pieces))
        assert g == f and validated == 0

    def test_constructions_on_a_rational_family(self, count):
        from adelic_heights.adelic_curve import (
            AdelicFamily,
            Place,
            ToricCompactifiedDivisor,
            boundary_height,
            global_height,
            nef_status,
            roof,
        )

        # 8 places of 4 breakpoints each, slopes falling from 1 to -1
        rng = random.Random(18)
        divisor = ToricCompactifiedDivisor(1, 1)
        table = {}
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            inner = sorted({F(rng.randint(-99, 99), rng.randint(100, 999)) for _ in range(3)})
            bps = sorted({F(rng.randint(-800, 800), rng.randint(1, 97)) for _ in range(4)})
            assert len(inner) == 3 and len(bps) == 4
            c0 = F(rng.randint(-9, 9), 7)
            table[Place.prime(p)] = profile_through([F(1), *inner[::-1], F(-1)], bps, c0)
        bare, _ = count(lambda: AdelicFamily(divisor))
        built, fam = count(lambda: AdelicFamily(divisor, table))
        dualized, theta = count(lambda: roof(fam))
        pieces = sum(len(d.pieces) for d in theta.duals)
        height_made, height = count(lambda: global_height(fam))
        verdict_made, (status, zero, infinity) = count(
            lambda: (
                nef_status(fam),
                boundary_height(fam, "zero"),
                boundary_height(fam, "infinity"),
            )
        )
        assert len(fam.exceptions) == 8 and pieces == 8 * 4 + 1
        assert isinstance(height, Fraction) and status.mu_min_asy == min(zero, infinity)
        # none per exceptional place to build the family; at most one per
        # dual piece for the roof; one for the integral and one to double
        # it; one per endpoint for the verdict and both boundary heights
        assert built == bare
        assert dualized <= pieces
        assert height_made <= 2
        assert verdict_made <= 2


class TestBidual:
    def test_ramp_roundtrip_exact(self):
        assert legendre_bidual(legendre_dual(ramp())) == ramp()

    def test_three_slope_roundtrip_exact(self):
        f = three_slope()
        assert legendre_bidual(legendre_dual(f)) == f

    def test_random_roundtrips_exact(self):
        import random

        rng = random.Random(7)
        for _ in range(25):
            f = random_piecewise_affine(rng)
            assert legendre_bidual(legendre_dual(f)) == f

    @given(near_colliding_profiles([F(1, 3), F(1, 2), F(2, 3)], max_inner=4))
    @example(profile_through([F(1), F(1, 2), F(1, 2) - F(1, 10**14), F(0)], [-1, 0, 1]))
    @example(profile_through([F(1), F(1, 3) + F(1, 10**20), F(1, 3), F(0)], [-2, 0, 2]))
    @settings(max_examples=60, deadline=None)
    def test_near_colliding_slopes_roundtrip_exact(self, f):
        assert legendre_bidual(legendre_dual(f)) == f

    # the affine profile slope*u + intercept has the one-point dual domain
    # {slope}; its conjugate is the profile again, bit for bit, signed zeros
    # included: (slope, intercept, u, conjugate value)
    POINT_DOMAIN_CONJUGATES = [
        (F(1, 3), F(2, 5), 0.0, 0.4),
        (F(1, 3), F(2, 5), -0.0, 0.4),
        (F(1, 3), F(2, 5), 1e300, 3.3333333333333335e299),
        (F(1, 3), F(2, 5), -1e300, -3.3333333333333335e299),
        (F(1, 3), 0.7, 0.0, 0.7),
        (F(1, 3), 0.7, -0.0, 0.7),
        (F(1, 3), 0.7, 1e300, 3.3333333333333335e299),
        (F(1, 3), 0.7, -1e300, -3.3333333333333335e299),
        (F(-1, 2), F(0), 0.0, -0.0),
        (F(-1, 2), F(0), -0.0, 0.0),
        (F(-1, 2), F(0), 1e300, -5e299),
        (F(-1, 2), F(0), -1e300, 5e299),
    ]

    @pytest.mark.parametrize("slope, intercept, u, value", POINT_DOMAIN_CONJUGATES)
    def test_conjugate_on_a_point_domain(self, slope, intercept, u, value):
        d = legendre_dual(ConcaveFn.affine(slope, intercept))
        assert d.is_degenerate()
        assert conjugate_eval(d, u).hex() == value.hex()

    def test_bidual_on_a_point_domain(self):
        f = ConcaveFn.affine(F(1, 3), F(2, 5))
        assert legendre_bidual(legendre_dual(f)) == f
        # a float intercept has no exact biconjugate
        with pytest.raises(ValueError, match="^exact evaluation needs a rational affine dual piece$"):
            legendre_bidual(legendre_dual(ConcaveFn.affine(F(1, 3), 0.7)))

    def test_conjugate_on_domain_of_one_float(self):
        # slopes 1/3 + 1e-20 and 1/3: the dual domain is a single float
        f = profile_through([F(1, 3) + F(1, 10**20), F(1, 3)], [F(0)])
        d = legendre_dual(f)
        assert float(d.lo) == float(d.hi) and d.lo < d.hi
        for u in (-1.0, 0.0, 1.0):
            assert conjugate_eval(d, u) == pytest.approx(float(f(u)), abs=1e-12)

    def test_singular_bidual_on_grid(self):
        f = singular_ramp(F(1, 4))
        d = legendre_dual(f)
        for u in (-25.0, -5.0, -1.0, 0.0, 2.0):
            assert abs(conjugate_eval(d, u) - f(u)) < 1e-8

    @pytest.mark.parametrize("alpha", [F(241329, 250000), F(999, 1000), F(999999, 10**6)])
    def test_singular_bidual_near_alpha_one(self, alpha):
        # the dual's power term has exponent -alpha/(1-alpha), below -27
        # here, so its derivative overflows a float near the domain's end;
        # f(u) itself cancels terms of size |u|
        f = singular_ramp(alpha)
        d = legendre_dual(f)
        for u in (-1e6, -30.0, -2.0, -0.5, 0.0, 3.0):
            assert abs(conjugate_eval(d, u) - f(u)) <= 1e-12 * max(1.0, abs(u))


class TestMongeAmpere:
    def test_ramp_is_point_mass(self):
        mu = monge_ampere(ramp())
        assert mu.atoms == ((F(0), F(1)),)
        assert mu.densities == ()
        assert mu.total_mass == 1.0

    def test_three_slope_atoms(self):
        mu = monge_ampere(three_slope())
        assert mu.atoms == ((F(0), F(1, 2)), (F(2), F(1, 2)))
        assert mu.total_mass == 1

    def test_singular_ramp_density(self):
        mu = monge_ampere(singular_ramp(F(1, 4)))
        assert mu.atoms == ()  # the junction at 0 is slope-smooth
        (d,) = mu.densities
        assert d.lo is None and d.hi == 0
        assert abs(d.coeff - 0.75) < 1e-15
        assert abs(d.exponent - (-1.75)) < 1e-15
        assert abs(mu.total_mass - 1.0) < 1e-12

    def test_density_mass_near_alpha_one(self):
        # the density coefficient 1 - alpha is about 1e-14; float(alpha) - 2
        # limits the accuracy of the exponent this close to 1
        mu = monge_ampere(singular_ramp(F(10**14 - 1, 10**14)))
        assert abs(mu.total_mass - 1.0) < 1e-3

    def test_mass_equals_slope_drop(self):
        import random

        rng = random.Random(11)
        for _ in range(30):
            f = random_piecewise_affine(
                rng, slope_neg=F(rng.randint(1, 9), 2), slope_pos=F(-rng.randint(0, 4), 3)
            )
            mu = monge_ampere(f)
            assert mu.total_mass == f.slope_neg - f.slope_pos


def float_twin(f, keep_even_slopes=False):
    """f with float coefficients: every slope and intercept, or with
    keep_even_slopes, float intercepts and exact slopes on even pieces."""
    def piece(i, p):
        slope = p.slope if keep_even_slopes and i % 2 == 0 else float(p.slope)
        if isinstance(p, AlphaPiece):
            return AlphaPiece(p.alpha, slope, float(p.intercept))
        return AffinePiece(slope, float(p.intercept))

    return ConcaveFn(f.breakpoints, [piece(i, p) for i, p in enumerate(f.pieces)])


def assert_float_twin(x, exact):
    """x is a float (never a Fraction) within 1e-12 of its rational twin."""
    assert isinstance(x, float), x
    assert x == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


FLOAT_INPUT_PROFILES = {
    "three_slope": three_slope,
    "thirds": lambda: profile_through([F(7, 3), F(1, 3), F(-2, 7)], [F(-1, 3), F(5, 2)], F(1, 10)),
    "singular": lambda: singular_ramp(F(1, 3)).shift(F(1, 10)),
}


class TestFloatInput:
    """JSON numbers arrive as floats: float data stays float through every
    reader of a profile and matches its rational twin."""

    @pytest.mark.parametrize("keep_even_slopes", [False, True], ids=["floats", "mixed"])
    @pytest.mark.parametrize("name", list(FLOAT_INPUT_PROFILES))
    def test_matches_rational_twin(self, name, keep_even_slopes):
        f = FLOAT_INPUT_PROFILES[name]()
        g = float_twin(f, keep_even_slopes)
        df, dg = legendre_dual(f), legendre_dual(g)
        assert len(dg.pieces) == len(df.pieces)
        knots_f = [df.lo, *df.breakpoints, df.hi]
        knots_g = [dg.lo, *dg.breakpoints, dg.hi]
        for a, b in zip(knots_g, knots_f):
            assert float(a) == pytest.approx(float(b), rel=1e-12, abs=1e-12)
        assert_float_twin(dg.integral(), df.integral())
        mids = lambda ks: [(a + b) / 2 for a, b in zip(ks, ks[1:])]
        for mg, mf in zip(knots_g + mids(knots_g), knots_f + mids(knots_f)):
            assert_float_twin(dg.value(mg), df.value(mf))
            with pytest.raises(ValueError, match="exact evaluation"):
                dg.value_exact(mg)
        mu_f, mu_g = monge_ampere(f), monge_ampere(g)
        assert [t for t, _ in mu_g.atoms] == [t for t, _ in mu_f.atoms]
        for (_, a), (_, b) in zip(mu_g.atoms, mu_f.atoms):
            assert_float_twin(a, b)
        assert mu_g.densities == mu_f.densities
        assert_float_twin(mu_g.total_mass, mu_f.total_mass)
        for u in (-3, F(-1, 3), 0, F(1, 2), 2, 5):
            assert g(u) == pytest.approx(f(u), rel=1e-12, abs=1e-12)
            with pytest.raises(ValueError, match="exact evaluation"):
                g.value_exact(u)

    def test_exact_slopes_keep_exact_atoms(self):
        # the slope gaps do not read the intercepts, so they stay exact
        f = FLOAT_INPUT_PROFILES["thirds"]()
        g = ConcaveFn(f.breakpoints, [AffinePiece(p.slope, float(p.intercept)) for p in f.pieces])
        assert monge_ampere(g).atoms == monge_ampere(f).atoms
        assert all(isinstance(m, Fraction) for _, m in monge_ampere(g).atoms)
        assert_float_twin(legendre_dual(g).integral(), legendre_dual(f).integral())


class TestIntegration:
    def test_atom_only_integral(self):
        # ramp - singular_ramp at the origin is -4, against the unit atom
        v = integrate_against((ramp(), singular_ramp(F(1, 4))), monge_ampere(ramp()))
        assert abs(v - (-4.0)) < 1e-12

    def test_density_integral_closed_form(self):
        # integral of -(profile) against the singular curvature: -6 at alpha=1/4
        phi = singular_ramp(F(1, 4))
        v = integrate_against((ramp(), phi), monge_ampere(phi))
        assert abs(v - (-6.0)) < 1e-9

    def test_negative_divergence(self):
        phi = singular_ramp(F(3, 4))
        v = integrate_against((ramp(), phi), monge_ampere(phi))
        assert v == -math.inf

    def test_positive_divergence_raises(self):
        phi = singular_ramp(F(3, 4))
        with pytest.raises(PositiveDivergenceError):
            integrate_against((phi, ramp()), monge_ampere(phi))
        # a unit difference against Lebesgue measure on (-inf, 0]
        lebesgue = Measure1D((), (DensityPiece(None, 0, 1.0, 0.0),))
        pair = (ConcaveFn.affine(0, 1), ConcaveFn.affine(0, 0))
        for method in ("exact", "quad"):
            with pytest.raises(PositiveDivergenceError):
                integrate_against(pair, lebesgue, method=method)
            assert integrate_against(pair[::-1], lebesgue, method=method) == -math.inf
        with pytest.raises(PositiveDivergenceError):
            integrate_measure(lambda u: 1.0, lebesgue)
        assert integrate_measure(lambda u: -1.0, lebesgue) == -math.inf

    def test_quad_agrees_with_exact_on_bounded_density(self):
        box = Measure1D((), (DensityPiece(F(-3), F(-1), 1.0, 0.0),))
        pair = (ramp(), ramp().shift(-2))
        exact = integrate_against(pair, box)
        quadv = integrate_against(pair, box, method="quad")
        assert abs(exact - 4.0) < 1e-12
        assert abs(quadv - exact) < 1e-7

    def test_quad_agrees_on_singular_density(self):
        phi = singular_ramp(F(1, 4))
        pair = (ramp(), phi)
        mu = monge_ampere(phi)
        assert abs(
            integrate_against(pair, mu, method="quad")
            - integrate_against(pair, mu)
        ) < 1e-6


class TestQuadrature:
    """The double-exponential rule against the closed form, and against
    scipy where both are accurate."""

    def test_grid_of_alpha_profiles_matches_closed_form(self):
        # ramp() is the canonical profile min(u, 0)
        misses = []
        for k in range(2, 20):
            for shift in (F(-2), F(-7, 10), F(0), F(1, 2), F(2)):
                phi = singular_ramp(F(k, 20)).shift(shift)
                mu = monge_ampere(phi)
                exact = integrate_against((ramp(), phi), mu, method="exact")
                quad = integrate_against((ramp(), phi), mu, method="quad")
                if exact == -math.inf:
                    ok = quad == -math.inf
                else:
                    ok = abs(quad - exact) <= 1e-6
                if not ok:
                    misses.append((k, shift, exact, quad))
        assert misses == []

    def test_integrate_measure_matches_scipy(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        fns = [
            lambda u: 1.0,
            lambda u: math.exp(-abs(u)),
            lambda u: 1.0 / (1.0 + u * u),
        ]
        psi = ramp()
        measures = [monge_ampere(singular_ramp(F(k, 8))) for k in (1, 2, 3, 5)]
        # scipy's one adaptive call misses mass on wider cutoff pieces (n = 100)
        measures += [monge_ampere(cutoff(singular_ramp(a), psi, 10)) for a in (F(1, 8), F(1, 4))]
        for mu in measures:
            for fn in fns:
                ref = sum(float(m) * fn(float(at)) for at, m in mu.atoms)
                for piece in mu.densities:
                    lo = -math.inf if piece.lo is None else float(piece.lo)
                    val, _ = scipy_integrate.quad(
                        lambda u: fn(u) * piece.density(u), lo, float(piece.hi),
                        epsabs=1e-12, epsrel=1e-12, limit=400,
                    )
                    ref += val
                assert abs(integrate_measure(fn, mu) - ref) < 1e-8


@st.composite
def energy_profiles(draw) -> ConcaveFn:
    """Affine profiles with outer slopes drawn from a few (the slopes of
    the divisor 0[0] + 1[inf] among them), alpha profiles with an alpha
    head or an affine one, each shifted by a drawn constant."""
    kind = draw(st.sampled_from(["affine", "alpha", "affine head"]))
    if kind == "alpha":
        f = draw(alpha_profiles())
    elif kind == "affine head":
        f = draw(affine_head_alpha_profiles())
    else:
        top = draw(st.sampled_from([F(1), F(2), F(1, 2)]))
        bottom = draw(st.sampled_from([F(0), F(-1), F(1, 3)]))
        inner = draw(st.lists(st.fractions(bottom, top, max_denominator=6), max_size=2))
        slopes = [top, *sorted({s for s in inner if bottom < s < top}, reverse=True), bottom]
        bps = draw(
            st.lists(
                st.fractions(-4, 4, max_denominator=4),
                min_size=len(slopes) - 1,
                max_size=len(slopes) - 1,
                unique=True,
            )
        )
        f = profile_through(slopes, sorted(bps), draw(st.fractions(-2, 2, max_denominator=3)))
    return f.shift(draw(st.sampled_from([F(0), F(1, 2), F(-3)])))


def closed_form_energy(alpha: float) -> float:
    if alpha >= 0.5:
        return -math.inf
    return (2 - 3 * alpha) / (alpha * (2 * alpha - 1))


class TestLocalEnergy:
    def test_alpha_family_closed_form(self):
        for alpha, expected in ((F(1, 10), -21.25), (F(1, 4), -10.0), (F(2, 5), -10.0)):
            e = local_energy(ramp(), singular_ramp(alpha))
            assert abs(e - expected) < 1e-9
            assert abs(e - closed_form_energy(float(alpha))) < 1e-9

    def test_divergent_alphas(self):
        assert local_energy(ramp(), singular_ramp(F(1, 2))) == -math.inf
        assert local_energy(ramp(), singular_ramp(F(3, 4))) == -math.inf

    def test_precondition_violation(self):
        with pytest.raises(ValueError, match="bounded above"):
            local_energy(singular_ramp(F(1, 4)), ramp())

    def test_energy_between_two_singular_ramps(self):
        # E(ramp, phi) is additive along ramp -> psi -> phi, so the energy
        # of the alpha = 1/3 ramp relative to the alpha = 1/4 one is -9 - (-10)
        psi, phi = singular_ramp(F(1, 4)), singular_ramp(F(1, 3))
        e = local_energy(psi, phi)
        assert abs(e - (closed_form_energy(1 / 3) - closed_form_energy(1 / 4))) < 1e-12
        quad = integrate_against((psi, phi), monge_ampere(phi), method="quad") + (
            integrate_against((psi, phi), monge_ampere(psi), method="quad")
        )
        assert abs(e - quad) < 1e-9

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_refuses_exactly_what_bounded_above_refuses(self, data):
        # the precondition is read off the first pieces' difference that
        # the integrals reuse; it must stay the rule of bounded_above
        psi, phi = data.draw(energy_profiles()), data.draw(energy_profiles())
        try:
            local_energy(psi, phi)
        except ValueError as exc:
            refused = exc
        else:
            refused = None
        if bounded_above(psi, phi):
            assert refused is None
        else:
            assert type(refused) is ValueError
            assert str(refused) == (
                "psi - phi must be bounded above (phi at least as singular as psi)"
            )

    def test_self_energy_zero(self):
        assert local_energy(ramp(), ramp()) == 0
        assert abs(local_energy(three_slope(), three_slope())) < 1e-12

    def test_constant_shift_adds_twice_mass(self):
        # total curvature mass of the ramp pair is 1 + 1
        for c in (F(1, 2), 3, F(-7, 5)):
            e = local_energy(ramp(), ramp().shift(-c))
            assert abs(e - 2 * float(c)) < 1e-12

    def test_antitone_in_second_argument(self):
        assert local_energy(ramp(), ramp().shift(-3)) > local_energy(
            ramp(), ramp().shift(-1)
        )

    def test_transitivity_hand_example(self):
        psi, mid, phi = ramp(), three_slope(), ramp().shift(-3)
        e_direct = local_energy(psi, phi)
        e_via = local_energy(psi, mid) + local_energy(mid, phi)
        assert abs(e_direct - 6.0) < 1e-12
        assert abs(local_energy(psi, mid) - (-0.5)) < 1e-12
        assert abs(local_energy(mid, phi) - 6.5) < 1e-12
        assert abs(e_direct - e_via) < 1e-12

    def test_transitivity_random(self):
        import random

        rng = random.Random(23)
        for _ in range(20):
            f1 = random_piecewise_affine(rng)
            f2 = random_piecewise_affine(rng)
            f3 = random_piecewise_affine(rng)
            lhs = local_energy(f1, f3)
            rhs = local_energy(f1, f2) + local_energy(f2, f3)
            assert abs(lhs - rhs) < 1e-9

    def test_mixed_reduces_to_plain(self):
        psi, phi = ramp(), singular_ramp(F(1, 4))
        assert abs(
            mixed_local_energy(psi, psi, phi, phi) - local_energy(psi, phi)
        ) < 1e-12

    def test_mixed_swap_symmetry_bounded(self):
        import random

        rng = random.Random(31)
        for _ in range(15):
            psi0 = random_piecewise_affine(rng)
            psi1 = random_piecewise_affine(rng)
            phi0 = random_piecewise_affine(rng)
            phi1 = random_piecewise_affine(rng)
            a = mixed_local_energy(psi0, psi1, phi0, phi1)
            b = mixed_local_energy(psi1, psi0, phi1, phi0)
            assert abs(a - b) < 1e-7

    def test_integration_by_parts_identity(self):
        import random

        rng = random.Random(47)
        for _ in range(15):
            psi0 = random_piecewise_affine(rng)
            phi0 = random_piecewise_affine(rng)
            psi1 = random_piecewise_affine(rng)
            phi1 = random_piecewise_affine(rng)
            lhs = integrate_against((psi0, phi0), monge_ampere(phi1)) - (
                integrate_against((psi0, phi0), monge_ampere(psi1))
            )
            rhs = integrate_against((psi1, phi1), monge_ampere(phi0)) - (
                integrate_against((psi1, phi1), monge_ampere(psi0))
            )
            assert abs(lhs - rhs) < 1e-7


class TestCutoffContinuity:
    def test_energy_of_truncations_descends_to_limit(self):
        alpha = F(1, 4)
        psi, phi = ramp(), singular_ramp(alpha)
        limit = local_energy(psi, phi)
        values = [local_energy(psi, cutoff(phi, psi, n)) for n in (10, 100, 1000)]
        assert all(v >= limit for v in values)
        assert values[0] >= values[1] >= values[2]
        assert abs(values[-1] - limit) < 1e-3
        # frozen from the closed form at n = 1000: atom (n*alpha)**((alpha-1)/alpha)
        assert abs(values[-1] - (-9.999968)) < 1e-4

    def test_truncated_curvature_converges_weakly(self):
        alpha = F(1, 4)
        psi, phi = ramp(), singular_ramp(alpha)
        mu_seq = [monge_ampere(cutoff(phi, psi, n)) for n in (10, 100, 1000)]
        mu = monge_ampere(phi)
        fns = [
            lambda u: 1.0,
            lambda u: math.exp(-abs(u)),
            lambda u: 1.0 / (1.0 + u * u),
        ]
        report = weak_convergence_check(mu_seq, mu, fns)
        assert report.weak_pass
        assert all(g[-1] < 1e-3 for g in report.fn_gaps)
        assert all(g < 1e-6 for g in report.mass_gaps)


class TestIntegrateMeasure:
    def test_atom_plus_density(self):
        mu = monge_ampere(singular_ramp(F(1, 4)))
        v = integrate_measure(lambda u: 1.0, mu)
        assert abs(v - 1.0) < 1e-6

    def test_point_mass(self):
        v = integrate_measure(lambda u: u * u + 1.0, monge_ampere(ramp()))
        assert v == 1.0
