"""Shared test helpers: continuous piecewise-affine profiles, and
hypothesis strategies for profiles whose slopes nearly collide, for
alpha-singular profiles with affine tails, and for profiles with an alpha
piece after the first."""

from fractions import Fraction as F

from hypothesis import strategies as st

from adelic_heights.convex_calculus.functions import (
    AffinePiece,
    AlphaPiece,
    ConcaveFn,
    cutoff,
    min_concave,
)


def profile_through(slopes, bps, c0=F(0)) -> ConcaveFn:
    """Continuous piecewise-affine profile with the given slopes and kinks."""
    pieces = [AffinePiece(slopes[0], c0)]
    for s, t in zip(slopes[1:], bps):
        prev = pieces[-1]
        pieces.append(AffinePiece(s, prev.slope * t + prev.intercept - s * t))
    return ConcaveFn(bps, pieces)


@st.composite
def near_colliding_profiles(draw, anchors, max_inner) -> ConcaveFn:
    """Concave profiles with slopes 1, ..., 0 whose inner slopes lie within
    1e-20 to 1e-1 of one of the anchors, so that gaps between neighbouring
    slopes (and dual breakpoints across places) can vanish in floating point."""
    near_slopes = st.builds(
        lambda base, k, sign: base + sign * F(1, 10**k),
        st.sampled_from(anchors),
        st.integers(1, 20),
        st.sampled_from([-1, 0, 1]),
    )
    inner = sorted(
        set(draw(st.lists(near_slopes, min_size=1, max_size=max_inner))), reverse=True
    )
    bps = draw(
        st.lists(
            st.fractions(-6, 6, max_denominator=12),
            min_size=len(inner) + 1,
            max_size=len(inner) + 1,
            unique=True,
        )
    )
    c0 = draw(st.fractions(-3, 3, max_denominator=5))
    return profile_through([F(1), *inner, F(0)], sorted(bps), c0)


@st.composite
def alpha_profiles(draw) -> ConcaveFn:
    """Profiles for the divisor 0[0] + 1[inf]: an alpha piece of slope 1 up
    to a kink t0 <= 0, then affine pieces with rational slopes falling to 0.
    The affine intercepts are floats (they continue the alpha piece), so
    the dual has float breakpoints, float intercepts and a power term."""
    alpha = F(draw(st.integers(1, 19)), 20)
    head = AlphaPiece(alpha, 1, draw(st.fractions(-3, 3, max_denominator=5)))
    t0 = -draw(st.fractions(0, 8, max_denominator=6))
    top = head.derivative(t0)
    slopes = sorted(
        {s for s in draw(st.lists(st.fractions(0, 1, max_denominator=20), max_size=3)) if 0 < s < top},
        reverse=True,
    ) + [F(0)]
    steps = draw(
        st.lists(st.fractions(1, 4, max_denominator=4), min_size=len(slopes) - 1, max_size=len(slopes) - 1)
    )
    bps = [t0]
    for step in steps:
        bps.append(bps[-1] + step)
    pieces = [head, AffinePiece(slopes[0], head.value(t0) - slopes[0] * t0)]
    for s, t in zip(slopes[1:], bps[1:]):
        prev = pieces[-1]
        pieces.append(AffinePiece(s, prev.slope * t + prev.intercept - s * t))
    return ConcaveFn(bps, pieces)


def singular_ramp(alpha, c=F(0)) -> ConcaveFn:
    """min(u, 0) + (1/alpha)*(1-u)**alpha on u <= 0, shifted up by c."""
    return ConcaveFn([0], [AlphaPiece(alpha, 1, c), AffinePiece(0, c + 1 / alpha)])


@st.composite
def affine_head_alpha_profiles(draw) -> ConcaveFn:
    """Profiles for the divisor 0[0] + 1[inf] whose alpha piece is not the
    first. Either a cutoff min(min(u, 0) + n, singular ramp), whose affine
    head meets a bounded alpha piece, or the minimum of two singular ramps
    that cross left of 0, an alpha piece after an alpha head."""
    c = draw(st.fractions(-3, 3, max_denominator=5))
    alphas = draw(st.lists(st.integers(1, 19), min_size=2, max_size=2, unique=True))
    a1, a2 = sorted(F(k, 20) for k in alphas)
    if draw(st.booleans()):
        # the ramp stays below the singular ramp toward -inf, and above it
        # at 0 when n exceeds the singular ramp's value there
        n = c + 1 / a1 + draw(st.fractions(F(1, 8), 60, max_denominator=8))
        return cutoff(singular_ramp(a1, c), ConcaveFn([0], [AffinePiece(1, 0), AffinePiece(0, 0)]), n)
    # the ramp of the larger alpha grows faster toward -inf; started below
    # the other at 0, it crosses it left of 0
    below = draw(st.fractions(F(1, 10), 5, max_denominator=10))
    return min_concave(singular_ramp(a1, c), singular_ramp(a2, c + 1 / a1 - 1 / a2 - below))
