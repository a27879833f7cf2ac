"""Shared test helpers: continuous piecewise-affine profiles, and a
hypothesis strategy for profiles whose slopes nearly collide."""

from fractions import Fraction as F

from hypothesis import strategies as st

from adelic_heights.convex_calculus.functions import AffinePiece, ConcaveFn


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
