"""Each library refusal that no other test reaches, with its whole message:
one row per raise, as SCHEMA_ERRORS in test_cli is for the decoders."""

from fractions import Fraction as F

import pytest

from adelic_heights.adelic_curve import (
    AdelicFamily,
    Place,
    ToricCompactifiedDivisor,
    log_abs,
    point_height_exact,
    twist,
)
from adelic_heights.convex_calculus import (
    AffinePiece,
    AlphaPiece,
    ConcaveFn,
    DualFn,
    DualPiece,
    PositiveDivergenceError,
    dual_sup_distance,
    integrate_against,
    legendre_bidual,
    legendre_dual,
    monge_ampere,
)
from adelic_heights.convex_calculus.duality import PowerTerm, sum_duals
from adelic_heights.divisorial_core import (
    AdmissibilityError,
    Cell,
    CompletionElement,
    Constraint,
    DivisorialSpace,
    IntersectionMap,
    RationalVector,
    SemilinearCone,
    completion_distance,
    d_b,
    extend_intersection,
)

V = RationalVector


def quadrant() -> SemilinearCone:
    return SemilinearCone.from_halfspaces(((1, 0), (0, 1)), 2)


def plane() -> DivisorialSpace:
    return DivisorialSpace(2, quadrant())


PLANE = plane()
GAUGE = V([1, 1])
POINT = CompletionElement.constant(PLANE, GAUGE, V([0, 0]))
PAIRING = IntersectionMap(PLANE, 2, {(0, 1): 1})
RAMP = ConcaveFn([0], [AffinePiece(1, 0), AffinePiece(0, 0)])
HYPERPLANE = ToricCompactifiedDivisor(0, 1)


def power_dual(coeff, exponent, center) -> DualFn:
    """The dual coeff*(center - m)**exponent on [0, 1]."""
    return DualFn(0, 1, [], [DualPiece(0, 0, (PowerTerm(coeff, exponent, center),))])


def alpha_ramp() -> ConcaveFn:
    return ConcaveFn([0], [AlphaPiece(F(1, 4), 1, 0), AffinePiece(0, 4)])


# name: (the call, the exception class, its whole message)
REFUSALS = {
    # divisorial_core: completion points
    "completion-gauge-outside-the-cone": (
        lambda: CompletionElement(PLANE, V([-1, 0]), lambda n: V([0, 0]), lambda eps: 0),
        ValueError,
        "gauge b must lie in the order cone",
    ),
    "completion-distance-eps": (
        lambda: completion_distance(POINT, POINT, 0),
        ValueError,
        "eps must be positive",
    ),
    "completion-distance-spaces": (
        lambda: completion_distance(POINT, CompletionElement.constant(plane(), GAUGE, V([0, 0])), 1),
        ValueError,
        "completion points live over different spaces",
    ),
    "completion-distance-gauges": (
        lambda: completion_distance(POINT, CompletionElement.constant(PLANE, V([1, 2]), V([0, 0])), 1),
        ValueError,
        "completion points use different gauges",
    ),
    # cones and spaces
    "cone-row-dimension": (
        lambda: SemilinearCone.from_halfspaces(((1, 0, 0),), 2),
        ValueError,
        "constraint row has wrong dimension",
    ),
    "cone-generator-not-a-member": (
        lambda: SemilinearCone([Cell((Constraint((1, 0)),))], 2, generators=[V([-1, 0])]),
        ValueError,
        "declared generator RationalVector(-1, 0) is not a member",
    ),
    "cone-contains-dimension": (
        lambda: quadrant().contains(V([1])),
        ValueError,
        "dimension mismatch",
    ),
    "cone-from-generators-dimension-3": (
        lambda: SemilinearCone.from_generators([V([1, 0, 0])], 3),
        NotImplementedError,
        "from_generators is implemented only in dimension <= 2; "
        "supply half-space rows directly in higher dimensions",
    ),
    "space-cone-dimension": (
        lambda: DivisorialSpace(3, quadrant()),
        ValueError,
        "cone dimension does not match the space",
    ),
    "d_b-dimension": (
        lambda: d_b(PLANE, GAUGE, V([1]), V([0, 0])),
        ValueError,
        "dimension mismatch",
    ),
    "vector-dimension": (
        lambda: V([1]) + V([1, 2]),
        ValueError,
        "dimension mismatch",
    ),
    # pairings
    "pairing-key-length": (
        lambda: IntersectionMap(PLANE, 2, {(0,): 1}),
        ValueError,
        "table key has wrong length",
    ),
    "pairing-key-range": (
        lambda: IntersectionMap(PLANE, 2, {(0, 2): 1}),
        ValueError,
        "table key index out of range",
    ),
    "pairing-key-conflict": (
        lambda: IntersectionMap(PLANE, 2, {(0, 1): 1, (1, 0): 2}),
        ValueError,
        "conflicting values for symmetric key (0, 1)",
    ),
    "pairing-argument-count": (
        lambda: PAIRING(V([1, 0])),
        ValueError,
        "expected 2 arguments",
    ),
    "pairing-argument-dimension": (
        lambda: PAIRING(V([1]), V([1])),
        ValueError,
        "argument dimension mismatch",
    ),
    "extend-eps": (
        lambda: extend_intersection(PAIRING, [POINT, POINT], 0, GAUGE),
        ValueError,
        "eps must be positive",
    ),
    "extend-argument-count": (
        lambda: extend_intersection(PAIRING, [POINT], 1, GAUGE),
        ValueError,
        "expected 2 completion arguments",
    ),
    "extend-gauges": (
        lambda: extend_intersection(
            PAIRING, [POINT, CompletionElement.constant(PLANE, V([1, 2]), V([0, 0]))], 1, GAUGE
        ),
        AdmissibilityError,
        "completion arguments use different gauges",
    ),
    "extend-b_tilde-not-nef": (
        lambda: extend_intersection(PAIRING, [POINT, POINT], 1, V([-1, 0])),
        AdmissibilityError,
        "comparison gauge b_tilde must be nef",
    ),
    # adelic_curve
    "family-key-not-a-place": (
        lambda: AdelicFamily(HYPERPLANE, {2: RAMP.shift(-1)}),
        TypeError,
        "exception keys must be places",
    ),
    "twist-key-not-a-place": (
        lambda: twist(AdelicFamily(HYPERPLANE), {2: 1}),
        TypeError,
        "twist keys must be places",
    ),
    "exact-point-height-at-zero": (
        lambda: point_height_exact(AdelicFamily(HYPERPLANE), 0),
        ValueError,
        "0 lies on the boundary; use boundary_height",
    ),
    "log-abs-of-zero": (
        lambda: log_abs(0, Place.prime(2)),
        ValueError,
        "log|0| is undefined",
    ),
    # convex_calculus: duals
    "sum-duals-domains": (
        lambda: sum_duals([legendre_dual(RAMP), legendre_dual(ConcaveFn.affine(1))]),
        ValueError,
        "dual functions live on different slope intervals",
    ),
    "sup-distance-domains": (
        lambda: dual_sup_distance(legendre_dual(RAMP), legendre_dual(ConcaveFn.affine(1))),
        ValueError,
        "dual functions live on different slope intervals",
    ),
    "sup-distance-power-term": (
        lambda: dual_sup_distance(legendre_dual(alpha_ramp()), legendre_dual(RAMP)),
        ValueError,
        "sup distance implemented for piecewise-affine duals",
    ),
    "bidual-power-term": (
        lambda: legendre_bidual(legendre_dual(alpha_ramp())),
        ValueError,
        "exact biconjugation needs a piecewise-affine dual",
    ),
    "dual-integral-singular-inside": (
        lambda: power_dual(-1.0, -0.5, F(1, 2)).integral(),
        ValueError,
        "power term singular inside the integration range",
    ),
    "dual-integral-positive-at-the-centre": (
        lambda: power_dual(1.0, -2.0, 1).integral(),
        PositiveDivergenceError,
        "dual integral diverges to +infinity",
    ),
    # profiles and measures
    "integrate-method": (
        lambda: integrate_against((RAMP, RAMP), monge_ampere(RAMP), method="simpson"),
        ValueError,
        "unknown method 'simpson'",
    ),
    "profile-piece-count": (
        lambda: ConcaveFn([0], [AffinePiece(1, 0)]),
        ValueError,
        "need exactly one more piece than breakpoints",
    ),
    "profile-breakpoint-order": (
        lambda: ConcaveFn([1, 0], [AffinePiece(1, 0), AffinePiece(F(1, 2), 0), AffinePiece(0, 0)]),
        ValueError,
        "breakpoints must be strictly increasing",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_raises_its_class_with_its_message(case):
    call, cls, message = REFUSALS[case]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls and str(info.value) == message
