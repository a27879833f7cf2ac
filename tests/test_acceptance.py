"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Each test aggregates its sub-checks, prints a single summary line, and
asserts the aggregate so a failure is visible both in the log line and in
the pytest report.
"""

import math
import random
import time
from fractions import Fraction as F

from adelic_heights.adelic_curve import (
    AdelicFamily,
    Place,
    ToricCompactifiedDivisor,
    boundary_height,
    extended_height,
    global_height,
    log_abs,
    nef_status,
    point_height_exact,
    product_formula_check,
    roof,
)
from adelic_heights.cli import alpha_profile
from adelic_heights.convex_calculus.duality import (
    conjugate_eval,
    dual_sup_distance,
    legendre_bidual,
    legendre_dual,
)
from adelic_heights.convex_calculus.energy import local_energy, mixed_local_energy
from adelic_heights.convex_calculus.functions import (
    AffinePiece,
    ConcaveFn,
    cutoff,
    sup_distance,
)
from adelic_heights.convex_calculus.measures import (
    integrate_against,
    monge_ampere,
    weak_convergence_check,
)
from adelic_heights.divisorial_core import (
    Cell,
    CompletionElement,
    Constraint,
    DivisorialSpace,
    IntersectionMap,
    RationalVector,
    SemilinearCone,
    d_b,
    extend_intersection,
)

V = RationalVector


def check(name: str, condition: bool, detail: str = "") -> None:
    line = f"{'PASS' if condition else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert condition, f"{name}: {detail}"


def hyperplane_divisor() -> ToricCompactifiedDivisor:
    return ToricCompactifiedDivisor(0, 1)


def canonical_family() -> AdelicFamily:
    return AdelicFamily(hyperplane_divisor())


def alpha_family(alpha: F) -> AdelicFamily:
    return AdelicFamily(hyperplane_divisor(), {Place.infinity(): alpha_profile(alpha)})


def random_concave(rng, slope_neg=F(1), slope_pos=F(0), kinks=2) -> ConcaveFn:
    """Concave piecewise-affine with the given outer slopes."""
    inner = sorted(
        {F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(kinks)},
        reverse=True,
    )
    slopes = [slope_neg] + [s for s in inner if slope_pos < s < slope_neg] + [slope_pos]
    bps = sorted(
        {F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(len(slopes) - 1)}
    )
    while len(bps) < len(slopes) - 1:
        bps.append((bps[-1] if bps else F(0)) + 1)
    bps = bps[: len(slopes) - 1]
    c = F(rng.randint(-5, 5))
    pieces = [AffinePiece(slopes[0], c)]
    for s_prev, s_next, t in zip(slopes, slopes[1:], bps):
        c = c + (s_prev - s_next) * t
        pieces.append(AffinePiece(s_next, c))
    return ConcaveFn(bps, pieces)


CLOSED_FORMS = {F(1, 10): -21.25, F(1, 4): -10.0, F(2, 5): -10.0}


def test_criterion_01_worked_heights():
    errors = []
    max_time = 0.0
    reference = canonical_family()
    for alpha, expected in CLOSED_FORMS.items():
        start = time.perf_counter()
        fam = alpha_family(alpha)
        roof_route = global_height(fam)
        energy_route = extended_height(reference, fam)
        max_time = max(max_time, time.perf_counter() - start)
        errors.append(abs(float(roof_route) - expected))
        errors.append(abs(float(energy_route) - expected))
    divergent_ok = True
    for alpha in (F(1, 2), F(3, 4)):
        start = time.perf_counter()
        fam = alpha_family(alpha)
        divergent_ok &= global_height(fam) == -math.inf
        divergent_ok &= extended_height(reference, fam) == -math.inf
        max_time = max(max_time, time.perf_counter() - start)
    check(
        "criterion 1: worked heights, both routes",
        max(errors) <= 1e-6 and divergent_ok and max_time < 1.0,
        f"max deviation {max(errors):.2e}, slowest case {max_time:.3f}s",
    )


def test_criterion_02_canonical_suite():
    fam = canonical_family()
    theta = roof(fam)
    roof_zero = all(
        theta.value(m) == 0 and isinstance(theta.value(m), F)
        for m in (F(0), F(1, 3), F(1, 2), F(7, 8), F(1))
    )
    height = global_height(fam)
    status = nef_status(fam)
    ok = (
        roof_zero
        and isinstance(height, F)
        and height == 0
        and status.status == "S_nef_only"
        and status.mu_min_asy == 0
        and boundary_height(fam, "zero") == 0
        and boundary_height(fam, "infinity") == 0
    )
    check(
        "criterion 2: canonical suite exact",
        ok,
        "roof = 0, height = 0, S_nef_only, boundary heights 0, all exact",
    )


def test_criterion_03_product_formula():
    rng = random.Random(101)
    qs = [
        F(rng.randint(1, 10**12) * rng.choice((1, -1)), rng.randint(1, 10**12))
        for _ in range(1000)
    ]
    start = time.perf_counter()
    all_zero = all(product_formula_check(q).is_zero() for q in qs)
    elapsed = time.perf_counter() - start
    check(
        "criterion 3: product formula exact on 1000 rationals",
        all_zero and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_04_weil_oracle():
    rng = random.Random(103)
    fam = canonical_family()
    agree = True
    for _ in range(200):
        t = F(rng.randint(1, 10**9) * rng.choice((1, -1)), rng.randint(1, 10**9))
        expected = log_abs(max(abs(t.numerator), t.denominator), Place.infinity())
        agree &= point_height_exact(fam, t) == expected
    check(
        "criterion 4: Weil height oracle, exact symbolic",
        agree,
        "200 random rationals",
    )


def test_criterion_05_fenchel_isometry():
    rng = random.Random(107)
    worst = 0.0
    for _ in range(100):
        f = random_concave(rng, kinks=rng.randint(1, 3))
        g = random_concave(rng, kinks=rng.randint(1, 3))
        lhs = dual_sup_distance(legendre_dual(f), legendre_dual(g))
        rhs = sup_distance(f, g)
        worst = max(worst, abs(lhs - rhs))
    check(
        "criterion 5: conjugation is a sup-norm isometry",
        worst <= 1e-8,
        f"worst gap {worst:.2e} over 100 pairs",
    )


def test_criterion_06_biduality():
    rng = random.Random(109)
    exact = True
    for _ in range(100):
        f = random_concave(rng, kinks=rng.randint(0, 3))
        exact &= legendre_bidual(legendre_dual(f)) == f
    grid_worst = 0.0
    for alpha in (F(1, 5), F(1, 4), F(1, 3), F(2, 5)):
        psi = alpha_profile(alpha)
        dual = legendre_dual(psi)
        for u in (-30.0, -10.0, -5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
            grid_worst = max(grid_worst, abs(conjugate_eval(dual, u) - psi(u)))
    check(
        "criterion 6: biduality",
        exact and grid_worst <= 1e-8,
        f"100 exact round trips, singular grid gap {grid_worst:.2e}",
    )


def test_criterion_07_ma_mass_conservation():
    rng = random.Random(113)
    worst = 0.0
    for i in range(100):
        if i % 10 == 3:
            fn = alpha_profile(F(rng.randint(1, 9), 10))
        else:
            s_neg = F(rng.randint(1, 8), rng.randint(1, 4))
            s_pos = s_neg - F(rng.randint(1, 8), rng.randint(1, 3))
            fn = random_concave(rng, s_neg, s_pos, kinks=rng.randint(0, 3))
        mass = monge_ampere(fn).total_mass
        worst = max(worst, abs(mass - float(fn.slope_neg - fn.slope_pos)))
    check(
        "criterion 7: curvature mass equals slope drop",
        worst <= 1e-10,
        f"worst gap {worst:.2e} over 100 functions",
    )


def test_criterion_08_energy_axioms():
    rng = random.Random(127)
    swap_worst = 0.0
    for _ in range(20):
        psi0, psi1 = random_concave(rng), random_concave(rng)
        phi0, phi1 = random_concave(rng), random_concave(rng)
        swap_worst = max(
            swap_worst,
            abs(
                mixed_local_energy(psi0, psi1, phi0, phi1)
                - mixed_local_energy(psi1, psi0, phi1, phi0)
            ),
        )
    shift_worst = 0.0
    for _ in range(10):
        psi, phi = random_concave(rng), random_concave(rng)
        c = F(rng.randint(1, 9), rng.randint(1, 4))
        shift_worst = max(
            shift_worst,
            abs(
                local_energy(psi, phi.shift(-c))
                - local_energy(psi, phi)
                - 2 * float(c)
            ),
        )
    rng2 = random.Random(131)
    monotone_ok = True
    transitive_worst = 0.0
    for _ in range(50):
        f1, f2, f3 = (random_concave(rng2) for _ in range(3))
        c = F(rng2.randint(1, 5))
        # lowering the second argument can only grow the energy
        monotone_ok &= local_energy(f1, f2.shift(-c)) >= local_energy(f1, f2) - 1e-9
        transitive_worst = max(
            transitive_worst,
            abs(local_energy(f1, f3) - local_energy(f1, f2) - local_energy(f2, f3)),
        )
    psi, phi = canonical_family().canonical, alpha_profile(F(1, 4))
    limit = local_energy(psi, phi)
    truncated = [local_energy(psi, cutoff(phi, psi, n)) for n in (10, 100, 1000)]
    cutoff_ok = (
        truncated[0] >= truncated[1] >= truncated[2] >= limit
        and truncated[-1] - limit < 1e-3
    )
    check(
        "criterion 8: energy axioms",
        swap_worst <= 1e-7
        and shift_worst <= 1e-9
        and monotone_ok
        and transitive_worst <= 1e-6
        and cutoff_ok,
        f"swap {swap_worst:.2e}, shift {shift_worst:.2e}, "
        f"transitivity {transitive_worst:.2e}, cutoff gap "
        f"{truncated[-1] - limit:.2e}",
    )


def test_criterion_09_integration_by_parts():
    rng = random.Random(137)
    worst = 0.0
    for _ in range(50):
        psi0, phi0 = random_concave(rng), random_concave(rng)
        psi1, phi1 = random_concave(rng), random_concave(rng)
        lhs = integrate_against((psi0, phi0), monge_ampere(phi1)) - integrate_against(
            (psi0, phi0), monge_ampere(psi1)
        )
        rhs = integrate_against((psi1, phi1), monge_ampere(phi0)) - integrate_against(
            (psi1, phi1), monge_ampere(psi0)
        )
        worst = max(worst, abs(lhs - rhs))
    check(
        "criterion 9: integration by parts",
        worst <= 1e-7,
        f"worst gap {worst:.2e} over 50 pairs",
    )


def test_criterion_10_appendix_harness():
    psi, phi = canonical_family().canonical, alpha_profile(F(1, 4))
    mu_seq = [monge_ampere(cutoff(phi, psi, n)) for n in (10, 100, 1000)]
    mu = monge_ampere(phi)
    fns = [
        lambda u: 1.0,
        lambda u: math.exp(-abs(u)),
        lambda u: 1.0 / (1.0 + u * u),
    ]
    report = weak_convergence_check(mu_seq, mu, fns)
    final_gaps = [gaps[-1] for gaps in report.fn_gaps]
    check(
        "criterion 10: truncated curvature converges weakly",
        report.weak_pass
        and all(g < 1e-3 for g in final_gaps)
        and all(g < 1e-6 for g in report.mass_gaps),
        f"final test-fn gaps {max(final_gaps):.2e}, "
        f"mass drift {max(report.mass_gaps):.2e}",
    )


def _half_open_cone() -> SemilinearCone:
    open_half = Cell((Constraint((1, 0), strict=True),))
    boundary = Cell((Constraint((1, 0)), Constraint((-1, 0)), Constraint((0, 1))))
    return SemilinearCone([open_half, boundary], 2)


def _witness_in_closure(cone: SemilinearCone, x: V, y: V) -> bool:
    return all(cone.contains(x + y * F(1, n)) for n in (10, 10**3, 10**6))


def test_criterion_11_core_examples():
    # degenerate direction in the pathological order
    half_open = _half_open_cone()
    degenerate_space = DivisorialSpace(2, half_open)
    degenerate = d_b(degenerate_space, V([1, 0]), V([0, 1]), V([0, 0]))

    # capped Chebyshev distance in the standard order
    quadrant = SemilinearCone.from_halfspaces(((1, 0), (0, 1)), 2)
    space = DivisorialSpace(2, quadrant)
    gauge = V([1, 1])
    rng = random.Random(139)
    chebyshev_ok = True
    for _ in range(100):
        x = V([F(rng.randint(-60, 60), 12), F(rng.randint(-60, 60), 12)])
        y = V([F(rng.randint(-60, 60), 12), F(rng.randint(-60, 60), 12)])
        expected = min(
            F(1), max(abs(x.coords[0] - y.coords[0]), abs(x.coords[1] - y.coords[1]))
        )
        chebyshev_ok &= d_b(space, gauge, x, y) == expected

    # closure decisions against the small-perturbation witness
    rng2 = random.Random(149)
    cones = []
    for _ in range(17):
        gens = []
        while len(gens) < rng2.randint(2, 4):
            v = V([rng2.randint(-4, 4), rng2.randint(-4, 4)])
            if not v.is_zero():
                gens.append(v)
        cone = SemilinearCone.from_generators(gens, 2)
        inward = gens[0]
        for g in gens[1:]:
            inward = inward + g
        cones.append((cone, gens, inward))
    interior = V([1, 0])
    for _ in range(3):
        cones.append((half_open, [interior, V([0, 1])], interior))
    closure_ok = True
    for cone, gens, inward in cones:
        probes = list(gens) + [inward, V([0, -1]), V([-1, 0]), V([-3, 2]), V([2, -3])]
        for x in probes:
            closure_ok &= cone.closure().contains(x) == _witness_in_closure(
                cone, x, inward
            )
            if cone.contains(x):
                closure_ok &= cone.closure().contains(x)

    # bilinear pairing extended to completion points
    pairing = IntersectionMap(space, 2, {(0, 1): 1})
    modulus = lambda e: int(1 / F(e)) + 1  # noqa: E731
    x_el = CompletionElement(space, gauge, lambda n: V([1, F(1, n + 1)]), modulus)
    y_el = CompletionElement(space, gauge, lambda n: V([F(1, n + 1), 1]), modulus)
    value = extend_intersection(pairing, [x_el, y_el], F(1, 10**6), gauge)

    check(
        "criterion 11: order metric, closure, extension",
        degenerate == 0
        and chebyshev_ok
        and closure_ok
        and abs(value - 1) <= 1e-6,
        f"degenerate d = {degenerate}, extension value {float(value):.9f}",
    )
