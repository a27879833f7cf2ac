"""The in-process workloads: many_places, singular_energy and exact_arith.

Each operation calls the package's public functions on generated inputs;
spans wrap those calls from the outside, named after the per-layer metric
they feed. Checks recompute every answer by an independent route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from adelic_heights.adelic_curve import (
    AdelicFamily,
    Place,
    ToricCompactifiedDivisor,
    boundary_height,
    extended_height,
    global_height,
    nef_status,
    point_height_exact,
    product_formula_check,
    roof,
)
from adelic_heights.convex_calculus import (
    AffinePiece,
    AlphaPiece,
    ConcaveFn,
    integrate_against,
    legendre_dual,
    local_energy,
    monge_ampere,
    sup_distance,
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

import gen
from harness import Workload, ensure, median_ms

# ---------------------------------------------------------------------------
# many_places

MP_DIVISOR = ToricCompactifiedDivisor(1, 1)


def _affine_fn(prof: gen.AffineProfile) -> ConcaveFn:
    pieces = [AffinePiece(s, c) for s, c in zip(prof.slopes, prof.intercepts)]
    return ConcaveFn(prof.breakpoints, pieces)


def many_places_op(inp: gen.ManyPlacesInput, span):
    with span("adelic_curve.family_build_ms"):
        fam = AdelicFamily(
            MP_DIVISOR,
            {Place.prime(p): _affine_fn(f) for p, f in zip(inp.places, inp.profiles)},
        )
    with span("adelic_curve.global_height_ms"):
        height = global_height(fam)
    with span("adelic_curve.nef_status_ms"):
        status = nef_status(fam)
    with span("adelic_curve.boundary_height_ms"):
        zero = boundary_height(fam, "zero")
    with span("adelic_curve.boundary_height_ms"):
        infinity = boundary_height(fam, "infinity")
    return fam, height, status, zero, infinity


def many_places_check(inp: gen.ManyPlacesInput, out, span) -> None:
    fam, height, status, zero, infinity = out
    ensure(len(fam.exceptions) == inp.n, "family lost a place")
    total = Fraction(0)
    for psi in fam.exceptions.values():
        with span("convex_calculus.legendre_dual_ms"):
            dual = legendre_dual(psi)
        with span("convex_calculus.dual_integral_ms"):
            integral = dual.integral()
        with span("convex_calculus.sup_distance_ms"):
            dist = sup_distance(psi, fam.canonical)
        ensure(isinstance(integral, Fraction), "dual integral is not exact")
        ensure(math.isfinite(dist), "profile is not within bounded distance")
        total += integral
        span.count("adelic_curve.dual_breakpoints_in", len(dual.breakpoints))
    ensure(isinstance(height, Fraction), f"height {height!r} is not exact")
    ensure(height == 2 * total, "height != twice the sum of the dual integrals")
    ensure(status.mu_min_asy == min(zero, infinity), "roof minimum != lower endpoint")
    sign = (status.mu_min_asy > 0) - (status.mu_min_asy < 0)
    expected = {1: "S_ample", 0: "S_nef_only", -1: "relatively_nef_only"}[sign]
    ensure(status.status == expected, f"status {status.status} for minimum sign {sign}")
    if span.enabled:
        span.count("adelic_curve.roof_breakpoints", len(roof(fam).dual.breakpoints))


def _slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def many_places_metrics(tracer, inputs) -> dict:
    times = tracer.by_name()
    out = {
        name: (median_ms(times[name]), "ms")
        for name in (
            "adelic_curve.family_build_ms",
            "adelic_curve.global_height_ms",
            "adelic_curve.nef_status_ms",
            "adelic_curve.boundary_height_ms",
            "convex_calculus.legendre_dual_ms",
            "convex_calculus.dual_integral_ms",
            "convex_calculus.sup_distance_ms",
        )
    }
    ops = len(inputs)
    roof_bps = tracer.counts["adelic_curve.roof_breakpoints"]
    dual_bps = tracer.counts["adelic_curve.dual_breakpoints_in"]
    out["adelic_curve.roof_breakpoints"] = (roof_bps / ops, "count")
    out["adelic_curve.dual_breakpoints_in"] = (dual_bps / ops, "count")
    out["adelic_curve.roof_breakpoint_ratio"] = (roof_bps / dual_bps, "ratio")
    # median global_height self time per (N, k) class, fitted log-log
    per_class = {}
    for op, secs in tracer.by_op("adelic_curve.global_height_ms").items():
        per_class.setdefault((inputs[op].n, inputs[op].k), []).append(secs)
    med = {key: median_ms(v) for key, v in per_class.items()}
    n0, k0 = gen.MANY_PLACES_CLASSES[0]
    by_n = sorted((n, t) for (n, k), t in med.items() if k == k0)
    by_k = sorted((k, t) for (n, k), t in med.items() if n == n0)
    out["adelic_curve.height_scaling_exp_N"] = (_slope(*zip(*by_n)), "exponent")
    out["adelic_curve.height_scaling_exp_k"] = (_slope(*zip(*by_k)), "exponent")
    return out


MANY_PLACES = Workload(
    inputs=gen.many_places_inputs,
    op=many_places_op,
    check=many_places_check,
    layer_metrics=many_places_metrics,
    period=len(gen.MANY_PLACES_CLASSES),
    short_ops=len(gen.MANY_PLACES_CLASSES),
)

# ---------------------------------------------------------------------------
# singular_energy

SE_DIVISOR = ToricCompactifiedDivisor(0, 1)
SE_REFERENCE = AdelicFamily(SE_DIVISOR)
# Both routes evaluate the (1-u)**alpha terms in floating point. Measured
# errors against the closed form are about 1e-15 of the sum of the terms'
# magnitudes; the stated tolerance is 1e-12 of that sum.
SE_REL_TOL = 1e-12
# Quadrature (at the package's default tol=1e-9) is the approximate fallback;
# its disagreement with the closed form is reported as a per-layer count
# rather than a failed operation.
SE_QUAD_TOL = 1e-6


def _alpha_fn(alpha: Fraction, c: Fraction) -> ConcaveFn:
    return ConcaveFn([0], [AlphaPiece(alpha, 1, c), AffinePiece(0, c + 1 / alpha)])


@lru_cache(maxsize=None)  # alpha and c take a few hundred values in all
def place_energy(alpha: Fraction, c: Fraction) -> float:
    """Closed-form local energy of the shifted alpha-profile against the
    canonical profile: (2 - 3a)/(a(2a - 1)) - 2c, or -inf when a >= 1/2."""
    if alpha >= Fraction(1, 2):
        return -math.inf
    return float((2 - 3 * alpha) / (alpha * (2 * alpha - 1)) - 2 * c)


def singular_op(inp: gen.SingularInput, span):
    profiles = map(_alpha_fn, inp.alphas, inp.shifts)
    fam = AdelicFamily(SE_DIVISOR, {Place.prime(p): f for p, f in zip(inp.places, profiles)})
    roof_route = global_height(fam)
    with span("adelic_curve.extended_height_ms"):
        energy_route = extended_height(SE_REFERENCE, fam)
    psi = SE_REFERENCE.canonical
    phi = fam.psi_at(Place.prime(inp.places[inp.probe]))
    with span("convex_calculus.monge_ampere_ms"):
        mu = monge_ampere(phi)
    with span("convex_calculus.integrate_exact_ms"):
        against = integrate_against((psi, phi), mu)
    with span("convex_calculus.local_energy_ms"):
        local = local_energy(psi, phi)
    quad = None
    if inp.quad:
        with span("convex_calculus.integrate_quad_ms"):
            quad = integrate_against((psi, phi), mu, method="quad")
    return roof_route, energy_route, against, local, quad


def _near(value, expected, tol) -> bool:
    if expected == -math.inf:
        return value == -math.inf
    return math.isfinite(value) and abs(value - expected) <= tol


def _ensure_near(what, value, expected, scale) -> None:
    tol = SE_REL_TOL * max(1.0, scale)
    ensure(_near(float(value), expected, tol), f"{what} {value} != {expected}")


def singular_check(inp: gen.SingularInput, out, span) -> None:
    roof_route, energy_route, against, local, quad = out
    terms = [place_energy(a, c) for a, c in zip(inp.alphas, inp.shifts)]
    expected = -math.inf if inp.divergent else math.fsum(terms)
    scale = math.fsum(abs(t) for t in terms if math.isfinite(t))
    _ensure_near("roof route", roof_route, expected, scale)
    _ensure_near("energy route", energy_route, expected, scale)
    alpha, c = inp.alphas[inp.probe], inp.shifts[inp.probe]
    term = terms[inp.probe]
    _ensure_near("local energy", local, term, abs(term))
    # against = local - (psi(0) - phi(0)): the canonical atom at 0 carries mass 1
    part = term + float(c + 1 / alpha)
    _ensure_near("integral against MA(phi)", against, part, abs(part))
    if quad is not None:
        span.count("convex_calculus.quad_mismatch", not _near(quad, against, SE_QUAD_TOL))
        if math.isfinite(quad):
            span.peak("convex_calculus.quad_gap_max", abs(quad - against))
    if math.isfinite(expected):
        span.peak("adelic_curve.route_gap_max", abs(float(roof_route) - float(energy_route)))
    span.count("convex_calculus.divergent_count", local == -math.inf)


def singular_metrics(tracer, inputs) -> dict:
    times = tracer.by_name()
    out = {
        name: (median_ms(times[name]), "ms")
        for name in (
            "adelic_curve.extended_height_ms",
            "convex_calculus.local_energy_ms",
            "convex_calculus.monge_ampere_ms",
            "convex_calculus.integrate_exact_ms",
            "convex_calculus.integrate_quad_ms",
        )
    }
    out["adelic_curve.route_gap_max"] = (tracer.counts["adelic_curve.route_gap_max"], "abs")
    for name, unit in (
        ("convex_calculus.divergent_count", "count"),
        ("convex_calculus.quad_mismatch", "count"),
        ("convex_calculus.quad_gap_max", "abs"),
    ):
        out[name] = (tracer.counts[name], unit)
    return out


SINGULAR_ENERGY = Workload(
    inputs=gen.singular_inputs,
    op=singular_op,
    check=singular_check,
    layer_metrics=singular_metrics,
    period=gen.SINGULAR_PERIOD,
    short_ops=gen.SINGULAR_DIVERGENT_EVERY,
)

# ---------------------------------------------------------------------------
# exact_arith

EX_FAMILY = AdelicFamily(ToricCompactifiedDivisor(0, 1))
EX_EPS = Fraction(1, 10**6)


def _unit(dim: int, i: int, s: int = 1):
    return tuple(s if j == i else 0 for j in range(dim))


def _order_cone(spec: gen.SpaceSpec) -> SemilinearCone:
    d = spec.dim
    if spec.two_cell:
        cells = [
            Cell((Constraint(_unit(d, 0), strict=True),)),
            Cell(
                (Constraint(_unit(d, 0)), Constraint(_unit(d, 0, -1)))
                + tuple(Constraint(_unit(d, i)) for i in range(1, d))
            ),
        ]
    else:
        cells = [Cell(tuple(Constraint(_unit(d, i)) for i in range(d)))]
    # sampling alone cannot certify that these cones span the space
    units = [RationalVector(_unit(d, i)) for i in range(d)]
    return SemilinearCone(cells, d, generators=units)


def _toward(limit: RationalVector, gauge: RationalVector):
    """The sequence limit + gauge/(n+1): terms n, m >= 1/eps lie within eps."""
    return lambda n: limit + gauge * Fraction(1, n + 1)


def _modulus(eps) -> int:
    return int(1 / Fraction(eps)) + 1


def _space_op(spec: gen.SpaceSpec, span):
    V = RationalVector
    with span(f"divisorial_core.space_build_ms.d{spec.dim}"):
        cone = _order_cone(spec)
        space = DivisorialSpace(spec.dim, cone)
    with span("divisorial_core.closure_ms"):
        closure = cone.closure()
    gauge = V(spec.gauge)
    dists = []
    for x, y in spec.queries:
        with span("divisorial_core.d_b_ms"):
            dists.append(d_b(space, gauge, V(x), V(y)))
    with span("divisorial_core.extend_intersection_ms"):
        pairing = IntersectionMap(space, 2, dict(spec.pairing))
        args = [
            CompletionElement(space, gauge, _toward(V(limit), gauge), _modulus)
            for limit in (spec.x, spec.y)
        ]
        value = extend_intersection(pairing, args, EX_EPS, gauge)
    return cone, closure, dists, value


def exact_prepare(seed: int) -> None:
    for q in gen.exact_pool(seed):
        product_formula_check(q)


def exact_op(inp: gen.ExactInput, span):
    certs = []
    for name, batch in (
        ("adelic_curve.product_formula_cold_ms", inp.fresh),
        ("adelic_curve.product_formula_warm_ms", inp.revisit),
    ):
        for q in batch:
            with span(name):
                total = product_formula_check(q)
            with span("adelic_curve.point_height_exact_ms"):
                height = point_height_exact(EX_FAMILY, q)
            certs.append((q, total, height))
    return certs, _space_op(inp.space, span)


def exact_check(inp: gen.ExactInput, out, span) -> None:
    certs, (cone, closure, dists, value) = out
    for q, total, height in certs:
        ensure(total.is_zero(), f"product formula for {q} sums to {total}")
        expected = math.log(max(abs(q.numerator), q.denominator))
        ensure(
            abs(float(height) - expected) <= 1e-12 * max(1.0, expected),
            f"exact height of {q} is {float(height)}, not {expected}",
        )
    spec = inp.space
    for (x, y), dist in zip(spec.queries, dists):
        gaps = [abs(a - b) / g for a, b, g in zip(x, y, spec.gauge)]
        # the two-cell cone orders by the first coordinate alone
        want = min(Fraction(1), gaps[0] if spec.two_cell else max(gaps))
        ensure(dist == want, f"d_b({x}, {y}) = {dist}, not {want}")
    probe = RationalVector(_unit(spec.dim, 1, -1))
    ensure(not cone.contains(probe), "cone contains -e2")
    ensure(closure.contains(probe) == spec.two_cell, "wrong closure membership of -e2")
    coeff = {}
    for (i, j), c in spec.pairing:
        coeff[i, j] = coeff[j, i] = c
    exact = sum(c * spec.x[i] * spec.y[j] for (i, j), c in coeff.items())
    ensure(abs(Fraction(value) - exact) <= EX_EPS, f"extension {value} != {exact}")


def exact_metrics(tracer, inputs) -> dict:
    times = tracer.by_name()
    names = [
        "adelic_curve.product_formula_cold_ms",
        "adelic_curve.product_formula_warm_ms",
        "adelic_curve.point_height_exact_ms",
        "divisorial_core.d_b_ms",
        "divisorial_core.closure_ms",
        "divisorial_core.extend_intersection_ms",
    ] + [f"divisorial_core.space_build_ms.d{d}" for d in (2, 3, 4)]
    return {name: (median_ms(times[name]), "ms") for name in names}


EXACT_ARITH = Workload(
    inputs=gen.exact_inputs,
    op=exact_op,
    check=exact_check,
    layer_metrics=exact_metrics,
    period=len(gen.EXACT_SPACES),
    short_ops=len(gen.EXACT_SPACES),
    prepare=exact_prepare,
)
