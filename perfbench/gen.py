"""Seeded input generation for the four workloads.

Plain data only (ints, Fractions, tuples, strings): nothing here imports the
package, sympy or the package's prime helpers, so the inputs stay the same
whatever the library does internally. Each workload's input stream is an
infinite, deterministic function of (workload, seed); the i-th input follows
a fixed round-robin pattern over the size classes, so every run at every seed
sees the same mix of work.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import count
from typing import Iterator, List, NamedTuple, Tuple


def primes(n: int) -> List[int]:
    """The first n primes, by a sieve of Eratosthenes."""
    limit = 16
    while True:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        found = [p for p in range(limit + 1) if sieve[p]]
        if len(found) >= n:
            return found[:n]
        limit *= 2


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _distinct_fractions(rng, n, lo, hi, max_den) -> List[Fraction]:
    """n distinct rationals strictly inside (lo, hi), denominators <= max_den."""
    out = set()
    while len(out) < n:
        den = rng.randint(1, max_den)
        x = Fraction(rng.randint(lo * den, hi * den), den)
        if lo < x < hi:
            out.add(x)
    return sorted(out)


# Every pattern below gives its median and 90th-percentile operations a size
# class of their own, so neither percentile sits on the step between two
# classes, where it would jump from run to run.

# ---------------------------------------------------------------------------
# many_places: N places, each a k-breakpoint rational profile for the divisor
# [0] + [infinity] (slopes run from 1 down to -1). (N, k) per op, in order
# of cost; the first is the reference class of both scaling fits.

MANY_PLACES_CLASSES: Tuple[Tuple[int, int], ...] = ((8, 4), (4, 4), (16, 4), (8, 16), (32, 4))
MAX_DEN = 10**6


class AffineProfile(NamedTuple):
    """Breakpoints u_1 < ... < u_k and slopes s_0 = 1 > ... > s_k = -1;
    intercepts follow from continuity, starting at intercepts[0]."""

    breakpoints: Tuple[Fraction, ...]
    slopes: Tuple[Fraction, ...]
    intercepts: Tuple[Fraction, ...]


class ManyPlacesInput(NamedTuple):
    n: int
    k: int
    places: Tuple[int, ...]
    profiles: Tuple[AffineProfile, ...]


def affine_profile(rng: random.Random, k: int) -> AffineProfile:
    bps = _distinct_fractions(rng, k, -8, 8, MAX_DEN)
    inner = _distinct_fractions(rng, k - 1, -1, 1, MAX_DEN)
    slopes = [Fraction(1)] + inner[::-1] + [Fraction(-1)]
    den = rng.randint(1, MAX_DEN)
    intercepts = [Fraction(rng.randint(-4 * den, 4 * den), den)]
    for j, u in enumerate(bps):
        intercepts.append(intercepts[-1] + (slopes[j] - slopes[j + 1]) * u)
    return AffineProfile(tuple(bps), tuple(slopes), tuple(intercepts))


def many_places_inputs(seed: int) -> Iterator[ManyPlacesInput]:
    rng = rng_for("many_places", seed)
    pool = primes(max(n for n, _ in MANY_PLACES_CLASSES) * 4)
    for i in count():
        n, k = MANY_PLACES_CLASSES[i % len(MANY_PLACES_CLASSES)]
        places = tuple(sorted(rng.sample(pool, n)))
        profiles = tuple(affine_profile(rng, k) for _ in places)
        yield ManyPlacesInput(n, k, places, profiles)


# ---------------------------------------------------------------------------
# singular_energy: N places with shifted alpha-singular profiles
# ConcaveFn([0], [AlphaPiece(a, 1, c), AffinePiece(0, c + 1/a)]).

SINGULAR_CLASSES: Tuple[int, ...] = (16, 64, 128)
SINGULAR_DIVERGENT_EVERY = 4  # ops i with i % 4 == 3 carry places with alpha >= 1/2
SINGULAR_QUAD_EVERY = 12  # ops i with i % 12 == 0 also integrate by quadrature
SINGULAR_PERIOD = 12


class SingularInput(NamedTuple):
    n: int
    places: Tuple[int, ...]
    alphas: Tuple[Fraction, ...]
    shifts: Tuple[Fraction, ...]
    probe: int  # index of the place whose local terms are probed
    quad: bool

    @property
    def divergent(self) -> bool:
        return any(a >= Fraction(1, 2) for a in self.alphas)


def singular_inputs(seed: int) -> Iterator[SingularInput]:
    rng = rng_for("singular_energy", seed)
    pool = primes(max(SINGULAR_CLASSES) * 4)
    for i in count():
        n = SINGULAR_CLASSES[i % len(SINGULAR_CLASSES)]
        places = tuple(sorted(rng.sample(pool, n)))
        alphas = [Fraction(rng.randint(2, 9), 20) for _ in places]
        divergent = i % SINGULAR_DIVERGENT_EVERY == SINGULAR_DIVERGENT_EVERY - 1
        if divergent:
            for j in rng.sample(range(n), 1 + n // 16):
                alphas[j] = Fraction(rng.randint(10, 19), 20)
        shifts = tuple(Fraction(rng.randint(-20, 20), 10) for _ in places)
        probe = next(
            (j for j, a in enumerate(alphas) if a >= Fraction(1, 2)), rng.randrange(n)
        )
        quad = i % SINGULAR_QUAD_EVERY == 0
        yield SingularInput(n, places, tuple(alphas), shifts, probe, quad)


# ---------------------------------------------------------------------------
# exact_arith: rationals up to 1e12 (half fresh, half from a revisited pool)
# plus one checked divisorial space of dimension 2, 3 or 4 with d_b queries
# and one extended intersection.

EXACT_BATCH = 16  # rationals per op from each regime (fresh, and pooled)
EXACT_POOL = 256
EXACT_QUERIES = 4
# (dimension, two-cell cone) per op, by cost: (2, F) < (3, F) < (2, T) < (4, F) < (4, T)
EXACT_SPACES = ((2, False), (3, False), (4, False), (2, True), (4, True))
RAT_MAX = 10**12


class SpaceSpec(NamedTuple):
    dim: int
    two_cell: bool  # {x1 > 0} union {x1 = 0, other coordinates >= 0}
    gauge: Tuple[Fraction, ...]
    queries: Tuple[Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]], ...]
    x: Tuple[Fraction, ...]  # limits of the two completion sequences
    y: Tuple[Fraction, ...]
    pairing: Tuple[Tuple[Tuple[int, int], int], ...]


class ExactInput(NamedTuple):
    fresh: Tuple[Fraction, ...]  # never passed to the package before
    revisit: Tuple[Fraction, ...]  # drawn from exact_pool(seed)
    space: SpaceSpec


def _rational(rng: random.Random) -> Fraction:
    num = rng.randint(1, RAT_MAX) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, RAT_MAX))


def _small_vec(rng, dim, lo, hi) -> Tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(lo * 12, hi * 12), 12) for _ in range(dim))


def space_spec(rng: random.Random, dim: int, two_cell: bool) -> SpaceSpec:
    gauge = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(dim))
    queries = tuple(
        (_small_vec(rng, dim, -3, 3), _small_vec(rng, dim, -3, 3))
        for _ in range(EXACT_QUERIES)
    )
    pairing = tuple(
        ((i, j), rng.randint(0, 3)) for i in range(dim) for j in range(i, dim)
    )
    return SpaceSpec(
        dim,
        two_cell,
        gauge,
        queries,
        _small_vec(rng, dim, 0, 3),
        _small_vec(rng, dim, 0, 3),
        pairing,
    )


def exact_pool(seed: int) -> List[Fraction]:
    """The revisited rationals; the benchmark certifies each once before
    timing, so pooled inputs always meet a warm factor cache."""
    rng = rng_for("exact_arith:pool", seed)
    return [_rational(rng) for _ in range(EXACT_POOL)]


def exact_inputs(seed: int) -> Iterator[ExactInput]:
    rng = rng_for("exact_arith", seed)
    pool = exact_pool(seed)
    seen = set(pool)
    for i in count():
        fresh = []
        while len(fresh) < EXACT_BATCH:
            q = _rational(rng)
            if q not in seen:
                seen.add(q)
                fresh.append(q)
        revisit = tuple(rng.choice(pool) for _ in range(EXACT_BATCH))
        spec = space_spec(rng, *EXACT_SPACES[i % len(EXACT_SPACES)])
        yield ExactInput(tuple(fresh), revisit, spec)


# ---------------------------------------------------------------------------
# cli_mix: argv lists for `python3 -m adelic_heights.cli`, cycling through the
# nine subcommands; every fifth invocation is an input with a documented
# error exit code (2 malformed, 3 precondition violated, 4 positive divergence).

SUBCOMMANDS = (
    "height",
    "energy",
    "dual",
    "ma",
    "nef-check",
    "product-formula",
    "example-alpha",
    "plot",
    "core-demo",
)
CLI_ERROR_EVERY = 5
CLI_MAX_PLACES = 4
CLI_MAX_GRID = 201


class CliInput(NamedTuple):
    argv: Tuple[str, ...]
    expected_exit: int

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _num(x: Fraction):
    return x.numerator if x.denominator == 1 else str(x)


def _affine_psi(slopes, bps, c0) -> dict:
    """JSON profile with the given slopes and breakpoints, continuous."""
    pieces, c = [], c0
    edges = ["-inf"] + [_num(u) for u in bps] + ["+inf"]
    for j, s in enumerate(slopes):
        if j > 0:
            c = c + (slopes[j - 1] - s) * bps[j - 1]
        pieces.append(
            {
                "from": edges[j],
                "to": edges[j + 1],
                "kind": "affine",
                "params": {"slope": _num(s), "intercept": _num(c)},
            }
        )
    return {
        "slope_neg": _num(slopes[0]),
        "slope_pos": _num(slopes[-1]),
        "pieces": pieces,
    }


def _alpha_psi(alpha: Fraction, c: Fraction) -> dict:
    return {
        "slope_neg": 1,
        "slope_pos": 0,
        "pieces": [
            {
                "from": "-inf",
                "to": 0,
                "kind": "alpha_singular",
                "params": {"alpha": _num(alpha), "slope": 1, "intercept": _num(c)},
            },
            {
                "from": 0,
                "to": "+inf",
                "kind": "affine",
                "params": {"slope": 0, "intercept": _num(c + 1 / alpha)},
            },
        ],
    }


def _small_affine_psi(rng: random.Random) -> dict:
    """Profile for the divisor [infinity]: slopes 1 down to 0."""
    k = rng.randint(1, 3)
    bps = _distinct_fractions(rng, k, -3, 3, 12)
    inner = _distinct_fractions(rng, k - 1, 0, 1, 12)
    slopes = [Fraction(1)] + inner[::-1] + [Fraction(0)]
    return _affine_psi(slopes, bps, Fraction(rng.randint(-6, 6), 4))


def _family(rng: random.Random, pool, singular: bool = False) -> dict:
    places = rng.sample(pool, rng.randint(1, CLI_MAX_PLACES))
    exceptions = []
    for p in places:
        if singular and p == places[0]:
            alpha = Fraction(rng.randint(2, 9), 20)
            psi = _alpha_psi(alpha, Fraction(rng.randint(-10, 10), 10))
        else:
            psi = _small_affine_psi(rng)
        exceptions.append({"place": p, "psi": psi})
    return {"divisor": {"a": 0, "b": 1}, "exceptions": exceptions}


def _grid(rng: random.Random) -> str:
    # one token: argparse reads a separate "-1:2:5" as an option
    lo = rng.randint(-8, 0)
    return f"--grid={lo}:{rng.randint(lo + 1, 8)}:{rng.randint(3, CLI_MAX_GRID)}"


def _js(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


CANONICAL = {"divisor": {"a": 0, "b": 1}, "exceptions": []}


def _valid_cli(rng: random.Random, sub: str, pool) -> Tuple[str, ...]:
    if sub == "height":
        return ("height", "--input", _js(_family(rng, pool, singular=rng.random() < 0.5)))
    if sub == "energy":
        pair = {"reference": CANONICAL, "singular": _family(rng, pool, singular=True)}
        return ("energy", "--input", _js(pair))
    if sub == "dual":
        grid = "--grid=0:1:%d" % rng.randint(3, CLI_MAX_GRID)
        return ("dual", "--input", _js(_small_affine_psi(rng)), grid)
    if sub == "ma":
        alpha = Fraction(rng.randint(2, 19), 20)
        return ("ma", "--input", _js(_alpha_psi(alpha, Fraction(rng.randint(-5, 5), 5))))
    if sub == "nef-check":
        return ("nef-check", "--input", _js(_family(rng, pool)))
    if sub == "product-formula":
        # "--" ends the options, so a negative rational stays positional
        return ("product-formula", "--", str(_rational(rng)))
    if sub == "example-alpha":
        return ("example-alpha", "--alpha", str(Fraction(rng.randint(1, 19), 20)))
    if sub == "plot":
        return ("plot", "--input", _js(_family(rng, pool)), _grid(rng))
    return ("core-demo",)


def _error_cli(rng: random.Random, sub: str, pool) -> Tuple[Tuple[str, ...], int]:
    if sub == "height":
        # the canonical profile lowered by ~1e308: the height overflows to +inf
        psi = _affine_psi([Fraction(1), Fraction(0)], [Fraction(0)], Fraction(0))
        big = -rng.uniform(0.9, 1.7) * 1e308
        for piece in psi["pieces"]:
            piece["params"]["intercept"] = big
        fam = dict(CANONICAL, exceptions=[{"place": rng.choice(pool), "psi": psi}])
        return ("height", "--input", _js(fam)), 4
    if sub == "energy":
        # the reference is more singular than the other family: precondition
        pair = {"reference": _family(rng, pool, singular=True), "singular": CANONICAL}
        return ("energy", "--input", _js(pair)), 3
    if sub == "dual":
        return ("dual", "--input", _js(_small_affine_psi(rng)), "--grid=1:0:5"), 2
    if sub == "ma":
        return ("ma", "--input", "{not json"), 2
    if sub == "nef-check":
        fam = _family(rng, pool)
        fam["exceptions"][0]["place"] = 2 * rng.randint(2, 50)  # composite
        return ("nef-check", "--input", _js(fam)), 2
    if sub == "product-formula":
        return ("product-formula", "0"), 3
    if sub == "example-alpha":
        return ("example-alpha", "--alpha", str(rng.randint(1, 9))), 2
    if sub == "plot":
        fam = _family(rng, pool)
        fam["divisor"] = {"a": 1, "b": 1}  # profiles keep the slopes of [infinity]
        return ("plot", "--input", _js(fam), _grid(rng)), 2
    return ("core-demo", "--tol=-%d" % rng.randint(0, 9)), 2


def cli_inputs(seed: int) -> Iterator[CliInput]:
    rng = rng_for("cli_mix", seed)
    pool = primes(20)
    for i in count():
        sub = SUBCOMMANDS[i % len(SUBCOMMANDS)]
        if i % CLI_ERROR_EVERY == CLI_ERROR_EVERY - 1:
            argv, code = _error_cli(rng, sub, pool)
            yield CliInput(argv, code)
        else:
            yield CliInput(_valid_cli(rng, sub, pool), 0)


INPUTS = {
    "cli_mix": cli_inputs,
    "many_places": many_places_inputs,
    "singular_energy": singular_inputs,
    "exact_arith": exact_inputs,
}
