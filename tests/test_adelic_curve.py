import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelic_heights.adelic_curve import (
    AdelicFamily,
    LogLinear,
    NefStatus,
    Place,
    RoofFunction,
    ToricCompactifiedDivisor,
    abs_value,
    boundary_height,
    canonical_fn,
    extended_height,
    global_energy,
    global_height,
    log_abs,
    nef_status,
    point_height,
    point_height_exact,
    product_formula_check,
    roof,
    strongly_nef_local_check,
    support,
    twist,
)
from adelic_heights.adelic_curve import family as family_module
from adelic_heights.adelic_curve import heights as heights_module
from adelic_heights.adelic_curve import places
from adelic_heights.cli import alpha_profile
from adelic_heights.convex_calculus import Measure1D, cutoff, integrate_against, local_energy
from adelic_heights.convex_calculus import functions as functions_module
from adelic_heights.convex_calculus.duality import DualFn, DualPiece, legendre_dual
from adelic_heights.convex_calculus.functions import (
    AffinePiece,
    AlphaPiece,
    ConcaveFn,
    sup_distance,
)

from profiles import (
    affine_head_alpha_profiles,
    alpha_profiles,
    near_colliding_profiles,
    profile_through,
)

INF = Place.infinity()


def hyperplane_divisor() -> ToricCompactifiedDivisor:
    return ToricCompactifiedDivisor(0, 1)


def canonical_family() -> AdelicFamily:
    return AdelicFamily(hyperplane_divisor())


def alpha_family(alpha, place=Place.prime(2)) -> AdelicFamily:
    return AdelicFamily(hyperplane_divisor(), {place: alpha_profile(alpha)})


def closed_form_energy(alpha) -> float:
    a = F(alpha)
    if a >= F(1, 2):
        return -math.inf
    return float((2 - 3 * a) / (a * (2 * a - 1)))


def bounded_profile(rng: random.Random) -> ConcaveFn:
    """Random concave profile with slopes (1, 0): a bounded deviation
    from the canonical ramp."""
    kinks = rng.randint(1, 3)
    slopes = sorted(
        {F(rng.randint(1, 9), 10) for _ in range(kinks)} - {F(0), F(1)},
        reverse=True,
    )
    slopes = [F(1)] + slopes + [F(0)]
    bps = sorted(rng.sample(range(-5, 6), len(slopes) - 1))
    pieces = [AffinePiece(slopes[0], F(rng.randint(-3, 3)))]
    for b, s in zip(bps, slopes[1:]):
        b = F(b)
        val = pieces[-1].slope * b + pieces[-1].intercept
        pieces.append(AffinePiece(s, val - s * b))
    return ConcaveFn(bps, pieces)


rationals = st.fractions(
    min_value=F(-(10**6)), max_value=F(10**6), max_denominator=10**6
).filter(lambda q: q != 0)


class TestPlaces:
    def test_prime_validation(self):
        with pytest.raises(ValueError, match="prime"):
            Place.prime(6)
        Place.prime(2)
        Place.prime(97)

    def test_ordering(self):
        places = [INF, Place.prime(5), Place.prime(2)]
        assert sorted(places) == [Place.prime(2), Place.prime(5), INF]

    def test_abs_value_worked_example(self):
        q = F(12, 5)
        assert abs_value(q, Place.prime(2)) == F(1, 4)
        assert abs_value(q, Place.prime(3)) == F(1, 3)
        assert abs_value(q, Place.prime(5)) == F(5)
        assert abs_value(q, INF) == F(12, 5)

    def test_abs_value_of_one_and_p(self):
        for place in (Place.prime(2), Place.prime(7), INF):
            assert abs_value(1, place) == 1
        for p in (2, 3, 5, 11):
            assert abs_value(p, Place.prime(p)) == F(1, p)

    def test_abs_value_of_zero(self):
        for place in (Place.prime(3), INF):
            assert abs_value(0, place) == 0

    def test_support(self):
        assert support(F(12, 5)) == [Place.prime(2), Place.prime(3), Place.prime(5)]
        assert support(1) == []
        with pytest.raises(ValueError):
            support(0)

    def test_log_linear_algebra(self):
        x = LogLinear({2: F(3), 5: F(-1)})
        y = LogLinear({2: F(-3), 3: F(2)})
        assert (x + y).coeffs == {3: F(2), 5: F(-1)}
        assert (x - x).is_zero()
        assert x.scale(F(1, 3)).coeffs == {2: F(1), 5: F(-1, 3)}
        assert float(LogLinear({2: 1})) == pytest.approx(math.log(2))
        assert LogLinear({2: 0}).is_zero()
        assert hash(x) == hash(LogLinear({5: F(-1), 2: F(3)}))

    def test_log_abs_matches_numeric(self):
        q = F(-140, 99)
        for place in (Place.prime(2), Place.prime(3), Place.prime(7), INF):
            assert float(log_abs(q, place)) == pytest.approx(
                math.log(float(abs_value(q, place)))
            )

    def test_product_formula_worked_examples(self):
        assert product_formula_check(F(12, 5)).is_zero()
        assert product_formula_check(1).is_zero()
        assert product_formula_check(F(-7, 3)).is_zero()

    @given(rationals)
    @settings(max_examples=60, deadline=None)
    def test_product_formula_random(self, q):
        assert product_formula_check(q).is_zero()


def _pairwise_add(x, y):
    """LogLinear addition by a fresh public constructor per sum."""
    out = dict(x.coeffs)
    for p, c in y.coeffs.items():
        out[p] = out.get(p, F(0)) + c
    return LogLinear(out)


def _pairwise_point_height(divisor, t):
    """The exact point height of the canonical family summed one place at
    a time, through the public LogLinear constructor."""
    a, b = divisor.a, divisor.b
    total = LogLinear({})
    for place in support(t):
        v = places._valuation(t, place.p)
        total = _pairwise_add(total, LogLinear({place.p: a * v if v >= 0 else -b * v}))
    log_t = log_abs(t, INF)
    s = -a if abs(t) <= 1 else b
    return _pairwise_add(total, LogLinear({p: s * c for p, c in log_t.coeffs.items()}))


divisors = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.fractions(min_value=0, max_value=3, max_denominator=7),
).filter(lambda ab: ab[0] + ab[1] >= 0)


class TestOnePassSums:
    @given(rationals, divisors)
    @example(F(12, 5), (F(0), F(1)))
    @example(F(1, 8), (F(-1), F(1)))
    @settings(max_examples=100, deadline=None)
    def test_point_height_exact_matches_pairwise_sums(self, t, ab):
        divisor = ToricCompactifiedDivisor(*ab)
        got = point_height_exact(AdelicFamily(divisor), t)
        want = _pairwise_point_height(divisor, t)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        # the same coefficients in the same order, so the same float
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert all(type(c) is F and c for c in got.coeffs.values())
        assert float(got) == float(want)

    @given(rationals)
    @settings(max_examples=100, deadline=None)
    def test_product_formula_and_support(self, q):
        assert product_formula_check(q).is_zero()
        terms = [term for _, term in places.log_abs_by_place(q)]
        pairwise = LogLinear({})
        for term in terms:
            pairwise = _pairwise_add(pairwise, term)
        assert LogLinear.sum(terms) == pairwise == LogLinear.zero()
        factors = places._factor(abs(q.numerator)) + places._factor(q.denominator)
        want = [Place.prime(p) for p in sorted(p for p, _ in factors)]
        got = support(q)
        assert got == want
        assert [hash(p) for p in got] == [hash(p) for p in want]
        assert [repr(p) for p in got] == [repr(p) for p in want]

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from([2, 3, 5, 7]), st.fractions(-4, 4, max_denominator=6)
            ),
            max_size=5,
        ),
        st.fractions(-3, 3, max_denominator=5),
    )
    # log 7 cancels in the second term and comes back in the third
    @example([{7: F(-7, 3)}, {7: F(7, 3), 2: F(1)}, {7: F(1)}], F(0))
    @settings(max_examples=60, deadline=None)
    def test_sum_scale_and_negation_match_pairwise(self, dicts, s):
        terms = [LogLinear(d) for d in dicts]
        pairwise = LogLinear.zero()
        for term in terms:
            pairwise = _pairwise_add(pairwise, term)
        total = LogLinear.sum(terms)
        assert total == pairwise
        assert list(total.coeffs.items()) == list(pairwise.coeffs.items())
        for x, y in zip(terms, terms[1:]):
            assert list((x + y).coeffs.items()) == list(_pairwise_add(x, y).coeffs.items())
        assert total.scale(s) == LogLinear({p: s * c for p, c in pairwise.coeffs.items()})
        assert -total == LogLinear({p: -c for p, c in pairwise.coeffs.items()})
        assert (total - total).is_zero() and total.scale(0) == LogLinear.zero()
        assert all(c for c in total.scale(s).coeffs.values())

    def test_local_terms_read_one_factorization(self, monkeypatch):
        # every local term of a rational point reads v_p from the one
        # factorization of its numerator and denominator; dividing again
        # by each prime of the support would hit the refusing _valuation
        canonical = canonical_family()
        twisted = twist(canonical, {Place.prime(2): 1, Place.prime(7): F(1, 2), INF: -3})
        qs = [F(1), F(-1), F(12, 5), F(-140, 99), F(7, 1024)]

        def values():
            return [
                (
                    support(q),
                    list(places.log_abs_by_place(q)),
                    product_formula_check(q),
                    list(point_height_exact(canonical, q).coeffs.items()),
                    point_height(canonical, q),
                    point_height(twisted, q),
                )
                for q in qs
            ]

        want = values()

        def refuse(q, p):
            raise AssertionError(f"v_{p}({q}) computed by trial division")

        monkeypatch.setattr(places, "_valuation", refuse)
        monkeypatch.setattr(heights_module, "_valuation", refuse, raising=False)
        assert values() == want

    def test_zero_combination_is_the_float_zero(self):
        for total in (
            product_formula_check(6),
            point_height_exact(AdelicFamily(ToricCompactifiedDivisor(0, 1)), 1),
        ):
            assert total.is_zero()
            assert type(float(total)) is float and float(total) == 0.0

    def test_fraction_operators_do_not_grow_with_the_support(self, monkeypatch):
        # the local terms are summed and scaled on integer ratios: the
        # Fraction operators run a fixed number of times per call
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            op = getattr(F, name)
            monkeypatch.setattr(
                F, name, lambda x, y, op=op, name=name: calls.append(name) or op(x, y)
            )

        def count(build):
            calls.clear()
            build()
            return len(calls)

        family = AdelicFamily(ToricCompactifiedDivisor(F(1, 2), F(3, 4)))
        small = F(12, 5)
        large = F(2**7 * 3 * 5 * 7**2 * 11 * 13 * 17, 19 * 23**3 * 29 * 31 * 37) * 41 * 43
        assert large > 1 and len(support(large)) == 14
        for a, b in ((small, large), (1 / small, 1 / large), (-small, -large)):
            assert count(lambda: product_formula_check(a)) == 0
            assert count(lambda: product_formula_check(b)) == 0
            fixed = count(lambda: point_height_exact(family, a))
            assert fixed <= 2
            assert count(lambda: point_height_exact(family, b)) == fixed

    def test_valuations_with_large_exponents(self):
        q = F(2**100, 3**70)
        terms = list(places.log_abs_by_place(q))
        assert [place for place, _ in terms] == [Place.prime(2), Place.prime(3), INF]
        assert [list(t.coeffs.items()) for _, t in terms] == [
            [(2, F(-100))],
            [(3, F(70))],
            [(2, F(100)), (3, F(-70))],
        ]
        assert all(type(c) is F for _, t in terms for c in t.coeffs.values())
        assert product_formula_check(q).is_zero() and product_formula_check(-1 / q).is_zero()
        assert log_abs(q, Place.prime(2)).coeffs == {2: F(-100)}
        for divisor in (hyperplane_divisor(), ToricCompactifiedDivisor(F(1, 3), 2)):
            for t in (q, 1 / q, -q):
                got = point_height_exact(AdelicFamily(divisor), t)
                want = _pairwise_point_height(divisor, t)
                assert list(got.coeffs.items()) == list(want.coeffs.items())
                assert all(type(c) is F for c in got.coeffs.values())
        # |q| < 1: the height of the canonical family is log 3**70
        assert point_height_exact(canonical_family(), q).coeffs == {3: F(70)}
        total = LogLinear.sum([LogLinear({2: 100, 3: 70}), LogLinear({2: F(1, 3), 3: -70})])
        assert list(total.coeffs.items()) == [(2, F(301, 3))]

    def test_public_constructors_still_validate(self):
        for bad in (4, 1, 0, -3, 2.0):
            with pytest.raises(ValueError, match="not prime"):
                Place.prime(bad)
            with pytest.raises(ValueError, match="not prime"):
                Place(bad)


# psi_k, the least strong pseudoprime to the first k prime bases, k = 1..13
# (psi_7 = psi_8, psi_9 = psi_10 = psi_11)
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
CARMICHAEL = (561, 41041, 825265)


def _factor_dict(n):
    return dict(places._factor(n))


class TestPrimes:
    def test_isprime_matches_sympy_below_3e5(self):
        sympy = pytest.importorskip("sympy")
        wrong = [n for n in range(300_000) if places.isprime(n) != sympy.isprime(n)]
        assert wrong == []

    def test_isprime_matches_sympy_in_every_base_stage(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4)
        edges = (1681,) + STRONG_PSEUDOPRIMES + (10**30,)
        for lo, hi in zip(edges, edges[1:]):
            draws = [rng.randrange(lo, hi) for _ in range(300)]
            draws += [sympy.nextprime(lo), sympy.prevprime(hi), lo + 2, hi - 2]
            for _ in range(20):  # primes and odd semiprimes pass trial division
                p = sympy.nextprime(math.isqrt(rng.randrange(lo, hi)))
                draws += [sympy.nextprime(rng.randrange(lo, hi)), p * sympy.nextprime(p)]
            for n in draws:
                assert places.isprime(n) == sympy.isprime(n), n

    def test_strong_pseudoprimes_are_composite(self):
        for n in STRONG_PSEUDOPRIMES:
            assert not places.isprime(n), n
            factors = _factor_dict(n)
            assert math.prod(p**e for p, e in factors.items()) == n
            assert sum(factors.values()) > 1
            assert all(places.isprime(p) for p in factors)

    def test_carmichael_numbers_and_prime_squares(self):
        sympy = pytest.importorskip("sympy")
        for n in CARMICHAEL:
            assert not places.isprime(n)
            assert _factor_dict(n) == sympy.factorint(n)
        for p in (41, 43, 1301, 65521, 999983, 10**12 + 39, 2**61 - 1):
            assert places.isprime(p)
            assert not places.isprime(p * p)
            assert _factor_dict(p * p) == {p: 2}  # by the square check
        for p in (43, 1301, 65521, 999983):
            assert _factor_dict(p**3) == {p: 3}  # by rho

    def test_semiprimes_near_1e12(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(3)
        for _ in range(40):
            p = sympy.prevprime(rng.randint(10**5, 10**6))
            q = sympy.nextprime(10**12 // p)
            assert not places.isprime(p * q)
            assert _factor_dict(p * q) == sympy.factorint(p * q)

    def test_bpsw_above_psi_13(self):
        sympy = pytest.importorskip("sympy")
        from sympy.ntheory.primetest import is_strong_lucas_prp

        # the strong Lucas test alone, against sympy's, on odd non-squares
        for n in range(43, 20_000, 2):
            if math.isqrt(n) ** 2 != n:
                assert places._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n
        mersenne = [2**e - 1 for e in (89, 107, 127)]
        for p in mersenne:
            assert places.isprime(p)
        assert not places.isprime(mersenne[0] * mersenne[1])
        assert not places.isprime(mersenne[0] ** 2)
        rng = random.Random(5)
        for _ in range(300):
            n = rng.getrandbits(rng.randint(82, 160)) | 1
            assert places.isprime(n) == sympy.isprime(n), n

    def test_factor_matches_sympy_on_criterion_3_inputs(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(101)  # the draws of test_criterion_03_product_formula
        qs = [
            F(rng.randint(1, 10**12) * rng.choice((1, -1)), rng.randint(1, 10**12))
            for _ in range(1000)
        ]
        for n in [abs(q.numerator) for q in qs] + [q.denominator for q in qs]:
            assert _factor_dict(n) == sympy.factorint(n), n

    def test_factor_of_one_and_small_powers(self):
        assert places._factor(1) == ()
        assert places._factor(2**40 * 3**5 * 41) == ((2, 40), (3, 5), (41, 1))
        assert places._factor(1681) == ((41, 2),)

    def test_factor_within_budget_splits_two_13_digit_primes(self):
        p, q = 1000000000039, 3000000000013
        assert places._factor(p * q) == ((p, 1), (q, 1))


class TestFamily:
    def test_divisor_validation(self):
        d = ToricCompactifiedDivisor(F(1, 2), F(3, 2))
        assert d.degree == 2
        with pytest.raises(ValueError, match="degree"):
            ToricCompactifiedDivisor(1, -2)

    def test_canonical_fn_shape(self):
        psi = canonical_fn(ToricCompactifiedDivisor(1, 2))
        assert psi.slope_neg == 2 and psi.slope_pos == -1
        assert psi.value_exact(F(0)) == 0
        # degree zero degenerates to a single line
        line = canonical_fn(ToricCompactifiedDivisor(-1, 1))
        assert line.breakpoints == () and line.slope_neg == 1

    def test_exception_table_drops_canonical(self):
        fam = AdelicFamily(
            hyperplane_divisor(), {Place.prime(3): canonical_fn(hyperplane_divisor())}
        )
        assert fam.is_canonical()
        assert list(fam.exceptions) == []

    def test_psi_at_defaults_to_canonical(self):
        fam = alpha_family(F(1, 4))
        assert fam.psi_at(Place.prime(7)) == canonical_fn(hyperplane_divisor())
        assert fam.psi_at(Place.prime(2)) == alpha_profile(F(1, 4))

    def test_places_sorted(self):
        psi = canonical_fn(hyperplane_divisor()).shift(-1)
        fam = AdelicFamily(
            hyperplane_divisor(),
            {INF: psi, Place.prime(5): psi, Place.prime(2): psi},
        )
        assert list(fam.exceptions) == [Place.prime(2), Place.prime(5), INF]

    def test_strict_slope_validation(self):
        bad = ConcaveFn.affine(F(1, 2))
        with pytest.raises(ValueError, match="slope"):
            AdelicFamily(hyperplane_divisor(), {INF: bad})
        loose = AdelicFamily(hyperplane_divisor(), {INF: bad}, strict=False)
        assert not loose.slope_valid
        assert loose.singular_places == (INF,)

    def test_singular_flags(self, monkeypatch):
        # building a family runs no boundedness verdict; singular_places
        # does, on first read, and exactly: no float supremum behind it
        def refuse(psi, phi):
            raise AssertionError("bounded_above called while building a family")

        def no_float_sup(psi, phi):
            raise AssertionError("singular_places measured a float supremum")

        monkeypatch.setattr(family_module, "bounded_above", refuse)
        fam = alpha_family(F(1, 4))
        shifted = twist(canonical_family(), {INF: 1})
        monkeypatch.undo()
        monkeypatch.setattr(functions_module, "sup_distance", no_float_sup)
        monkeypatch.setattr(family_module, "sup_distance", no_float_sup, raising=False)
        assert fam.singular_places == (Place.prime(2),)
        assert shifted.singular_places == ()

    def test_singular_places_reuse_the_canonical_profile(self, monkeypatch):
        fam = AdelicFamily(
            hyperplane_divisor(),
            {
                Place.prime(2): alpha_profile(F(1, 4)),
                Place.prime(3): canonical_fn(hyperplane_divisor()).shift(-1),
            },
        )

        def refuse(divisor):
            raise AssertionError("singular_places rebuilt the canonical profile")

        monkeypatch.setattr(family_module, "canonical_fn", refuse)
        assert fam.singular_places == (Place.prime(2),)

    def test_singular_places_are_decided_per_profile(self):
        # one wrong-slope place must not mark a bounded shift elsewhere singular
        divisor = ToricCompactifiedDivisor(1, 1)
        wrong = ConcaveFn([0], [AffinePiece(2, 0), AffinePiece(-1, 0)])
        bounded = canonical_fn(divisor).shift(-1)
        fam = AdelicFamily(divisor, {Place.prime(2): wrong, Place.prime(3): bounded}, strict=False)
        assert not fam.slope_valid
        assert fam.singular_places == (Place.prime(2),)
        assert strongly_nef_local_check(bounded, divisor) == (True, True)

    def test_exception_values_must_be_profiles(self):
        with pytest.raises(TypeError, match="exception values must be concave profiles"):
            AdelicFamily(hyperplane_divisor(), {Place.prime(2): "x"})

    def test_family_is_read_only(self):
        fam = alpha_family(F(1, 4))
        assert fam.exceptions == {Place.prime(2): alpha_profile(F(1, 4))}
        with pytest.raises(AttributeError, match="read-only"):
            fam.divisor = ToricCompactifiedDivisor(1, 1)
        with pytest.raises(AttributeError, match="read-only"):
            fam.strict = False
        with pytest.raises(AttributeError, match="read-only"):
            del fam.exceptions
        with pytest.raises(TypeError):
            fam.exceptions[INF] = alpha_profile(F(1, 3))
        assert list(fam.exceptions) == [Place.prime(2)]
        assert fam.divisor == hyperplane_divisor() and fam.strict

    @pytest.mark.parametrize(
        "psi",
        [
            canonical_fn(hyperplane_divisor()).shift(F(10**400)),
            ConcaveFn([F(10**400)], [AffinePiece(1, 0), AffinePiece(0, F(10**400))]),
            ConcaveFn([0], [AffinePiece(F(10**400, 3), 0), AffinePiece(0, 0)]),
        ],
        ids=["intercept", "breakpoint", "slope"],
    )
    def test_exact_data_beyond_float_range_is_rejected(self, psi):
        with pytest.raises(ValueError, match=r"at Place\(3\): .*float range") as info:
            AdelicFamily(hyperplane_divisor(), {Place.prime(3): psi})
        # an arithmetic limit too: the CLI exits 3 on it, not 2
        assert isinstance(info.value, OverflowError)

    def test_exact_data_below_float_resolution_is_kept(self):
        tiny = F(1, 10**400)
        fam = AdelicFamily(
            hyperplane_divisor(), {Place.prime(3): canonical_fn(hyperplane_divisor()).shift(tiny)}
        )
        assert global_height(fam) == -2 * tiny

    def test_strongly_nef_local_check(self):
        d = hyperplane_divisor()
        assert strongly_nef_local_check(canonical_fn(d), d) == (True, True)
        assert strongly_nef_local_check(alpha_profile(F(1, 4)), d) == (True, False)
        assert strongly_nef_local_check(ConcaveFn.affine(F(1, 2)), d)[0] is False

    @given(
        st.one_of(
            alpha_profiles(),
            near_colliding_profiles([F(1, 3), F(1, 2)], max_inner=3),
            st.fractions(-5, 5, max_denominator=7).map(canonical_fn(hyperplane_divisor()).shift),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_local_check_agrees_with_the_float_supremum(self, psi):
        d = hyperplane_divisor()
        assert strongly_nef_local_check(psi, d)[1] == (
            sup_distance(psi, canonical_fn(d)) < math.inf
        )

    @given(st.integers(1, 40), st.sampled_from([-1, 1]), st.booleans())
    @example(20, 1, True)
    @example(20, -1, False)
    @settings(max_examples=40, deadline=None)
    def test_slope_off_by_tiny_amount_is_rejected(self, k, sign, at_neg):
        eps = sign * F(1, 10**k)
        slopes = (1 + eps, F(0)) if at_neg else (F(1), eps)
        psi = ConcaveFn([0], [AffinePiece(slopes[0], 0), AffinePiece(slopes[1], 0)])
        d = hyperplane_divisor()
        with pytest.raises(ValueError, match="wrong asymptotic slopes"):
            AdelicFamily(d, {INF: psi})
        assert strongly_nef_local_check(psi, d) == (False, False)


class TestRoof:
    def test_canonical_roof_is_zero(self):
        theta = roof(canonical_family())
        assert theta.domain == (F(0), F(1))
        assert theta.endpoints() == (F(0), F(0))
        assert theta.value(F(1, 3)) == F(0)
        assert theta.minimum() == F(0)

    def test_shifted_roof_is_constant(self):
        # psi = canonical + c dualizes to -c
        psi = canonical_fn(hyperplane_divisor()).shift(F(3, 2))
        theta = roof(AdelicFamily(hyperplane_divisor(), {INF: psi}))
        assert theta.endpoints() == (F(-3, 2), F(-3, 2))
        assert theta.value(F(1, 2)) == F(-3, 2)

    def test_alpha_roof_closed_form(self):
        theta = roof(alpha_family(F(1, 4)))
        left, right = theta.endpoints()
        assert left == pytest.approx(-4.0)
        assert right == -math.inf
        m = 0.5
        expected = m - 1 - 3 * (1 - m) ** (-1 / 3)
        assert theta(m) == pytest.approx(expected, abs=1e-12)

    def test_roof_sums_over_places(self):
        psi = canonical_fn(hyperplane_divisor()).shift(1)
        fam = AdelicFamily(
            hyperplane_divisor(), {Place.prime(2): psi, Place.prime(3): psi}
        )
        theta = roof(fam)
        assert theta.value(F(1, 2)) == F(-2)

    def test_roof_requires_matching_slopes(self):
        loose = AdelicFamily(
            hyperplane_divisor(), {INF: ConcaveFn.affine(F(1, 2))}, strict=False
        )
        with pytest.raises(ValueError, match="slope"):
            roof(loose)

    @given(
        st.lists(near_colliding_profiles([F(1, 3), F(1, 2)], max_inner=3), min_size=1, max_size=4)
    )
    @example(
        [
            profile_through([F(1), F(1, 3), F(0)], [F(-1), F(2)]),
            profile_through([F(1), F(1, 3) + F(1, 10**20), F(0)], [F(-2), F(1)]),
        ]
    )
    @settings(max_examples=60, deadline=None)
    def test_roof_additivity_exact(self, profiles):
        places = [Place.prime(p) for p in (2, 3, 5, 7)]
        fam = AdelicFamily(hyperplane_divisor(), dict(zip(places, profiles)))
        height = global_height(fam)
        duals = [legendre_dual(psi) for psi in profiles]
        expected = 2 * sum((d.integral() for d in duals), F(0))
        assert isinstance(height, F) and isinstance(expected, F)
        assert height == expected
        # the sweep-merged roof is a second computation of the same sum
        merged = roof(fam).dual
        assert set(merged.breakpoints) == set().union(*(d.breakpoints for d in duals))
        assert 2 * merged.integral() == height
        for m in (merged.lo, *merged.breakpoints, merged.hi):
            value = merged.value(m)
            assert isinstance(value, F)
            assert value == sum((d.value(m) for d in duals), F(0))


def kinked_alpha_profile(alpha, t0) -> ConcaveFn:
    """An alpha piece up to the kink t0 < 0, then the constant it reaches
    there: its dual has a float breakpoint and a power term on the last
    piece only."""
    head = AlphaPiece(alpha, 1, 0)
    return ConcaveFn([t0], [head, AffinePiece(0, head.value(t0))])


class TestRoofSweep:
    """The merged roof (one sorted sweep over the per-place duals) against
    the per-place sums that give the height, minimum and nef verdict."""

    @given(
        st.lists(
            st.one_of(alpha_profiles(), near_colliding_profiles([F(1, 3), F(1, 2)], max_inner=3)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_merged_value_is_the_sum_of_place_values(self, profiles):
        places = [Place.prime(p) for p in (2, 3, 5, 7, 11)]
        fam = AdelicFamily(hyperplane_divisor(), dict(zip(places, profiles)))
        duals = [legendre_dual(psi) for psi in profiles]
        merged = roof(fam).dual
        assert set(merged.breakpoints) == set().union(*(d.breakpoints for d in duals))
        knots = (merged.lo, *merged.breakpoints, merged.hi)
        midpoints = [(a + b) / 2 for a, b in zip(knots, knots[1:])]
        for m in (*knots, *midpoints):
            got = merged.value(m)
            parts = [d.value(m) for d in duals]
            want = sum(parts, F(0))
            assert type(got) is type(want)
            if isinstance(want, F):
                assert got == want
            elif math.isinf(want) or math.isinf(got):
                assert got == want
            else:
                # float only where an alpha place enters (its power term, or
                # the float intercepts continuing it): the merged piece
                # rounds its summed coefficients once and the sum rounds per
                # place, which differ by a few ulps of the largest place value
                scale = max(1.0, *(abs(float(v)) for v in parts))
                assert got == pytest.approx(want, rel=0, abs=1e-12 * scale)

    def test_degenerate_domain(self):
        # a + b = 0: every dual lives on the point {1} and the roof is the
        # single piece -(sum of the constants), with height exactly 0
        divisor = ToricCompactifiedDivisor(-1, 1)
        shifts = {Place.prime(2): F(1, 3), Place.prime(5): F(-2, 7), INF: F(5)}
        fam = AdelicFamily(
            divisor, {place: ConcaveFn.affine(1, c) for place, c in shifts.items()}
        )
        theta = roof(fam)
        total = -sum(shifts.values(), F(0))
        assert theta.domain == (F(1), F(1))
        assert theta.dual.breakpoints == ()
        assert theta.dual.pieces == (DualPiece(0, total),)
        assert theta.endpoints() == (total, total)
        height = global_height(fam)
        assert isinstance(height, F) and height == 0
        assert nef_status(fam) == NefStatus("relatively_nef_only", total)

    def test_power_terms_keep_place_order(self):
        # the place with the largest index has the smallest float
        # breakpoint, so its power term is the first the sweep meets
        alphas = {Place.prime(5): F(1, 5), Place.prime(2): F(1, 4), Place.prime(3): F(1, 3)}
        kinks = {Place.prime(5): F(-1, 2), Place.prime(2): F(-4), Place.prime(3): F(-2)}
        fam = AdelicFamily(
            hyperplane_divisor(),
            {place: kinked_alpha_profile(alphas[place], kinks[place]) for place in alphas},
        )
        duals = [legendre_dual(fam.exceptions[place]) for place in list(fam.exceptions)]
        merged = roof(fam).dual
        knots = (merged.lo, *merged.breakpoints, merged.hi)
        assert len(merged.pieces) == 4
        for piece, a, b in zip(merged.pieces, knots, knots[1:]):
            m = (a + b) / 2
            assert piece.terms == tuple(t for d in duals for t in d.piece_at(m).terms)
        exponents = [-float(a) / float(1 - a) for a in (F(1, 4), F(1, 3), F(1, 5))]
        assert [t.exponent for t in merged.pieces[-1].terms] == exponents


@st.composite
def rational_families(draw) -> AdelicFamily:
    """Families of rational affine profiles, up to 16 breakpoints each, for
    a drawn divisor. The places draw their breakpoints and inner slopes
    from two shared pools, so knots coincide across places. A degree-0
    divisor makes every profile a line and every dual a point."""
    b = draw(st.fractions(-3, 3, max_denominator=7))
    degree = draw(st.one_of(st.just(F(0)), st.fractions(F(1, 10), 4, max_denominator=10)))
    divisor = ToricCompactifiedDivisor(degree - b, b)
    pool_size = draw(st.integers(1, 16))
    bp_pool = draw(
        st.lists(
            st.fractions(-8, 8, max_denominator=30),
            min_size=pool_size,
            max_size=pool_size,
            unique=True,
        )
    )
    slope_pool = draw(
        st.lists(
            st.fractions(0, 1, max_denominator=40).filter(lambda w: 0 < w < 1),
            min_size=pool_size - 1,
            max_size=pool_size - 1,
            unique=True,
        )
    )
    slope_pool = [b - w * degree for w in slope_pool]
    table = {}
    primes = draw(
        st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=5, unique=True)
    )
    for p in primes:
        c0 = draw(st.fractions(-4, 4, max_denominator=11))
        if degree == 0:
            table[Place.prime(p)] = ConcaveFn.affine(b, c0)
            continue
        k = draw(st.integers(1, pool_size))
        bps = sorted(draw(st.permutations(bp_pool))[:k])
        inner = sorted(draw(st.permutations(slope_pool))[: k - 1], reverse=True)
        table[Place.prime(p)] = profile_through([b, *inner, -divisor.a], bps, c0)
    return AdelicFamily(divisor, table)


def _oracle_value(duals, m):
    """sum((d.value(m) for d in duals), Fraction(0)), each place's value
    checked against its piece's operator chain at the exact m."""
    for d in duals:
        piece = d.piece_at(m)
        if not piece.terms:
            assert _same(d.value(m), piece.slope * F(m) + piece.intercept)
    return sum((d.value(m) for d in duals), F(0))


def _chain_integral(d) -> F:
    """The integral of a rational affine dual by Fraction operators,
    piece by piece."""
    if d.is_degenerate():
        return F(0)
    edges = [d.lo, *d.breakpoints, d.hi]
    return sum(
        (
            p.slope * (b * b - a * a) / 2 + p.intercept * (b - a)
            for p, a, b in zip(d.pieces, edges, edges[1:])
        ),
        F(0),
    )


def _same(x, y) -> bool:
    """Equal and of one type; a float bit for bit (repr tells -0.0 apart)."""
    return type(x) is type(y) and (x == y if isinstance(x, F) else repr(x) == repr(y))


class TestRoofSums:
    """The roof's endpoint values, value, integral and height sum the
    places on integer ratios; they equal the left-to-right Fraction sums
    of the per-place values, exactly, and bit for bit once a float
    enters."""

    @given(rational_families(), st.fractions(0, 1, max_denominator=97))
    @settings(max_examples=80, deadline=None)
    def test_rational_sums_equal_the_operator_chains(self, fam, w):
        theta = roof(fam)
        duals = theta.duals
        lo, hi = theta.domain
        merged = theta.dual
        for d in duals:
            assert d.integral() == _chain_integral(d)
        integral = sum((d.integral() for d in duals), F(0))
        assert _same(theta.integral(), integral)
        assert _same(theta.height(), 2 * integral) and _same(global_height(fam), 2 * integral)
        assert _same(theta.endpoints()[0], _oracle_value(duals, lo))
        assert _same(theta.endpoints()[1], _oracle_value(duals, hi))
        for m in (lo, *merged.breakpoints, hi, lo + w * (hi - lo)):
            want = _oracle_value(duals, m)
            assert isinstance(want, F)
            assert _same(theta.value(m), want) and _same(merged.value(m), want)
        if lo == hi:
            assert all(d.is_degenerate() for d in duals) and theta.height() == 0

    @given(
        st.lists(
            st.one_of(
                alpha_profiles(),
                affine_head_alpha_profiles(),
                near_colliding_profiles([F(1, 3), F(1, 2)], max_inner=3),
            ),
            min_size=1,
            max_size=5,
        ),
        st.fractions(0, 1, max_denominator=97),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_sums_are_bit_identical(self, profiles, w):
        places = [Place.prime(p) for p in (2, 3, 5, 7, 11)]
        fam = AdelicFamily(hyperplane_divisor(), dict(zip(places, profiles)))
        theta = roof(fam)
        duals = theta.duals
        lo, hi = theta.domain
        integral = sum((d.integral() for d in duals), F(0))
        assert _same(theta.integral(), integral)
        assert _same(theta.height(), 2 * integral)
        assert _same(theta.endpoints()[0], _oracle_value(duals, lo))
        assert _same(theta.endpoints()[1], _oracle_value(duals, hi))
        knots = (lo, *theta.dual.breakpoints, hi)
        for m in (*knots, lo + w * (hi - lo), float(w)):
            assert _same(theta.value(m), _oracle_value(duals, m))

    @pytest.mark.parametrize(
        "lo, breakpoints, hi",
        [
            (F(0), [F(1, 2), F(1, 2)], F(1)),
            (F(0), [F(2, 3), F(1, 3)], F(1)),
            (F(0), [F(0)], F(1)),
            (F(0), [F(1)], F(1)),
            (F(0), [F(3, 2)], F(1)),
            (0.0, [0.5, 0.5], 1.0),
            (0.0, [0.75, 0.25], 1.0),
            (F(0), [0.5, F(1, 2)], F(1)),
            (F(0), [F(1, 2), 0.25], 1.0),
            (F(0), [0.0], F(1)),
        ],
    )
    def test_dual_refuses_knots_out_of_order(self, lo, breakpoints, hi):
        pieces = [DualPiece(0, 0)] * (len(breakpoints) + 1)
        with pytest.raises(ValueError, match="must increase"):
            DualFn(lo, hi, breakpoints, pieces)

    def test_dual_domain_checks(self):
        with pytest.raises(ValueError, match="empty"):
            DualFn(F(1), 0.5, [], [DualPiece(0, 0)])
        with pytest.raises(ValueError, match="single piece"):
            DualFn(0.5, F(1, 2), [], [DualPiece(0, 0)] * 2)
        with pytest.raises(ValueError, match="^a point domain carries a single piece$"):
            DualFn(1, 1, [], [])
        mixed = DualFn(F(0), 1.0, [0.25, F(1, 2), 0.75], [DualPiece(0, 0)] * 4)
        assert mixed.breakpoints == (0.25, F(1, 2), 0.75)


class TestRoofCache:
    """A family builds its per-place duals once, on first use, and every
    height and the nef verdict read that one roof."""

    def test_duals_built_once(self, monkeypatch):
        calls = []

        def counting_dual(psi):
            calls.append(psi)
            return legendre_dual(psi)

        monkeypatch.setattr(family_module, "legendre_dual", counting_dual)
        rng = random.Random(11)
        places = [Place.prime(p) for p in (2, 3, 5, 7, 11, 13)]
        fam = AdelicFamily(hyperplane_divisor(), {p: bounded_profile(rng) for p in places})
        n = len(list(fam.exceptions))
        assert n >= 4
        global_height(fam)
        nef_status(fam)
        boundary_height(fam, "zero")
        boundary_height(fam, "infinity")
        assert len(calls) == n + 1
        assert roof(fam) is roof(fam)

    def test_twist_builds_a_fresh_roof(self):
        divisor = ToricCompactifiedDivisor(1, 2)
        fam = AdelicFamily(divisor, {Place.prime(3): canonical_fn(divisor).shift(F(1, 3))})
        before = global_height(fam)
        c = {INF: F(1, 2), Place.prime(3): F(-1, 5), Place.prime(7): F(2, 9)}
        twisted = twist(fam, c)
        assert twisted is not fam and roof(twisted) is not roof(fam)
        assert global_height(twisted) - before == 2 * divisor.degree * sum(c.values())
        assert global_height(fam) == before

    @given(
        st.lists(near_colliding_profiles([F(1, 3), F(1, 2)], max_inner=3), min_size=1, max_size=4)
    )
    @settings(max_examples=40, deadline=None)
    def test_cached_roof_matches_a_roof_built_directly(self, profiles):
        places = [Place.prime(p) for p in (2, 3, 5, 7)]
        fam = AdelicFamily(hyperplane_divisor(), dict(zip(places, profiles)))
        nef_status(fam)  # fills the cache
        theta = roof(fam)
        direct = RoofFunction(
            [legendre_dual(psi) for psi in (fam.canonical, *fam.exceptions.values())],
            fam.divisor,
        )
        assert theta.height() == direct.height()
        assert theta.endpoints() == direct.endpoints()
        assert all(isinstance(v, F) for v in (theta.height(), *theta.endpoints()))


class TestHeights:
    def test_canonical_global_height_zero_exact(self):
        h = global_height(canonical_family())
        assert isinstance(h, F) and h == 0

    def test_boundary_heights_canonical(self):
        fam = canonical_family()
        assert boundary_height(fam, "zero") == F(0)
        assert boundary_height(fam, "infinity") == F(0)
        with pytest.raises(ValueError):
            boundary_height(fam, "one")

    def test_point_height_weil(self):
        fam = canonical_family()
        assert point_height(fam, 2) == pytest.approx(math.log(2))
        assert point_height(fam, 1) == 0.0
        assert point_height(fam, F(3, 7)) == pytest.approx(math.log(7))
        with pytest.raises(ValueError):
            point_height(fam, 0)

    def test_point_height_exact_weil(self):
        fam = canonical_family()
        assert point_height_exact(fam, 2) == LogLinear({2: 1})
        assert point_height_exact(fam, F(12, 5)) == log_abs(12, INF)
        assert point_height_exact(fam, F(5, 12)) == log_abs(12, INF)
        assert point_height_exact(fam, -1).is_zero()

    @given(rationals)
    @settings(max_examples=60, deadline=None)
    def test_point_height_exact_matches_weil_oracle(self, t):
        fam = canonical_family()
        expected = log_abs(max(abs(t.numerator), t.denominator), INF)
        assert point_height_exact(fam, t) == expected

    def test_point_height_exact_rejects_exceptions(self):
        with pytest.raises(ValueError, match="canonical"):
            point_height_exact(alpha_family(F(1, 4)), 2)

    def test_alpha_point_height_at_one(self):
        # only the exceptional place contributes: -psi_v(0) = -1/alpha
        assert point_height(alpha_family(F(1, 4)), 1) == pytest.approx(-4.0)

    def test_point_height_matches_exact_float(self):
        fam = canonical_family()
        rng = random.Random(5)
        for _ in range(25):
            t = F(rng.randint(-999, 999) or 1, rng.randint(1, 999))
            assert point_height(fam, t) == pytest.approx(
                float(point_height_exact(fam, t)), abs=1e-9
            )

    def test_point_height_dominates_roof_left_endpoint(self):
        # a = 0 puts every point height above the roof value at 0
        fam = alpha_family(F(1, 4))
        floor = float(boundary_height(fam, "zero"))
        rng = random.Random(17)
        for _ in range(20):
            t = F(rng.randint(-50, 50) or 3, rng.randint(1, 50))
            assert point_height(fam, t) >= floor - 1e-9

    def test_alpha_heights_both_routes(self):
        for alpha in (F(1, 10), F(1, 4), F(2, 5)):
            expected = closed_form_energy(alpha)
            fam = alpha_family(alpha)
            assert global_height(fam) == pytest.approx(expected, abs=1e-6)
            assert extended_height(canonical_family(), fam) == pytest.approx(
                expected, abs=1e-6
            )

    def test_alpha_divergent_heights(self):
        for alpha in (F(1, 2), F(3, 4), F(10**14 - 1, 10**14), F(10**17 - 1, 10**17)):
            fam = alpha_family(alpha)
            assert global_height(fam) == -math.inf
            assert extended_height(canonical_family(), fam) == -math.inf

    def test_degree_zero_height(self):
        fam = AdelicFamily(ToricCompactifiedDivisor(-1, 1))
        assert global_height(fam) == 0


# the bound the example-alpha subcommand holds the two routes to
ROUTE_GAP = 1e-6


class TestAlphaAfterTheHead:
    """Families whose profile has its alpha piece after the first piece:
    both height routes agree, and an affine end keeps its roof endpoint
    finite."""

    @given(affine_head_alpha_profiles())
    @example(cutoff(alpha_profile(F(1, 4)), canonical_fn(hyperplane_divisor()), 10))
    @example(cutoff(alpha_profile(F(1, 2)), canonical_fn(hyperplane_divisor()), 10))
    @settings(max_examples=60, deadline=None)
    def test_roof_route_equals_energy_route(self, psi):
        fam = AdelicFamily(hyperplane_divisor(), {INF: psi})
        roof_route = global_height(fam)
        energy_route = extended_height(canonical_family(), fam)
        if roof_route == -math.inf:
            assert energy_route == -math.inf
        else:
            assert abs(float(roof_route) - float(energy_route)) <= ROUTE_GAP
        left, right = roof(fam).endpoints()
        # the left endpoint is the profile's end toward +inf, the right one
        # its end toward -inf
        if isinstance(psi.pieces[-1], AffinePiece):
            assert math.isfinite(left)
        if isinstance(psi.pieces[0], AffinePiece):
            assert math.isfinite(right)

    def test_cutoff_of_the_quarter_profile(self):
        psi = cutoff(alpha_profile(F(1, 4)), canonical_fn(hyperplane_divisor()), 10)
        fam = AdelicFamily(hyperplane_divisor(), {INF: psi})
        # the energy route and the true dual both give -242/25
        assert global_height(fam) == pytest.approx(F(-242, 25), abs=1e-12)
        assert extended_height(canonical_family(), fam) == pytest.approx(F(-242, 25), abs=1e-12)
        assert roof(fam).endpoints() == (-4.0, -10)
        assert nef_status(fam) == NefStatus("relatively_nef_only", -10)
        assert boundary_height(fam, "infinity") == -10


class TestEnergy:
    def test_self_energy_zero(self):
        fam = alpha_family(F(1, 4))
        assert global_energy(fam, fam) == 0.0

    def test_exact_empty_sums_are_fractions(self):
        # a sum with no term is an exact zero, as on any rational data
        d0 = canonical_fn(ToricCompactifiedDivisor(1, -1))  # degree 0: one line
        assert len(d0.pieces) == 1
        ramp = canonical_fn(hyperplane_divisor())
        for total in (
            integrate_against((ramp, ramp.shift(1)), Measure1D()),
            local_energy(d0, d0),
            global_energy(alpha_family(F(1, 4)), alpha_family(F(1, 4))),
        ):
            assert type(total) is F and total == 0

    def test_divisor_mismatch(self):
        with pytest.raises(ValueError, match="divisor"):
            global_energy(
                canonical_family(), AdelicFamily(ToricCompactifiedDivisor(1, 1))
            )

    def test_shift_energy(self):
        # lowering by c at one place costs 2c (two unit masses)
        shifted = twist(canonical_family(), {INF: F(5, 4)})
        assert global_energy(canonical_family(), shifted) == pytest.approx(2.5)

    def test_energy_matches_closed_form(self):
        for alpha in (F(1, 10), F(1, 4)):
            got = global_energy(canonical_family(), alpha_family(alpha))
            assert got == pytest.approx(closed_form_energy(alpha), abs=1e-6)

    def test_divergent_energy(self):
        assert global_energy(canonical_family(), alpha_family(F(1, 2))) == -math.inf

    def test_precondition_error_names_place(self):
        with pytest.raises(ValueError, match=r"Place\(2\)"):
            global_energy(alpha_family(F(1, 4)), canonical_family())
        # one place diverges, the other breaks the precondition: the
        # error is raised whichever place comes first
        for ref_at, sing_at in ((3, 2), (2, 3)):
            ref = alpha_family(F(1, 4), Place.prime(ref_at))
            sing = alpha_family(F(3, 4), Place.prime(sing_at))
            with pytest.raises(ValueError, match=rf"Place\({ref_at}\)"):
                global_energy(ref, sing)

    def test_additivity_over_places(self):
        rng = random.Random(29)
        psi2, psi3 = bounded_profile(rng), bounded_profile(rng)
        both = AdelicFamily(
            hyperplane_divisor(), {Place.prime(2): psi2, Place.prime(3): psi3}
        )
        only2 = AdelicFamily(hyperplane_divisor(), {Place.prime(2): psi2})
        only3 = AdelicFamily(hyperplane_divisor(), {Place.prime(3): psi3})
        ref = canonical_family()
        total = global_energy(ref, both)
        parts = global_energy(ref, only2) + global_energy(ref, only3)
        assert total == pytest.approx(parts, abs=1e-9)

    def test_global_transitivity(self):
        rng = random.Random(31)
        for _ in range(10):
            fams = [
                AdelicFamily(hyperplane_divisor(), {Place.prime(5): bounded_profile(rng)})
                for _ in range(3)
            ]
            e01 = global_energy(fams[0], fams[1])
            e12 = global_energy(fams[1], fams[2])
            e02 = global_energy(fams[0], fams[2])
            assert e01 + e12 == pytest.approx(e02, abs=1e-6)


class TestExtendedHeight:
    def test_reference_must_be_nef(self):
        with pytest.raises(ValueError, match="nef"):
            extended_height(alpha_family(F(1, 4)), alpha_family(F(1, 4)))

    def test_reference_with_wrong_slopes_is_not_nef(self):
        loose = AdelicFamily(
            hyperplane_divisor(), {INF: ConcaveFn.affine(F(1, 2))}, strict=False
        )
        with pytest.raises(ValueError, match="^reference family is not arithmetically nef$"):
            extended_height(loose, canonical_family())

    def test_reduces_to_height_on_equal_families(self):
        fam = twist(canonical_family(), {INF: 2})
        assert extended_height(fam, fam) == global_height(fam) == 4

    @given(
        st.lists(near_colliding_profiles([F(1, 3), F(1, 2)], max_inner=3), min_size=1, max_size=3),
        st.fractions(0, 3, max_denominator=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_route_is_exact_on_rational_families(self, profiles, lift):
        # the two routes share no code, and on rational data both are exact
        places = [Place.prime(p) for p in (2, 3, 5)]
        sing = AdelicFamily(hyperplane_divisor(), dict(zip(places, profiles)))
        ref = twist(canonical_family(), {INF: lift})
        energy_route = extended_height(ref, sing)
        assert isinstance(energy_route, F)
        assert energy_route == global_height(sing)

    def test_ample_reference(self):
        # reference lifted above zero stays a valid base point
        ref = twist(canonical_family(), {INF: 1})
        sing = twist(alpha_family(F(1, 4)), {INF: 1})
        got = extended_height(ref, sing)
        assert got == pytest.approx(2.0 + closed_form_energy(F(1, 4)), abs=1e-6)


class TestNefStatus:
    def test_canonical_nef_only(self):
        status = nef_status(canonical_family())
        assert status == NefStatus("S_nef_only", F(0))

    def test_twisted_ample(self):
        status = nef_status(twist(canonical_family(), {INF: F(1, 2)}))
        assert status.status == "S_ample"
        assert status.mu_min_asy == F(1, 2)

    def test_raised_profile_loses_nef(self):
        # psi = canonical + c sends the roof to -c
        psi = canonical_fn(hyperplane_divisor()).shift(F(1, 3))
        fam = AdelicFamily(hyperplane_divisor(), {Place.prime(7): psi})
        status = nef_status(fam)
        assert status.status == "relatively_nef_only"
        assert status.mu_min_asy == F(-1, 3)

    def test_alpha_family_singular_roof(self):
        status = nef_status(alpha_family(F(1, 4)))
        assert status.status == "relatively_nef_only"
        assert status.mu_min_asy == -math.inf

    def test_invalid_slopes(self):
        loose = AdelicFamily(
            hyperplane_divisor(), {INF: ConcaveFn.affine(F(1, 2))}, strict=False
        )
        status = nef_status(loose)
        assert status.status == "not_relatively_nef"
        assert status.mu_min_asy is None

    @given(st.integers(1, 400), st.sampled_from([-1, 1]))
    @example(400, 1)
    @example(400, -1)
    @settings(max_examples=30, deadline=None)
    def test_sign_of_tiny_minimum_is_exact(self, k, sign):
        mu = sign * F(1, 10**k)
        psi = canonical_fn(hyperplane_divisor()).shift(-mu)
        status = nef_status(AdelicFamily(hyperplane_divisor(), {Place.prime(7): psi}))
        expected = "S_ample" if sign > 0 else "relatively_nef_only"
        assert status == NefStatus(expected, mu)

    def test_twist_upgrades_to_ample(self):
        fam = AdelicFamily(
            hyperplane_divisor(),
            {Place.prime(2): canonical_fn(hyperplane_divisor()).shift(F(1, 3))},
        )
        assert nef_status(fam).status == "relatively_nef_only"
        assert nef_status(twist(fam, {INF: 10})).status == "S_ample"


@st.composite
def rational_twist_cases(draw):
    """A family of piecewise-affine rational profiles for a random divisor
    a[0] + b[inf], at up to three of the places 2, 3, 5 and infinity, and a
    rational twist on up to three of them."""
    pool = [Place.prime(2), Place.prime(3), Place.prime(5), INF]
    small = st.fractions(-3, 3, max_denominator=6)
    b = draw(small)
    a = draw(st.fractions(-b, 3 - b, max_denominator=6))
    divisor = ToricCompactifiedDivisor(a, b)
    table = {}
    for place in draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)):
        inner = draw(st.lists(st.fractions(-a, b, max_denominator=6), max_size=2, unique=True))
        slopes = [b, *sorted((s for s in inner if -a < s < b), reverse=True), -a]
        slopes = list(dict.fromkeys(slopes))
        bps = draw(
            st.lists(small, min_size=len(slopes) - 1, max_size=len(slopes) - 1, unique=True)
        )
        table[place] = profile_through(slopes, sorted(bps), draw(small))
    c = draw(st.dictionaries(st.sampled_from(pool), small, max_size=3))
    return AdelicFamily(divisor, table), c


class TestTwist:
    @given(rational_twist_cases(), st.fractions(F(1, 50), 50, max_denominator=50))
    @settings(max_examples=80, deadline=None)
    def test_twist_rule(self, case, t):
        # the roof gains sum(c) pointwise: the height gains exactly
        # 2*deg*sum(c), each boundary height exactly sum(c), and a point
        # height sum(c) up to the float logs it is made of
        fam, c = case
        lifted, gain = twist(fam, c), sum(c.values(), F(0))
        assert global_height(lifted) - global_height(fam) == 2 * fam.divisor.degree * gain
        for point in ("zero", "infinity"):
            assert boundary_height(lifted, point) - boundary_height(fam, point) == gain
        assert point_height(lifted, t) == pytest.approx(
            point_height(fam, t) + float(gain), abs=1e-9
        )

    def test_zero_twist_is_identity(self):
        fam = alpha_family(F(1, 4))
        out = twist(fam, {INF: 0})
        assert out.exceptions == fam.exceptions

    def test_twist_composes_and_cancels(self):
        fam = canonical_family()
        there = twist(fam, {Place.prime(3): F(2, 7)})
        back = twist(there, {Place.prime(3): F(-2, 7)})
        assert back.is_canonical()

    def test_height_covariance_degree_one(self):
        fam = canonical_family()
        c = {INF: F(3, 4), Place.prime(2): F(1, 4)}
        assert global_height(twist(fam, c)) == 2  # 2 * sum(c)
        assert global_height(twist(fam, {INF: 1})) == 2

    def test_height_covariance_general_degree(self):
        # gain is 2 * degree * sum(c): the roof domain has length a + b
        fam = AdelicFamily(ToricCompactifiedDivisor(1, 2))
        before = global_height(fam)
        after = global_height(twist(fam, {INF: F(1, 2)}))
        assert after - before == 2 * 3 * F(1, 2)

    def test_point_height_covariance(self):
        fam = canonical_family()
        c = {INF: F(1, 2), Place.prime(5): F(1, 3)}
        shift = float(F(1, 2) + F(1, 3))
        rng = random.Random(13)
        for _ in range(10):
            t = F(rng.randint(1, 200), rng.randint(1, 200))
            assert point_height(twist(fam, c), t) == pytest.approx(
                point_height(fam, t) + shift, abs=1e-9
            )

    def test_roof_covariance(self):
        fam = alpha_family(F(1, 4))
        lifted = roof(twist(fam, {INF: F(1, 5)}))
        base = roof(fam)
        for m in (0.0, 0.25, 0.5, 0.9):
            assert lifted(m) == pytest.approx(base(m) + 0.2, abs=1e-12)

    def test_height_consistency_after_twist(self):
        # the energy route tracks the roof route through a twist
        ref = canonical_family()
        sing = twist(alpha_family(F(1, 4)), {Place.prime(3): F(-1, 2)})
        assert extended_height(ref, sing) == pytest.approx(
            global_height(sing), abs=1e-6
        )
