"""The value classes of every layer: one read-only base for all of them,
equality and hashing over their fields, the normalisation each
constructor applies, and the import surface of each layer: its star
import and its exports loaded on first use."""

import ast
import copy
import importlib
import math
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic_heights import scalars
from adelic_heights.adelic_curve import (
    AdelicFamily,
    LogLinear,
    NefStatus,
    Place,
    ToricCompactifiedDivisor,
    canonical_fn,
    global_energy,
    global_height,
    nef_status,
    roof,
)
from adelic_heights.adelic_curve.heights import place_energies
from adelic_heights.convex_calculus import (
    AffinePiece,
    AlphaPiece,
    ConcaveFn,
    DensityPiece,
    DualFn,
    DualPiece,
    Measure1D,
    PowerTerm,
    legendre_dual,
    monge_ampere,
)
from adelic_heights.divisorial_core import Cell, Constraint, RationalVector
from adelic_heights.scalars import (
    Frozen,
    _above,
    _add_twice_integral,
    _affine_ratio,
    _difference,
    _float_of,
    _in_unit_interval,
    _increasing,
    _integer_form,
    _negated,
    _ratio_sum,
    _read,
    _times,
)

DIVISOR = ToricCompactifiedDivisor(0, 1)

# (an instance, an equal one built from other input types, an unequal one)
VALUES = {
    "AffinePiece": (AffinePiece(1, 2), AffinePiece(F(1), "2"), AffinePiece(1, 3)),
    "AlphaPiece": (
        AlphaPiece(F(1, 4), 1, 0),
        AlphaPiece("1/4", F(1), 0),
        AlphaPiece(F(1, 3), 1, 0),
    ),
    "PowerTerm": (PowerTerm(-3.0, -0.25, 1), PowerTerm(-3.0, -0.25, 1), PowerTerm(-3.0, -0.5, 1)),
    "DualPiece": (
        DualPiece(1, 0, [PowerTerm(-3.0, -0.25, 1)]),
        DualPiece(F(1), F(0), (PowerTerm(-3.0, -0.25, 1),)),
        DualPiece(1, 0),
    ),
    "DensityPiece": (
        DensityPiece(None, 0, 0.75, -1.75),
        DensityPiece(None, F(0), 0.75, -1.75),
        DensityPiece(-1, 0, 0.75, -1.75),
    ),
    "Measure1D": (
        Measure1D([(0, F(1))]),
        Measure1D(((F(0), F(1)),), ()),
        Measure1D([(1, F(1))]),
    ),
    "NefStatus": (
        NefStatus("S_nef_only", F(0)),
        NefStatus("S_nef_only", 0),
        NefStatus("S_ample", F(0)),
    ),
    "Place": (Place(2), Place.prime(2), Place.infinity()),
    "LogLinear": (LogLinear({2: 1}), LogLinear({2: F(1), 3: 0}), LogLinear({3: 1})),
    "ToricCompactifiedDivisor": (
        ToricCompactifiedDivisor(0, 1),
        ToricCompactifiedDivisor(F(0), "1"),
        ToricCompactifiedDivisor(1, 1),
    ),
    "ConcaveFn": (
        canonical_fn(DIVISOR),
        ConcaveFn(["0"], [AffinePiece(1, 0), AffinePiece(F(0), F(0))]),
        canonical_fn(DIVISOR).shift(1),
    ),
    "DualFn": (
        legendre_dual(canonical_fn(DIVISOR).shift(F(1, 3))),
        DualFn(F(0), "1", (), (DualPiece(F(0), "-1/3"),)),
        legendre_dual(canonical_fn(DIVISOR)),
    ),
    "Constraint": (
        Constraint((1, 0)),
        Constraint([F(1), F(0)], strict=False),
        Constraint((1, 0), True),
    ),
    "Cell": (
        Cell((Constraint((1, 0)),)),
        Cell([Constraint((1, 0))]),
        Cell(()),
    ),
    "RationalVector": (
        RationalVector([1, F(1, 2)]),
        RationalVector(["1", "1/2"]),
        RationalVector([1, 0]),
    ),
}


def test_one_base_holds_the_value_rules():
    # the rules live in Frozen alone; LogLinear hashes its dict field itself
    classes = {type(value) for value, _, _ in VALUES.values()}
    assert classes == set(Frozen.__subclasses__())
    for cls in classes:
        rules = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"}
        own = rules & set(vars(cls))
        assert own == ({"__hash__"} if cls is LogLinear else set()), cls.__name__


def test_one_kernel_holds_the_ratio_format():
    # integer ratios are read only in scalars; the profile layers call the
    # kernel, and the family reaches it without duality's private names
    package = Path(scalars.__file__).parent
    for layer in ("convex_calculus", "adelic_curve"):
        for module in sorted((package / layer).glob("*.py")):
            assert "as_integer_ratio" not in module.read_text(), module.name
    # the divisorial core reads no ratio at all: it decides on integer forms
    for module in sorted((package / "divisorial_core").glob("*.py")):
        text = module.read_text()
        for name in (".numerator", ".denominator", "as_integer_ratio"):
            assert name not in text, (module.name, name)
    tree = ast.parse((package / "adelic_curve" / "family.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.endswith("duality"):
            assert not [a.name for a in node.names if a.name.startswith("_")]


def _imported_modules(path: Path) -> set[str]:
    """The last name of every module a file imports, and every name it
    imports from a package (so that `from . import energy` counts)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    return {name.rsplit(".", 1)[-1] for name in names}


def test_the_two_height_routes_share_no_module():
    # the roof route (duality) and the energy route (measures, energy)
    # reach the profiles and the kernel, never each other
    layer = Path(scalars.__file__).parent / "convex_calculus"
    assert not _imported_modules(layer / "duality.py") & {"measures", "energy"}
    for name in ("measures.py", "energy.py"):
        assert "duality" not in _imported_modules(layer / name), name


# Mixed kernel inputs: Fractions and floats, negatives and zeros among them
# (-0.0 too), and floats that equal a Fraction drawn beside them.
FRACTIONS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
NUMBERS = st.one_of(
    FRACTIONS, FLOATS, st.sampled_from([F(0), F(-1, 3), 0.0, -0.0, 0.5, F(1, 2)])
)
# an unreduced ratio (a common factor kept), or a float
TERMS = st.one_of(
    st.tuples(
        st.integers(-10**9, 10**9), st.integers(1, 10**6), st.integers(1, 99)
    ).map(lambda t: (t[0] * t[2], t[1] * t[2])),
    FLOATS,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-10**6, 10**6), st.fractions(-10, 10, max_denominator=10**12)),
        max_size=6,
    )
)
def test_integer_form_is_one_common_denominator(xs):
    nums, den = _integer_form(xs)
    assert all(type(n) is int for n in nums) and type(den) is int
    assert den == math.lcm(*(F(x).denominator for x in xs))
    assert [F(n, den) for n in nums] == [F(x) for x in xs]


def _same(got, expected) -> bool:
    """Equal and of one type; floats bit for bit, the sign of zero too."""
    if type(got) is float:
        return type(expected) is float and got.hex() == expected.hex()
    return type(got) is type(expected) and repr(got) == repr(expected)


@settings(max_examples=200, deadline=None)
@given(NUMBERS, NUMBERS)
def test_above_agrees_with_the_operators(x, y):
    exact = isinstance(x, F) and isinstance(y, F)
    assert _above(x, y) == (x > y if exact else float(x) > float(y))
    assert _same(_float_of(x), float(x))


@settings(max_examples=200, deadline=None)
@given(st.lists(NUMBERS, max_size=6), st.data())
def test_the_order_check_agrees_with_fractions(xs, data):
    if xs:  # an equal neighbour, of either type, at a drawn place
        i = data.draw(st.integers(0, len(xs) - 1))
        twin = data.draw(st.sampled_from([xs[i], F(xs[i]), float(xs[i])]))
        if data.draw(st.booleans()):
            xs.insert(i + 1, twin)
    exact = [F(x) for x in xs]
    assert _increasing(xs) == all(a < b for a, b in zip(exact, exact[1:]))
    assert _increasing(sorted(set(exact)))


@settings(max_examples=200, deadline=None)
@given(NUMBERS, NUMBERS, NUMBERS, NUMBERS)
def test_affine_terms_agree_with_the_operators(s, c, a, b):
    line = AffinePiece(s, c)
    value = line.slope * a + line.intercept
    term = _affine_ratio(line, a)
    assert _same(_read(term), value)
    assert _same(_read(_negated(term)), -value)
    assert _same(_float_of(term), float(value))
    total = _add_twice_integral((-3, 4), line, a, b)
    if all(isinstance(x, F) for x in (line.slope, line.intercept, a, b)):
        twice = (b - a) * (line.slope * (a + b) + 2 * line.intercept)
        assert _read(total) == F(-3, 4) + twice
    else:
        assert total is None


@settings(max_examples=200, deadline=None)
@given(st.lists(TERMS, max_size=8))
def test_ratio_sums_agree_with_the_fraction_sum(terms):
    assert _same(_read(_ratio_sum(terms)), sum(map(_read, terms), F(0)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(NUMBERS, TERMS), st.one_of(NUMBERS, TERMS))
def test_differences_agree_with_the_operators(x, y):
    # a ratio exactly when neither side is a float
    got = _difference(x, y)
    assert (type(got) is tuple) == (type(x) is not float and type(y) is not float)
    assert _same(_read(got), _read(x) - _read(y))


@settings(max_examples=300, deadline=None)
@given(st.one_of(NUMBERS, st.integers(-10**6, 10**6)), TERMS)
def test_mass_times_term_agrees_with_the_operators(m, term):
    got = _times(m, term)
    assert (type(got) is tuple) == (type(m) is not float and type(term) is tuple)
    assert _same(_read(got), m * _read(term))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        NUMBERS,
        st.sampled_from(
            [0, 1, F(1), F(0), 1.0, math.nextafter(1.0, 0.0), 5e-324, -5e-324, F(1, 10**30)]
        ),
    )
)
def test_the_unit_interval_test_agrees_with_the_operators(x):
    assert _in_unit_interval(x) == (0 < x < 1)


@pytest.mark.parametrize("alpha", [0, 1, F(-1, 2), F(3, 2), 0.0, 1.0])
def test_alpha_range_refusals_keep_class_and_message(alpha):
    with pytest.raises(ValueError) as info:
        AlphaPiece(alpha, 1, 0)
    assert type(info.value) is ValueError
    assert str(info.value) == "alpha must lie strictly between 0 and 1"


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_and_hash_follow_the_fields(name):
    value, same, other = VALUES[name]
    assert value is not same
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert value != object() and value != name
    assert {value: 1}[same] == 1
    assert repr(value).startswith(type(value).__name__ + "(")


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_are_immutable(name):
    value, _, _ = VALUES[name]
    field = type(value).__slots__[0]
    before = getattr(value, field)
    refusal = f"^{name} is read-only$"
    with pytest.raises(AttributeError, match=refusal):
        setattr(value, field, before)
    with pytest.raises(AttributeError, match=refusal):
        delattr(value, field)
    with pytest.raises(AttributeError, match=refusal):
        value.extra = 1
    assert getattr(value, field) == before


@pytest.mark.parametrize("name", sorted(VALUES))
def test_copy_and_pickle_round_trip(name):
    # rebuilt from the fields in slot order, one field or several
    value, _, other = VALUES[name]
    for rebuilt in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(rebuilt) is type(value)
        assert rebuilt == value and hash(rebuilt) == hash(value)
        assert repr(rebuilt) == repr(value)
        assert rebuilt != other


class TestNormalisation:
    def test_ints_and_strings_become_fractions_and_floats_pass(self):
        piece = AffinePiece(1, "1/2")
        assert type(piece.slope) is F and type(piece.intercept) is F
        assert piece.intercept == F(1, 2)
        assert type(AffinePiece(0.5, 0).slope) is float
        alpha = AlphaPiece(F(1, 4), 1, 0)
        assert all(type(x) is F for x in (alpha.alpha, alpha.slope, alpha.intercept))
        dual = DualPiece(2, 3, [PowerTerm(1.0, 0.5, 0)])
        assert type(dual.slope) is F and type(dual.terms) is tuple
        density = DensityPiece(-2, 0, 1.0, 0.0)
        assert type(density.lo) is F and type(density.hi) is F
        measure = Measure1D([(1, F(1, 2))], [density])
        assert measure.atoms == ((F(1), F(1, 2)),) and type(measure.atoms[0][0]) is F
        assert type(measure.densities) is tuple
        assert Constraint([1, 2]).row == (F(1), F(2)) and not Constraint([1, 2]).strict
        assert type(Cell([Constraint([1, 0])]).constraints) is tuple

    def test_bad_numbers_are_named_before_the_alpha_range(self):
        # the range check (test_alpha_range_enforced) runs on coerced fields
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            AlphaPiece("1", 1, 0)
        with pytest.raises(ValueError, match="finite"):
            AlphaPiece(2, float("nan"), 0)
        with pytest.raises(TypeError, match="expected a number"):
            AffinePiece(None, 0)

    def test_density_and_measure_checks(self):
        with pytest.raises(ValueError, match="empty density interval"):
            DensityPiece(0, 0, 1.0, 0.0)
        with pytest.raises(ValueError, match="right endpoint"):
            DensityPiece(None, 1, 1.0, -1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            Measure1D([(0, F(-1))])
        with pytest.raises(ValueError, match="nonnegative"):
            Measure1D((), [DensityPiece(None, 0, -1.0, -1.5)])

    def test_place_checks_and_repr(self):
        with pytest.raises(ValueError, match="not prime"):
            Place(2.0)
        assert repr(Place(2)) == "Place(2)" and repr(Place()) == "Place(inf)"
        assert Place() == Place.infinity() and Place().is_infinite


class TestEqualityInUse:
    def test_profile_merges_equal_pieces(self):
        psi = ConcaveFn([0, 1], [AffinePiece(1, 0), AffinePiece(F(1), "0"), AffinePiece(0, 1)])
        assert psi.breakpoints == (F(1),)
        assert psi.pieces == (AffinePiece(1, 0), AffinePiece(0, 1))

    def test_equal_profiles_carry_no_energy(self):
        shifted = canonical_fn(DIVISOR).shift(F(1, 3))
        rebuilt = ConcaveFn(
            list(shifted.breakpoints), [AffinePiece(p.slope, p.intercept) for p in shifted.pieces]
        )
        assert rebuilt is not shifted and rebuilt == shifted
        ref = AdelicFamily(DIVISOR, {Place(2): shifted})
        sing = AdelicFamily(DIVISOR, {Place.prime(2): rebuilt})
        assert list(place_energies(ref, sing)) == []
        assert global_energy(ref, sing) == 0

    def test_place_keys_and_nef_status(self):
        fam = AdelicFamily(DIVISOR, {Place(3): canonical_fn(DIVISOR).shift(-1)})
        assert fam.psi_at(Place.prime(3)) == canonical_fn(DIVISOR).shift(-1)
        assert nef_status(fam) == NefStatus("S_ample", 1)
        assert nef_status(AdelicFamily(DIVISOR)) != NefStatus("S_ample", 0)


class TestReadOnlyProfiles:
    def test_a_profile_a_family_has_read_cannot_change(self):
        # assigning new pieces used to leave the family's cached roof stale
        psi = canonical_fn(DIVISOR).shift(F(1, 3))
        fam = AdelicFamily(DIVISOR, {Place(2): psi})
        assert global_height(fam) == F(-2, 3)
        with pytest.raises(AttributeError, match="ConcaveFn is read-only"):
            psi.pieces = canonical_fn(DIVISOR).shift(5).pieces
        with pytest.raises(AttributeError, match="ConcaveFn is read-only"):
            psi.breakpoints = ()
        with pytest.raises(AttributeError, match="ConcaveFn is read-only"):
            del psi.pieces
        assert global_height(fam) == F(-2, 3)
        assert global_height(AdelicFamily(DIVISOR, {Place(2): psi})) == F(-2, 3)

    def test_duals_are_read_only(self):
        fam = AdelicFamily(DIVISOR, {Place(2): canonical_fn(DIVISOR).shift(F(1, 3))})
        dual = roof(fam).duals[1]
        for name in ("lo", "hi", "breakpoints", "pieces"):
            with pytest.raises(AttributeError, match="DualFn is read-only"):
                setattr(dual, name, getattr(dual, name))
            with pytest.raises(AttributeError, match="DualFn is read-only"):
                delattr(dual, name)
        with pytest.raises(AttributeError, match="DualFn is read-only"):
            legendre_dual(canonical_fn(DIVISOR)).cache = {}
        assert global_height(fam) == F(-2, 3)


class TestDerivedSlots:
    """A slot named with a leading underscore holds data computed from the
    fields: it is no field, so a value that has filled it is the same value
    as one that has not."""

    def test_a_measured_profile_is_a_fresh_profile(self):
        def build():
            return ConcaveFn([0], [AlphaPiece(F(1, 4), 1, 0), AffinePiece(0, 4)])

        measured, fresh = build(), build()
        mu = monge_ampere(measured)
        assert monge_ampere(measured) is mu
        assert mu == monge_ampere(fresh)
        assert measured == fresh and hash(measured) == hash(fresh)
        assert repr(measured) == repr(fresh)
        assert measured.__reduce__() == fresh.__reduce__()
        assert pickle.dumps(measured) == pickle.dumps(fresh)
        for rebuilt in (
            copy.copy(measured),
            copy.deepcopy(measured),
            pickle.loads(pickle.dumps(measured)),
        ):
            assert rebuilt == fresh and hash(rebuilt) == hash(fresh)
            assert repr(rebuilt) == repr(fresh)

    def test_a_measure_is_kept_once(self):
        psi = canonical_fn(DIVISOR).shift(1)
        with pytest.raises(AttributeError, match="ConcaveFn is read-only"):
            psi._ma = Measure1D()
        mu = monge_ampere(psi)
        with pytest.raises(AttributeError, match="ConcaveFn is read-only"):
            psi._ma = Measure1D()
        assert monge_ampere(psi) is mu

    @pytest.mark.parametrize(
        "alpha",
        [F(1, 20), F(1, 4), F(1, 3), F(1, 2), F(19, 20), F(10**14 - 1, 10**14), F(10**17 - 1, 10**17), 0.3],
    )
    def test_alpha_piece_floats_are_those_of_its_fields(self, alpha):
        # the formulas as they read the exact fields on every call
        for slope, intercept in ((F(1), F(0)), (F(2, 3), F(-7, 5)), (F(-1, 9), 0.25)):
            piece = AlphaPiece(alpha, slope, intercept)
            a = float(piece.alpha)
            assert piece.alpha_term == (1.0 / float(piece.alpha), float(piece.alpha))
            for u in (F(0), F(-1, 3), F(-609, 16), F(-10**30, 7), -0.5, -1e-300, -1e6, -1e300):
                value = float(piece.slope) * float(u) + float(piece.intercept) + (
                    (1.0 - float(u)) ** a / a
                )
                slope_at = float(piece.slope) - (1.0 - float(u)) ** (a - 1.0)
                assert repr(piece.value(u)) == repr(value)
                assert repr(piece.derivative(u)) == repr(slope_at)
            assert piece.__reduce__() == (AlphaPiece, (piece.alpha, piece.slope, piece.intercept))
            assert "_floats" not in repr(piece)

    @pytest.mark.parametrize("alpha", [F(1, 4), F(10**17 - 1, 10**17), 0.3])
    def test_one_minus_alpha_is_taken_once_for_measure_and_dual(self, alpha):
        # float(1 - alpha) on the exact alpha: nonzero even where
        # float(alpha) is 1.0; the measure and the dual read the same float
        piece = AlphaPiece(alpha, 1, 0)
        b = float(1 - F(alpha))
        assert piece._floats[4] == b > 0
        f = ConcaveFn([0], [piece, AffinePiece(0, piece.value(0))])
        (density,) = monge_ampere(f).densities
        assert (density.coeff, density.exponent) == (b, -1.0 - b)
        (term,) = legendre_dual(f).pieces[-1].terms
        a = float(alpha)
        assert (term.coeff, term.exponent) == (-b / a, -a / b)

    @pytest.mark.parametrize("alpha", [F(1, 10**310), F(1, 10**330), 1e-310])
    def test_an_alpha_below_float_range_is_refused_when_built(self, alpha):
        with pytest.raises(OverflowError, match="below float range"):
            AlphaPiece(alpha, 1, 0)


@pytest.mark.parametrize(
    "layer",
    [f"adelic_heights.{name}" for name in ("divisorial_core", "convex_calculus", "adelic_curve")],
)
def test_star_import_yields_every_public_name(layer):
    namespace = {}
    exec(f"from {layer} import *", namespace)
    module = importlib.import_module(layer)
    assert module.__all__
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


LAZY_LAYERS = [f"adelic_heights.{name}" for name in ("convex_calculus", "adelic_curve")]


@pytest.mark.parametrize("layer", LAZY_LAYERS)
def test_lazy_layer_resolves_each_export_from_its_home(layer):
    module = importlib.import_module(layer)
    assert list(module._EXPORTS) == module.__all__
    for name, home in module._EXPORTS.items():
        value = getattr(module, name)
        home_module = importlib.import_module(f"{layer}.{home}")
        assert value is getattr(home_module, name)
        # defined there, not merely imported; the divergence class is shared
        if value is not scalars.PositiveDivergenceError:
            assert value.__module__ == home_module.__name__, name
        assert vars(module)[name] is value  # cached after the first lookup
    with pytest.raises(AttributeError, match="no_such_export"):
        module.no_such_export
    assert not hasattr(module, "no_such_export")


def test_importing_a_lazy_layer_loads_none_of_its_submodules():
    src_root = str(Path(scalars.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src_root!r})\n"
        f"import {', '.join(LAZY_LAYERS)}\n"
        "print('\\n'.join(m for m in sys.modules if m.startswith('adelic_heights')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert set(proc.stdout.split()) == {"adelic_heights", *LAZY_LAYERS}


def test_one_divergence_class():
    from adelic_heights import convex_calculus
    from adelic_heights.convex_calculus import duality, measures

    error = scalars.PositiveDivergenceError
    assert error is measures.PositiveDivergenceError is convex_calculus.PositiveDivergenceError
    assert error is duality.PositiveDivergenceError and issubclass(error, ValueError)
