"""Exact cone geometry, the order metric, and pairing extension."""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelic_heights.divisorial_core import (
    AdmissibilityError,
    Cell,
    CompletionElement,
    Constraint,
    DivisorialSpace,
    IntersectionMap,
    PositivityError,
    RationalVector,
    SemilinearCone,
    check_intersection_axioms,
    completion_distance,
    d_b,
    extend_intersection,
    leq,
)
from adelic_heights.divisorial_core import cones

V = RationalVector
F = Fraction


def standard_cone(dim=2):
    rows = []
    for i in range(dim):
        rows.append(tuple(1 if j == i else 0 for j in range(dim)))
    return SemilinearCone.from_halfspaces(rows, dim)


def standard_space(dim=2):
    return DivisorialSpace(dim, standard_cone(dim))


def half_open_cone():
    """(positive x1, any x2) union (x1 = 0, x2 >= 0): a pointed cone whose
    order metric vanishes on a nonzero difference."""
    open_half = Cell((Constraint((1, 0), strict=True),))
    boundary = Cell((Constraint((1, 0)), Constraint((-1, 0)), Constraint((0, 1))))
    return SemilinearCone([open_half, boundary], 2)


rational = st.fractions(min_value=-5, max_value=5, max_denominator=12)
vec2 = st.tuples(rational, rational).map(V)


class TestCones:
    def test_zero_in_every_cone(self):
        assert standard_cone().contains(V([0, 0]))
        assert half_open_cone().contains(V([0, 0]))

    def test_standard_membership(self):
        c = standard_cone()
        assert c.contains(V([1, 2]))
        assert not c.contains(V([-1, 2]))
        assert not c.contains(V([F(1, 3), F(-1, 7)]))

    def test_generated_cone_membership(self):
        # hull of (1,2) and (2,1); interior, boundary, and outside points
        c = SemilinearCone.from_generators([V([1, 2]), V([2, 1])], 2)
        assert c.contains(V([1, 1]))
        assert c.contains(V([3, 3]))
        assert c.contains(V([1, 2]))
        assert c.contains(V([2, 1]))
        assert not c.contains(V([1, 3]))
        assert not c.contains(V([3, 1]))
        assert not c.contains(V([-1, -1]))

    def test_generated_cone_halfplane_and_full(self):
        half = SemilinearCone.from_generators([V([1, 0]), V([-1, 0]), V([0, 1])], 2)
        assert half.contains(V([5, 0]))
        assert half.contains(V([-5, 0]))
        assert half.contains(V([0, 1]))
        assert not half.contains(V([0, -1]))
        full = SemilinearCone.from_generators(
            [V([1, 0]), V([-1, 1]), V([-1, -1])], 2
        )
        for p in [V([7, -3]), V([-2, 5]), V([0, -1])]:
            assert full.contains(p)

    @pytest.mark.parametrize("coords", [[1, 2, 3], [1]])
    def test_generator_of_wrong_dimension_is_rejected(self, coords):
        with pytest.raises(ValueError, match="dimension"):
            SemilinearCone.from_generators([V([1, 1]), V(coords)], 2)

    def test_generated_ray_and_line(self):
        ray = SemilinearCone.from_generators([V([2, 4])], 2)
        assert ray.contains(V([1, 2]))
        assert not ray.contains(V([-1, -2]))
        assert not ray.contains(V([1, 3]))
        line = SemilinearCone.from_generators([V([1, 1]), V([-1, -1])], 2)
        assert line.contains(V([-3, -3]))
        assert not line.contains(V([1, 0]))

    def test_non_cone_union_rejected(self):
        quadrants_2_and_4 = (
            [Cell((Constraint((-1, 0)), Constraint((0, 1)))),
             Cell((Constraint((1, 0)), Constraint((0, -1))))],
            V([-2, 1]),
            V([1, -2]),
        )
        # two half-spaces of 3-space, one of them open
        half_spaces = (
            [Cell((Constraint((-1, -1, 2)),)), Cell((Constraint((0, 1, -1), strict=True),))],
            V([2, 0, 1]),
            V([0, 1, 0]),
        )
        for cells, x, y in (quadrants_2_and_4, half_spaces):
            assert cells[0].contains(x) and cells[1].contains(y)
            assert not any(cell.contains(x + y) for cell in cells)
            with pytest.raises(ValueError, match="cells 0 and 1 have members whose sum escapes"):
                SemilinearCone(cells, x.dim)

    def test_closure_of_half_open_cone(self):
        c = half_open_cone()
        assert not c.contains(V([0, -1]))
        assert c.closure().contains(V([0, -1]))
        assert not c.closure().contains(V([-1, 0]))

    def test_closure_drops_empty_cells(self):
        empty = Cell((Constraint((1, 0), strict=True), Constraint((-1, 0), strict=True)))
        c = SemilinearCone([empty, Cell((Constraint((1, 0)), Constraint((0, 1))))], 2)
        # the empty cell must not resurrect the x2-axis in the closure
        assert not c.closure().contains(V([0, -1]))
        assert c.closure().contains(V([1, 0]))


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def caratheodory_member(gens, x):
    """x = 0, x = a*g, or x = a*g + b*h with a, b >= 0 solved exactly."""
    if x.is_zero():
        return True
    gens = [g for g in gens if not g.is_zero()]
    if any(cross(g, x) == 0 and g.dot(x) > 0 for g in gens):
        return True
    for g, h in itertools.combinations(gens, 2):
        det = cross(g, h)
        if det != 0 and cross(x, h) / det >= 0 and cross(g, x) / det >= 0:
            return True
    return False


small = st.integers(min_value=-2, max_value=2)


@st.composite
def unions(draw):
    """At most three cells of one to four rows in {-2..2}^dim, a quarter strict."""
    dim = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*[small] * dim)
    constraint = st.builds(Constraint, row, st.sampled_from([False, False, False, True]))
    cell = st.lists(constraint, min_size=1, max_size=4).map(lambda cs: Cell(tuple(cs)))
    return dim, draw(st.lists(cell, min_size=1, max_size=3))


class TestConeProperties:
    @given(st.lists(st.tuples(small, small).map(V), max_size=6), st.lists(vec2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_generated_cone_matches_caratheodory(self, gens, probes):
        cone = SemilinearCone.from_generators(gens, 2)
        # boundary rays and their opposites, besides the random probes
        probes += [s * g for g in gens for s in (1, -1)]
        probes += [g + h for g, h in itertools.combinations(gens, 2)]
        for x in probes:
            assert cone.contains(x) == caratheodory_member(gens, x)

    @pytest.mark.parametrize(
        "gens, members",
        [([], [0]), ([0], [0]), ([2], [0, 3]), ([-1], [-3, 0]), ([2, -3], [-3, 0, 3])],
    )
    def test_generated_cone_on_the_line(self, gens, members):
        cone = SemilinearCone.from_generators([V([g]) for g in gens], 1)
        for x in (-3, 0, 3):
            assert cone.contains(V([x])) == (x in members)

    @given(unions(), st.lists(st.tuples(*[st.integers(-4, 4)] * 3), min_size=16, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_constructed_union_is_closed_under_addition(self, union, points):
        dim, cells = union
        try:
            cone = SemilinearCone(cells, dim)
        except ValueError:
            return
        members = [x for x in (V(p[:dim]) for p in points) if cone.contains(x)]
        for x, y in itertools.combinations(members, 2):
            assert cone.contains(x + y)


class TestSpace:
    def test_pointedness_rejects_halfplane(self):
        half = SemilinearCone.from_halfspaces([(0, 1)], 2)
        with pytest.raises(ValueError, match="pointed"):
            DivisorialSpace(2, half)

    def test_half_open_cone_is_pointed(self):
        DivisorialSpace(2, half_open_cone())

    @pytest.mark.parametrize(
        "rows",
        [
            # a narrow pointed cone
            [(-1, 2, 2), (2, -2, 0), (2, -1, 1)],
            # an all-zero row holds everywhere and must not hide the interior
            [(1, 0), (0, 1), (0, 0)],
        ],
    )
    def test_spanning_cone_builds_a_space(self, rows):
        dim = len(rows[0])
        DivisorialSpace(dim, SemilinearCone.from_halfspaces(rows, dim))

    @pytest.mark.parametrize(
        "rows",
        # a ray in the plane, and a pointed cone inside the plane x + y = 0 of 3-space
        [[(1, 0), (-1, 0), (0, 1)], [(1, 1, 0), (-1, -1, 0), (0, 0, 1), (1, 0, 0)]],
    )
    def test_cone_without_interior_spans_nothing(self, rows):
        dim = len(rows[0])
        with pytest.raises(ValueError, match="does not span"):
            DivisorialSpace(dim, SemilinearCone.from_halfspaces(rows, dim))

    def test_order_relation(self):
        sp = standard_space()
        assert leq(sp, V([0, 0]), V([1, 2]))
        assert leq(sp, V([1, 1]), V([1, 1]))
        assert not leq(sp, V([1, 2]), V([0, 0]))
        assert not leq(sp, V([0, 1]), V([1, 0]))


class TestOrderMetric:
    def test_chebyshev_formula(self):
        sp = standard_space()
        b = V([1, 1])
        for x, y, want in (
            (V([0, 0]), V([F(1, 3), F(-1, 5)]), F(1, 3)),
            (V([2, 7]), V([2, 7]), 0),
            (V([0, 0]), V([5, 0]), 1),  # capped
        ):
            got = d_b(sp, b, x, y)
            assert type(got) is F and got == want

    def test_unreachable_direction_gives_cap(self):
        sp = standard_space()
        got = d_b(sp, V([1, 0]), V([0, 1]), V([0, 0]))
        assert type(got) is F and got == 1

    def test_degenerate_distance_on_half_open_cone(self):
        sp = DivisorialSpace(2, half_open_cone())
        dist = d_b(sp, V([1, 0]), V([0, 1]), V([0, 0]))
        assert type(dist) is F
        assert dist == 0  # distinct points at distance zero: pseudo-metric only

    def test_gauge_must_be_in_cone(self):
        sp = standard_space()
        with pytest.raises(ValueError, match="gauge"):
            d_b(sp, V([-1, 0]), V([0, 0]), V([0, 0]))

    @given(vec2, vec2)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, x, y):
        sp = standard_space()
        b = V([1, 1])
        assert d_b(sp, b, x, y) == d_b(sp, b, y, x)

    @given(vec2, vec2, vec2)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        sp = standard_space()
        b = V([1, 1])
        assert d_b(sp, b, x, z) <= d_b(sp, b, x, y) + d_b(sp, b, y, z)

    @given(vec2)
    @settings(max_examples=30, deadline=None)
    def test_identity_points(self, x):
        sp = standard_space()
        assert d_b(sp, V([1, 1]), x, x) == 0

    @given(vec2, vec2)
    @settings(max_examples=60, deadline=None)
    def test_larger_gauge_shrinks_distance(self, x, y):
        sp = standard_space()
        assert d_b(sp, V([2, 2]), x, y) <= d_b(sp, V([1, 1]), x, y)


class TestClosureWitness:
    def witness_criterion(self, cone, x, witnesses, ns):
        """x + y/n stays in the cone for every sampled n, for some witness y."""
        return any(
            all(cone.contains(x + y * F(1, n)) for n in ns) for y in witnesses
        )

    def test_agreement_on_half_open_cone(self):
        cone = half_open_cone()
        witnesses = [V([1, 0]), V([0, 1]), V([1, 1])]
        ns = [1, 10, 100, 1000, 10**4, 10**5, 10**6]
        for x in [V([0, -1]), V([0, 5]), V([1, -7]), V([-1, 0]), V([F(-1, 2), 3])]:
            assert cone.closure().contains(x) == self.witness_criterion(
                cone, x, witnesses, ns
            )

    def test_agreement_on_generated_cones(self):
        gens = [V([1, 2]), V([2, 1])]
        cone = SemilinearCone.from_generators(gens, 2)
        ns = [1, 10, 100, 1000, 10**4, 10**5, 10**6]
        for x in [V([1, 1]), V([1, 2]), V([0, 1]), V([-1, 1])]:
            # closed cone: closure membership is plain membership
            assert cone.closure().contains(x) == cone.contains(x)
            assert cone.closure().contains(x) == self.witness_criterion(
                cone, x, gens + [gens[0] + gens[1]], ns
            )


def _oracle_primitive(coeffs, const, strict):
    entries = (*coeffs, const)
    scale = math.lcm(*(e.denominator for e in entries))
    ints = [e.numerator * (scale // e.denominator) for e in entries]
    g = math.gcd(*ints) or 1
    return tuple(e // g for e in ints[:-1]), ints[-1] // g, strict


def _oracle_eliminate(rows, variables):
    """Fourier-Motzkin elimination that brings every row, kept or new, to
    coprime integers again at every step."""
    left = list(variables)
    while True:
        kept = {}
        for row in rows:
            coeffs, const, strict = row = _oracle_primitive(*row)
            if any(coeffs):
                kept[row] = None
            elif not (const > 0 if strict else const >= 0):
                return [row]
        rows = list(kept)
        if not left:
            return rows

        def pairs(j):
            return sum(r[0][j] > 0 for r in rows) * sum(r[0][j] < 0 for r in rows)

        i = min(left, key=pairs)
        left.remove(i)
        pos = [r for r in rows if r[0][i] > 0]
        neg = [r for r in rows if r[0][i] < 0]
        rows = [r for r in rows if r[0][i] == 0]
        for cp, bp, sp in pos:
            for cn, bn, sn in neg:
                lam, mu = -cn[i], cp[i]
                coeffs = tuple(lam * a + mu * b for a, b in zip(cp, cn))
                rows.append((coeffs, lam * bp + mu * bn, sp or sn))


def _oracle_on_engine_rows(rows, variables):
    """_oracle_eliminate on the engine's rows (coeffs, strict), each given
    the constant term 0, with its result as the engine's rows."""
    got = _oracle_eliminate([(coeffs, 0, strict) for coeffs, strict in rows], variables)
    return [(coeffs, strict) for coeffs, _, strict in got]


def _homogenised(rows, n):
    """The oracle's rows c.x + b >= 0 (> 0 when strict) in n variables as
    the engine's rows (c, b).(x, t) >= 0 in n + 1, with the strict row
    t > 0: one system has a solution iff the other has (divide by t)."""
    out = []
    for row in rows:
        coeffs, const, strict = _oracle_primitive(*row)
        out.append(((*coeffs, const), strict))
    return out + [((0,) * n + (1,), True)]


entry = st.one_of(st.just(F(0)), st.fractions(min_value=-40, max_value=40, max_denominator=30))


@st.composite
def systems(draw):
    """At most six rows (coeffs, const, strict) in at most four variables."""
    n = draw(st.integers(min_value=1, max_value=4))
    coeffs = st.lists(entry, min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(st.tuples(coeffs, entry, st.booleans()), max_size=6))
    return n, rows


@st.composite
def cell_systems(draw):
    """Up to five homogeneous rows in at most four variables, then maybe
    the negation of one (an equality) and maybe minus their sum, which
    leaves only the points where every row is 0: the origin alone when
    the rows span, in any dimension."""
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple), max_size=5))
    if rows and draw(st.booleans()):
        rows.append(tuple(-a for a in rows[-1]))
    if draw(st.booleans()):
        rows.append(tuple(-sum(col) for col in zip(*rows)) if rows else (F(0),) * n)
    return n, rows


@st.composite
def rows_and_vectors(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    vector = st.lists(entry, min_size=n, max_size=n)
    return draw(vector), draw(vector)


def _oracle_delta_inf(rows):
    """_delta_inf on Fraction quotients: each bound -base/rate compared as
    a Fraction."""
    lo, lo_strict = Fraction(0), False
    hi, hi_strict = None, False
    for base, rate, strict in rows:
        if rate == 0:
            if not (base > 0 if strict else base >= 0):
                return None
            continue
        bound = -base / rate
        if rate > 0 and bound >= lo:
            lo_strict = strict or (bound == lo and lo_strict)
            lo = bound
        elif rate < 0 and (hi is None or bound <= hi):
            hi_strict = strict or (bound == hi and hi_strict)
            hi = bound
    if hi is not None and (hi < lo or (hi == lo and (lo_strict or hi_strict))):
        return None
    return lo


# a few values, so that bounds often tie with each other and with 0
small = st.sampled_from([F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 4), F(-3, 4)])
delta_rows = st.lists(
    st.tuples(st.one_of(small, entry), st.one_of(small, entry), st.booleans()), max_size=6
)


class TestExactKernels:
    @given(delta_rows)
    # bound == lo: strict then non-strict, and the other way round, with
    # hi at the same point, so that the strictness decides
    @example([(F(-1), F(1), True), (F(-2), F(2), False), (F(1), F(-1), False)])
    @example([(F(-1), F(1), False), (F(-2), F(2), True), (F(1), F(-1), False)])
    # bound == hi, both orders, with lo at the same point
    @example([(F(1), F(-1), True), (F(2), F(-2), False), (F(-1), F(1), False)])
    @example([(F(1), F(-1), False), (F(2), F(-2), True), (F(-1), F(1), False)])
    # hi == lo: closed on both sides, or open on one
    @example([(F(-1), F(1), False), (F(1), F(-1), False)])
    @example([(F(-1), F(1), True), (F(1), F(-1), False)])
    @example([(F(-1), F(1), False), (F(1), F(-1), True)])
    # hi == lo == 0, where lo starts
    @example([(F(0), F(-1), False)])
    @example([(F(0), F(-1), True)])
    # rate == 0: base 0 open or closed, base of either sign
    @example([(F(0), F(0), True)])
    @example([(F(0), F(0), False)])
    @example([(F(1), F(0), True), (F(-1), F(2), False)])
    @example([(F(-1), F(0), False)])
    # an upper bound below 0
    @example([(F(-1), F(-1), False)])
    @settings(max_examples=300, deadline=None)
    def test_delta_inf_matches_the_fraction_oracle(self, rows):
        want = _oracle_delta_inf(rows)
        # the same rows as integer ratios, reduced and with a common factor
        for k in (1, 6):
            pairs = [
                ((k * b.numerator, k * b.denominator), (k * r.numerator, k * r.denominator), s)
                for b, r, s in rows
            ]
            got = cones._delta_inf(pairs)
            if want is None:
                assert got is None
            else:
                n, d = got
                assert type(n) is int and type(d) is int and d > 0
                assert Fraction(n, d) == want

    @given(rows_and_vectors(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_constraint_value_is_the_naive_sum(self, row_x, strict):
        row, x = row_x
        c = Constraint(row, strict)
        naive = sum((r * v for r, v in zip(row, x)), Fraction(0))
        value = c.value(V(x))
        assert value == naive and type(value) is Fraction
        assert c.satisfied(V(x)) == (naive > 0 if strict else naive >= 0)

    def test_constraint_value_of_large_and_mixed_denominators(self):
        row = (F(10**12 + 39, 7), F(0), F(-3, 10**9), F(5, 6))
        x = V([F(1, 3), F(10**15), F(7, 2), F(-6, 5)])
        assert Constraint(row).value(x) == sum((r * v for r, v in zip(row, x)), F(0))
        assert Constraint((0, 0)).value(V([1, 2])) == 0

    @given(systems())
    # a strict and a non-strict row cancel into a strict row of zeros
    @example((2, [((F(1), F(-1)), F(0), True), ((F(-1), F(1)), F(0), False)]))
    @settings(max_examples=200, deadline=None)
    def test_elimination_matches_the_oracle(self, system):
        n, rows = system
        # each drawn row without its constant, coprime as the engine takes it
        engine = [(_oracle_primitive(coeffs, 0, strict)[0], strict) for coeffs, _, strict in rows]
        for variables in (range(n), range(n - 1)):
            got = cones._eliminate(engine, variables)
            assert got == _oracle_on_engine_rows(engine, variables)
            assert len(set(got)) == len(got)
            for coeffs, _ in got:
                assert all(type(a) is int for a in coeffs)
                assert math.gcd(*coeffs) in (0, 1)
        feasible = not _oracle_eliminate(rows, range(n))
        assert cones._feasible(_homogenised(rows, n), n + 1) == feasible

    def test_core_fixtures_agree_with_the_oracle(self, monkeypatch):
        empty = Cell((Constraint((1, 0), strict=True), Constraint((-1, 0), strict=True)))
        open_half = Cell((Constraint((0, 1, -1), strict=True),))

        def outcomes():
            out = []
            fixtures = [
                lambda: standard_cone(2),
                lambda: standard_cone(3),
                lambda: standard_cone(4),
                half_open_cone,
                lambda: SemilinearCone.from_generators([V([1, 2]), V([2, 1])], 2),
                lambda: SemilinearCone.from_generators([V([1, 0]), V([-1, 0]), V([0, 1])], 2),
                lambda: SemilinearCone.from_generators([V([1, 1]), V([-1, -1])], 2),
                lambda: SemilinearCone.from_halfspaces([(0, 1)], 2),
                lambda: SemilinearCone([empty, Cell((Constraint((1, 0)), Constraint((0, 1))))], 2),
                lambda: SemilinearCone([Cell((Constraint((-1, -1, 2)),)), open_half], 3),
            ]
            fixtures += [
                lambda rows=rows: SemilinearCone.from_halfspaces(rows, len(rows[0]))
                for rows in (
                    [(-1, 2, 2), (2, -2, 0), (2, -1, 1)],
                    [(1, 0), (0, 1), (0, 0)],
                    [(1, 1, 0), (-1, -1, 0), (0, 0, 1), (1, 0, 0)],
                )
            ]
            for make in fixtures:
                try:
                    cone = make()
                except ValueError as exc:
                    out.append(str(exc))
                    continue
                dim = cone.ambient_dim
                out.append([cones.cell_is_empty(cell, dim) for cell in cone.cells])
                out.append(cone.closure().cells)
                try:
                    DivisorialSpace(dim, cone)
                    out.append("space")
                except ValueError as exc:
                    out.append(str(exc))
            return out

        got = outcomes()
        monkeypatch.setattr(cones, "_eliminate", _oracle_on_engine_rows)
        assert outcomes() == got

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_pointedness_projects_once_per_coordinate(self, monkeypatch, dim):
        # the standard cone's one pair of cells has no strict row
        space = standard_space(dim)
        calls = []
        eliminate = cones._eliminate

        def spy(rows, variables):
            calls.append(list(variables))
            return eliminate(rows, variables)

        monkeypatch.setattr(cones, "_eliminate", spy)
        space._check_pointed()
        assert calls == [[j for j in range(dim) if j != i] for i in range(dim)]


def reciprocal_element(sp, b, drift):
    """Terms (1, 1/n) + drift with exact modulus ceil(1/eps)."""

    def seq(n):
        return V([1, F(1, n + 1)]) + drift

    def modulus(eps):
        return int(1 / Fraction(eps)) + 1

    return CompletionElement(sp, b, seq, modulus)


class TestCompletion:
    def test_modulus_spot_check_rejects_lies(self):
        sp = standard_space()
        b = V([1, 1])
        with pytest.raises(ValueError, match="modulus fails"):
            CompletionElement(sp, b, lambda n: V([n, 0]), lambda eps: 0)

    def test_distance_to_limit_point(self):
        sp = standard_space()
        b = V([1, 1])
        x = reciprocal_element(sp, b, V([0, 0]))
        y = CompletionElement.constant(sp, b, V([1, 0]))
        assert completion_distance(x, y, F(1, 1000)) <= F(1, 1000)

    def test_distance_between_shifted_sequences(self):
        sp = standard_space()
        b = V([1, 1])
        x = reciprocal_element(sp, b, V([0, 0]))
        y = reciprocal_element(sp, b, V([F(1, 2), 0]))
        eps = F(1, 10**6)
        d = completion_distance(x, y, eps)
        assert abs(d - F(1, 2)) <= eps


def hyperbolic_map(sp):
    # pairing x1*y2 + x2*y1 on the plane
    return IntersectionMap(sp, 2, {(0, 1): 1})


class TestIntersection:
    def test_evaluate_multilinear_table(self):
        sp = standard_space()
        h = hyperbolic_map(sp)
        assert h(V([1, 2]), V([3, 4])) == 10
        assert h(V([1, 0]), V([0, 1])) == 1
        assert h(V([1, 0]), V([1, 0])) == 0

    def test_axiom_report(self):
        sp = standard_space()
        h = hyperbolic_map(sp)
        gens = [V([1, 0]), V([0, 1]), V([1, 1])]
        report = check_intersection_axioms(h, gens, gens)
        assert report["passed"]
        assert report["nef_nonnegative"]
        assert all(w is not None for w in report["amplitude_witnesses"].values())

    @pytest.mark.parametrize(
        "arity, table, message",
        [
            (2, {(0, 0.5): 1}, "table key index must be an int"),
            (2, {(1.0, 0): 1}, "table key index must be an int"),
            (2, {(True, 0): 1}, "table key index must be an int"),
            (2.0, {(0, 1): 1}, "arity must be an int of at least 1"),
            (True, {(0,): 1}, "arity must be an int of at least 1"),
        ],
    )
    def test_indices_and_arity_must_be_ints(self, arity, table, message):
        with pytest.raises(ValueError, match=message):
            IntersectionMap(standard_space(), arity, table)

    def test_a_zero_effective_generator_gets_no_witness(self):
        h = hyperbolic_map(standard_space())
        report = check_intersection_axioms(h, [V([1, 0]), V([0, 1])], [V([0, 0]), V([1, 0])])
        assert report == {
            "nef_nonnegative": True,
            "effective_nonnegative": True,
            "amplitude_witnesses": {1: 1},
            "failures": [],
            "passed": True,
        }

    def test_axiom_report_catches_negativity(self):
        sp = standard_space()
        bad = IntersectionMap(sp, 2, {(0, 0): -1})
        report = check_intersection_axioms(bad, [V([1, 0])], [V([1, 0])])
        assert not report["passed"]
        assert not report["nef_nonnegative"]

    def test_extension_hits_limit(self):
        sp = standard_space()
        b = V([1, 1])
        h = hyperbolic_map(sp)
        x = CompletionElement(
            sp, b, lambda n: V([1, F(1, n + 1)]), lambda e: int(1 / Fraction(e)) + 1
        )
        y = CompletionElement(
            sp, b, lambda n: V([F(1, n + 1), 1]), lambda e: int(1 / Fraction(e)) + 1
        )
        val = extend_intersection(h, [x, y], F(1, 10**6), b)
        assert abs(val - 1) <= 1e-6

    def test_extension_requires_dominating_gauge(self):
        sp = standard_space()
        b = V([1, 1])
        h = hyperbolic_map(sp)
        x = CompletionElement.constant(sp, b, V([1, 0]))
        with pytest.raises(AdmissibilityError, match="dominate"):
            extend_intersection(h, [x, x], F(1, 100), V([1, 0]))

    def test_extension_rejects_non_nef_terms(self):
        sp = standard_space()
        b = V([1, 1])
        h = hyperbolic_map(sp)
        x = CompletionElement.constant(sp, b, V([1, -1]))
        with pytest.raises(PositivityError):
            extend_intersection(h, [x, x], F(1, 100), b)

    def test_extension_additive_in_slot(self):
        sp = standard_space()
        b = V([1, 1])
        h = hyperbolic_map(sp)
        eps = F(1, 10**6)

        def elem(f):
            return CompletionElement(
                sp, b, f, lambda e: int(1 / Fraction(e)) + 1
            )

        x1 = elem(lambda n: V([1, F(1, n + 1)]))
        x2 = elem(lambda n: V([0, 1]))
        xs = elem(lambda n: V([1, F(1, n + 1)]) + V([0, 1]))
        y = elem(lambda n: V([F(1, n + 1), 1]))
        lhs = extend_intersection(h, [xs, y], eps, b)
        rhs = extend_intersection(h, [x1, y], eps, b) + extend_intersection(
            h, [x2, y], eps, b
        )
        assert abs(lhs - rhs) <= 2 * float(eps)

    def test_extension_symmetric(self):
        sp = standard_space()
        b = V([1, 1])
        h = hyperbolic_map(sp)
        eps = F(1, 10**6)
        x = CompletionElement(
            sp, b, lambda n: V([1, F(1, n + 1)]), lambda e: int(1 / Fraction(e)) + 1
        )
        y = CompletionElement(
            sp, b, lambda n: V([2, F(2, n + 1)]), lambda e: int(2 / Fraction(e)) + 1
        )
        assert abs(
            extend_intersection(h, [x, y], eps, b)
            - extend_intersection(h, [y, x], eps, b)
        ) <= 2 * float(eps)

    def test_extension_positivity(self):
        sp = standard_space()
        b = V([1, 1])
        h = hyperbolic_map(sp)
        x = CompletionElement(
            sp, b, lambda n: V([F(1, n + 1), F(1, n + 1)]),
            lambda e: int(1 / Fraction(e)) + 1,
        )
        val = extend_intersection(h, [x, x], F(1, 10**6), b)
        assert val >= -1e-6


# ---------------------------------------------------------------------------
# The integer forms against definitions taken in Fractions.


def two_cell_cone(dim):
    """{x1 > 0} union {x1 = 0, other coordinates >= 0}."""
    unit = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    strict = Cell((Constraint(unit[0], strict=True),))
    face = Cell(
        (Constraint(unit[0]), Constraint(tuple(-a for a in unit[0])))
        + tuple(Constraint(u) for u in unit[1:])
    )
    return SemilinearCone([strict, face], dim)


METRIC_SPACES = {
    "standard2": standard_space(2),
    "standard3": standard_space(3),
    "skew2": DivisorialSpace(
        2, SemilinearCone.from_halfspaces([(F(1, 3), F(2, 7)), (F(3, 10**12), F(1, 5))], 2)
    ),
    "half_open": DivisorialSpace(2, half_open_cone()),
    "two_cell3": DivisorialSpace(3, two_cell_cone(3)),
}


def _oracle_d_b(space, b, x, y):
    """min(1, the infimum over pairs of cells (A, B) of the delta with
    x - y + delta*b in A and delta*b - (x - y) in B), each row's base and
    rate a Fraction sum over the row."""
    diff = [p - q for p, q in zip(x, y)]

    def dot(row, v):
        return sum((r * c for r, c in zip(row, v)), F(0))

    best = F(1)
    for ca in space.order_cone.cells:
        for cb in space.order_cone.cells:
            rows = [(dot(c.row, diff), dot(c.row, b), c.strict) for c in ca.constraints]
            rows += [(-dot(c.row, diff), dot(c.row, b), c.strict) for c in cb.constraints]
            inf = _oracle_delta_inf(rows)
            if inf is not None:
                best = min(best, inf)
    return best


# mixed and large denominators, and a few small values so that bounds tie
wide = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-1, 3)]),
    st.fractions(min_value=-10, max_value=10, max_denominator=10**12),
)
positive = st.one_of(
    st.sampled_from([F(1), F(2), F(1, 3)]),
    st.fractions(min_value=F(1, 10**6), max_value=10, max_denominator=10**12),
)


@st.composite
def metric_cases(draw):
    name = draw(st.sampled_from(sorted(METRIC_SPACES)))
    space = METRIC_SPACES[name]
    dim = space.ambient_dim
    b = V(draw(st.lists(positive, min_size=dim, max_size=dim)))
    x = draw(st.lists(wide, min_size=dim, max_size=dim))
    if draw(st.booleans()):
        # y - x a multiple of b, up to zeros: the bounds of the rows tie
        t = draw(wide)
        keep = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
        y = [p + t * g if k else p for p, g, k in zip(x, b, keep)]
    else:
        y = draw(st.lists(wide, min_size=dim, max_size=dim))
    return space, b, V(x), V(y)


class TestIntegerForms:
    def test_negation_is_exact(self):
        x = -V([1, F(-2, 3), 0])
        assert x == V([-1, F(2, 3), 0]) and all(type(c) is F for c in x)

    @given(metric_cases())
    @example((METRIC_SPACES["standard2"], V([1, 1]), V([0, 0]), V([F(1, 3), F(-1, 3)])))
    @example((METRIC_SPACES["two_cell3"], V([1, 2, 3]), V([0, 0, 0]), V([0, -2, 3])))
    @example((METRIC_SPACES["half_open"], V([1, 0]), V([0, 1]), V([0, 0])))
    @settings(max_examples=300, deadline=None)
    def test_d_b_matches_its_definition(self, case):
        space, b, x, y = case
        if not space.order_cone.contains(b):
            with pytest.raises(ValueError, match="gauge"):
                d_b(space, b, x, y)
            return
        got = d_b(space, b, x, y)
        assert type(got) is F and got == _oracle_d_b(space, b, x, y)

    @given(cell_systems(), st.booleans())
    # a ray and a line: one coordinate's projection is a half-line, or all of it
    @example((2, [(F(1), F(0)), (F(0), F(1)), (F(0), F(-1))]), False)
    @example((3, [(F(1), F(0), F(0)), (F(-1), F(0), F(0)), (F(0), F(1), F(0))]), False)
    @example((1, [(F(1),)]), False)
    @example((1, [(F(1),), (F(-1),)]), False)
    # the origin alone in dimension 4: the unit rows and minus their sum
    @example(
        (4, [tuple(F(int(i == j)) for j in range(4)) for i in range(4)] + [(F(-1),) * 4]),
        False,
    )
    @settings(max_examples=300, deadline=None)
    def test_nonzero_point_matches_the_normalised_search(self, system, strict):
        n, rows = system
        cell = Cell(tuple(Constraint(r, strict=strict and k == 0) for k, r in enumerate(rows)))
        # a nonzero solution, scaled, has s*x_i >= 1 for some coordinate i and sign s
        base = [(c.row, 0, c.strict) for c in cell.constraints]
        units = [tuple(s * (j == i) for j in range(n)) for i in range(n) for s in (1, -1)]
        want = any(not _oracle_eliminate(base + [(u, -1, False)], range(n)) for u in units)
        assert cones.cell_has_nonzero_point(cell, n) == want

    @pytest.mark.parametrize("value", [Constraint((F(1, 3), F(-2, 9)), True), V([F(1, 6), 0, 4])])
    def test_a_filled_integer_form_is_no_field(self, value):
        fresh = copy.copy(value)
        if isinstance(value, Constraint):
            value.satisfied(V([1, 1]))
            assert value._ints == (3, -2)
        else:
            assert value._ratio() == ((1, 0, 24), 6)
        assert value == fresh and hash(value) == hash(fresh)
        assert repr(value) == repr(fresh)
        assert pickle.dumps(value) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(value)) == value

    def test_a_completion_element_checks_its_gauge_once(self, monkeypatch):
        space, b = standard_space(), V([1, 1])
        calls = []
        contains = SemilinearCone.contains

        def spy(cone, v):
            calls.append(v)
            return contains(cone, v)

        monkeypatch.setattr(SemilinearCone, "contains", spy)
        reciprocal_element(space, b, V([0, 0]))
        assert calls == [b]

    @pytest.mark.parametrize(
        "sequence, modulus",
        [
            # terms 1/20 apart: only the tolerance 1/100 sees the lie
            (lambda n: V([F((-1) ** n, 40), 0]), lambda eps: 0),
            # term n + 1 agrees with term n; only term 2n + 1 moves
            (lambda n: V([int(n > 5), 0]), lambda eps: 3),
        ],
    )
    def test_a_lying_modulus_still_raises(self, sequence, modulus):
        with pytest.raises(ValueError, match="modulus fails"):
            CompletionElement(standard_space(), V([1, 1]), sequence, modulus)


def _brute_evaluate(imap, args):
    """The dim**arity walk: every index tuple, its sorted key's value."""
    total = F(0)
    for idx in itertools.product(range(imap.dim), repeat=imap.arity):
        coeff = imap.table.get(tuple(sorted(idx)), F(0))
        prod = coeff
        for a, i in zip(args, idx):
            prod *= a[i]
        total += prod
    return total


@st.composite
def pairings(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    arity = draw(st.integers(min_value=1, max_value=3))
    keys = st.tuples(*[st.integers(0, dim - 1)] * arity)
    coeff = st.one_of(st.just(F(0)), st.fractions(-5, 5, max_denominator=10**6))
    table = {}
    for key, c in draw(st.lists(st.tuples(keys, coeff), max_size=6)):
        table.setdefault(tuple(sorted(key)), (key, c))
    entries = {}
    for key, c in table.values():
        entries[key] = c
        if draw(st.booleans()):
            entries[key[::-1]] = c  # the same key in another order
    vec = st.lists(st.fractions(-5, 5, max_denominator=10**9), min_size=dim, max_size=dim)
    args = [V(draw(vec)) for _ in range(arity)]
    return dim, arity, entries, args


class TestPairingWalk:
    @given(pairings(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_evaluate_matches_the_brute_force_walk(self, case, rnd):
        dim, arity, entries, args = case
        imap = IntersectionMap(standard_space(dim), arity, entries)
        got = imap.evaluate(args)
        assert type(got) is F and got == _brute_evaluate(imap, args)
        shuffled = list(args)
        rnd.shuffle(shuffled)
        assert imap.evaluate(shuffled) == got
