"""Semilinear cones over the rationals and the order metric they induce.

A cone is a finite union of cells, each cell a finite conjunction of
homogeneous linear constraints (strict or non-strict). Membership,
closure, partial order, the cone axioms and the metric d_b are all decided
exactly, on integer forms: the axioms by Fourier-Motzkin elimination,
d_b by interval analysis.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from ..scalars import Frozen, _integer_form, _to_fraction
from .vectors import RationalVector


class Constraint(Frozen):
    """Homogeneous half-space condition row . x >= 0 (or > 0 when strict),
    decided on the row's primitive integer form (a positive multiple)."""

    __slots__ = ("row", "strict", "_ints")

    def __init__(self, row: Iterable, strict: bool = False):
        object.__setattr__(self, "row", tuple(_to_fraction(c) for c in row))
        object.__setattr__(self, "strict", strict)
        object.__setattr__(self, "_ints", _primitive(_integer_form(self.row)[0]))

    def value(self, x: RationalVector) -> Fraction:
        nums, den = _integer_form(self.row)
        xn, xd = x._ratio()
        return Fraction(sum(map(mul, nums, xn)), den * xd)

    def satisfied(self, x: RationalVector) -> bool:
        dot = sum(map(mul, self._ints, x._ratio()[0]))
        return dot > 0 if self.strict else dot >= 0


class Cell(Frozen):
    """Intersection of finitely many homogeneous constraints."""

    __slots__ = ("constraints",)

    def __init__(self, constraints: Iterable[Constraint]):
        object.__setattr__(self, "constraints", tuple(constraints))

    def contains(self, x: RationalVector) -> bool:
        return all(c.satisfied(x) for c in self.constraints)

    def relaxed(self) -> "Cell":
        return Cell(tuple(Constraint(c.row, strict=False) for c in self.constraints))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination, the one engine behind every cone axiom.
# Rows are (coeffs, strict) with coprime integer coeffs, meaning
# coeffs . x >= 0 (> 0 when strict).
# ---------------------------------------------------------------------------


def _primitive(ints: Sequence[int]) -> tuple:
    """The integer row divided by its gcd, so that positively proportional
    rows become identical."""
    g = math.gcd(*ints)
    return tuple(a // g for a in ints) if g > 1 else tuple(ints)


def _eliminate(rows: Iterable, variables: Iterable[int]) -> list:
    """Rows whose solution set is the projection of the rows' solution set
    along the given coordinates, where their coefficients are all zero.

    Each step eliminates the variable with the fewest positive x negative
    row pairs (the first such in the given order; the signs are counted in
    one pass over the rows), makes each combined row coprime, then drops
    repeated rows and rows that every point satisfies. A row that no point
    satisfies (a strict row of zeros) is returned alone."""
    left = list(variables)
    while True:
        kept = {}
        for row in rows:
            if any(row[0]):
                kept[row] = None
            elif row[1]:
                return [row]
        rows = list(kept)
        if not (left and rows):
            return rows
        i = left[0]
        if left[1:]:
            pos, neg = [0] * len(rows[0][0]), [0] * len(rows[0][0])
            for coeffs, _ in rows:
                for j, a in enumerate(coeffs):
                    if a:
                        (pos if a > 0 else neg)[j] += 1
            i = min(left, key=lambda j: pos[j] * neg[j])
        left.remove(i)
        pos, neg, zero = [], [], []
        for row in rows:
            a = row[0][i]
            (pos if a > 0 else neg if a < 0 else zero).append(row)
        rows = zero
        for cp, sp in pos:
            for cn, sn in neg:
                # scale so the i-th coefficients cancel; both scales positive
                lam, mu = -cn[i], cp[i]
                rows.append((_primitive([lam * a + mu * b for a, b in zip(cp, cn)]), sp or sn))


def _feasible(rows: Iterable, n: int) -> bool:
    """Exact test for a solution of rows in n variables."""
    return not _eliminate(rows, range(n))


def _has_nonzero_point(rows: list, dim: int) -> bool:
    """Exact test for a solution of rows in dim variables other than the
    origin. The origin breaks a strict row, so rows with one need only a
    solution. Otherwise the solutions form a closed cone, with a point
    where x_i != 0 unless eliminating the other variables leaves both
    x_i >= 0 and -x_i >= 0."""
    if any(strict for _, strict in rows):
        return _feasible(rows, dim)
    for i in range(dim):
        signs = {c[i] > 0 for c, _ in _eliminate(rows, [j for j in range(dim) if j != i])}
        if len(signs) < 2:
            return True
    return False


def _cell_rows(cell: Cell) -> list:
    return [(c._ints, c.strict) for c in cell.constraints]


def cell_is_empty(cell: Cell, dim: int) -> bool:
    """Exact test for whether the cell has no solutions at all."""
    return not _feasible(_cell_rows(cell), dim)


def cell_has_nonzero_point(cell: Cell, dim: int) -> bool:
    """Exact test for a solution other than the origin."""
    return _has_nonzero_point(_cell_rows(cell), dim)


def _delta_inf(rows) -> tuple[int, int] | None:
    """Infimum of the delta >= 0 with base + delta*rate >= 0 (> 0 when
    strict) for every (base, rate, strict) row, where base and rate are
    integer ratios (numerator, positive denominator); None when there is
    none.

    Each bound -base/rate is kept as an integer numerator over a positive
    denominator and compared by cross-multiplication; the upper bound
    starts at +infinity as 1/0, below which every bound compares. The
    infimum is returned as such a ratio, not reduced."""
    lo_n, lo_d, lo_strict = 0, 1, False
    hi_n, hi_d, hi_strict = 1, 0, False
    for (bn, bd), (rn, rd), strict in rows:
        if rn == 0:
            if not (bn > 0 if strict else bn >= 0):
                return None
            continue
        if rn > 0:
            n, d = -bn * rd, bd * rn
            cmp = n * lo_d - lo_n * d  # sign of bound - lo
            if cmp >= 0:
                lo_strict = strict or (cmp == 0 and lo_strict)
                lo_n, lo_d = n, d
        else:
            n, d = bn * rd, -bd * rn
            cmp = n * hi_d - hi_n * d  # sign of bound - hi
            if cmp <= 0:
                hi_strict = strict or (cmp == 0 and hi_strict)
                hi_n, hi_d = n, d
    cmp = hi_n * lo_d - lo_n * hi_d  # sign of hi - lo
    if cmp < 0 or (cmp == 0 and (lo_strict or hi_strict)):
        return None
    return lo_n, lo_d


# ---------------------------------------------------------------------------
# Cones and spaces.
# ---------------------------------------------------------------------------


class SemilinearCone:
    """Finite union of semilinear cells, closed under positive scaling
    by construction (all constraints are homogeneous).

    The rest of the cone property is decided exactly on construction: the
    origin must be a member, and for each pair of distinct cells no member
    of one plus a member of the other may break a constraint of every cell
    (two members of one cell sum into that cell). Each pair takes one
    elimination in 2*ambient_dim variables per choice of one broken
    constraint in each cell, so cells C_1..C_m cost
    sum_{i<j} prod_k |C_k| eliminations, and a one-cell cone none.
    Declared generators are checked to be members. Failures raise
    ValueError.
    """

    def __init__(
        self,
        cells: Iterable[Cell],
        ambient_dim: int,
        generators: Sequence[RationalVector] | None = None,
    ):
        self.cells = tuple(cells)
        self.ambient_dim = ambient_dim
        for cell in self.cells:
            for c in cell.constraints:
                if len(c.row) != ambient_dim:
                    raise ValueError("constraint row has wrong dimension")
        if not self.contains(RationalVector.zero(ambient_dim)):
            raise ValueError("not a cone: the origin is not a member")
        for g in generators or ():
            if not self.contains(g):
                raise ValueError(f"declared generator {g} is not a member")
        self._check_additive()

    def contains(self, x: RationalVector) -> bool:
        if x.dim != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return any(cell.contains(x) for cell in self.cells)

    def closure(self) -> "SemilinearCone":
        """Topological closure: drop empty cells, then relax strict to
        non-strict (valid because each nonempty cell is convex)."""
        kept = [
            cell.relaxed()
            for cell in self.cells
            if not cell_is_empty(cell, self.ambient_dim)
        ]
        return SemilinearCone(kept, self.ambient_dim)

    def _check_additive(self) -> None:
        n = self.ambient_dim
        zeros = (0,) * n
        pairs = itertools.combinations(enumerate(self.cells), 2)
        for (i, ci), (j, cj) in pairs:
            # x in ci and y in cj, over the variables (x, y)
            members = [(c._ints + zeros, c.strict) for c in ci.constraints]
            members += [(zeros + c._ints, c.strict) for c in cj.constraints]
            for broken in itertools.product(*(cell.constraints for cell in self.cells)):
                # x + y breaks the chosen constraint of every cell
                escape = [(tuple(-a for a in c._ints) * 2, not c.strict) for c in broken]
                if _feasible(members + escape, 2 * n):
                    raise ValueError(
                        f"not a cone: cells {i} and {j} have members whose sum escapes"
                    )

    @staticmethod
    def from_halfspaces(rows: Sequence, dim: int) -> "SemilinearCone":
        """Single polyhedral cell {x : row . x >= 0 for each row}."""
        cell = Cell(tuple(Constraint(r, strict=False) for r in rows))
        return SemilinearCone([cell], dim)

    @staticmethod
    def from_generators(gens: Sequence[RationalVector], dim: int) -> "SemilinearCone":
        """Polyhedral cone positively spanned by the given vectors: the
        projection of {(x, lam) : x = sum_k lam_k g_k, lam >= 0} onto x.

        Implemented for ambient dimension 1 and 2. Elimination keeps every
        redundant row it makes, so in higher dimensions the projection grows
        too fast (7 generators in dimension 3 can give over 10^5 rows);
        callers there pass half-space rows instead.
        """
        if any(len(g) != dim for g in gens):
            raise ValueError("generator has wrong dimension")
        if dim not in (1, 2):
            raise NotImplementedError(
                "from_generators is implemented only in dimension <= 2; "
                "supply half-space rows directly in higher dimensions"
            )
        k = len(gens)
        rows = []
        for i in range(dim):
            # x_i - sum_k lam_k g_k[i] = 0, as two inequalities
            coeffs = tuple(int(j == i) for j in range(dim)) + tuple(-g[i] for g in gens)
            coeffs = _primitive(_integer_form(coeffs)[0])
            rows += [(coeffs, False), (tuple(-a for a in coeffs), False)]
        for j in range(k):
            rows.append(((0,) * dim + tuple(int(m == j) for m in range(k)), False))
        projected = _eliminate(rows, range(dim, dim + k))
        return SemilinearCone.from_halfspaces([c[:dim] for c, _ in projected], dim)


class DivisorialSpace:
    """Rational vector space ordered by a pointed semilinear cone.

    Both conditions are decided exactly by elimination: the cone meets its
    negative only at the origin, and it spans the space, that is, it has
    an interior point (some cell is feasible with every row made strict).
    """

    def __init__(self, ambient_dim: int, order_cone: SemilinearCone):
        if order_cone.ambient_dim != ambient_dim:
            raise ValueError("cone dimension does not match the space")
        self.ambient_dim = ambient_dim
        self.order_cone = order_cone
        self._check_pointed()
        self._check_spans()

    def _check_pointed(self) -> None:
        # c1 meets -c2 iff c2 meets -c1, so each unordered pair is enough
        cells = self.order_cone.cells
        for c1, c2 in itertools.combinations_with_replacement(cells, 2):
            negated = [(tuple(-a for a in c._ints), c.strict) for c in c2.constraints]
            if _has_nonzero_point(_cell_rows(c1) + negated, self.ambient_dim):
                raise ValueError(
                    "order cone is not pointed: it meets its negative "
                    "in a nonzero vector"
                )

    def _check_spans(self) -> None:
        # an all-zero non-strict row holds everywhere; made strict it would not
        for cell in self.order_cone.cells:
            rows = [(c._ints, True) for c in cell.constraints if c.strict or any(c._ints)]
            if _feasible(rows, self.ambient_dim):
                return
        raise ValueError("order cone does not span the space: it has no interior point")


def leq(space: DivisorialSpace, x: RationalVector, y: RationalVector) -> bool:
    """Order relation: x <= y iff y - x lies in the order cone."""
    return space.order_cone.contains(y - x)


def d_b(
    space: DivisorialSpace,
    b: RationalVector,
    x: RationalVector,
    y: RationalVector,
) -> Fraction:
    """Exact order pseudo-metric relative to the gauge b >= 0.

    d_b(x, y) = min(1, inf{delta >= 0 : -delta*b <= x - y <= delta*b}),
    with the infimum of the empty set treated as +infinity. The feasible
    delta-set is a finite union of rational intervals, one per pair of
    cells, so the infimum is exact.
    """
    if not space.order_cone.contains(b):
        raise ValueError("gauge b must lie in the order cone")
    return _d_b(space.order_cone, b, x, y)


def _d_b(
    cone: SemilinearCone, b: RationalVector, x: RationalVector, y: RationalVector
) -> Fraction:
    """d_b for a gauge known to lie in the cone, on the integer forms: the
    positive scale of a constraint's integer row cancels in its bound. The
    rows and the minimum stay integer ratios; the distance is one Fraction."""
    if not x.dim == y.dim == cone.ambient_dim:
        raise ValueError("dimension mismatch")
    (xn, xd), (yn, yd), (bn, bd) = x._ratio(), y._ratio(), b._ratio()

    def shifted(cell):  # diff + delta*b in N: row . (x - y) from the two dots
        for c in cell.constraints:
            base = sum(map(mul, c._ints, xn)) * yd - sum(map(mul, c._ints, yn)) * xd
            yield (base, xd * yd), (sum(map(mul, c._ints, bn)), bd), c.strict

    plus = [list(shifted(cell)) for cell in cone.cells]
    # delta*b - diff in N
    minus = [[((-vn, vd), w, strict) for (vn, vd), w, strict in rows] for rows in plus]
    best_n, best_d = 1, 1
    for ra in plus:
        for rb in minus:
            inf = _delta_inf(ra + rb)
            if inf is not None and inf[0] * best_d < best_n * inf[1]:
                best_n, best_d = inf
    return Fraction(best_n, best_d)
