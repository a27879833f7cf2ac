"""Semilinear cones over the rationals and the order metric they induce.

A cone is a finite union of cells, each cell a finite conjunction of
homogeneous linear constraints (strict or non-strict). Membership,
closure, partial order, and the metric d_b are all decided exactly in
Fraction arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .vectors import RationalVector, _to_fraction


@dataclass(frozen=True)
class Constraint:
    """Homogeneous half-space condition row . x >= 0 (or > 0 when strict)."""

    row: tuple
    strict: bool = False

    def __post_init__(self):
        object.__setattr__(self, "row", tuple(_to_fraction(c) for c in self.row))

    def value(self, x: RationalVector) -> Fraction:
        return sum((r * c for r, c in zip(self.row, x)), Fraction(0))

    def satisfied(self, x: RationalVector) -> bool:
        v = self.value(x)
        return v > 0 if self.strict else v >= 0


@dataclass(frozen=True)
class Cell:
    """Intersection of finitely many homogeneous constraints."""

    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def contains(self, x: RationalVector) -> bool:
        return all(c.satisfied(x) for c in self.constraints)

    def relaxed(self) -> "Cell":
        return Cell(tuple(Constraint(c.row, strict=False) for c in self.constraints))


# ---------------------------------------------------------------------------
# Exact feasibility of linear systems (Fourier-Motzkin elimination).
# Rows are (coeffs, const, strict) meaning coeffs . x + const >= 0 (> if strict).
# ---------------------------------------------------------------------------


def _fm_feasible(rows: list, dim: int) -> bool:
    rows = list(rows)
    for i in range(dim):
        pos, neg, zero = [], [], []
        for coeffs, const, strict in rows:
            a = coeffs[i]
            if a > 0:
                pos.append((coeffs, const, strict))
            elif a < 0:
                neg.append((coeffs, const, strict))
            else:
                zero.append((coeffs, const, strict))
        new_rows = zero
        for (cp, bp, sp) in pos:
            for (cn, bn, sn) in neg:
                # scale so the i-th coefficients cancel; both scales positive
                lam, mu = -cn[i], cp[i]
                coeffs = tuple(lam * a + mu * b for a, b in zip(cp, cn))
                const = lam * bp + mu * bn
                new_rows.append((coeffs, const, sp or sn))
        rows = new_rows
    for coeffs, const, strict in rows:
        if strict:
            if not const > 0:
                return False
        else:
            if not const >= 0:
                return False
    return True


def _cell_rows(cell: Cell) -> list:
    return [(c.row, Fraction(0), c.strict) for c in cell.constraints]


def cell_is_empty(cell: Cell, dim: int) -> bool:
    """Exact test for whether the cell has no solutions at all."""
    return not _fm_feasible(_cell_rows(cell), dim)


def cell_has_nonzero_point(cell: Cell, dim: int) -> bool:
    """Exact test for a solution other than the origin.

    Homogeneity lets us normalise: a nonzero solution exists iff the system
    plus s*x_i >= 1 is feasible for some coordinate i and sign s.
    """
    base = _cell_rows(cell)
    for i in range(dim):
        for s in (1, -1):
            unit = tuple(Fraction(s) if j == i else Fraction(0) for j in range(dim))
            if _fm_feasible(base + [(unit, Fraction(-1), False)], dim):
                return True
    return False


def _delta_inf(rows) -> Optional[Fraction]:
    """Infimum of the delta >= 0 with base + delta*rate >= 0 (> 0 when
    strict) for every (base, rate, strict) row; None when there is none."""
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


# ---------------------------------------------------------------------------
# Cones and spaces.
# ---------------------------------------------------------------------------

_SAMPLE_COORDS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3),
    Fraction(-3),
)


class SemilinearCone:
    """Finite union of semilinear cells, closed under positive scaling
    by construction (all constraints are homogeneous).

    The additivity half of the cone property cannot be decided exactly for
    an arbitrary union, so it is checked on witnesses: the origin must be a
    member, and pairwise sums of sampled members (plus any supplied
    generators) must stay inside. Failures raise ValueError.
    """

    def __init__(
        self,
        cells: Iterable[Cell],
        ambient_dim: int,
        generators: Optional[Sequence[RationalVector]] = None,
        check: bool = True,
    ):
        self.cells = tuple(cells)
        self.ambient_dim = ambient_dim
        self.generators = tuple(generators) if generators else ()
        for cell in self.cells:
            for c in cell.constraints:
                if len(c.row) != ambient_dim:
                    raise ValueError("constraint row has wrong dimension")
        if check:
            self._check_cone()

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
        return SemilinearCone(kept, self.ambient_dim, check=False)

    def sample_points(self) -> list:
        """Deterministic small-coordinate members, up to eight per cell."""
        found = []
        seen = set()
        for cell in self.cells:
            count = 0
            for combo in itertools.product(_SAMPLE_COORDS, repeat=self.ambient_dim):
                v = RationalVector(combo)
                if cell.contains(v) and not v.is_zero():
                    if v.coords not in seen:
                        seen.add(v.coords)
                        found.append(v)
                    count += 1
                    if count >= 8:
                        break
        return found

    def _check_cone(self) -> None:
        zero = RationalVector.zero(self.ambient_dim)
        if not self.contains(zero):
            raise ValueError("not a cone: the origin is not a member")
        for g in self.generators:
            if not self.contains(g):
                raise ValueError(f"declared generator {g} is not a member")
        witnesses = list(self.generators) + self.sample_points()
        for x, y in itertools.combinations_with_replacement(witnesses, 2):
            if not self.contains(x + y):
                raise ValueError(
                    f"not a cone: members {x} and {y} but their sum escapes"
                )

    @staticmethod
    def full_space(dim: int) -> "SemilinearCone":
        return SemilinearCone([Cell(())], dim, check=False)

    @staticmethod
    def from_halfspaces(rows: Sequence, dim: int, check: bool = True) -> "SemilinearCone":
        """Single polyhedral cell {x : row . x >= 0 for each row}."""
        cell = Cell(tuple(Constraint(r, strict=False) for r in rows))
        return SemilinearCone([cell], dim, check=check)

    @staticmethod
    def from_generators(gens: Sequence[RationalVector], dim: int) -> "SemilinearCone":
        """Polyhedral cone positively spanned by the given vectors.

        Implemented exactly for ambient dimension 1 and 2 (the exact
        angular-sort construction does not extend to higher dimensions
        without a double-description step, which callers there must
        perform themselves by passing half-space rows).
        """
        gens = [g for g in gens if not g.is_zero()]
        if dim == 1:
            has_pos = any(g[0] > 0 for g in gens)
            has_neg = any(g[0] < 0 for g in gens)
            if has_pos and has_neg:
                return SemilinearCone.full_space(1)
            if has_pos:
                return SemilinearCone.from_halfspaces([(Fraction(1),)], 1)
            if has_neg:
                return SemilinearCone.from_halfspaces([(Fraction(-1),)], 1)
            return SemilinearCone.from_halfspaces(
                [(Fraction(1),), (Fraction(-1),)], 1
            )
        if dim != 2:
            raise NotImplementedError(
                "from_generators is exact only in dimension <= 2; "
                "supply half-space rows directly in higher dimensions"
            )
        if not gens:
            rows = [(1, 0), (-1, 0), (0, 1), (0, -1)]
            return SemilinearCone.from_halfspaces(rows, 2)

        def cross(u, v) -> Fraction:
            return u[0] * v[1] - u[1] * v[0]

        def same_dir(u, v) -> bool:
            return cross(u, v) == 0 and u.dot(v) > 0

        dirs: list = []
        for g in gens:
            if not any(same_dir(g, d) for d in dirs):
                dirs.append(g)

        # exact counterclockwise angular sort starting at direction (1, 0)
        import functools

        def cmp(u, v):
            ku = 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1
            kv = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
            if ku != kv:
                return -1 if ku < kv else 1
            c = cross(u, v)
            return 0 if c == 0 else (-1 if c > 0 else 1)

        dirs.sort(key=functools.cmp_to_key(cmp))
        n = len(dirs)
        if n == 1:
            g = dirs[0]
            cell = Cell(
                (
                    Constraint((g[1], -g[0])),
                    Constraint((-g[1], g[0])),
                    Constraint((g[0], g[1])),  # excludes the opposite ray
                )
            )
            return SemilinearCone([cell], 2, check=False)
        if n == 2 and cross(dirs[0], dirs[1]) == 0:
            # opposite rays span a line
            u = dirs[0]
            return SemilinearCone.from_halfspaces(
                [(u[1], -u[0]), (-u[1], u[0])], 2, check=False
            )
        # a circular gap of angle >= pi between consecutive directions is
        # unique if present; without one the vectors positively span the plane
        gap_at = None
        for i in range(n):
            u, v = dirs[i], dirs[(i + 1) % n]
            c = cross(u, v)
            if c < 0 or (c == 0 and u.dot(v) < 0):
                gap_at = i
                break
        if gap_at is None:
            return SemilinearCone.full_space(2)
        u, v = dirs[gap_at], dirs[(gap_at + 1) % n]
        # the hull spans counterclockwise from v around to u (angle <= pi),
        # so two half-planes cut it out; at exactly pi they coincide
        return SemilinearCone.from_halfspaces(
            [(-v[1], v[0]), (u[1], -u[0])], 2, check=False
        )


def _rank(vectors: Sequence[RationalVector], dim: int) -> int:
    rows = [list(v.coords) for v in vectors]
    rank = 0
    col = 0
    while rank < len(rows) and col < dim:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
        col += 1
    return rank


class DivisorialSpace:
    """Rational vector space ordered by a pointed semilinear cone.

    Pointedness (N meets -N only at the origin) is verified exactly by
    elimination. That the cone linearly spans the whole space is verified
    on sampled members and generators; pass generators if sampling cannot
    certify it.
    """

    def __init__(self, ambient_dim: int, order_cone: SemilinearCone):
        if order_cone.ambient_dim != ambient_dim:
            raise ValueError("cone dimension does not match the space")
        self.ambient_dim = ambient_dim
        self.order_cone = order_cone
        self._check_pointed()
        self._check_spans()

    def _check_pointed(self) -> None:
        for c1 in self.order_cone.cells:
            for c2 in self.order_cone.cells:
                negated = tuple(
                    Constraint(tuple(-a for a in c.row), c.strict)
                    for c in c2.constraints
                )
                if cell_has_nonzero_point(
                    Cell(c1.constraints + negated), self.ambient_dim
                ):
                    raise ValueError(
                        "order cone is not pointed: it meets its negative "
                        "in a nonzero vector"
                    )

    def _check_spans(self) -> None:
        pts = list(self.order_cone.generators) + self.order_cone.sample_points()
        if _rank(pts, self.ambient_dim) < self.ambient_dim:
            raise ValueError(
                "cannot certify that the order cone spans the space; "
                "supply generators covering all directions"
            )

    def contains(self, x: RationalVector) -> bool:
        return self.order_cone.contains(x)


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
    diff = x - y

    def rows(cell: Cell, sign: int) -> list:
        return [(sign * c.value(diff), c.value(b), c.strict) for c in cell.constraints]

    cells = space.order_cone.cells
    plus = [rows(cell, 1) for cell in cells]  # diff + delta*b in N
    minus = [rows(cell, -1) for cell in cells]  # delta*b - diff in N
    infs = (_delta_inf(ra + rb) for ra in plus for rb in minus)
    return min([Fraction(1), *(d for d in infs if d is not None)])
