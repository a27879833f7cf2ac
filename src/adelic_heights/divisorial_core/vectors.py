"""Exact vectors over the rationals."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction

from ..scalars import Frozen, _integer_form, _to_fraction

Scalar = int | Fraction


class RationalVector(Frozen):
    """Immutable vector with Fraction coordinates.

    All arithmetic is exact. Supports +, -, unary -, and scalar
    multiplication by ints or Fractions. The cones decide on the vector's
    integer form, taken on first use.
    """

    __slots__ = ("coords", "_ints")

    def __init__(self, coords: Iterable):
        object.__setattr__(self, "coords", tuple(_to_fraction(c) for c in coords))

    @classmethod
    def _of(cls, coords: Iterable[Fraction]) -> "RationalVector":
        """The vector of these Fraction coordinates, taken as they are."""
        v = object.__new__(cls)
        object.__setattr__(v, "coords", tuple(coords))
        return v

    def _ratio(self) -> tuple[tuple[int, ...], int]:
        """The coordinates as integer numerators over one positive common
        denominator."""
        try:
            return self._ints
        except AttributeError:
            object.__setattr__(self, "_ints", _integer_form(self.coords))
            return self._ints

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __add__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector._of(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector._of(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "RationalVector":
        return RationalVector._of(-a for a in self.coords)

    def __mul__(self, s: Scalar) -> "RationalVector":
        s = _to_fraction(s)
        return RationalVector._of(s * a for a in self.coords)

    __rmul__ = __mul__

    def dot(self, other: "RationalVector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check_dim(self, other: "RationalVector") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError("dimension mismatch")

    def __repr__(self) -> str:
        return f"RationalVector({', '.join(str(c) for c in self.coords)})"

    @staticmethod
    def zero(dim: int) -> "RationalVector":
        return RationalVector([0] * dim)
