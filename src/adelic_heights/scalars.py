"""What every layer shares: the scalar coercions (exact Fractions for ints
and rational strings, finite floats passed through by _num or converted
exactly by _to_fraction), and Frozen, the one base of the read-only value
classes (divisors, places, profiles and their pieces, duals, measures,
constraints, cells and vectors)."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter


def _num(x) -> Fraction | float:
    """The one scalar coercion: ints and strings become exact Fractions,
    Fractions and finite floats pass through. Bools, non-finite floats and
    unparseable strings raise ValueError; other types raise TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float) and math.isfinite(x):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError as exc:
            raise ValueError(f"bad rational literal {x!r}") from exc
    if isinstance(x, (bool, float)):
        raise ValueError(f"expected a finite number, got {x!r}")
    raise TypeError(f"expected a number, got {type(x).__name__}")


def _to_fraction(x) -> Fraction:
    """_num, with finite floats converted exactly; callers wanting a
    decimal literal should pass a string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    return Fraction(_num(x))


class Frozen:
    """A read-only value whose fields are its __slots__.

    Setting or deleting an attribute raises AttributeError, so a
    constructor stores its normalised fields with object.__setattr__.
    Two values are equal when they have the same type and equal fields,
    and hash by their fields; the repr is Name(field=value, ...). The
    constructor takes the fields in slot order, which is how copy and
    pickle rebuild a value.

    A slot whose name starts with "_" is derived data, not a field: a
    memo of something computed from the fields, set once with
    object.__setattr__. It takes no part in equality, hashing, the repr,
    copy or pickle, and a rebuilt value starts without it."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._fields = attrgetter(*cls._names)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        fields = self._fields(self)
        return type(self), fields if len(self._names) > 1 else (fields,)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__name__}({fields})"
