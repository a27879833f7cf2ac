"""The scalar coercions every layer shares: exact Fractions for ints and
rational strings, finite floats passed through (_num) or converted exactly
(_to_fraction)."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


def _num(x) -> Union[Fraction, float]:
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
