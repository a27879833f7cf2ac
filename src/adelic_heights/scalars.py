"""What every layer shares: the scalar coercions (exact Fractions for ints
and rational strings, finite floats passed through by _num or converted
exactly by _to_fraction), the exact-ratio kernel of the profile layers,
the log-linear sums and the divisorial core, the one divergence signal,
and Frozen, the one base of the read-only value classes (divisors,
places, profiles and their pieces, duals, measures, constraints, cells
and vectors)."""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
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
        # Fraction builds 10**|exponent|: an exponent past the digit limit
        # Python puts on reading an int (0 for none) is refused
        _, e, exponent = x.lower().rpartition("e")
        limit = sys.get_int_max_str_digits()
        try:
            too_big = bool(e and limit) and abs(int(exponent)) > limit
        except ValueError:  # not an exponent: Fraction says why below
            too_big = False
        if too_big:
            raise ValueError(f"bad rational literal {x!r}: exponent beyond {limit} digits")
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


class PositiveDivergenceError(ValueError):
    """An integral diverges to +infinity; no value can be returned."""


# The exact-ratio kernel, the one place in the profile layers, the
# rational-point layer and the divisorial core that reads a Fraction's
# integer ratio. A Term is a value on its way into a result: an unreduced
# integer ratio (numerator, positive denominator), or a float.
Term = tuple[int, int] | float


def _affine_ratio(line, u) -> Term:
    """line.slope*u + line.intercept (a line: an affine piece of a profile or
    a dual): a ratio when all three are Fractions, else by operators."""
    s, c = line.slope, line.intercept
    if isinstance(s, Fraction) and isinstance(c, Fraction) and isinstance(u, Fraction):
        sn, sd = s.as_integer_ratio()
        cn, cd = c.as_integer_ratio()
        un, ud = u.as_integer_ratio()
        return sn * un * cd + cn * sd * ud, sd * ud * cd
    return s * u + c


def _add_twice_integral(total: tuple[int, int], line, a, b) -> tuple[int, int] | None:
    """total plus twice the line's integral over [a, b], unreduced (a gcd per
    piece of one dual costs more than it saves); None once any is a float."""
    s, c = line.slope, line.intercept
    if not (isinstance(s, Fraction) and isinstance(c, Fraction)):
        return None
    if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
        return None
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    sn, sd = s.as_integer_ratio()
    cn, cd = c.as_integer_ratio()
    n = (bn * ad - an * bd) * (sn * (an * bd + bn * ad) * cd + 2 * cn * sd * ad * bd)
    d = (ad * bd) ** 2 * sd * cd
    return total[0] * d + n * total[1], total[1] * d


def _above(x, y) -> bool:
    """x > y: exactly on Fractions, and at face value in floats once either
    is a float (the derivative of an alpha piece, or float input)."""
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        return xn * yd > yn * xd
    return _float_of(x) > _float_of(y)


def _in_unit_interval(x) -> bool:
    """0 < x < 1, decided exactly on x's integer ratio (a float's too)."""
    n, d = x.as_integer_ratio()
    return 0 < n < d


def _increasing(xs: Iterable) -> bool:
    """xs strictly increase, decided on their integer ratios: a float's is
    exact too, so the order is exact on Fractions and floats alike."""
    n0, d0 = -1, 0  # -1/0, below every ratio
    for x in xs:
        n, d = x.as_integer_ratio()
        if n0 * d >= n * d0:
            return False
        n0, d0 = n, d
    return True


def _negated(term: Term) -> Term:
    return (-term[0], term[1]) if type(term) is tuple else -term


def _read(term: Term) -> Fraction | float:
    """A term as a number: one Fraction for an integer ratio."""
    return Fraction(*term) if type(term) is tuple else term


def _difference(x: Term | Fraction, y: Term | Fraction) -> Term:
    """x - y: an unreduced ratio unless either is a float, else the float the operators give."""
    if isinstance(x, float) or isinstance(y, float):
        return _float_of(x) - _float_of(y)
    xn, xd = x if type(x) is tuple else x.as_integer_ratio()
    yn, yd = y if type(y) is tuple else y.as_integer_ratio()
    return xn * yd - yn * xd, xd * yd


def _times(m: int | Fraction | float, term: Term) -> Term:
    """m * term: an unreduced ratio when both are exact, else the float the operators give."""
    if isinstance(m, float) or type(term) is not tuple:
        return _float_of(m) * _float_of(term)
    mn, md = m.as_integer_ratio()
    return mn * term[0], md * term[1]


def _float_of(x: Term | Fraction) -> float:
    """A term or a Fraction as a float: int / int, as float() of a Fraction, faster."""
    if isinstance(x, float):
        return float(x)
    n, d = x if type(x) is tuple else x.as_integer_ratio()
    return n / d


def _integer_form(xs: Iterable[int | Fraction]) -> tuple[tuple[int, ...], int]:
    """xs (ints or Fractions) as integer numerators over one positive common
    denominator, the lcm of theirs: the form of a constraint row or a
    vector that the divisorial core decides on."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = math.lcm(*[d for _, d in ratios])
    return tuple([n * (den // d) for n, d in ratios]), den


def _scaled(x: Fraction, v: int) -> Fraction:
    """v*x as one Fraction, from x's integer ratio."""
    n, d = x.as_integer_ratio()
    return Fraction(v * n, d)


def _keyed_sum(items: Iterable[tuple[object, int | Fraction]]) -> dict:
    """{key: the sum of its values} over (key, int or Fraction) items.

    Each key's sum is an integer ratio over the lcm of its values'
    denominators, made one reduced Fraction at the end. A key whose sum
    cancels leaves at once, so the keys come in the order that adding
    item by item into a dict gives."""
    out: dict = {}
    for key, x in items:
        n, d = x.as_integer_ratio()
        if key in out:
            n0, d0 = out[key]
            if d0 == d:
                n += n0
            else:
                g = math.gcd(d0, d)
                n, d = n0 * (d // g) + n * (d0 // g), d0 // g * d
        if n:
            out[key] = n, d
        else:
            out.pop(key, None)
    return {key: Fraction(n, d) for key, (n, d) in out.items()}


def _ratio_sum(terms: Iterable[Term]) -> Term:
    """sum(map(_read, terms), Fraction(0)), building no Fraction.

    While every term is exact the sum is one integer ratio: each term is
    reduced once, as a reduction per addition would not keep a sum over
    places smaller. From the first float term on it is the float sum in
    the same order, each ratio rounded once, bit for bit the float the
    Fraction sum gives."""
    num, den = 0, 1
    terms = iter(terms)
    for term in terms:
        if type(term) is not tuple:
            total = num / den + term
            for term in terms:
                total += term[0] / term[1] if type(term) is tuple else term
            return total
        n, d = term
        g = math.gcd(n, d)
        num, den = num * (d // g) + (n // g) * den, den * (d // g)
    return num, den


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
