"""Symmetric multilinear intersection pairings and their continuous
extension to the metric completion."""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from .cones import DivisorialSpace
from .completion import CompletionElement
from ..scalars import _integer_form, _to_fraction
from .vectors import RationalVector


class AdmissibilityError(ValueError):
    """No valid comparison gauge for the requested extension."""


class PositivityError(ValueError):
    """Arguments leave the region where the pairing is monotone."""


class IntersectionMap:
    """Symmetric multilinear form given by coefficients on basis tuples.

    table maps an index tuple (any order; stored sorted) to the value on
    the corresponding basis vectors. Missing tuples are zero. The form is
    expected monotone and nonnegative on the order cone of the space.
    """

    def __init__(
        self,
        space: DivisorialSpace,
        arity: int,
        table: dict[tuple[int, ...], object],
    ):
        if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
            raise ValueError("arity must be an int of at least 1")
        self.space = space
        self.arity = arity
        self.dim = space.ambient_dim
        self.table: dict[tuple[int, ...], Fraction] = {}
        for idx, val in table.items():
            if len(idx) != arity:
                raise ValueError("table key has wrong length")
            if any(isinstance(i, bool) or not isinstance(i, int) for i in idx):
                raise ValueError("table key index must be an int")
            if any(not (0 <= i < self.dim) for i in idx):
                raise ValueError("table key index out of range")
            key = tuple(sorted(idx))
            val = _to_fraction(val)
            if key in self.table and self.table[key] != val:
                raise ValueError(f"conflicting values for symmetric key {key}")
            self.table[key] = val

    def coefficient(self, idx: tuple[int, ...]) -> Fraction:
        return self.table.get(tuple(sorted(idx)), Fraction(0))

    def evaluate(self, args: Sequence[RationalVector]) -> Fraction:
        """The sum over the table's keys and each key's distinct orderings
        of coefficient * prod_k args[k][index_k], in integers over the
        product of the common denominators; one Fraction at the end."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments")
        for a in args:
            if a.dim != self.dim:
                raise ValueError("argument dimension mismatch")
        forms = [a._ratio() for a in args]
        coeffs, den = _integer_form(self.table.values())
        total = 0
        for key, c in zip(self.table, coeffs):
            if c:
                for idx in set(itertools.permutations(key)):
                    prod = c
                    for (nums, _), i in zip(forms, idx):
                        prod *= nums[i]
                    total += prod
        for _, d in forms:
            den *= d
        return Fraction(total, den)

    def __call__(self, *args: RationalVector) -> Fraction:
        return self.evaluate(args)


def check_intersection_axioms(
    imap: IntersectionMap,
    nef_generators: Sequence[RationalVector],
    effective_generators: Sequence[RationalVector],
) -> dict:
    """Report on positivity axioms over the supplied generators.

    Checks, in order: nonnegativity on nef tuples, nonnegativity when one
    slot is effective and the rest nef, and existence of an amplitude
    witness (a nef generator making the pairing strictly positive) for
    every nonzero effective generator. The verdicts are read off the one
    failure list.
    """
    failures = []
    for combo in itertools.combinations_with_replacement(
        range(len(nef_generators)), imap.arity
    ):
        v = imap.evaluate([nef_generators[i] for i in combo])
        if v < 0:
            failures.append(("nef", combo, v))
    for ei, e in enumerate(effective_generators):
        for combo in itertools.combinations_with_replacement(
            range(len(nef_generators)), imap.arity - 1
        ):
            v = imap.evaluate([e] + [nef_generators[i] for i in combo])
            if v < 0:
                failures.append(("effective", (ei,) + combo, v))
    witnesses = {}
    for ei, e in enumerate(effective_generators):
        if e.is_zero():
            continue
        for ai, a in enumerate(nef_generators):
            if imap.evaluate([e] + [a] * (imap.arity - 1)) > 0:
                witnesses[ei] = ai
                break
        else:
            witnesses[ei] = None
            failures.append(("amplitude", ei, None))
    kinds = {kind for kind, _, _ in failures}
    return {
        "nef_nonnegative": "nef" not in kinds,
        "effective_nonnegative": "effective" not in kinds,
        "amplitude_witnesses": witnesses,
        "failures": failures,
        "passed": not failures,
    }


def extend_intersection(
    imap: IntersectionMap,
    args: Sequence[CompletionElement],
    eps,
    b_tilde: RationalVector,
) -> Fraction:
    """Exact value of the pairing on completion points, within eps of the limit.

    b_tilde must dominate the common gauge b inside the nef region; it
    certifies a Lipschitz bound: moving every slot by at most delta*b
    changes the value by at most arity*delta*C, with C the largest value
    of the pairing when one slot is b_tilde and the others are shifted
    arguments. The sequences are advanced until delta = eps/(2*arity*C).
    """
    eps = _to_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if len(args) != imap.arity:
        raise ValueError(f"expected {imap.arity} completion arguments")
    base = args[0]
    for a in args[1:]:
        if a.b != base.b:
            raise AdmissibilityError("completion arguments use different gauges")
    if not imap.space.order_cone.contains(b_tilde):
        raise AdmissibilityError("comparison gauge b_tilde must be nef")
    if not imap.space.order_cone.contains(b_tilde - base.b):
        raise AdmissibilityError("comparison gauge must dominate the common gauge b")

    def nef_terms(n: int) -> list[RationalVector]:
        terms = [a.sequence(n) for a in args]
        if not all(map(imap.space.order_cone.contains, terms)):
            raise PositivityError(
                "sequence term leaves the nef region; the extension bound fails"
            )
        return terms

    # stable reference index for estimating the Lipschitz constant
    n0 = max(int(a.modulus(Fraction(1))) for a in args)
    shifted = [t + b_tilde for t in nef_terms(n0)]
    c_bound = Fraction(1)
    for j in range(imap.arity):
        slot_args = shifted[:j] + [b_tilde] + shifted[j + 1 :]
        c_bound = max(c_bound, abs(imap.evaluate(slot_args)))

    delta = min(Fraction(1), eps / (2 * imap.arity * c_bound))
    n = max(int(a.modulus(delta)) for a in args)
    return imap.evaluate(nef_terms(n))
