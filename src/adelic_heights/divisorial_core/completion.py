"""Cauchy sequences for the order metric and distances between them."""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .cones import DivisorialSpace, _d_b, d_b
from ..scalars import _to_fraction
from .vectors import RationalVector

_SPOT_EPS = (Fraction(1), Fraction(1, 10), Fraction(1, 100))


class CompletionElement:
    """Point of the metric completion, given by a sequence and a modulus.

    sequence(n) is the n-th term; modulus(eps) returns an index N beyond
    which all pairwise term distances are at most eps. Both are callables
    so deep indices stay cheap. The declared modulus is spot-checked at a
    few tolerances on construction.
    """

    def __init__(
        self,
        space: DivisorialSpace,
        b: RationalVector,
        sequence: Callable[[int], RationalVector],
        modulus: Callable[[Fraction], int],
    ):
        if not space.order_cone.contains(b):
            raise ValueError("gauge b must lie in the order cone")
        self.space = space
        self.b = b
        self.sequence = sequence
        self.modulus = modulus
        self._spot_check()

    def _spot_check(self) -> None:
        # __init__ has checked the gauge, so the unchecked core suffices
        cone = self.space.order_cone
        for eps in _SPOT_EPS:
            n = int(self.modulus(eps))
            here = self.sequence(n)
            for m in (n + 1, 2 * n + 1):
                if _d_b(cone, self.b, here, self.sequence(m)) > eps:
                    raise ValueError(
                        f"declared modulus fails: terms {n} and {m} are farther "
                        f"than {eps} apart"
                    )

    @staticmethod
    def constant(
        space: DivisorialSpace, b: RationalVector, value: RationalVector
    ) -> "CompletionElement":
        return CompletionElement(space, b, lambda n: value, lambda eps: 0)


def completion_distance(x: CompletionElement, y: CompletionElement, eps) -> Fraction:
    """Distance between completion points, correct to within eps.

    Both sequences are advanced to where their terms move by at most eps/3;
    the term distance there is within 2*eps/3 of the limit distance.
    """
    eps = _to_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if x.space is not y.space and x.space.order_cone is not y.space.order_cone:
        raise ValueError("completion points live over different spaces")
    if x.b != y.b:
        raise ValueError("completion points use different gauges")
    n = max(int(x.modulus(eps / 3)), int(y.modulus(eps / 3)))
    return d_b(x.space, x.b, x.sequence(n), y.sequence(n))
