"""Energy pairings between a reference concave function and a more
singular one, via integrals against curvature measures. Each integral is
finite or -inf (or raises PositiveDivergenceError), so their sum is too."""

from __future__ import annotations

from fractions import Fraction

from .functions import ConcaveFn, _bounded_head, _Expr
from .measures import _integrate_against, integrate_against, monge_ampere


def _require_comparable(psi: ConcaveFn, phi: ConcaveFn) -> _Expr:
    """The first pieces' difference, once psi - phi is bounded above (as bounded_above)."""
    head = _bounded_head(psi, phi)
    if head is None:
        raise ValueError("psi - phi must be bounded above (phi at least as singular as psi)")
    return head


def local_energy(psi: ConcaveFn, phi: ConcaveFn) -> Fraction | float:
    """Energy of phi relative to psi: the integral of psi - phi against
    the sum of both curvature measures. Finite or -inf; a Fraction on
    piecewise-affine rational profiles. The first pieces' difference is built once."""
    head = _require_comparable(psi, phi)
    a = _integrate_against((psi, phi), monge_ampere(phi), "exact", head)
    b = _integrate_against((psi, phi), monge_ampere(psi), "exact", head)
    return a + b


def mixed_local_energy(
    psi0: ConcaveFn,
    psi1: ConcaveFn,
    phi0: ConcaveFn,
    phi1: ConcaveFn,
) -> Fraction | float:
    """Mixed energy of the pair (phi0, phi1) against references (psi0, psi1):

        int (psi0 - phi0) dMA(psi1) + int (psi1 - phi1) dMA(phi0)

    Agrees with local_energy when the slots coincide, and is symmetric in
    the two slots whenever all deviations are bounded.
    """
    _require_comparable(psi0, phi0)
    _require_comparable(psi1, phi1)
    a = integrate_against((psi0, phi0), monge_ampere(psi1))
    b = integrate_against((psi1, phi1), monge_ampere(phi0))
    return a + b
