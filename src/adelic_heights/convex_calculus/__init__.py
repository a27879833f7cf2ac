"""Piecewise concave functions on the line: pointwise minima, Legendre
duality, second-derivative measures, and energy pairings."""

from .. import _lazy_exports

# each export and its home submodule, loaded on first use
_EXPORTS = {
    "AffinePiece": "functions",
    "AlphaPiece": "functions",
    "ConcaveFn": "functions",
    "min_concave": "functions",
    "cutoff": "functions",
    "sup_distance": "functions",
    "bounded_above": "functions",
    "DualFn": "duality",
    "DualPiece": "duality",
    "PowerTerm": "duality",
    "legendre_dual": "duality",
    "legendre_bidual": "duality",
    "conjugate_eval": "duality",
    "dual_sup_distance": "duality",
    "Measure1D": "measures",
    "DensityPiece": "measures",
    "PositiveDivergenceError": "measures",
    "monge_ampere": "measures",
    "integrate_against": "measures",
    "integrate_measure": "measures",
    "weak_convergence_check": "measures",
    "local_energy": "energy",
    "mixed_local_energy": "energy",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
