"""Compactified divisors on the rational projective line: places, slope
families, roof functions, heights, and energies summed over places."""

from .. import _lazy_exports

# each export and its home submodule, loaded on first use
_EXPORTS = {
    "Place": "places",
    "LogLinear": "places",
    "abs_value": "places",
    "log_abs": "places",
    "support": "places",
    "product_formula_check": "places",
    "ToricCompactifiedDivisor": "family",
    "AdelicFamily": "family",
    "canonical_fn": "family",
    "strongly_nef_local_check": "family",
    "RoofFunction": "family",
    "NefStatus": "family",
    "roof": "heights",
    "global_height": "heights",
    "point_height": "heights",
    "point_height_exact": "heights",
    "boundary_height": "heights",
    "global_energy": "heights",
    "extended_height": "heights",
    "nef_status": "heights",
    "twist": "heights",
}
__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(globals(), _EXPORTS)
