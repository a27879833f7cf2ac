"""Command-line front end: parse families and profiles from JSON, run the
height/energy/duality machinery, and emit JSON or CSV reports.

Each handler imports the layers it computes with once its input is read,
so a subcommand compiles only the modules it runs, and an input refused
early compiles none.

Exit codes: 0 success (-inf is a value, not an error), 2 malformed input
(non-finite numbers included), an unreadable --input or an unwritable
--out, 3 precondition violation or arithmetic failure, 4 positive
divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence
from fractions import Fraction

from .scalars import PositiveDivergenceError, _num, _to_fraction

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_DIVERGENCE = 4

DEFAULT_GRID_POINTS = 513
MAX_GRID_POINTS = 10_000


class SchemaError(ValueError):
    """Input does not match the documented JSON schemas, or an --input or
    --out path cannot be read or written: exit 2."""


# ---------------------------------------------------------------------------
# number and object codecs


def encode_number(x) -> int | float | str:
    """The one rule for printing a number: rationals to exact 'p/q' strings
    (integers plain), floats to 12 significant digits, -inf to the string
    '-inf'; +inf and a rational too long for str raise."""
    if isinstance(x, (Fraction, int)):
        try:
            text = str(x)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise OverflowError(f"exact value beyond {limit} digits") from None
        return int(x) if x.denominator == 1 else text
    f = float(x)
    if f == -math.inf:
        return "-inf"
    if f == math.inf:
        raise PositiveDivergenceError("positive infinity in output")
    return float(f"{f:.12g}")


def decode_number(value) -> Fraction | float:
    """A finite number, or the literal '-inf'."""
    if value == "-inf":
        return -math.inf
    try:
        return _num(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad number {value!r}: {exc}") from exc


def _decode_finite(value) -> Fraction:
    try:
        return _to_fraction(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad rational {value!r}: {exc}") from exc


def encode_log_linear(x: LogLinear) -> dict[str, int | float | str]:
    return {str(p): encode_number(c) for p, c in sorted(x.coeffs.items())}


def _piece_kinds() -> dict:
    """Each piece class of a profile under its JSON "kind"; a piece's
    "params" are its class's fields, in constructor order."""
    from .convex_calculus.functions import AffinePiece, AlphaPiece

    return {"affine": AffinePiece, "alpha_singular": AlphaPiece}


def _encode_fields(value) -> dict:
    return {name: encode_number(getattr(value, name)) for name in value._names}


def _encode_span(lo, hi) -> dict:
    """The ends of a piece: None is the unbounded "-inf" or "+inf"."""
    return {
        "from": "-inf" if lo is None else encode_number(lo),
        "to": "+inf" if hi is None else encode_number(hi),
    }


def encode_concave_fn(f: ConcaveFn) -> dict:
    kinds = {cls: kind for kind, cls in _piece_kinds().items()}
    pieces = [
        {**_encode_span(lo, hi), "kind": kinds[type(p)], "params": _encode_fields(p)}
        for lo, hi, p in f.intervals()
    ]
    return {
        "slope_neg": encode_number(f.slope_neg),
        "slope_pos": encode_number(f.slope_pos),
        "pieces": pieces,
    }


def decode_concave_fn(obj) -> ConcaveFn:
    from .convex_calculus.functions import ConcaveFn

    if not isinstance(obj, dict):
        raise SchemaError("concave function must be a JSON object")
    for field in ("slope_neg", "slope_pos", "pieces"):
        if field not in obj:
            raise SchemaError(f"concave function is missing {field!r}")
    raw_pieces = obj["pieces"]
    if not isinstance(raw_pieces, list) or not raw_pieces:
        raise SchemaError("pieces must be a non-empty array")
    kinds = _piece_kinds()
    breakpoints: list[Fraction] = []
    pieces = []
    for i, entry in enumerate(raw_pieces):
        if not isinstance(entry, dict):
            raise SchemaError("each piece must be a JSON object")
        frm, to = entry.get("from"), entry.get("to")
        if i == 0 and frm != "-inf":
            raise SchemaError("first piece must start at '-inf'")
        if i == len(raw_pieces) - 1:
            if to != "+inf":
                raise SchemaError("last piece must end at '+inf'")
        else:
            breakpoints.append(_decode_finite(to))
        if i > 0 and _decode_finite(frm) != breakpoints[i - 1]:
            raise SchemaError(f"piece {i} does not start where piece {i-1} ends")
        params = entry.get("params")
        if not isinstance(params, dict):
            raise SchemaError("piece params must be a JSON object")
        kind = entry.get("kind")
        # a JSON array or object is no kind, and cannot be looked up
        cls = kinds.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise SchemaError(f"unknown piece kind {kind!r}")
        try:
            pieces.append(cls(*(decode_number(params[name]) for name in cls._names)))
        except KeyError as exc:
            raise SchemaError(f"piece params missing {exc}") from exc
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    try:
        fn = ConcaveFn(breakpoints, pieces)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    for field, computed in (("slope_neg", fn.slope_neg), ("slope_pos", fn.slope_pos)):
        declared = decode_number(obj[field])
        if declared != computed:
            raise SchemaError(
                f"declared {field} {declared} does not match computed {computed}"
            )
    return fn


def decode_place(value) -> Place:
    from .adelic_curve.places import Place

    if value == "inf":
        return Place.infinity()
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            return Place.prime(value)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError(f"place must be 'inf' or a prime, got {value!r}")


def encode_place(place: Place) -> int | str:
    return "inf" if place.is_infinite else place.p


def encode_family(fam: AdelicFamily) -> dict:
    return {
        "divisor": _encode_fields(fam.divisor),
        "exceptions": [
            {"place": encode_place(place), "psi": encode_concave_fn(psi)}
            for place, psi in fam.exceptions.items()
        ],
    }


def decode_family(obj) -> AdelicFamily:
    from .adelic_curve.family import AdelicFamily, ToricCompactifiedDivisor

    if not isinstance(obj, dict):
        raise SchemaError("family must be a JSON object")
    divisor = obj.get("divisor")
    if not isinstance(divisor, dict) or "a" not in divisor or "b" not in divisor:
        raise SchemaError("family needs a divisor with fields a and b")
    try:
        div = ToricCompactifiedDivisor(
            _decode_finite(divisor["a"]), _decode_finite(divisor["b"])
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    exceptions = obj.get("exceptions", [])
    if not isinstance(exceptions, list):
        raise SchemaError("exceptions must be an array")
    table = {}
    for entry in exceptions:
        if not isinstance(entry, dict) or "place" not in entry or "psi" not in entry:
            raise SchemaError("each exception needs place and psi fields")
        place = decode_place(entry["place"])
        if place in table:
            raise SchemaError(f"duplicate exception at {place}")
        table[place] = decode_concave_fn(entry["psi"])
    strict = obj.get("strict", True)
    if not isinstance(strict, bool):
        raise SchemaError("strict must be a boolean")
    try:
        return AdelicFamily(div, table, strict=strict)
    except OverflowError:
        raise  # data beyond float range: an arithmetic limit, exit 3
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def encode_dual_fn(d: DualFn) -> dict:
    left, right = d.value(d.lo), d.value(d.hi)
    edges = [d.lo] + list(d.breakpoints) + [d.hi]
    pieces = []
    for piece, lo, hi in zip(d.pieces, edges, edges[1:]):
        params = {
            "slope": encode_number(piece.slope),
            "intercept": encode_number(piece.intercept),
        }
        if piece.terms:
            params["terms"] = [_encode_fields(t) for t in piece.terms]
        kind = "power" if piece.terms else "affine"
        pieces.append({**_encode_span(lo, hi), "kind": kind, "params": params})
    return {
        "lo": encode_number(d.lo),
        "hi": encode_number(d.hi),
        "endpoints": [encode_number(left), encode_number(right)],
        "pieces": pieces,
    }


def encode_measure(mu: Measure1D) -> dict:
    return {
        "atoms": [
            {"at": encode_number(u), "mass": encode_number(m)} for u, m in mu.atoms
        ],
        "densities": [
            {
                **_encode_span(p.lo, p.hi),
                "coeff": encode_number(p.coeff),
                "exponent": encode_number(p.exponent),
            }
            for p in mu.densities
        ],
        "total_mass": encode_number(mu.total_mass),
    }


def encode_nef_status(status: NefStatus) -> dict:
    mu = status.mu_min_asy
    return {
        "status": status.status,
        "mu_min_asy": None if mu is None else encode_number(mu),
    }


# ---------------------------------------------------------------------------
# input plumbing


def load_input(raw: str | None):
    """Accept a filesystem path or inline JSON text."""
    if raw is None:
        raise SchemaError("this command requires --input")
    text = raw
    if not raw.lstrip().startswith(("{", "[")) and os.path.exists(raw):
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8
            reason = getattr(exc, "strerror", None) or exc
            raise SchemaError(f"cannot read input {raw}: {reason}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, too long an integer, too deep
        raise SchemaError(f"input is not valid JSON: {exc}") from exc


def parse_grid(spec: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise SchemaError("grid must look like lo:hi:count")
    try:
        lo = float(_decode_finite(parts[0]))
        hi = float(_decode_finite(parts[1]))
        count = int(parts[2])
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"bad grid {spec!r}") from exc
    if not (lo < hi) or not 2 <= count <= MAX_GRID_POINTS:
        raise SchemaError(
            f"grid needs lo < hi and from 2 to {MAX_GRID_POINTS} points"
        )
    if not math.isfinite(hi - lo):
        raise SchemaError(f"grid span of {spec!r} is beyond float range")
    return lo, hi, count


def grid_points(lo: float, hi: float, count: int) -> list[float]:
    step = (hi - lo) / (count - 1)
    pts = [lo + i * step for i in range(count)]
    pts[-1] = hi
    return pts


# ---------------------------------------------------------------------------
# command handlers


def cmd_height(args) -> dict:
    fam = decode_family(load_input(args.input))
    from .adelic_curve.heights import roof

    theta = roof(fam)
    status = encode_nef_status(theta.nef_status())
    return {
        "height": encode_number(theta.height()),
        "roof": encode_dual_fn(theta.dual),
        **status,
    }


def cmd_energy(args) -> dict:
    obj = load_input(args.input)
    if not isinstance(obj, dict) or "reference" not in obj or "singular" not in obj:
        raise SchemaError("energy input needs reference and singular families")
    ref = decode_family(obj["reference"])
    sing = decode_family(obj["singular"])
    from .adelic_curve.heights import place_energies

    terms = list(place_energies(ref, sing))
    return {
        "energy": encode_number(sum(e for _, e in terms)),
        "per_place": [
            {"place": encode_place(place), "energy": encode_number(e)}
            for place, e in terms
        ],
    }


def cmd_dual(args) -> dict:
    fn = decode_concave_fn(load_input(args.input))
    from .convex_calculus.duality import legendre_dual

    dual = legendre_dual(fn)
    if args.grid:
        lo, hi, count = parse_grid(args.grid)
    else:
        lo, hi, count = float(dual.lo), float(dual.hi), DEFAULT_GRID_POINTS
    samples = []
    if dual.is_degenerate():
        samples.append([encode_number(float(dual.lo)), encode_number(dual(dual.lo))])
    else:
        for m in grid_points(lo, hi, count):
            samples.append([encode_number(m), encode_number(dual(m))])
    payload = encode_dual_fn(dual)
    payload["samples"] = samples
    return payload


def cmd_ma(args) -> dict:
    fn = decode_concave_fn(load_input(args.input))
    from .convex_calculus.measures import monge_ampere

    return encode_measure(monge_ampere(fn))


def cmd_nef_check(args) -> dict:
    fam = decode_family(load_input(args.input))
    from .adelic_curve.heights import nef_status

    return encode_nef_status(nef_status(fam))


def cmd_product_formula(args) -> dict:
    q = _decode_finite(args.rational)
    if q == 0:
        raise ValueError("the product formula needs a nonzero rational")
    from .adelic_curve.places import log_abs_by_place, product_formula_check

    contributions = [
        {"place": encode_place(place), "log_abs": encode_log_linear(term)}
        for place, term in log_abs_by_place(q)
    ]
    total = product_formula_check(q)
    return {
        "q": encode_number(q),
        "contributions": contributions,
        "total": encode_log_linear(total),
        "result": "0 (exact)" if total.is_zero() else "nonzero",
    }


def alpha_profile(alpha: Fraction) -> ConcaveFn:
    from .convex_calculus.functions import AffinePiece, AlphaPiece, ConcaveFn

    return ConcaveFn([0], [AlphaPiece(alpha, 1, 0), AffinePiece(0, 1 / alpha)])


def cmd_example_alpha(args) -> dict:
    alpha = _decode_finite(args.alpha)
    if not 0 < alpha < 1:
        raise SchemaError("alpha must lie strictly between 0 and 1")
    from .adelic_curve.family import AdelicFamily, ToricCompactifiedDivisor
    from .adelic_curve.heights import extended_height, global_height
    from .adelic_curve.places import Place

    divisor = ToricCompactifiedDivisor(0, 1)
    singular = AdelicFamily(divisor, {Place.infinity(): alpha_profile(alpha)})
    reference = AdelicFamily(divisor)
    roof_route = global_height(singular)
    energy_route = extended_height(reference, singular)
    if alpha < Fraction(1, 2):
        closed = (2 - 3 * alpha) / (alpha * (2 * alpha - 1))
        # finite, so never -inf: that value means divergence
        if math.inf in (abs(roof_route), abs(energy_route)):
            raise OverflowError("finite height beyond float range")
    else:
        closed = -math.inf
    if roof_route == -math.inf and energy_route == -math.inf:
        gap = 0.0
    else:
        gap = abs(float(roof_route) - float(energy_route))
    return {
        "closed_form": encode_number(closed),
        "roof_route": encode_number(roof_route),
        "energy_route": encode_number(energy_route),
        "gap": encode_number(gap),
    }


def _layout(v) -> str:
    """The CSV text of an encoded value: a float at 12 significant digits,
    anything else as text."""
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _format_cell(v) -> str:
    return _layout(v if isinstance(v, float) and v != math.inf else encode_number(v))


def cmd_plot(args) -> list[list[str]]:
    fam = decode_family(load_input(args.input))
    if args.grid:
        lo, hi, count = parse_grid(args.grid)
    else:
        lo, hi, count = -10.0, 10.0, DEFAULT_GRID_POINTS
    from .adelic_curve.heights import roof

    rows = [["series", "x", "y"]]
    series = [("psi:canonical", fam.canonical)]
    series += [
        (f"psi:{encode_place(place)}", psi) for place, psi in fam.exceptions.items()
    ]
    for label, fn in series:
        for u in grid_points(lo, hi, count):
            rows.append([label, _format_cell(u), _format_cell(fn(u))])
    theta = roof(fam)
    d_lo, d_hi = float(theta.dual.lo), float(theta.dual.hi)
    if d_lo < d_hi:
        for m in grid_points(d_lo, d_hi, count):
            rows.append(["roof", _format_cell(m), _format_cell(theta(m))])
    else:
        rows.append(["roof", _format_cell(d_lo), _format_cell(theta(d_lo))])
    return rows


def cmd_core_demo(args) -> dict:
    from .divisorial_core import (
        Cell,
        CompletionElement,
        Constraint,
        DivisorialSpace,
        IntersectionMap,
        RationalVector,
        SemilinearCone,
        d_b,
        extend_intersection,
    )

    F = Fraction
    V = RationalVector
    quadrant = SemilinearCone.from_halfspaces(((1, 0), (0, 1)), 2)
    space = DivisorialSpace(2, quadrant)
    gauge = V([1, 1])
    chebyshev = d_b(space, gauge, V([F(1, 3), F(-1, 6)]), V([0, 0]))
    capped = d_b(space, gauge, V([5, 0]), V([0, 0]))

    open_half = Cell((Constraint((1, 0), strict=True),))
    axis = Cell((Constraint((1, 0)), Constraint((-1, 0)), Constraint((0, 1))))
    half_open = SemilinearCone([open_half, axis], 2)
    degenerate_space = DivisorialSpace(2, half_open)
    degenerate = d_b(degenerate_space, V([1, 0]), V([0, 1]), V([0, 0]))
    probe = V([0, -1])

    pairing = IntersectionMap(space, 2, {(0, 1): 1})
    modulus = lambda e: int(1 / Fraction(e)) + 1  # noqa: E731
    x = CompletionElement(space, gauge, lambda n: V([1, F(1, n + 1)]), modulus)
    y = CompletionElement(space, gauge, lambda n: V([F(1, n + 1), 1]), modulus)
    eps = F(1, 10**6)
    value = extend_intersection(pairing, [x, y], eps, gauge)

    return {
        "order_metric": {
            "chebyshev_example": encode_number(chebyshev),
            "capped_at_one": encode_number(capped),
            "degenerate_direction": encode_number(degenerate),
        },
        "closure": {
            "probe": [0, -1],
            "in_cone": half_open.contains(probe),
            "in_closure": half_open.closure().contains(probe),
        },
        "extension": {
            "eps": encode_number(eps),
            "value": encode_number(value),
            "limit": 1,
        },
    }


# ---------------------------------------------------------------------------
# output + entry point


def render(payload, fmt: str) -> str:
    if isinstance(payload, list):  # CSV rows
        return "\n".join(",".join(row) for row in payload) + "\n"
    if fmt == "csv":
        rows = [["key", "value"]]
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                cell = json.dumps(value, separators=(",", ":"))
            else:
                cell = _layout(value)
            rows.append([key, '"' + cell.replace('"', '""') + '"'])
        return "\n".join(",".join(row) for row in rows) + "\n"
    return json.dumps(payload, indent=2) + "\n"


def write_output(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write output {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors print `error: ...` like every other error, exit 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_SCHEMA)


# the arguments every subcommand shares, as (name, add_argument options)
INPUT = ("--input", {"help": "path to a JSON file, or inline JSON"})
FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json", "dest": "fmt"})
OUT = ("--out", {"help": "write output to this path"})

# name: (handler, help, its arguments in order)
SUBCOMMANDS = {
    "height": (cmd_height, "global height, roof, and nef status", (INPUT, FORMAT, OUT)),
    "energy": (cmd_energy, "relative energy of two families", (INPUT, FORMAT, OUT)),
    "dual": (
        cmd_dual,
        "concave conjugate with samples",
        (INPUT, FORMAT, OUT, ("--grid", {"help": "sample grid lo:hi:count"})),
    ),
    "ma": (cmd_ma, "second-derivative measure of a profile", (INPUT, FORMAT, OUT)),
    "nef-check": (cmd_nef_check, "positivity classification", (INPUT, FORMAT, OUT)),
    "product-formula": (
        cmd_product_formula,
        "exact cancellation certificate",
        (("rational", {"help": "nonzero rational, e.g. 12/5"}), FORMAT, OUT),
    ),
    "example-alpha": (
        cmd_example_alpha,
        "singular family worked example",
        (("--alpha", {"required": True, "help": "exponent in (0, 1)"}), FORMAT, OUT),
    ),
    "plot": (
        cmd_plot,
        "CSV samples of profiles and the roof",
        (INPUT, FORMAT, OUT, ("--grid", {"help": "profile grid lo:hi:count"})),
    ),
    "core-demo": (cmd_core_demo, "order-metric and extension examples", (FORMAT, OUT)),
}

HANDLERS = {name: handler for name, (handler, _, _) in SUBCOMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adelic-heights",
        description="Heights, energies, and dual profiles of adelic "
        "families on the projective line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, options in arguments:
            p.add_argument(arg, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = HANDLERS[args.command](args)
        write_output(render(payload, args.fmt), args.out)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except PositiveDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ValueError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
