import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelic_heights import cli, scalars
from adelic_heights.adelic_curve import AdelicFamily, Place, ToricCompactifiedDivisor
from adelic_heights.convex_calculus.functions import (
    AffinePiece,
    AlphaPiece,
    ConcaveFn,
    Piece,
    cutoff,
)
from adelic_heights.convex_calculus.measures import PositiveDivergenceError

RAMP = {
    "slope_neg": 1,
    "slope_pos": 0,
    "pieces": [
        {"from": "-inf", "to": 0, "kind": "affine", "params": {"slope": 1, "intercept": 0}},
        {"from": 0, "to": "+inf", "kind": "affine", "params": {"slope": 0, "intercept": 0}},
    ],
}

ALPHA_PSI = {
    "slope_neg": 1,
    "slope_pos": 0,
    "pieces": [
        {
            "from": "-inf",
            "to": 0,
            "kind": "alpha_singular",
            "params": {"alpha": "1/4", "slope": 1, "intercept": 0},
        },
        {"from": 0, "to": "+inf", "kind": "affine", "params": {"slope": 0, "intercept": 4}},
    ],
}

CANONICAL = {"divisor": {"a": 0, "b": 1}, "exceptions": []}
ALPHA_FAMILY = {
    "divisor": {"a": 0, "b": 1},
    "exceptions": [{"place": 2, "psi": ALPHA_PSI}],
}


def with_params(psi, **params):
    """A copy of the profile with the given params set on every piece."""
    out = json.loads(json.dumps(psi))
    for piece in out["pieces"]:
        piece["params"].update(params)
    return out


def family_of(psi, **divisor):
    return {"divisor": {"a": 0, "b": 1, **divisor}, "exceptions": [{"place": 2, "psi": psi}]}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCodecs:
    def test_number_round_trip(self):
        for x in (F(3, 7), F(-12), 0.125, -math.inf):
            assert cli.decode_number(cli.encode_number(x)) == x

    def test_number_rejects_garbage(self):
        with pytest.raises(cli.SchemaError):
            cli.decode_number("three")
        with pytest.raises(cli.SchemaError):
            cli.decode_number(True)
        with pytest.raises(cli.SchemaError):
            cli.decode_number(None)

    def test_twelve_significant_digits(self):
        assert cli.encode_number(math.pi) == 3.14159265359

    # a triple (d, e, negative) stands for the rational +-10**(d-1)/33...3
    # of d and e digits (e = 0: an integer), built in the test: drawn
    # values are printed, and one past the digit limit has no repr
    @given(
        st.floats(allow_nan=False)
        | st.fractions()
        | st.tuples(st.sampled_from([1, 4300, 4301]), st.sampled_from([0, 1, 4300, 4301]), st.booleans())
    )
    # signed zeros, infinities, subnormals, the smallest normal, and floats
    # that sit on a 12-digit rounding boundary
    @example(0.0)
    @example(-0.0)
    @example(math.inf)
    @example(-math.inf)
    @example(5e-324)
    @example(2.225073858507201e-308)
    @example(2.2250738585072014e-308)
    @example(100000000000.5)
    @example(999999999999.5)
    @example(1.0000000000005)
    @example(-9.999999999995)
    @example((1, 4301, False))
    @settings(max_examples=200, deadline=None)
    def test_one_number_rule_for_json_and_csv(self, v):
        # a CSV cell is encode_number's value laid out, or the same refusal
        if isinstance(v, tuple):
            d, e, negative = v
            v = F((-1) ** negative * 10 ** (d - 1), (10**e - 1) // 3 or 1)

        def outcome(fn):
            try:
                return fn(v)
            except (ValueError, ArithmeticError) as exc:
                return type(exc), str(exc)

        def encoded_text(x):
            e = cli.encode_number(x)
            return f"{e:.12g}" if isinstance(e, float) else str(e)

        assert outcome(cli._format_cell) == outcome(encoded_text)

    def test_concave_fn_round_trip(self):
        fns = [
            ConcaveFn([0], [AffinePiece(1, 0), AffinePiece(0, 0)]),
            ConcaveFn([0], [AlphaPiece(F(1, 4), 1, 0), AffinePiece(0, 4)]),
            ConcaveFn([0, 2], [AffinePiece(1, 0), AffinePiece(F(1, 2), 0), AffinePiece(0, 1)]),
            ConcaveFn.affine(F(2, 3), F(-1, 5)),
        ]
        for fn in fns:
            assert cli.decode_concave_fn(cli.encode_concave_fn(fn)) == fn

    def test_piece_kind_table_covers_every_piece_class(self):
        """One JSON kind for each class of a profile piece, its params the
        class's fields in order, and a profile of each kind round-trips:
        a new piece class fails here until the codec names it."""
        kinds = cli._piece_kinds()
        assert set(kinds.values()) == set(Piece.__args__)
        assert len(kinds) == len(Piece.__args__)
        samples = {
            AffinePiece: ConcaveFn(
                [0, 2], [AffinePiece(1, 0), AffinePiece(F(1, 2), 0), AffinePiece(0, 1)]
            ),
            AlphaPiece: ConcaveFn([0], [AlphaPiece(F(1, 4), 1, 0), AffinePiece(0, 4)]),
        }
        for kind, cls in kinds.items():
            fn = samples[cls]
            encoded = cli.encode_concave_fn(fn)
            params = [p["params"] for p in encoded["pieces"] if p["kind"] == kind]
            assert params and all(list(p) == list(cls._names) for p in params)
            assert cli.decode_concave_fn(json.loads(json.dumps(encoded))) == fn

    def test_family_round_trip(self):
        fam = AdelicFamily(
            ToricCompactifiedDivisor(0, 1),
            {Place.prime(2): ConcaveFn([0], [AlphaPiece(F(1, 4), 1, 0), AffinePiece(0, 4)])},
        )
        again = cli.decode_family(cli.encode_family(fam))
        assert again.divisor == fam.divisor
        assert again.exceptions == fam.exceptions

    def test_emitted_json_reparses_identically(self):
        payload = cli.encode_family(cli.decode_family(ALPHA_FAMILY))
        assert cli.encode_family(cli.decode_family(payload)) == payload

    def test_slope_declaration_must_match(self):
        bad = dict(RAMP, slope_neg=2)
        with pytest.raises(cli.SchemaError, match="does not match"):
            cli.decode_concave_fn(bad)

    def test_rejects_gap_between_pieces(self):
        bad = json.loads(json.dumps(RAMP))
        bad["pieces"][1]["from"] = 1
        with pytest.raises(cli.SchemaError, match="start where"):
            cli.decode_concave_fn(bad)

    def test_rejects_nonconcave_input(self):
        bad = {
            "slope_neg": 0,
            "slope_pos": 1,
            "pieces": [
                {"from": "-inf", "to": 0, "kind": "affine", "params": {"slope": 0, "intercept": 0}},
                {"from": 0, "to": "+inf", "kind": "affine", "params": {"slope": 1, "intercept": 0}},
            ],
        }
        with pytest.raises(cli.SchemaError, match="concave"):
            cli.decode_concave_fn(bad)

    def test_rejects_composite_place(self):
        fam = {"divisor": {"a": 0, "b": 1}, "exceptions": [{"place": 6, "psi": RAMP}]}
        with pytest.raises(cli.SchemaError, match="prime"):
            cli.decode_family(fam)

    def test_grid_parsing(self):
        assert cli.parse_grid("-2:2:5") == (-2.0, 2.0, 5)
        for bad in ("1:2", "2:1:5", "0:1:1", "a:b:c", "-1e308:1e308:3"):
            with pytest.raises(cli.SchemaError):
                cli.parse_grid(bad)


class TestExampleAlpha:
    def test_quarter(self, capsys):
        payload = run_json(capsys, "example-alpha", "--alpha", "1/4")
        assert payload["closed_form"] == -10
        assert payload["roof_route"] == pytest.approx(-10, abs=1e-6)
        assert payload["energy_route"] == pytest.approx(-10, abs=1e-6)
        assert payload["gap"] <= 1e-6

    @pytest.mark.parametrize(
        "alpha",
        ["3/4", "99999999999999/100000000000000", "99999999999999999/100000000000000000"],
    )
    def test_divergent(self, capsys, alpha):
        payload = run_json(capsys, "example-alpha", "--alpha", alpha)
        assert payload["closed_form"] == "-inf"
        assert payload["roof_route"] == "-inf"
        assert payload["energy_route"] == "-inf"
        assert payload["gap"] == 0

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run(capsys, "example-alpha", "--alpha", "2")
        assert code == 2
        assert "alpha" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "example-alpha", "--alpha", "1/10")
        _, out2, _ = run(capsys, "example-alpha", "--alpha", "1/10")
        assert out1 == out2

    def test_finite_height_beyond_float_range(self, capsys):
        # the closed form is about -2e308: finite, so never printed as -inf
        assert run(capsys, "example-alpha", "--alpha", "1e-308") == (
            3,
            "",
            "error: finite height beyond float range\n",
        )

    def test_largest_heights_in_float_range(self, capsys):
        payload = run_json(capsys, "example-alpha", "--alpha", "1e-300")
        alpha = F("1e-300")
        closed = (2 - 3 * alpha) / (alpha * (2 * alpha - 1))
        assert payload == {
            "closed_form": str(closed),
            "roof_route": -2e300,
            "energy_route": -2e300,
            "gap": 0.0,
        }

    @pytest.mark.parametrize("k", range(1, 20))
    def test_twentieths(self, capsys, k):
        # the alphas of the benchmark's CLI mix: both routes print the
        # closed form to 12 digits, or -inf from alpha = 1/2 on
        payload = run_json(capsys, "example-alpha", "--alpha", f"{k}/20")
        if k >= 10:
            assert payload == {
                "closed_form": "-inf",
                "roof_route": "-inf",
                "energy_route": "-inf",
                "gap": 0.0,
            }
            return
        closed = F(payload["closed_form"])
        assert closed == F((40 - 3 * k) * 20, k * (2 * k - 20))
        assert payload["roof_route"] == payload["energy_route"] == float(f"{float(closed):.12g}")
        assert payload["gap"] <= 1e-14

    @pytest.mark.parametrize("alpha", ["1e-310", "1e-330"])
    def test_alpha_below_float_range(self, capsys, alpha):
        # 1/alpha is no float: refused where the alpha piece takes its
        # floats, as an arithmetic limit, before any height is computed
        psi = with_params(ALPHA_PSI, alpha=alpha)
        psi["pieces"][1]["params"]["intercept"] = 1
        for argv in (("example-alpha", "--alpha", alpha), ("ma", "--input", json.dumps(psi))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err == "error: alpha below float range: 1/alpha exceeds the largest float\n"


class TestAlphaAfterTheHead:
    def test_cutoff_height_and_endpoints(self, capsys):
        # u + 10 up to -609/16, the alpha = 1/4 piece up to 0, then 4: the
        # dual keeps the affine piece across the slope gap at -609/16
        divisor = ToricCompactifiedDivisor(0, 1)
        psi = cutoff(cli.alpha_profile(F(1, 4)), ConcaveFn([0], [AffinePiece(1, 0), AffinePiece(0, 0)]), 10)
        text = json.dumps(cli.encode_family(AdelicFamily(divisor, {Place.infinity(): psi})))
        payload = run_json(capsys, "height", "--input", text)
        assert payload["height"] == -9.68
        assert payload["roof"]["endpoints"] == [-4.0, -10]
        assert payload["mu_min_asy"] == -10
        assert run_json(capsys, "nef-check", "--input", text)["mu_min_asy"] == -10


class TestProductFormula:
    def test_worked_example(self, capsys):
        payload = run_json(capsys, "product-formula", "12/5")
        assert payload["total"] == {}
        assert payload["result"] == "0 (exact)"
        places = [c["place"] for c in payload["contributions"]]
        assert places == [2, 3, 5, "inf"]

    def test_output_is_pinned(self, capsys):
        # -360/1001 = -2^3 3^2 5 / (7 11 13): a zero or pole at six primes
        finite = [(2, -3), (3, -2), (5, -1), (7, 1), (11, 1), (13, 1)]
        expected = {
            "q": "-360/1001",
            "contributions": [
                {"place": p, "log_abs": {str(p): c}} for p, c in finite
            ]
            + [{"place": "inf", "log_abs": {str(p): -c for p, c in finite}}],
            "total": {},
            "result": "0 (exact)",
        }
        code, out, _ = run(capsys, "product-formula", "--", "-360/1001")
        assert code == 0
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_zero_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "product-formula", "0")
        assert code == 3
        assert "nonzero" in err

    def test_garbage_is_schema_error(self, capsys):
        code, _, _ = run(capsys, "product-formula", "12//5")
        assert code == 2


class TestHeightCommand:
    def test_canonical(self, capsys):
        payload = run_json(capsys, "height", "--input", json.dumps(CANONICAL))
        assert payload["height"] == 0
        assert payload["status"] == "S_nef_only"
        assert payload["mu_min_asy"] == 0
        assert payload["roof"]["endpoints"] == [0, 0]

    def test_alpha_family_from_file(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(ALPHA_FAMILY))
        payload = run_json(capsys, "height", "--input", str(path))
        assert payload["height"] == pytest.approx(-10, abs=1e-6)
        assert payload["status"] == "relatively_nef_only"
        assert payload["mu_min_asy"] == "-inf"
        assert payload["roof"]["endpoints"][1] == "-inf"

    def test_roof_power_terms_in_place_order(self, capsys):
        # three alpha places listed out of order; the place with the largest
        # prime has the smallest dual breakpoint, so the sweep meets its
        # power term first, yet every roof piece lists terms by place
        kinked = {}
        for p, alpha, t0 in ((5, F(1, 5), F(-1, 2)), (3, F(1, 3), F(-2)), (2, F(1, 4), F(-4))):
            head = AlphaPiece(alpha, 1, 0)
            kinked[Place.prime(p)] = ConcaveFn([t0], [head, AffinePiece(0, head.value(t0))])
        obj = cli.encode_family(AdelicFamily(ToricCompactifiedDivisor(0, 1), kinked))
        obj["exceptions"].reverse()
        payload = run_json(capsys, "height", "--input", json.dumps(obj))
        exponent = {a: cli.encode_number(-float(a) / float(1 - a)) for a in (F(1, 4), F(1, 3), F(1, 5))}
        got = [[t["exponent"] for t in piece["params"].get("terms", [])] for piece in payload["roof"]["pieces"]]
        by_place = [exponent[F(1, 4)], exponent[F(1, 3)], exponent[F(1, 5)]]
        assert got == [[], [by_place[2]], [by_place[1], by_place[2]], by_place]

    def test_invalid_slopes_are_precondition_error(self, capsys):
        fam = {
            "divisor": {"a": 0, "b": 1},
            "strict": False,
            "exceptions": [
                {
                    "place": "inf",
                    "psi": {
                        "slope_neg": "1/2",
                        "slope_pos": "1/2",
                        "pieces": [
                            {
                                "from": "-inf",
                                "to": "+inf",
                                "kind": "affine",
                                "params": {"slope": "1/2", "intercept": 0},
                            }
                        ],
                    },
                }
            ],
        }
        code, _, err = run(capsys, "height", "--input", json.dumps(fam))
        assert code == 3
        assert "slope" in err

    def test_strict_family_with_bad_slopes_is_schema_error(self, capsys):
        fam = json.loads(json.dumps(ALPHA_FAMILY))
        fam["exceptions"][0]["psi"]["pieces"][1]["params"]["slope"] = "-1/2"
        fam["exceptions"][0]["psi"]["slope_pos"] = "-1/2"
        code, _, _ = run(capsys, "height", "--input", json.dumps(fam))
        assert code == 2

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "height")
        assert code == 2
        assert "--input" in err

    def test_bad_json(self, capsys):
        code, _, err = run(capsys, "height", "--input", "{not json")
        assert code == 2
        assert "JSON" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "height", "--input", json.dumps(CANONICAL), "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("height,") for line in lines)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "height", "--input", json.dumps(CANONICAL), "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["height"] == 0


class TestEnergyCommand:
    def test_equal_families_have_no_energy(self, capsys):
        pair = {"reference": ALPHA_FAMILY, "singular": ALPHA_FAMILY}
        payload = run_json(capsys, "energy", "--input", json.dumps(pair))
        assert payload == {"energy": 0, "per_place": []}

    def test_per_place_breakdown(self, capsys):
        shifted = {
            "slope_neg": 1,
            "slope_pos": 0,
            "pieces": [
                {"from": "-inf", "to": 0, "kind": "affine", "params": {"slope": 1, "intercept": -1}},
                {"from": 0, "to": "+inf", "kind": "affine", "params": {"slope": 0, "intercept": -1}},
            ],
        }
        payload = run_json(
            capsys,
            "energy",
            "--input",
            json.dumps(
                {
                    "reference": CANONICAL,
                    "singular": {
                        "divisor": {"a": 0, "b": 1},
                        "exceptions": [
                            {"place": 2, "psi": shifted},
                            {"place": 3, "psi": shifted},
                        ],
                    },
                }
            ),
        )
        assert payload["energy"] == pytest.approx(4.0)
        assert [entry["place"] for entry in payload["per_place"]] == [2, 3]
        for entry in payload["per_place"]:
            assert entry["energy"] == pytest.approx(2.0)

    def test_rational_energy_is_exact(self, capsys):
        third = with_params(RAMP, intercept="-1/3")
        payload = run_json(
            capsys,
            "energy",
            "--input",
            json.dumps({"reference": CANONICAL, "singular": family_of(third)}),
        )
        assert payload["energy"] == "2/3"
        assert payload["per_place"] == [{"place": 2, "energy": "2/3"}]

    def test_divergent_energy_is_a_value(self, capsys):
        half = json.loads(json.dumps(ALPHA_PSI))
        half["pieces"][0]["params"]["alpha"] = "1/2"
        half["pieces"][1]["params"]["intercept"] = 2
        payload = run_json(
            capsys,
            "energy",
            "--input",
            json.dumps(
                {
                    "reference": CANONICAL,
                    "singular": {
                        "divisor": {"a": 0, "b": 1},
                        "exceptions": [{"place": 2, "psi": half}],
                    },
                }
            ),
        )
        assert payload["energy"] == "-inf"

    def test_energy_between_two_singular_families(self, capsys):
        # psi - phi <= 1 for the alpha = 1/4 reference and the alpha = 1/3
        # family at the same place; the energy is -9 - (-10)
        third = json.loads(json.dumps(ALPHA_PSI))
        third["pieces"][0]["params"]["alpha"] = "1/3"
        third["pieces"][1]["params"]["intercept"] = 3
        payload = run_json(
            capsys,
            "energy",
            "--input",
            json.dumps({"reference": ALPHA_FAMILY, "singular": family_of(third)}),
        )
        assert payload["energy"] == 1.0
        assert payload["per_place"] == [{"place": 2, "energy": 1.0}]

    def test_precondition_violation_names_place(self, capsys):
        code, _, err = run(
            capsys,
            "energy",
            "--input",
            json.dumps({"reference": ALPHA_FAMILY, "singular": CANONICAL}),
        )
        assert code == 3
        assert "Place(2)" in err

    def test_divisor_mismatch(self, capsys):
        other = {"divisor": {"a": 1, "b": 1}, "exceptions": []}
        code, _, err = run(
            capsys,
            "energy",
            "--input",
            json.dumps({"reference": CANONICAL, "singular": other}),
        )
        assert code == 3
        assert "divisor" in err

    def test_missing_field(self, capsys):
        code, _, _ = run(capsys, "energy", "--input", json.dumps({"reference": CANONICAL}))
        assert code == 2


class TestDualAndMa:
    def test_dual_samples_default_grid(self, capsys):
        payload = run_json(capsys, "dual", "--input", json.dumps(RAMP))
        assert payload["lo"] == 0 and payload["hi"] == 1
        assert payload["endpoints"] == [0, 0]
        assert len(payload["samples"]) == 513
        assert all(v == 0 for _, v in payload["samples"])

    def test_dual_custom_grid(self, capsys):
        payload = run_json(
            capsys, "dual", "--input", json.dumps(ALPHA_PSI), "--grid", "0:1:5"
        )
        ms = [m for m, _ in payload["samples"]]
        assert ms == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert payload["samples"][0][1] == pytest.approx(-4.0)
        assert payload["samples"][-1][1] == "-inf"

    def test_dual_grid_outside_the_domain(self, capsys):
        # the ramp's dual lives on [0, 1]
        code, out, err = run(capsys, "dual", "--input", json.dumps(RAMP), "--grid", "5:6:3")
        assert (code, out, err) == (3, "", "error: 5.0 outside the dual domain\n")

    def test_dual_degenerate_domain(self, capsys):
        line = {
            "slope_neg": 1,
            "slope_pos": 1,
            "pieces": [
                {"from": "-inf", "to": "+inf", "kind": "affine", "params": {"slope": 1, "intercept": 3}}
            ],
        }
        payload = run_json(capsys, "dual", "--input", json.dumps(line))
        assert payload["samples"] == [[1.0, -3.0]]

    @pytest.mark.parametrize("slopes", [("1/10", 0), (1, "1/3")])
    def test_dual_default_grid_on_inexact_float_endpoints(self, capsys, slopes):
        # float(1/10) > 1/10 and float(1/3) < 1/3: the grid ends still sample
        neg, pos = slopes
        ramp = json.loads(json.dumps(RAMP))
        ramp["slope_neg"], ramp["slope_pos"] = neg, pos
        ramp["pieces"][0]["params"]["slope"] = neg
        ramp["pieces"][1]["params"]["slope"] = pos
        payload = run_json(capsys, "dual", "--input", json.dumps(ramp))
        assert payload["lo"] == pos and payload["hi"] == neg
        assert len(payload["samples"]) == 513
        assert all(v == 0 for _, v in payload["samples"])

    def test_ma_atom(self, capsys):
        payload = run_json(capsys, "ma", "--input", json.dumps(RAMP))
        assert payload["atoms"] == [{"at": 0, "mass": 1}]
        assert payload["densities"] == []
        assert payload["total_mass"] == 1

    def test_ma_exact_fractional_mass(self, capsys):
        kink = json.loads(json.dumps(RAMP))
        kink["slope_pos"] = kink["pieces"][1]["params"]["slope"] = "1/2"
        payload = run_json(capsys, "ma", "--input", json.dumps(kink))
        assert payload["atoms"] == [{"at": 0, "mass": "1/2"}]
        assert payload["total_mass"] == "1/2"

    def test_ma_singular_density(self, capsys):
        payload = run_json(capsys, "ma", "--input", json.dumps(ALPHA_PSI))
        assert payload["atoms"] == []
        density = payload["densities"][0]
        assert density["coeff"] == 0.75
        assert density["exponent"] == -1.75
        assert payload["total_mass"] == pytest.approx(1.0)


class TestNefCheck:
    def test_canonical(self, capsys):
        payload = run_json(capsys, "nef-check", "--input", json.dumps(CANONICAL))
        assert payload == {"status": "S_nef_only", "mu_min_asy": 0}

    def test_broken_slopes_report_null_mu(self, capsys):
        fam = {
            "divisor": {"a": 0, "b": 1},
            "strict": False,
            "exceptions": [
                {
                    "place": 3,
                    "psi": {
                        "slope_neg": 2,
                        "slope_pos": 0,
                        "pieces": [
                            {"from": "-inf", "to": 0, "kind": "affine", "params": {"slope": 2, "intercept": 0}},
                            {"from": 0, "to": "+inf", "kind": "affine", "params": {"slope": 0, "intercept": 0}},
                        ],
                    },
                }
            ],
        }
        payload = run_json(capsys, "nef-check", "--input", json.dumps(fam))
        assert payload == {"status": "not_relatively_nef", "mu_min_asy": None}


class TestPlot:
    def test_series_and_grid(self, capsys):
        code, out, _ = run(
            capsys, "plot", "--input", json.dumps(ALPHA_FAMILY), "--grid=-2:2:3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "series,x,y"
        series = {line.split(",")[0] for line in lines[1:]}
        assert series == {"psi:canonical", "psi:2", "roof"}
        assert lines[-1].startswith("roof,1,") and lines[-1].endswith("-inf")

    @pytest.mark.parametrize("b", ["1/10", "1/3"])
    def test_roof_on_inexact_float_endpoints(self, capsys, b):
        fam = {"divisor": {"a": 0, "b": b}, "exceptions": []}
        code, out, err = run(capsys, "plot", "--input", json.dumps(fam), "--grid=0:1:3")
        assert code == 0, err
        roof_rows = [line for line in out.splitlines() if line.startswith("roof,")]
        assert len(roof_rows) == 3
        assert roof_rows[-1] == f"roof,{float(F(b)):.12g},0"

    def test_default_grid(self, capsys):
        code, out, err = run(capsys, "plot", "--input", json.dumps(ALPHA_FAMILY))
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for series in ("psi:canonical", "psi:2", "roof"):
            xs = [float(x) for label, x, _ in rows if label == series]
            assert len(xs) == cli.DEFAULT_GRID_POINTS
            if series != "roof":
                assert (xs[0], xs[-1]) == (-10.0, 10.0)

    def test_degree_zero_roof_is_one_row(self, capsys):
        # a + b = 0: the canonical profile is one line, its dual a point
        fam = {"divisor": {"a": 1, "b": -1}, "exceptions": []}
        code, out, err = run(capsys, "plot", "--input", json.dumps(fam), "--grid=0:1:3")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[1:4] == ["psi:canonical,0,0", "psi:canonical,0.5,-0.5", "psi:canonical,1,-1"]
        assert lines[4:] == ["roof,-1,0"]

    def test_positive_infinity_is_divergence(self, capsys):
        # the canonical profile of -2[0] + 3[inf] reaches +inf on the grid:
        # a CSV cell follows the JSON rule, exit 4 and no output
        fam = {"divisor": {"a": -2, "b": 3}}
        code, out, err = run(capsys, "plot", "--input", json.dumps(fam), "--grid=0:1e308:2")
        assert (code, out, err) == (4, "", "error: positive infinity in output\n")

    def test_plot_to_file(self, capsys, tmp_path):
        target = tmp_path / "plot.csv"
        code, out, _ = run(
            capsys,
            "plot",
            "--input",
            json.dumps(CANONICAL),
            "--grid=-1:1:3",
            "--out",
            str(target),
        )
        assert code == 0 and out == ""
        rows = target.read_text().splitlines()
        assert rows[0] == "series,x,y"
        # canonical profile on 3 points plus the roof on 3 points
        assert len(rows) == 7


class TestCoreDemo:
    def test_values(self, capsys):
        payload = run_json(capsys, "core-demo")
        metric = payload["order_metric"]
        assert metric["chebyshev_example"] == "1/3"
        assert metric["capped_at_one"] == 1
        assert metric["degenerate_direction"] == 0
        assert payload["closure"] == {"probe": [0, -1], "in_cone": False, "in_closure": True}
        assert payload["extension"]["limit"] == 1
        assert abs(F(payload["extension"]["value"]) - 1) <= F(1, 10**6)


HUGE_RAMP = with_params(RAMP, intercept="1e400")
NON_FINITE_PARAMS = [
    ("height", "--input", json.dumps(family_of(with_params(RAMP, intercept=bad))))
    for bad in (math.nan, math.inf, -math.inf, "-inf")
]
FINITE_ONLY = NON_FINITE_PARAMS + [
    ("height", "--input", '{"divisor": {"a": 0, "b": 1e400}}'),
    ("height", "--input", json.dumps(family_of(RAMP, a="-inf"))),
    ("ma", "--input", json.dumps(RAMP).replace('"to": 0', '"to": "-inf"')),
    ("example-alpha", "--alpha=-inf"),
    ("example-alpha", "--alpha", "nan"),
    ("product-formula", "--", "-inf"),
    ("dual", "--input", json.dumps(RAMP), "--grid=-inf:1:5"),
    ("dual", "--input", json.dumps(RAMP), "--grid=0:1e400:5"),
    ("dual", "--input", json.dumps(RAMP), "--grid=0:1:10000000000000"),
    ("dual", "--input", json.dumps(RAMP), f"--grid=0:1:{cli.MAX_GRID_POINTS + 1}"),
    ("plot", "--input", json.dumps(CANONICAL), "--grid=0:1:10000000000000"),
]
# (case number, argv, exit code). The ids keep the form argv<case>-None-<code>
# that these cases were first named by, and case numbers are never reused,
# so a case keeps its id when another one is removed.
EXIT_CASES = [(i, argv, 2) for i, argv in enumerate(FINITE_ONLY)] + [
    (20, ("dual", "--input", json.dumps(RAMP), f"--grid=0:1:{cli.MAX_GRID_POINTS}"), 0),
    # exact but beyond float range: arithmetic failure, not a crash
    (21, ("height", "--input", json.dumps(family_of(HUGE_RAMP))), 3),
    (22, ("nef-check", "--input", json.dumps(family_of(HUGE_RAMP))), 3),
    (23, ("plot", "--input", json.dumps(family_of(HUGE_RAMP)), "--grid=0:1:3"), 3),
    # finite input whose height overflows: positive divergence
    (24, ("height", "--input", json.dumps(family_of(with_params(RAMP, intercept=-1.5e308)))), 4),
]
# an unreadable --input or an unwritable --out: exit 2 with a one-line error
HERE = str(Path(__file__).resolve().parent)
IO_ERRORS = [
    ("product-formula", "12/5", "--out", os.path.join(HERE, "no-such-dir", "x.json")),
    ("product-formula", "12/5", "--out", HERE),
    ("height", "--input", HERE),
]
EXIT_CASES += [(25 + i, argv, 2) for i, argv in enumerate(IO_ERRORS)]
# exceptions that is not an array is malformed input
EXIT_CASES.append((28, ("height", "--input", '{"divisor":{"a":0,"b":1},"exceptions":5}'), 2))
# two finite grid ends whose span overflows: malformed input, not NaN points
EXIT_CASES += [
    (29, ("dual", "--input", json.dumps(RAMP), "--grid=-1e308:1e308:3"), 2),
    (30, ("plot", "--input", '{"divisor":{"a":0,"b":1}}', "--grid=-1e308:1e308:3"), 2),
]


class TestInputRobustness:
    @pytest.mark.parametrize(
        "argv, code",
        [pytest.param(argv, code, id=f"argv{i}-None-{code}") for i, argv, code in EXIT_CASES],
    )
    def test_exit_code(self, capsys, argv, code):
        got, _, err = run(capsys, *argv)
        assert got == code, err
        assert code == 0 or err.startswith("error: ")
        if argv in NON_FINITE_PARAMS:
            assert "finite" in err  # named as such, not caught by accident
        if argv in IO_ERRORS:
            assert err.startswith(("error: cannot read input ", "error: cannot write output "))
            assert err.count("\n") == 1

    def test_input_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_bytes(b'{"divisor": {"a": 0, "b": 1}} \xff')
        got, out, err = run(capsys, "height", "--input", str(path))
        assert (got, out) == (2, "")
        assert err.startswith(f"error: cannot read input {path}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("sub", ["height", "energy", "dual", "ma", "nef-check", "plot"])
    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 3000], ids=["arrays", "objects"])
    def test_input_file_nested_too_deep(self, capsys, tmp_path, sub, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        got, out, err = run(capsys, sub, "--input", str(path))
        assert (got, out) == (2, "")
        assert err.startswith("error: input is not valid JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("product-formula", "1e-99999"),
            ("product-formula", "1e-999999"),
            ("example-alpha", "--alpha", "1e-9999999"),
        ],
    )
    def test_a_decimal_exponent_past_the_digit_limit_is_refused(self, capsys, argv):
        # read in full, 1e-99999 took 20 s and 1e-9999999 took 9 s to parse
        start = time.perf_counter()
        got, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (got, out) == (2, "")
        assert f"bad rational literal {argv[-1]!r}: exponent beyond 4300 digits" in err
        assert err.count("\n") == 1

    def test_a_decimal_exponent_at_the_digit_limit_is_read(self, capsys, monkeypatch):
        assert scalars._num("1e-4300") == F(1, 10**4300)
        assert scalars._num("1E+4300") == 10**4300
        # its 4301-digit denominator is then refused when printed
        got, out, err = run(capsys, "product-formula", "1e-4300")
        assert (got, out, err) == (3, "", "error: exact value beyond 4300 digits\n")
        # 0 lifts the digit limit, and with it the bound on the exponent
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert scalars._num("1e-5000") == F(1, 10**5000)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("product-formula", "1e-4300"),
            ("product-formula", "1e4300"),
            ("height", "--input", '{"divisor": {"a": "1e-4300", "b": "1"}}'),
        ],
    )
    def test_an_exact_result_beyond_the_digit_limit_is_refused(self, capsys, argv, fmt):
        got, out, err = run(capsys, argv[0], "--format", fmt, *argv[1:])
        assert (got, out, err) == (3, "", "error: exact value beyond 4300 digits\n")


def _without(obj, *path):
    """A copy of the JSON value with the field at path removed."""
    out = json.loads(json.dumps(obj))
    target = out
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    return out


def _with(obj, value, *path):
    """A copy of the JSON value with the field at path set to value."""
    out = json.loads(json.dumps(obj))
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


# (subcommand, --input value, the whole error message): one case for each
# way a profile, a place or a family can fail its JSON schema
SCHEMA_ERRORS = {
    "profile-not-object": ("ma", [RAMP], "concave function must be a JSON object"),
    "profile-missing-field": (
        "ma", _without(RAMP, "slope_pos"), "concave function is missing 'slope_pos'"
    ),
    "empty-pieces": ("ma", _with(RAMP, [], "pieces"), "pieces must be a non-empty array"),
    "piece-not-object": ("ma", _with(RAMP, 0, "pieces", 1), "each piece must be a JSON object"),
    "first-end": ("ma", _with(RAMP, -1, "pieces", 0, "from"), "first piece must start at '-inf'"),
    "last-end": ("ma", _with(RAMP, 1, "pieces", 1, "to"), "last piece must end at '+inf'"),
    "params-not-object": (
        "ma", _with(RAMP, [1, 0], "pieces", 0, "params"), "piece params must be a JSON object"
    ),
    "unknown-kind": ("ma", _with(RAMP, "cubic", "pieces", 0, "kind"), "unknown piece kind 'cubic'"),
    "kind-array": (
        "ma", _with(RAMP, ["affine"], "pieces", 0, "kind"), "unknown piece kind ['affine']"
    ),
    "kind-object": (
        "ma", _with(RAMP, {"affine": 1}, "pieces", 0, "kind"), "unknown piece kind {'affine': 1}"
    ),
    "missing-param": (
        "ma", _without(RAMP, "pieces", 0, "params", "intercept"), "piece params missing 'intercept'"
    ),
    "bad-place": (
        "height",
        _with(family_of(RAMP), "two", "exceptions", 0, "place"),
        "place must be 'inf' or a prime, got 'two'",
    ),
    "duplicate-place": (
        "height",
        _with(family_of(RAMP), [{"place": 2, "psi": RAMP}] * 2, "exceptions"),
        "duplicate exception at Place(2)",
    ),
    "exception-without-psi": (
        "height",
        _without(family_of(RAMP), "exceptions", 0, "psi"),
        "each exception needs place and psi fields",
    ),
    "family-not-object": ("height", "family", "family must be a JSON object"),
    "divisor-missing-field": (
        "height", _without(CANONICAL, "divisor", "b"), "family needs a divisor with fields a and b"
    ),
    "strict-not-boolean": ("height", _with(CANONICAL, 1, "strict"), "strict must be a boolean"),
}


class TestSchemaErrors:
    @pytest.mark.parametrize("case", sorted(SCHEMA_ERRORS))
    def test_each_branch_exits_2_with_its_message(self, capsys, case):
        sub, value, message = SCHEMA_ERRORS[case]
        code, out, err = run(capsys, sub, "--input", json.dumps(value))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_a_json_integer_beyond_the_digit_limit_is_malformed_input(self, capsys):
        # 5001 digits: past the digit limit for reading a Python int
        digits = "9" * 5001
        text = f'{{"divisor": {{"a": 0, "b": {digits}}}}}'
        code, out, err = run(capsys, "height", "--input", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: input is not valid JSON: ") and err.count("\n") == 1
        # as the argument of product-formula the same number is refused alike
        assert run(capsys, "product-formula", digits)[0] == 2


# The package modules each subcommand loads beyond adelic_heights, its
# scalars and the CLI: a layer's __init__ loads none of its submodules.
ROOF_ROUTE = {
    "adelic_curve",
    "adelic_curve.places",
    "adelic_curve.family",
    "adelic_curve.heights",
    "convex_calculus",
    "convex_calculus.functions",
    "convex_calculus.duality",
}
BOTH_ROUTES = ROOF_ROUTE | {"convex_calculus.measures", "convex_calculus.energy"}
SUBCOMMAND_MODULES = {
    "height": ROOF_ROUTE,
    "nef-check": ROOF_ROUTE,
    "plot": ROOF_ROUTE,
    "energy": BOTH_ROUTES,
    "example-alpha": BOTH_ROUTES,
    "dual": {"convex_calculus", "convex_calculus.functions", "convex_calculus.duality"},
    "ma": {"convex_calculus", "convex_calculus.functions", "convex_calculus.measures"},
    "product-formula": {"adelic_curve", "adelic_curve.places"},
    "core-demo": {
        "divisorial_core",
        "divisorial_core.vectors",
        "divisorial_core.cones",
        "divisorial_core.completion",
        "divisorial_core.intersection",
    },
}


def _package_modules(loaded) -> set[str]:
    """The adelic_heights modules in `loaded`, named within the package,
    beyond the package, its scalars and the CLI, which every process loads."""
    assert {"adelic_heights", "adelic_heights.scalars", "adelic_heights.cli"} <= set(loaded)
    inside = {m.removeprefix("adelic_heights.") for m in loaded if m.startswith("adelic_heights.")}
    return inside - {"scalars", "cli"}


def _main_in_child(argv):
    """main(argv) in a fresh interpreter without site: its exit code (a
    usage error's too), its stderr, and the modules it left loaded."""
    src_root = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {src_root!r})\n"
        "from adelic_heights.cli import main\n"
        "try:\n"
        f"    code = main({list(argv)!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    *err, last = proc.stderr.splitlines(keepends=True)
    exit_code, loaded = json.loads(last)
    return exit_code, "".join(err), loaded


class TestPlumbing:
    def test_unknown_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["example-alpha", "--alpha", "1/4", "--tol", "1e-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unrecognized arguments: --tol" in err

    def test_product_formula_gives_up_on_two_21_digit_primes(self, capsys):
        # nextprime(1e20) * nextprime(3e20) needs some 1e10 Pollard rho
        # steps: over the factoring budget, so a precondition error naming n
        n = str(100000000000000000039 * 300000000000000000053)
        start = time.perf_counter()
        code, out, err = run(capsys, "product-formula", n)
        assert time.perf_counter() - start < 20
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and n in err

    def test_usage_error_in_a_child_process(self):
        src_root = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "adelic_heights.cli", "core-demo", "--tol=-4"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: unrecognized arguments: --tol=-4\n"
        assert proc.stdout == ""

    def test_import_loads_only_the_standard_library(self):
        src_root = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src_root!r})\n"
            "before = set(sys.modules)\n"
            "import adelic_heights.cli\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
        )
        loaded = proc.stdout.split()
        # the CLI's own import loads no layer: each handler imports its own
        assert _package_modules(loaded) == set()
        foreign = [
            m
            for m in loaded
            if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "adelic_heights"
        ]
        assert foreign == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("height", "--input", json.dumps(ALPHA_FAMILY)),
            ("energy", "--input", json.dumps({"reference": CANONICAL, "singular": ALPHA_FAMILY})),
            ("dual", "--input", json.dumps(ALPHA_PSI), "--grid=0:1:3"),
            ("ma", "--input", json.dumps(ALPHA_PSI)),
            ("nef-check", "--input", json.dumps(ALPHA_FAMILY)),
            ("product-formula", "12/5"),
            ("example-alpha", "--alpha", "1/4"),
            ("plot", "--input", json.dumps(ALPHA_FAMILY), "--grid=0:1:3"),
            ("core-demo",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_subcommand_loads_only_its_layers(self, argv):
        """Start-up cost: each subcommand loads exactly the package modules
        it runs, and none loads dataclasses, inspect or typing."""
        exit_code, _, loaded = _main_in_child(argv)
        assert exit_code == 0
        assert {"dataclasses", "inspect", "typing"}.isdisjoint(loaded)
        assert _package_modules(loaded) == SUBCOMMAND_MODULES[argv[0]]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("ma", "--input", "{not json"), 2),
            (("height", "--input", "{not json"), 2),
            (("example-alpha", "--alpha", "5"), 2),
            (("product-formula", "0"), 3),
            (("core-demo", "--tol=-1"), 2),
        ],
        ids=lambda v: v[0] if isinstance(v, tuple) else str(v),
    )
    def test_input_refused_early_loads_no_layer(self, argv, expected):
        exit_code, err, loaded = _main_in_child(argv)
        assert exit_code == expected
        assert err.startswith("error: ") and err.count("\n") == 1
        assert _package_modules(loaded) == set()

    def test_readme_names_every_option(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"--[a-z][a-z-]*", section))
        (subparsers,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        parsed = {
            option
            for sub in subparsers.choices.values()
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        assert documented == parsed

    def test_readme_names_every_subcommand(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        usage = section.split("```sh\n", 1)[1].split("```", 1)[0]
        documented = re.findall(r"^adelic-heights ([a-z-]+)", usage, re.MULTILINE)
        (subparsers,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert documented == list(cli.HANDLERS) == list(subparsers.choices)

    def test_positive_divergence_exit_code(self, capsys, monkeypatch):
        def explode(args):
            raise PositiveDivergenceError("integral grows without bound")

        monkeypatch.setitem(cli.HANDLERS, "core-demo", explode)
        code, _, err = run(capsys, "core-demo")
        assert code == 4
        assert "without bound" in err

    def test_module_entry_point(self):
        # the child does not inherit sys.path: point it at this package's source
        src_root = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "adelic_heights.cli", "product-formula", "7"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == "0 (exact)"
