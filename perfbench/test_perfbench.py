"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench

The last test makes one short traced run (about half a minute).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from adelic_heights.adelic_curve import LogLinear  # noqa: E402

import climix  # noqa: E402
import gen  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
from harness import CheckError, Tracer, kernel_speed  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NULL = Tracer(enabled=False)


def first(inputs, n):
    return list(itertools.islice(inputs, n))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, inputs in gen.INPUTS.items():
            with self.subTest(name):
                self.assertEqual(first(inputs(7), 12), first(inputs(7), 12))
                self.assertNotEqual(first(inputs(7), 12), first(inputs(8), 12))

    def test_generator_imports_neither_sympy_nor_the_package(self):
        code = (
            "import sys, gen\n"
            "for inputs in gen.INPUTS.values(): next(inputs(1))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'adelic_heights')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True
        )
        self.assertEqual(out.stdout.strip(), "[]")

    def test_primes(self):
        self.assertEqual(gen.primes(10), [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
        self.assertEqual(len(gen.primes(512)), 512)

    def test_size_classes_follow_the_pattern(self):
        got = [(x.n, x.k) for x in first(gen.many_places_inputs(3), 10)]
        self.assertEqual(got, list(gen.MANY_PLACES_CLASSES) * 2)
        singular = first(gen.singular_inputs(3), gen.SINGULAR_PERIOD)
        self.assertEqual(sum(x.divergent for x in singular), 3)
        self.assertEqual(sum(x.quad for x in singular), 1)
        exact = first(gen.exact_inputs(3), 40)
        fresh = [q for x in exact for q in x.fresh]
        self.assertEqual(len(set(fresh)), len(fresh))
        self.assertFalse(set(fresh) & set(gen.exact_pool(3)))


class CheckerTest(unittest.TestCase):
    """Each checker accepts the package's answer and rejects a wrong one."""

    def assert_rejects(self, check, inp, out):
        with self.assertRaises(CheckError):
            check(inp, out, NULL)

    def test_many_places(self):
        inp = next(gen.many_places_inputs(5))
        fam, height, status, zero, infinity = inproc.many_places_op(inp, NULL)
        inproc.many_places_check(inp, (fam, height, status, zero, infinity), NULL)
        bad = height + Fraction(1, 10**30)
        self.assert_rejects(inproc.many_places_check, inp, (fam, bad, status, zero, infinity))
        self.assert_rejects(inproc.many_places_check, inp, (fam, float(height), status, zero, infinity))

    def test_singular_energy(self):
        for inp in first(gen.singular_inputs(5), 4):
            out = inproc.singular_op(inp, NULL)
            inproc.singular_check(inp, out, NULL)
            roof_route, energy_route, against, local, quad = out
            wrong = 0.0 if inp.divergent else float(roof_route) + 1e-6
            self.assert_rejects(inproc.singular_check, inp, (wrong, energy_route, against, local, quad))
            self.assert_rejects(inproc.singular_check, inp, (roof_route, wrong, against, local, quad))

    def test_exact_arith(self):
        inproc.exact_prepare(5)
        inp = next(gen.exact_inputs(5))
        certs, space = inproc.exact_op(inp, NULL)
        inproc.exact_check(inp, (certs, space), NULL)
        q, total, height = certs[0]
        nonzero = total + LogLinear({2: 1})
        self.assert_rejects(inproc.exact_check, inp, ([(q, nonzero, height)], space))
        self.assert_rejects(inproc.exact_check, inp, ([(q, total, height + height)], space))
        cone, closure, dists, value = space
        wrong = [d + Fraction(1, 7) for d in dists]
        self.assert_rejects(inproc.exact_check, inp, (certs, (cone, closure, wrong, value)))
        self.assert_rejects(inproc.exact_check, inp, (certs, (cone, closure, dists, value + 0.01)))

    def test_cli_mix(self):
        inp = next(gen.cli_inputs(5))
        good = subprocess.CompletedProcess(inp.argv, 0, '{"status": "S_ample"}', "")
        climix.cli_check(inp, good, NULL)
        self.assert_rejects(climix.cli_check, inp, subprocess.CompletedProcess(inp.argv, 3, "", "error: x"))
        with self.assertRaises(ValueError):  # stdout that does not parse
            climix.cli_check(inp, subprocess.CompletedProcess(inp.argv, 0, "{", ""), NULL)

    def test_wrong_answers_count_as_failures(self):
        def wrong_op(inp, span):
            out = inproc.many_places_op(inp, span)
            return (out[0], out[1] + 1) + out[2:]

        wl = inproc.MANY_PLACES._replace(op=wrong_op)
        result = run.run_pass(wl, 5, kernel_speed(), ops=3)
        self.assertEqual((len(result.seconds), len(result.failures)), (3, 3))


class CliErrorInputTest(unittest.TestCase):
    def test_error_inputs_exit_with_their_documented_code(self):
        from adelic_heights.cli import main

        codes = set()
        errors = [x for x in first(gen.cli_inputs(9), 90) if x.expected_exit]
        self.assertEqual({x.subcommand for x in errors}, set(gen.SUBCOMMANDS))
        for inp in errors:
            with self.subTest(argv=inp.argv[:2]):
                code = climix._main_in_process(main, inp.argv)
                self.assertEqual(code, inp.expected_exit)
                codes.add(code)
        self.assertEqual(codes, {2, 3, 4})


class HarnessTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        t = Tracer()
        t.names, t.ops, t.parents = ["outer", "inner", "inner"], [0, 0, 0], [None, 0, 0]
        t.starts, t.ends = [0.0, 1.0, 3.0], [10.0, 2.0, 5.0]
        self.assertEqual(t.by_name(), {"outer": [7.0], "inner": [1.0, 2.0]})

    def test_importtime_attribution(self):
        sample = "\n".join(
            [
                "import time: self [us] | cumulative | imported package",
                "import time:       100 |        100 |       numpy",
                "import time:        50 |        150 |     scipy",
                "import time:        20 |         20 |       mpmath",
                "import time:        30 |         50 |     sympy",
                "import time:        10 |        210 |   adelic_heights.convex_calculus",
                "import time:         5 |        215 | adelic_heights.cli",
                "import time:         7 |          7 | json",
            ]
        )
        self.assertEqual(
            climix.parse_importtime(sample),
            {"scipy": 150, "sympy": 50, "adelic_heights": 215},
        )


class ContractTest(unittest.TestCase):
    def run_bench(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(run.main(list(args)), 0)
        return json.loads(out.getvalue().splitlines()[-1])

    def assert_metrics(self, result, spec):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in spec})
        self.assertTrue(all(math.isfinite(v["value"]) for v in result["metrics"].values()))

    def test_end_to_end_metrics_match_the_manifest(self):
        result = self.run_bench("--workload", "singular_energy", "--seed", "1", "--seconds", "0.5")
        self.assert_metrics(result, BENCHMARK["end_to_end"])

    def test_traced_run_reports_every_per_layer_metric(self):
        result = self.run_bench("--workload", "many_places", "--seed", "1", "--seconds", "0", "--trace", "1")
        self.assert_metrics(result, BENCHMARK["per_layer"])

    def test_workloads_match_the_manifest(self):
        self.assertEqual(tuple(w["name"] for w in BENCHMARK["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
