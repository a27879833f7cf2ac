"""The cli_mix workload: one cold `python3 -m adelic_heights.cli` process per
operation, plus the import-time breakdown from `python3 -X importtime`.

Nothing here imports the package in the benchmark process, except the
traced check, which also times an in-process `main(argv)` call per input.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import statistics
from collections import Counter
from fractions import Fraction

import gen
from harness import Workload, child_speed, ensure, median_ms, run_child

IMPORTTIME_SAMPLES = 3


def cli_op(inp: gen.CliInput, span):
    with span("cli.process"):
        return run_child(["-m", "adelic_heights.cli", *inp.argv])


def _check_payload(inp: gen.CliInput, stdout: str) -> None:
    sub = inp.subcommand
    if sub == "plot":
        rows = list(csv.reader(io.StringIO(stdout)))
        ensure(rows[0] == ["series", "x", "y"], "plot CSV header")
        ensure(all(len(r) == 3 for r in rows[1:]), "plot CSV rows")
        count = int(inp.argv[-1].rsplit(":", 1)[1])
        series = Counter(r[0] for r in rows[1:] if r[0] != "roof")
        ensure(series["psi:canonical"] == count, "canonical series")
        ensure(set(series.values()) == {count}, "plot sample count")
        return
    payload = json.loads(stdout)
    if sub == "product-formula":
        ensure(payload["result"] == "0 (exact)" and payload["total"] == {}, "product formula")
    elif sub == "example-alpha":
        if Fraction(inp.argv[2]) >= Fraction(1, 2):
            ensure(payload["roof_route"] == payload["energy_route"] == "-inf", "divergent routes")
        else:
            ensure(payload["gap"] <= 1e-6, f"route gap {payload['gap']}")
    elif sub == "dual":
        count = int(inp.argv[-1].rsplit(":", 1)[1])
        ensure(len(payload["samples"]) == count, "dual sample count")
    elif sub in ("height", "nef-check"):
        ensure(payload["status"] in ("S_ample", "S_nef_only", "relatively_nef_only"), "status")
    elif sub == "energy":
        places = json.loads(inp.argv[2])["singular"]["exceptions"]
        ensure(1 <= len(payload["per_place"]) <= len(places), "per-place energies")
    elif sub == "ma":
        ensure(payload["total_mass"] == 1, f"total mass {payload['total_mass']}")
    elif sub == "core-demo":
        ensure(payload["extension"]["limit"] == 1, "core demo")


def _main_in_process(main, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(list(argv))
        except SystemExit as exc:  # argparse rejects its own input with exit 2
            return exc.code


def cli_check(inp: gen.CliInput, proc, span) -> None:
    if span.enabled:
        from adelic_heights.cli import main

        with span(f"cli.handler_ms.{inp.subcommand}"):
            code = _main_in_process(main, inp.argv)
        span.count("cli.exit_mismatch", code != inp.expected_exit)
        span.count("cli.exit_mismatch", proc.returncode != inp.expected_exit)
    ensure(
        proc.returncode == inp.expected_exit,
        f"exit {proc.returncode}, expected {inp.expected_exit}: {proc.stderr[-300:]}",
    )
    if inp.expected_exit == 0:
        _check_payload(inp, proc.stdout)
    else:
        ensure(proc.stderr.startswith("error: "), f"stderr {proc.stderr[-300:]!r}")


# ---------------------------------------------------------------------------
# import-time breakdown

_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")
DEPENDENCIES = ("scipy", "sympy", "adelic_heights")


def parse_importtime(stderr: str) -> dict:
    """Cumulative microseconds per top-level dependency: the sum of the
    cumulative times of its outermost import lines, so that whatever a
    dependency pulls in (numpy under scipy, mpmath under sympy) counts
    toward it. Lines are printed children first, each one indented deeper
    than its parent."""
    rows = []
    for line in stderr.splitlines():
        m = _LINE.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4).split(".")[0], int(m.group(2))))
    totals = dict.fromkeys(DEPENDENCIES, 0)
    # walking backwards visits each parent before its children
    stack = []  # (depth, top-level name) of the open ancestors
    for depth, top, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if top in totals and all(name != top for _, name in stack):
            totals[top] += cumulative
        stack.append((depth, top))
    return totals


def importtime_metrics() -> dict:
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = run_child(["-X", "importtime", "-c", "import adelic_heights.cli"])
        ensure(proc.returncode == 0, f"importtime probe failed: {proc.stderr[-300:]}")
        samples.append(parse_importtime(proc.stderr))
    med = {dep: statistics.median(s[dep] for s in samples) / 1000.0 for dep in DEPENDENCIES}
    total = med["adelic_heights"]
    return {
        "cli.import_ms": (total, "ms"),
        "cli.import_scipy_ms": (med["scipy"], "ms"),
        "cli.import_sympy_ms": (med["sympy"], "ms"),
        "cli.import_self_ms": (total - med["scipy"] - med["sympy"], "ms"),
    }


def cli_metrics(tracer, inputs) -> dict:
    out = importtime_metrics()
    for name, secs in tracer.by_name().items():
        if name.startswith("cli.handler_ms."):
            out[name] = (median_ms(secs), "ms")
    out["cli.exit_mismatch"] = (tracer.counts["cli.exit_mismatch"], "count")
    return out


CLI_MIX = Workload(
    inputs=gen.cli_inputs,
    op=cli_op,
    check=cli_check,
    layer_metrics=cli_metrics,
    period=1,
    short_ops=len(gen.SUBCOMMANDS),
    speed=child_speed,
)
