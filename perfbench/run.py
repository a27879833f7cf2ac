"""Benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src`.
Each run is a closed loop with one caller: the next operation starts when the
previous one returns; its answer is checked outside the timed region. Every
reported time is scaled to a reference speed measured alongside the
operations (harness.Speed), so that a shared machine slowing down does not
read as a slower program. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json. With
--trace 1 the named workload runs for S seconds, its operations alternating
in whole input cycles between untraced and traced, so the tracing overhead
is the gap between the two medians; then every other workload makes one
short traced pass, so that every per-layer metric is reported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from typing import Dict, List, NamedTuple

from harness import SRC, Tracer, child_speed, kernel_speed, run_child

LAYERS = (
    "adelic_heights.divisorial_core",
    "adelic_heights.convex_calculus",
    "adelic_heights.adelic_curve",
)
WORKLOADS = ("cli_mix", "many_places", "singular_energy", "exact_arith")
SETUP_SAMPLES = 3
IMPORT_SNIPPET = (
    "import importlib, sys, time\n"
    "t = time.perf_counter()\n"
    "for m in sys.argv[1:]: importlib.import_module(m)\n"
    "print(time.perf_counter() - t)\n"
)
MAX_REPORTED_FAILURES = 5
SPEED_EVERY_S = 0.2  # of operation time between two reference samples


def import_seconds(modules) -> float:
    """Import time of the modules in a fresh interpreter."""
    proc = run_child(["-c", IMPORT_SNIPPET, *modules])
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr[-500:]}")
    return float(proc.stdout)


def load_workload(name: str, setup=None):
    """Import one workload. The in-process ones import the package's layers
    first, and append the time that took to `setup`."""
    if name == "cli_mix":
        import climix

        return climix.CLI_MIX
    t = time.perf_counter()
    for module in LAYERS:
        importlib.import_module(module)
    if setup is not None:
        setup.append(time.perf_counter() - t)
    import inproc

    return {
        "many_places": inproc.MANY_PLACES,
        "singular_energy": inproc.SINGULAR_ENERGY,
        "exact_arith": inproc.EXACT_ARITH,
    }[name]


class Pass(NamedTuple):
    seconds: List[float]  # wall time of each operation
    traced: List[bool]  # whether each operation ran with spans
    inputs: Dict[int, object]  # operation index -> input, kept only when tracing
    failures: List[tuple]  # (input, exception)
    sample_at: List[int]  # index of the last speed sample before each operation


def run_pass(wl, seed, speed, *, seconds=0.0, ops=1, tracer=None, alternate=False) -> Pass:
    """Run operations until they have taken `seconds` of wall time and at
    least `ops` have run, sampling the reference task into `speed` every
    SPEED_EVERY_S of operation time. Each answer is checked right after its
    operation, outside the timed region, and then dropped, so memory does not
    grow with the number of operations."""
    null = Tracer(enabled=False)
    tracer = tracer or null
    wl.prepare(seed)
    inputs = wl.inputs(seed)
    result = Pass([], [], {}, [], [])
    busy = since_sample = 0.0
    i = 0
    while i < ops or busy < seconds:
        if i == 0 or since_sample >= SPEED_EVERY_S:
            speed.sample()
            since_sample = 0.0
        inp = next(inputs)
        traced = tracer.enabled and not (alternate and (i // wl.period) % 2 == 0)
        tracer.op = i
        t0 = time.perf_counter()
        try:
            out, err = wl.op(inp, tracer if traced else null), None
        except Exception as exc:  # a raising operation is a failed one
            err = exc
        result.seconds.append(time.perf_counter() - t0)
        busy += result.seconds[-1]
        since_sample += result.seconds[-1]
        result.traced.append(traced)
        result.sample_at.append(len(speed.samples) - 1)
        if err is None:
            try:
                wl.check(inp, out, tracer)
            except Exception as exc:  # wrong answers and crashing checks alike
                err = exc
        if err is not None:
            result.failures.append((inp, err))
        if tracer.enabled:
            result.inputs[i] = inp
        i += 1
    return result


def p90(samples):
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def report_failures(name, failures) -> None:
    for inp, err in failures[:MAX_REPORTED_FAILURES]:
        print(f"{name}: {type(err).__name__}: {err}\n  input: {inp!r:.500}", file=sys.stderr)


def end_to_end(name, seed, seconds):
    setup = []
    wl = load_workload(name, setup)
    # every import but the in-process one runs in a fresh interpreter, so a
    # fresh interpreter is their reference; it is sampled right after the
    # in-process import and after each later one
    setup_speed = child_speed()
    setup_speed.sample()
    setup_at = [0] * len(setup)
    speed = wl.speed()
    result = run_pass(wl, seed, speed, seconds=seconds)
    if name == "cli_mix":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        modules = ["adelic_heights.cli"]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        modules = list(LAYERS)
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds(modules))
        setup_speed.sample()
        setup_at.append(len(setup_speed.samples) - 2)
    setup = [g * secs for g, secs in zip(setup_speed.local_factors(setup_at), setup)]
    factors = speed.local_factors(result.sample_at)
    times = [g * secs for g, secs in zip(factors, result.seconds)]
    metrics = {
        "op_ms_p50": (1000.0 * statistics.median(times), "ms"),
        "op_ms_p90": (1000.0 * p90(times), "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "ok_ratio": ((len(times) - len(result.failures)) / len(times), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return len(times), result.failures, metrics


def per_layer(name, seed, seconds):
    speed = kernel_speed()  # one reference for every pass of the run
    metrics = {}
    attempted = 0
    failures = []
    for other in WORKLOADS:
        wl = load_workload(other)
        tracer = Tracer()
        if other == name:
            result = run_pass(
                wl,
                seed,
                speed,
                seconds=seconds,
                ops=max(2 * wl.period, wl.short_ops),
                tracer=tracer,
                alternate=True,
            )
            untraced = [s for s, on in zip(result.seconds, result.traced) if not on]
            traced = [s for s, on in zip(result.seconds, result.traced) if on]
            p50_off = 1000.0 * statistics.median(untraced)
            p50_on = 1000.0 * statistics.median(traced)
            metrics["trace.op_ms_p50_untraced"] = (p50_off, "ms")
            metrics["trace.op_ms_p50_traced"] = (p50_on, "ms")
            metrics["trace.overhead_ms"] = (p50_on - p50_off, "ms")
        else:
            result = run_pass(wl, seed, speed, ops=wl.short_ops, tracer=tracer)
        attempted += len(result.seconds)
        failures += result.failures
        report_failures(other, result.failures)
        metrics.update(wl.layer_metrics(tracer, result.inputs))
    f = speed.factor()
    metrics = {k: (f * v if unit == "ms" else v, unit) for k, (v, unit) in metrics.items()}
    metrics["bench.ref_kernel_ms"] = (1000.0 * statistics.median(speed.samples), "ms")
    return attempted, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adelic_heights" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    measure = per_layer if args.trace else end_to_end
    attempted, failures, metrics = measure(args.workload, args.seed, args.seconds)
    if not args.trace:
        report_failures(args.workload, failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
