"""What every workload shares: the workload record, the answer check, child
interpreters, and in-memory spans recorded by the benchmark around its own
calls into the package, with counters and the self times derived from them."""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_TIMEOUT_S = 60
_NULL = nullcontext()


def run_child(args) -> subprocess.CompletedProcess:
    """Run this interpreter on `args` with the package's source importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S
    )


class Workload(NamedTuple):
    """One seeded stream of operations.

    op(input, tracer) is the timed call; check(input, output, tracer) verifies
    the answer outside the timed region and raises CheckError on a wrong one.
    period is the length of the input pattern, short_ops how many inputs make
    a pass that covers every size class, layer_metrics(tracer, inputs)
    turns a traced pass into {name: (value, unit)}, and speed() makes the
    reference that its operation times are scaled by."""

    inputs: Callable[[int], Iterator[Any]]
    op: Callable[[Any, "Tracer"], Any]
    check: Callable[[Any, Any, "Tracer"], None]
    layer_metrics: Callable[["Tracer", Dict[int, Any]], Dict[str, tuple]]
    period: int
    short_ops: int
    prepare: Callable[[int], None] = lambda seed: None
    speed: Callable[[], "Speed"] = lambda: kernel_speed()


def reference_kernel() -> float:
    """Seconds taken by fixed standard-library work like the package's own:
    Fraction arithmetic, hashing and sorting. It never calls the package."""
    rng = random.Random(1)
    t = perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(400):
        f = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        acc += f * f
        seen[f] = i
    sorted(seen)
    return perf_counter() - t


REFERENCE_IMPORTS = "import argparse, decimal, email.message, fractions, json, unittest, xml.dom.minidom"


def reference_child() -> float:
    """Seconds taken by a fresh interpreter importing standard-library
    modules: the cold-process counterpart of reference_kernel."""
    t = perf_counter()
    run_child(["-c", REFERENCE_IMPORTS])
    return perf_counter() - t


class Speed:
    """Samples of a fixed reference task taken through one run.

    On a shared host the machine itself slows down for minutes at a time
    (a pure-Python loop varies by 20-40% between runs), which would read as
    a slower program. Every time the benchmark reports is therefore scaled
    to the reference speed, at which the task takes exactly `ref_s`. The task
    never runs inside a timed operation, and no change to the package can
    move it."""

    def __init__(self, task: Callable[[], float], ref_s: float):
        self.task = task
        self.ref_s = ref_s
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(self.task())

    def factor(self) -> float:
        return self.ref_s / statistics.median(self.samples)

    def local_factors(self, sample_at: List[int]) -> List[float]:
        """Per timing: the factor from the median of the three samples
        around it (the one before, sample_at, and the one after), so that
        slowdowns shorter than a run are followed too."""
        last = len(self.samples) - 1
        return [
            self.ref_s / statistics.median(self.samples[max(0, k - 1) : min(last, k + 1) + 1])
            for k in sample_at
        ]


def kernel_speed() -> Speed:
    return Speed(reference_kernel, 0.010)


def child_speed() -> Speed:
    return Speed(reference_child, 0.100)


class CheckError(AssertionError):
    """An operation returned a wrong answer."""


def ensure(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def median_ms(samples: List[float]) -> float:
    return 1000.0 * statistics.median(samples)


class Tracer:
    """`with tracer("name"):` records a span; a disabled tracer records
    nothing and costs one call. Each span keeps the index of the operation
    that caused it (`tracer.op` when it opened) and of its parent span."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.op = 0
        self.names: List[str] = []
        self.ops: List[int] = []
        self.parents: List[Optional[int]] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def __call__(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = max(self.counts.get(name, value), value)

    def self_seconds(self) -> List[float]:
        """Per span: its duration minus the time its direct children cover
        (children of one span never overlap: every workload runs on one
        thread)."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent is not None:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def by_name(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = defaultdict(list)
        for name, secs in zip(self.names, self.self_seconds()):
            out[name].append(secs)
        return out

    def by_op(self, name: str) -> Dict[int, float]:
        """Total self time of the named spans, per operation index."""
        out: Dict[int, float] = defaultdict(float)
        for n, op, secs in zip(self.names, self.ops, self.self_seconds()):
            if n == name:
                out[op] += secs
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.ops.append(t.op)
        t.parents.append(t._stack[-1] if t._stack else None)
        t.ends.append(0.0)
        t._stack.append(self.index)
        t.starts.append(perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.ends[self.index] = perf_counter()
        t._stack.pop()
        return False
