"""The benchmark's own self-tests, run as part of this suite, so that a
library change the benchmark depends on (a renamed function, a changed
signature) fails here rather than in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
