"""Smoke test of the benchmark in perfbench/: its toy-size self-test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    """Runs every workload at toy size, traced and untraced, and checks the
    metric names, span nesting, restored bindings and digest checks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: all checks passed" in proc.stdout
