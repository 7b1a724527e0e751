"""The benchmark's self-test, run as a child process.

``perfbench/tracer.py`` wraps package functions by name (``em_from_model``,
``check_em_laws`` and ``model_from_em`` among them), so renaming one breaks
the benchmark; the self-test runs every subcommand untraced and traced, and
fails on an error, a report that differs or a counter that does not repeat.
"""
from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("self-test passed"), proc.stdout
