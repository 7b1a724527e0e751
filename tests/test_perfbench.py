"""The benchmark's self-test, run as a child process.

``perfbench/tracer.py`` wraps package functions by name (``em_from_model``,
``check_em_laws`` and ``model_from_em`` among them), so renaming one breaks
the benchmark; the self-test runs every subcommand untraced and traced, and
fails on an error, a report that differs or a counter that does not repeat.
The self-test never runs the benchmark's setup code, which loads each
workspace through ``qeqlog.cli.load_workspace`` before any query is timed, so
that code is run here on its own.
"""
from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("self-test passed"), proc.stdout


def test_benchmark_setup_code_loads_a_workspace():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    [setup] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
               and [ast.unparse(target) for target in node.targets] == ["SETUP_CODE"]]
    proc = subprocess.run([sys.executable, "-c", setup,
                           str(ROOT / "tests" / "fixtures" / "workspace.json")],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
