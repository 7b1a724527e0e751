"""The project's pytest settings keep a failing hypothesis test readable.

Every warning is an error, but the hypothesis plugin imports
``hypothesis.extra._patching`` when a test fails, and that import warns
through ``mypy_extensions``: as an error it ended the session in an
``INTERNALERROR`` that hid the falsifying example and ran no later test.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_shows_its_example_and_later_tests_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
