"""Byte-for-byte CLI reports against a recorded fixture.

``fixtures/cli_golden.json`` holds stdout, stderr and the exit code of every
case below, recorded from a known-good build. Any change to a report, a trace
body or an error message fails here. To record a newly added case, run
``PYTHONPATH=src python tests/test_cli_golden.py``: it records only the cases
missing from the fixture, and exits non-zero without writing anything when a
recorded case's output differs or a recorded case has no entry below, so no
case is ever re-recorded or dropped.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
from operator import attrgetter

import pytest

import qeqlog.cli as cli
import qeqlog.monad as monad
from qeqlog.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"


def _j(lhs, rhs, eps, context="AB"):
    return json.dumps({"context": context, "lhs": lhs, "rhs": rhs, "eps": eps})


SWAP_MAP = '{"a": "p", "b": "q"}'

# id -> (workspace fixture, CLI arguments after --workspace)
CASES = {
    "check-model-swap-EMPTY": ("workspace.json", ["check-model", "--algebra", "swap", "--theory", "EMPTY"]),
    "check-model-stay-QUARTER": ("workspace.json", ["check-model", "--algebra", "stay", "--theory", "QUARTER"]),
    "check-model-swap-PHI1": ("workspace.json", ["check-model", "--algebra", "swap", "--theory", "PHI1"]),
    "check-model-stay-QUARTER-PHI1": ("workspace_two_judgments.json", ["check-model", "--algebra", "stay", "--theory", "QUARTER_PHI1"]),
    "check-model-unknown": ("workspace.json", ["check-model", "--algebra", "nope", "--theory", "EMPTY"]),
    "derive-PHI1-eq": ("workspace.json", ["derive", "--theory", "PHI1", "--target", "AB", "--judgment", _j("a", "b", None)]),
    "derive-QUARTER-not": ("workspace.json", ["derive", "--theory", "QUARTER", "--target", "AB", "--judgment", _j("u(a)", "b", "1/2")]),
    "derive-QUARTER-trace": ("workspace.json", ["derive", "--theory", "QUARTER", "--target", "AB", "--judgment", _j("u(a)", "b", "3/4"), "--trace"]),
    "derive-PHI1-trace-eq": ("workspace.json", ["derive", "--theory", "PHI1", "--target", "AB", "--judgment", _j("u(u(a))", "u(u(b))", None), "--trace"]),
    "derive-PHI1-trace-dist": ("workspace.json", ["derive", "--theory", "PHI1", "--target", "AB", "--judgment", _j("u(a)", "u(b)", "1/4"), "--trace"]),
    "distance-QUARTER": ("workspace.json", ["distance", "--theory", "QUARTER", "--target", "AB", "--lhs", "u(u(a))", "--rhs", "b"]),
    "free-EMPTY": ("workspace.json", ["free", "--theory", "EMPTY", "--space", "AB"]),
    "free-QUARTER": ("workspace.json", ["free", "--theory", "QUARTER", "--space", "AB"]),
    "free-PHI1": ("workspace.json", ["free", "--theory", "PHI1", "--space", "AB"]),
    "entail-holds": ("workspace.json", ["entail", "--theory", "EMPTY", "--judgment", _j("u(u(a))", "a", None), "--catalog", "swap,stay"]),
    "entail-refuted": ("workspace.json", ["entail", "--theory", "EMPTY", "--judgment", _j("u(a)", "a", None), "--catalog", "swap,stay"]),
    "monad-laws-EMPTY": ("workspace.json", ["monad-laws", "--theory", "EMPTY", "--space", "AB"]),
    "monad-laws-QUARTER": ("workspace.json", ["monad-laws", "--theory", "QUARTER", "--space", "AB"]),
    "monad-laws-PHI1": ("workspace.json", ["monad-laws", "--theory", "PHI1", "--space", "AB"]),
    "ump-EMPTY": ("workspace.json", ["--depth", "2", "ump", "--theory", "EMPTY", "--space", "AB", "--algebra", "swap", "--map", SWAP_MAP]),
    "ump-QUARTER": ("workspace.json", ["--depth", "2", "ump", "--theory", "QUARTER", "--space", "AB", "--algebra", "swap", "--map", SWAP_MAP]),
    "ump-EMPTY-depth1": ("workspace.json", ["--depth", "1", "ump", "--theory", "EMPTY", "--space", "AB", "--algebra", "swap", "--map", SWAP_MAP]),
    "ump-QUARTER-depth3": ("workspace.json", ["--depth", "3", "ump", "--theory", "QUARTER", "--space", "AB", "--algebra", "stay", "--map", SWAP_MAP]),
    "em-check-EMPTY": ("workspace.json", ["--depth", "2", "em-check", "--theory", "EMPTY", "--algebra", "swap"]),
    "em-check-QUARTER-stay": ("workspace.json", ["--depth", "2", "em-check", "--theory", "QUARTER", "--algebra", "stay"]),
    "em-check-QUARTER": ("workspace.json", ["--depth", "2", "em-check", "--theory", "QUARTER", "--algebra", "swap"]),
    "em-check-PHI1": ("workspace.json", ["--depth", "2", "em-check", "--theory", "PHI1", "--algebra", "swap"]),
    "noops-derive-PHI1-trace": ("workspace_noops.json", ["derive", "--theory", "PHI1", "--target", "AB", "--judgment", _j("b", "a", "0"), "--trace"]),
    "noops-distance-EMPTY": ("workspace_noops.json", ["distance", "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b"]),
    "noops-free-EMPTY": ("workspace_noops.json", ["free", "--theory", "EMPTY", "--space", "AB"]),
    "noops-free-PHI1": ("workspace_noops.json", ["free", "--theory", "PHI1", "--space", "AB"]),
    "noops-monad-laws-PHI1": ("workspace_noops.json", ["monad-laws", "--theory", "PHI1", "--space", "AB"]),
}


def run_case(case_id: str) -> dict:
    workspace, args = CASES[case_id]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--workspace", str(FIXTURES / workspace), *args])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_matches_golden(case_id):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case_id]
    assert run_case(case_id) == expected


def test_fixture_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


def test_saturations_are_left_as_built(monkeypatch):
    # what a saturation holds when it returns, to be compared when main returns
    def state(db):
        return dict(db.dmin), list(db._parent), list(db.events), db.instances

    built = []

    def watched(build, db_of=lambda result: result):
        def call(*args, **kwargs):
            result = build(*args, **kwargs)
            built.append((db_of(result), state(db_of(result))))
            return result
        return call

    monkeypatch.setattr(cli, "saturate", watched(cli.saturate))
    monkeypatch.setattr(cli, "build_free", watched(cli.build_free, attrgetter("base")))
    monkeypatch.setattr(monad, "build_free", watched(monad.build_free, attrgetter("base")))
    checked = 0
    for case_id in sorted(CASES):
        run_case(case_id)
        for db, at_return in built[checked:]:
            assert state(db) == at_return, case_id
        checked = len(built)
    assert checked == 32


# runs every case given on stdin as {id: argv} in one process and prints
# {id: {"code", "stdout", "stderr"}}
REPLAY = """
import contextlib, io, json, sys
from qeqlog.cli import main
results = {}
for case_id, argv in json.load(sys.stdin).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results[case_id] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
json.dump(results, sys.stdout)
"""


def _python310() -> str | None:
    """A ``python3.10`` that starts, or None: the one on PATH, then any
    installed under pyenv (whose PATH shim may refuse to run it)."""
    probe = "import sys; sys.exit(sys.version_info[:2] != (3, 10))"
    pyenv = sorted(pathlib.Path.home().glob(".pyenv/versions/3.10*/bin/python3.10"))
    for path in [shutil.which("python3.10"), *map(str, pyenv)]:
        if path and subprocess.run([path, "-c", probe], capture_output=True, timeout=60).returncode == 0:
            return path
    return None


def test_oldest_supported_python_matches_golden():
    # pyproject.toml declares requires-python >= 3.10
    python = _python310()
    if python is None:
        pytest.skip("no python3.10 that starts")
    argvs = {case_id: ["--workspace", str(FIXTURES / ws), *args] for case_id, (ws, args) in CASES.items()}
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent.parent / "src")}
    proc = subprocess.run([python, "-c", REPLAY], input=json.dumps(argvs), capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(GOLDEN.read_text(encoding="utf-8"))


def record_missing() -> int:
    """Add the cases missing from the fixture; refuse to change any other."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    dropped = sorted(set(golden) - set(CASES))
    changed = sorted(c for c in golden if c in CASES and run_case(c) != golden[c])
    if dropped or changed:
        for what, ids in (("has no case", dropped), ("differs", changed)):
            if ids:
                print(f"recorded output {what}: {', '.join(ids)}", file=sys.stderr)
        print(f"{GOLDEN} left unchanged", file=sys.stderr)
        return 1
    missing = sorted(set(CASES) - set(golden))
    golden.update((case_id, run_case(case_id)) for case_id in missing)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"added {len(missing)} cases to {GOLDEN}: {', '.join(missing) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(record_missing())
