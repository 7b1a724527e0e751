"""The CLI as a process: ``python -m qeqlog.cli`` against in-process ``main()``.

``cli.run`` ends the process without the interpreter's teardown, so these
tests check what only a child process shows: the same stdout bytes and exit
code as ``main()`` on the same command line, a large report that arrives
whole through a pipe, and a report, a help text or a usage error that cannot
be written, which is exit 2 with one error line where stderr takes it,
whether Python buffers stdout or not. No subcommand loads ``fractions``.
"""
from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import qeqlog.cli as cli
from conftest import error_line
from test_cli_golden import CASES, FIXTURES
from test_deduce import CHAIN_JUDGMENT, distance_chain

ROOT = FIXTURES.parent.parent
WS = str(FIXTURES / "workspace.json")
SMALL = ["--workspace", WS, *CASES["distance-QUARTER"][1]]


@pytest.fixture(scope="module")
def large(tmp_path_factory) -> list[str]:
    """A ``free`` query whose report is over 64 KB: {u/1, f/2} over two
    points at depth 3, 74 classes."""
    path = tmp_path_factory.mktemp("ws") / "ws.json"
    path.write_text(json.dumps({
        "grid": 4, "signature": {"ops": {"u": 1, "f": 2}}, "spec": {"preset": "FREL"},
        "spaces": {"S": {"carrier": ["a", "b"], "dist": [["0", "1/2"], ["1/2", "0"]]}},
        "theories": {"EMPTY": []},
    }))
    return ["--workspace", str(path), "free", "--theory", "EMPTY", "--space", "S"]


def in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``main(argv)``, with the code of a
    ``SystemExit`` it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def child(argv: list[str], unbuffered: bool, stdout=subprocess.PIPE,
          stderr=subprocess.PIPE, timeout: float = 120, cap: int | None = None,
          program: tuple[str, ...] = ("-m", "qeqlog.cli")) -> subprocess.CompletedProcess:
    """The CLI run as a process, or another ``program`` of the interpreter;
    ``cap``, when given, limits its address space to that many bytes, so
    that a runaway fails fast on its own."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, *program, *argv], stdout=stdout,
                          stderr=stderr, env=env, timeout=timeout,
                          preexec_fn=None if cap is None else limit)


@pytest.mark.parametrize("argv, code", [
    (SMALL, 0),
    (["--workspace", WS, *CASES["derive-QUARTER-not"][1]], 1),
    (["--workspace", WS, *CASES["check-model-unknown"][1]], 2),
    (["--help"], 0),
    (["--workspace", WS, "distance", "--theory", "QUARTER"], 2),
], ids=["holds", "fails", "error", "help", "usage"])
def test_child_prints_what_main_prints(argv, code):
    expected = in_process(argv)
    assert expected[0] == code
    done = child(argv, unbuffered=False)
    assert (done.returncode, done.stdout, done.stderr) == expected


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_large_report_arrives_whole_through_a_pipe(large, unbuffered):
    code, out, err = in_process(large)
    assert (code, err) == (0, b"") and len(out) > 64 * 1024
    done = child(large, unbuffered)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def merge_chain(directory: pathlib.Path, n: int) -> list[str]:
    """``derive --trace`` of c0 = c<n-1> under the axioms c_i = c_{i+1}
    over an empty context: FREL at grid 2 and depth 1, over one point. The
    proof is a TRANS chain, and the trace is n levels deep."""
    path = directory / f"chain{n}.json"
    path.write_text(json.dumps({
        "grid": 2, "signature": {"ops": {f"c{i}": 0 for i in range(n)}},
        "spec": {"preset": "FREL"}, "budgets": {"depth": 1},
        "spaces": {"E": {"carrier": [], "dist": []}, "P": {"carrier": ["p"], "dist": [["0"]]}},
        "theories": {"CHAIN": [{"context": "E", "lhs": f"c{i}", "rhs": f"c{i + 1}"}
                               for i in range(n - 1)]},
    }))
    judgment = json.dumps({"context": "P", "lhs": "c0", "rhs": f"c{n - 1}"})
    return ["--workspace", str(path), "derive", "--theory", "CHAIN", "--target", "P",
            "--judgment", judgment, "--trace"]


# past the trace's depth limit the query is refused before a byte is
# written; within it, the report is the one printed before the limit existed
def test_trace_past_the_depth_limit_is_exit_2(tmp_path):
    done = child(merge_chain(tmp_path, 498), unbuffered=False)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (b"error: trace: the derivation is nested 498 levels deep,"
                           b" more than the limit of 400\n")


def test_trace_within_the_depth_limit_is_printed_whole(tmp_path):
    done = child(merge_chain(tmp_path, 300), unbuffered=False)
    assert (done.returncode, done.stderr) == (0, b"")
    assert (len(done.stdout), hashlib.sha256(done.stdout).hexdigest()) == (
        3688868, "44c3725b17d80fec5c8ecb46d0e183434012764623f2c11a741cc51f84ceda9a")


# inputs that once ran away, each now answered or refused in well under its
# timeout: a fine grid that the free report formatted value by value (30 s and
# 3.2 GB at q = 40,000,000), a universe counted to its full depth before the
# limit was checked (1.3 s at depth 24, about three times that per level
# deeper), and a UMP candidate count that str refused to print
def test_free_on_a_fine_grid_answers_at_once():
    args = ["--depth", "2", "free", "--theory", "EMPTY", "--space", "AB"]
    coarse = in_process(["--workspace", WS, *args])
    done = child(["--workspace", WS, "--grid", "40000000", *args], unbuffered=False, timeout=10)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.replace(b'"grid": 40000000', b'"grid": 4') == coarse[1]


def test_deep_universe_is_refused_at_once(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "grid": 4, "signature": {"ops": {"f": 2}}, "spec": {"preset": "FREL"},
        "spaces": {"S": {"carrier": ["a", "b"], "dist": [["1", "1"], ["1", "1"]]}},
        "theories": {"EMPTY": []},
    }))
    done = child(["--workspace", str(path), "--depth", "30", "distance", "--theory", "EMPTY",
                  "--target", "S", "--lhs", "a", "--rhs", "b"], unbuffered=False, timeout=10)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (b"error: universe: depth 30 has at least the 2090918 terms of depth 5,"
                           b" more than the limit of 131072\n")


def test_ump_past_str_is_refused_by_its_budget(tmp_path):
    # 2,047 classes ({u/1, v/1}, one point, FREL, depth 11) into 127 points
    points = [f"p{i}" for i in range(127)]
    path = tmp_path / "ump.json"
    path.write_text(json.dumps({
        "grid": 4, "signature": {"ops": {"u": 1, "v": 1}}, "spec": {"preset": "FREL"},
        "budgets": {"depth": 11}, "spaces": {"G": {"carrier": ["g"], "dist": [["0"]]}},
        "theories": {"EMPTY": []},
        "algebras": {"BIG": {"space": {"carrier": points, "dist": [["0"] * 127] * 127},
                             "ops": {op: {p: p for p in points} for op in ("u", "v")}}},
    }))
    done = child(["--workspace", str(path), "ump", "--theory", "EMPTY", "--space", "G",
                  "--algebra", "BIG", "--map", '{"g": "p0"}'], unbuffered=False, timeout=10)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: 127**2047 candidate maps exceed budget 1000000\n"


# inputs that once ran away or printed the interpreter's limit on integer
# strings, each refused now with one error line, in a child held to 512 MB:
# a huge arity gave no result in 20 s, or that limit's message, or over one
# point 3.0 GB of max RSS; the 8-variable clause walked 12**8 assignments;
# and a number past 4,300 digits printed "Exceeds the limit (4300 digits)
# ... use sys.set_int_max_str_digits()"
CAP = 512 * 2**20
DISTANCE = ["distance", "--theory", "EMPTY", "--target", "T", "--lhs", "a", "--rhs", "a"]
FREE = ["free", "--theory", "EMPTY", "--space", "T"]
THREE = {"carrier": ["a", "b", "c"],
         "dist": [["0" if i == j else "1" for j in range(3)] for i in range(3)]}
ONE = {"carrier": ["a"], "dist": [["0"]]}
ARITY_LIMIT = b"error: signature: f takes 100000000 arguments, more than the limit of 131072\n"


@pytest.mark.parametrize("arity, target, algebra, args, stderr", [
    (10**5, THREE, False, ["--depth", "2", *DISTANCE],
     b"error: universe: depth 2 has 3 + 3**100000 terms, more than the limit of 131072\n"),
    (10**5, THREE, False, ["--depth", "1", *FREE],
     b"error: free algebra over 3 classes: the tables up to f hold 3**100000 entries,"
     b" more than the budget of 2000000\n"),
    (10**8, THREE, False, ["--depth", "2", *DISTANCE], ARITY_LIMIT),
    (10**8, THREE, False, ["--depth", "1", *FREE], ARITY_LIMIT),
    (10**8, THREE, True, ["check-model", "--theory", "EMPTY", "--algebra", "A"],
     b"error: table for 'f' is not total\n"),
    (10**8, ONE, False, ["--depth", "2", *DISTANCE], ARITY_LIMIT),
], ids=["universe-count", "free-tables", "universe-arity", "free-arity", "algebra-table",
        "one-point-arity"])
def test_huge_arity_is_refused_at_once(tmp_path, arity, target, algebra, args, stderr):
    path = tmp_path / "arity.json"
    path.write_text(json.dumps({
        "grid": 4, "signature": {"ops": {"f": arity}}, "spec": {"preset": "MET"},
        "spaces": {"T": target}, "theories": {"EMPTY": []},
        "algebras": {"A": {"space": THREE, "ops": {"f": {"a": "a"}}}} if algebra else {},
    }))
    done = child(["--workspace", str(path), *args], unbuffered=False, timeout=10, cap=CAP)
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", stderr)


def test_wide_clause_is_refused_before_its_walk(tmp_path):
    points = [f"p{i}" for i in range(12)]
    chain = [f"v{i}" for i in range(8)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "grid": 2, "signature": {"ops": {"u": 1}},
        "spec": {"clauses": [{"name": "chain8", "vars": chain,
                              "premises": [{"dist": [x, y, "1/2"]} for x, y in zip(chain, chain[1:])],
                              "conclusion": {"dist": ["v0", "v7", "1"]}}]},
        "spaces": {"T": {"carrier": points,
                         "dist": [["0" if p == r else "1" for r in points] for p in points]}},
        "theories": {"EMPTY": []},
    }))
    done = child(["--workspace", str(path), "--depth", "1", "--budget-instances", "1000",
                  "distance", "--theory", "EMPTY", "--target", "T", "--lhs", "p0", "--rhs", "p1"],
                 unbuffered=False, timeout=10, cap=CAP)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (b"error: clause 'chain8' over 12 points: 12**8 assignments,"
                           b" more than the limit of 4194304\n")


LONG = "1" + "0" * 4999


@pytest.mark.parametrize("edit, stderr", [
    (lambda text: text.replace('"grid": 4', f'"grid": {LONG}'),
     b"a number in the workspace JSON is 5000 characters long"),
    (lambda text: text.replace('"grid": 4', f'"grid": "{LONG}"'), b"grid is 5000 characters long"),
    (lambda text: text.replace('["0", "1/2"]', f'["0", "1/{LONG}"]', 1),
     b"distance is 5002 characters long"),
    (lambda text: text.replace('"eps": "0"', f'"eps": "0/{LONG}"'), b"eps is 5002 characters long"),
    (lambda text: text.replace('{"preset": "MET"}', json.dumps({"clauses": [
        {"name": "far", "vars": ["x"], "premises": [],
         "conclusion": {"dist": ["x", "x", f"1/{LONG}"]}}]})),
     b"clause constant is 5002 characters long"),
], ids=["json-number", "grid", "distance", "eps", "clause-constant"])
def test_overlong_number_is_refused_by_name(tmp_path, edit, stderr):
    text = pathlib.Path(WS).read_text(encoding="utf-8")
    path = tmp_path / "long.json"
    path.write_text(edit(text))
    assert path.read_text() != text
    done = child(["--workspace", str(path), *CASES["distance-QUARTER"][1]], unbuffered=False,
                 timeout=10, cap=CAP)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: " + stderr + b", more than the limit of 4300\n"


@pytest.mark.parametrize("option", ["grid", "depth", "budget-interps", "budget-instances"])
def test_overlong_option_is_refused_by_name(option):
    done = child(["--workspace", WS, f"--{option}", LONG + "0", *CASES["distance-QUARTER"][1]],
                 unbuffered=False, timeout=10, cap=CAP)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (f"error: option --{option} is 5001 characters long, more than the"
                           f" limit of 4300\n").encode()


def distance_ab(lhs: str = "a", theory: str = "EMPTY") -> list[str]:
    return ["distance", "--theory", theory, "--target", "AB", "--lhs", lhs, "--rhs", "b"]


FAR = {"name": "far", "vars": ["x"], "premises": [],
       "conclusion": {"dist": ["x", "x", ["1/2"] * 3000]}}
LONG_CARRIER = {"carrier": "c" * 10000, "dist": [["0", "1/2"], ["1/2", "0"]]}
DEEP = "u(" * 20000 + "a" + ")" * 20000
OPTION = "--" + "z" * 60000


# an error that quotes a long input prints one bounded line, where each of
# these printed the input whole, in 10 KB to 120 KB of stderr; a term and a
# clause constant are quoted from their first 2,000 characters or items
@pytest.mark.parametrize("edit, argv, last_line", [
    (lambda ws: ws.update(spec={"clauses": [FAR]}), distance_ab(),
     error_line(f"bad epsilon expression: {['1/2'] * 2000!r}").encode()),
    (lambda ws: ws["spaces"].update(AB=LONG_CARRIER), distance_ab(),
     error_line("malformed workspace: space carrier, dist and its rows must be JSON"
                f" lists: {dict(LONG_CARRIER, carrier='c' * 2000)!r}").encode()),
    (None, distance_ab(lhs=DEEP), error_line(f"{DEEP} is outside the depth-3 universe").encode()),
    (None, distance_ab(lhs="n" * 60000),
     error_line(f"unknown name {'n' * 2000!r} in {'n' * 2000!r}").encode()),
    (None, distance_ab(theory="T" * 50000), error_line(f"unknown theory {'T' * 2000!r}").encode()),
    (None, [OPTION, *distance_ab()],
     error_line(f"unrecognized option {OPTION[:2000]!r}", "qeqlog: error: ").encode()),
    (None, ["distance", "--theory", "EMPTY", "--target", "S" * 50000, "--lhs", "a", "--rhs", "b"],
     error_line(f"unknown space {'S' * 2000!r}").encode()),
    (None, ["x" * 60000], error_line(
        f"unknown subcommand {'x' * 2000!r}, not one of " + ", ".join(cli._COMMANDS),
        "qeqlog: error: ").encode()),
    (None, ["ump", "--theory", "EMPTY", "--space", "AB", "--algebra", "swap",
            "--map", json.dumps({"k" * 50000: "a"})],
     error_line(f"generator map has a key {'k' * 2000!r} that is not a point of the"
                " space").encode()),
], ids=["clause-constant", "carrier", "deep-lhs", "long-name", "long-theory", "long-option",
        "long-target", "long-subcommand", "long-map-key"])
def test_error_quoting_a_long_input_is_one_bounded_line(tmp_path, edit, argv, last_line):
    path = tmp_path / "ws.json"
    ws = json.loads(pathlib.Path(WS).read_text(encoding="utf-8"))
    if edit is not None:
        edit(ws)
    path.write_text(json.dumps(ws))
    done = child(["--workspace", str(path), *argv], unbuffered=False, timeout=10, cap=CAP)
    assert (done.returncode, done.stdout) == (2, b"")
    # a usage error also prints its usage line first
    lines = done.stderr.splitlines(keepends=True)
    assert (len(lines), lines[-1]) == (1 + last_line.startswith(b"qeqlog: "), last_line)
    assert len(last_line) < 2100


# an error quotes an outside value through terms.quoted, never its whole
# repr; only a record prints its fields' repr
def test_errors_quote_inputs_through_quoted():
    sources = sorted((ROOT / "src" / "qeqlog").glob("*.py"))
    assert [p.name for p in sources if "!r}" in p.read_text(encoding="utf-8")] == ["_record.py"]


# the library's default budgets, which the CLI's are, refuse these calls at
# once, where an unbounded call ran out of memory
LIBRARY = """
from qeqlog import FREL, BudgetExceeded, EpsGrid, FuzzySpace, Signature, Theory
from qeqlog import build_free, enumerate_nonexpansive

pair = FuzzySpace(EpsGrid(2), ("a", "b"), ((0, 1), (1, 0)))
eight = FuzzySpace(EpsGrid(2), tuple("abcdefgh"),
                   tuple(tuple(2 * (i != j) for j in range(8)) for i in range(8)))
try:
    {call}
except BudgetExceeded as exc:
    print(exc)
"""


@pytest.mark.parametrize("call, message", [
    ("build_free(Signature.of({'f': 3}), Theory('E', ()), FREL, pair, 3)",
     "free algebra over 1002 classes: the tables up to f hold 1006012008 entries, more than"
     " the budget of 2000000"),
    ("enumerate_nonexpansive(eight, eight)",
     "16777216 candidate interpretations exceed budget 1000000"),
], ids=["build-free", "enumerate-nonexpansive"])
def test_library_call_without_a_budget_is_refused_at_once(call, message):
    done = child([], unbuffered=False, timeout=10, cap=CAP,
                 program=("-c", LIBRARY.format(call=call)))
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{message}\n".encode(), b"")


# a trace is built on its own stack: 1,000 merges, 1,002 levels, are refused
# with their depth, where a frame per level crashed from 246
def test_distance_chain_past_the_depth_limit_is_exit_2(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(distance_chain(1000)))
    done = child(["--workspace", str(path), "derive", "--theory", "CHAIN", "--target", "P",
                  "--judgment", json.dumps(CHAIN_JUDGMENT), "--trace"],
                 unbuffered=False, timeout=10, cap=CAP)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (b"error: trace: the derivation is nested 1002 levels deep,"
                           b" more than the limit of 400\n")


# a guard against a trace that takes a frame per proof level: under a
# recursion limit of 100 or 150, the 100-merge chain's trace, 102 levels deep,
# is built
GUARD = """
import json, sys
from qeqlog.cli import Workspace
from qeqlog.deduce import saturate, trace
from qeqlog.qalg import Judgment

ws = Workspace.from_json(json.loads(sys.argv[1]))
db = saturate(ws.sig, ws.theories["CHAIN"], ws.spec, ws.spaces["P"], ws.depth)
judgment = Judgment.from_json(json.loads(sys.argv[2]), ws.sig, ws.grid, ws.spaces)
sys.setrecursionlimit(int(sys.argv[3]))
print(trace(db, judgment).conclusion)
"""


@pytest.mark.parametrize("limit", [100, 150])
def test_trace_takes_no_frame_per_proof_level(limit):
    done = subprocess.run([sys.executable, "-c", GUARD, json.dumps(distance_chain(100)),
                           json.dumps(CHAIN_JUDGMENT), str(limit)], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"c00000 =1/2 k\n", b"")


@contextlib.contextmanager
def closed_pipe():
    """The write end of a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    try:
        yield write
    finally:
        os.close(write)


@contextlib.contextmanager
def full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as sink:
        yield sink


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("report", ["small", "large"])
@pytest.mark.parametrize("sink", [closed_pipe, full_device], ids=["closed-pipe", "full"])
def test_report_that_cannot_be_written_is_exit_2(large, sink, report, unbuffered):
    with sink() as stdout:
        done = child(SMALL if report == "small" else large, unbuffered, stdout)
    lines = done.stderr.decode().splitlines()
    assert done.returncode == 2, lines
    assert len(lines) == 1 and lines[0].startswith("error: [Errno"), lines


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["distance", "--help"]], ids=["top", "subcommand"])
def test_help_into_a_closed_pipe_is_exit_2(argv, unbuffered):
    with closed_pipe() as stdout:
        done = child(argv, unbuffered, stdout)
    lines = done.stderr.decode().splitlines()
    assert done.returncode == 2, lines
    assert len(lines) == 1 and lines[0].startswith("error: [Errno"), lines


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_usage_error_with_stderr_closed_is_exit_2(unbuffered):
    # a traceback would end the process with exit 1 or 120
    with closed_pipe() as stderr:
        done = child(["--workspace", WS, "distance", "--theory", "QUARTER"], unbuffered,
                     stderr=stderr)
    assert (done.returncode, done.stdout) == (2, b"")


# one case of each subcommand on the fixture workspace, run in one child
NO_FRACTIONS_CASES = ["distance-QUARTER", "derive-QUARTER-trace", "free-QUARTER",
                      "check-model-swap-EMPTY", "entail-holds", "ump-EMPTY", "em-check-EMPTY",
                      "monad-laws-EMPTY"]


def test_no_subcommand_loads_fractions(tmp_path):
    # one more input: a custom spec whose only bound is the parameter e
    symm = {"clauses": [{"name": "symm", "vars": ["x", "y"],
                         "premises": [{"dist": ["x", "y", "e"]}],
                         "conclusion": {"dist": ["y", "x", "e"]}}]}
    custom = tmp_path / "ws.json"
    custom.write_text(json.dumps({**json.loads(pathlib.Path(WS).read_text(encoding="utf-8")),
                                  "spec": symm}))
    cases = {**{case: ["--workspace", WS, *CASES[case][1]] for case in NO_FRACTIONS_CASES},
             "distance-custom-spec": ["--workspace", str(custom), *CASES["distance-QUARTER"][1]]}
    code = (
        "import contextlib, io, json, sys\n"
        "import qeqlog.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        qeqlog.cli.main(argv)\n"
        "    print('fractions' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(list(cases.values()))],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    assert dict(zip(cases, done.stdout.split())) == dict.fromkeys(cases, "False")


def test_installed_command_is_run():
    tomllib = pytest.importorskip("tomllib")  # 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"qeqlog": "qeqlog.cli:run"}


def test_main_block_calls_run():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    block = tree.body[-1]
    assert ast.unparse(block.test) == "__name__ == '__main__'"
    assert [ast.unparse(stmt) for stmt in block.body] == ["run()"]
