"""The CLI's argv reader: against the argparse reference, its errors, its
help, and the modules a query leaves unimported."""
from __future__ import annotations

import contextlib
import io
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qeqlog.cli import COMMANDS, GLOBALS, main, parse_args
from reference_parser import build_parser

WS = str(pathlib.Path(__file__).parent / "fixtures" / "workspace.json")
OPTIONS = {name: options.split() for name, _, _, options in COMMANDS}
REFERENCE = build_parser()

STR_VALUES = st.sampled_from(["ws.json", "a", "u(a)", "AB", "-", "", "-1", "x y", "-x y", "a=b",
                              '{"a": "p"}', "distance", "3"])
INT_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["x", "1.5", "-1.5", "", " 3", "+4", "1_0", "-3 ", "0x10", "-x", "--"]))
# tokens that no option takes, or that take the value away from the option before them
JUNK = [["--bogus"], ["--zz=1"], ["extra"], ["-x"], ["--depth", "3"], ["--workspace", "ws"],
        ["--trace=x"], ["--t"], ["--budget"]]


def read(parse, argv):
    """(exit code or None, namespace fields or None, stderr) of one reading."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            return None, vars(parse(argv)), err.getvalue()
        except SystemExit as stop:
            return stop.code, None, err.getvalue()


@st.composite
def option(draw, name, values):
    """One option as one or two tokens: ``--name value`` or ``--name=value``,
    the name sometimes cut to a prefix (which may be ambiguous)."""
    if draw(st.integers(0, 3)) == 0:
        name = name[:draw(st.integers(1, len(name)))]
    if values is None:
        return [f"--{name}"]
    value = draw(values)
    return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]


@st.composite
def argvs(draw):
    tokens = []
    names = draw(st.lists(st.sampled_from(list(GLOBALS)), max_size=5))
    if draw(st.integers(0, 5)):
        names.insert(draw(st.integers(0, len(names))), "workspace")
    for name in names:
        tokens += draw(option(name, STR_VALUES if GLOBALS[name] is str else INT_VALUES))
    command = draw(st.sampled_from([*OPTIONS, *OPTIONS, "nope", None]))
    if command is None:
        return tokens
    tokens.append(command)
    sub = []
    for name in draw(st.permutations(OPTIONS.get(command, ["theory"]))):
        # drop an option now and then, and repeat one now and then
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 1, 2]))):
            sub.append(draw(option(name, None if name == "trace" else STR_VALUES)))
    if draw(st.integers(0, 3)) == 0:
        sub.insert(draw(st.integers(0, len(sub))), draw(st.sampled_from(JUNK)))
    tokens += [token for part in sub for token in part]
    if draw(st.integers(0, 5)) == 0:
        # a trailing option with no value
        tokens.append("--" + draw(st.sampled_from([*OPTIONS.get(command, []), "depth", "lhs"])))
    return tokens


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_reads_as_the_reference_does(argv):
    ref_code, ref_fields, _ = read(REFERENCE.parse_args, argv)
    code, fields, err = read(parse_args, argv)
    # argparse drops the "--" of --depth=-- and reads the value as [], which
    # the workspace then refuses; the reader refuses "--" as not an integer
    if any(token.endswith("=--") for token in argv):
        ref_code = 2
    if ref_code is None:
        assert (code, fields) == (None, ref_fields)
    else:
        assert ref_code == code == 2
        usage, error = err.splitlines()
        assert usage.startswith("usage: qeqlog ")
        assert re.match(r"qeqlog( [a-z-]+)?: error: \S", error)


DISTANCE = ["distance", "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b"]


@pytest.mark.parametrize("argv", [
    ["--workspace", WS, *DISTANCE],
    ["--workspace=" + WS, "distance", "--theory=EMPTY", "--target", "AB", "--lhs=a", "--rhs", "b"],
    ["--work", WS, "--dep", "2", "distance", "--th", "EMPTY", "--ta=AB", "--l", "a", "--r", "b"],
    ["--workspace", "other.json", "--depth", "1", "--workspace", WS, "--depth", "2", "distance",
     "--theory", "X", "--target", "AB", "--lhs", "a", "--rhs", "b", "--theory", "EMPTY"],
])
def test_accepted_forms(argv):
    args = parse_args(argv)
    assert (args.workspace, args.theory, args.target, args.lhs, args.rhs) == (
        WS, "EMPTY", "AB", "a", "b")
    assert args.command == "distance" and args.named == ["theory", "target"]


def test_int_flags_read_with_int():
    args = parse_args(["--depth", "-3", "--grid", " 4", "--budget-interps=+5",
                       "--budget-instances", "1_000", "--workspace", WS, *DISTANCE])
    assert (args.depth, args.grid, args.budget_interps, args.budget_instances) == (-3, 4, 5, 1000)


def test_trace_is_a_switch():
    j = '{"context": "AB", "lhs": "a", "rhs": "b"}'
    assert parse_args(["--workspace", WS, "derive", "--theory", "EMPTY", "--target", "AB",
                       "--judgment", j]).trace is False
    assert parse_args(["--workspace", WS, "derive", "--tr", "--theory", "EMPTY",
                       "--target", "AB", "--judgment", j]).trace is True


# each rejection names the option or subcommand at fault
@pytest.mark.parametrize("argv, prog, fault", [
    (DISTANCE, "qeqlog", "--workspace"),
    (["--workspace", WS], "qeqlog", "subcommand"),
    (["--workspace", WS, "distanse"], "qeqlog", "'distanse'"),
    (["--workspace", WS, *DISTANCE[:-2]], "qeqlog distance", "--rhs"),
    (["--workspace", WS, *DISTANCE, "--bogus", "1"], "qeqlog distance", "'--bogus'"),
    (["--workspace", WS, *DISTANCE, "--depth", "2"], "qeqlog distance", "'--depth'"),
    (["--workspace", WS, *DISTANCE, "--rhs"], "qeqlog distance", "--rhs"),
    (["--workspace", WS, "--grid", "1/2", *DISTANCE], "qeqlog", "--grid"),
    (["--workspace", WS, "--grid", "-x", *DISTANCE], "qeqlog", "--grid"),
    (["--workspace", WS, "--budget", "1", *DISTANCE], "qeqlog", "'--budget'"),
    (["--workspace", WS, *DISTANCE, "--t", "EMPTY"], "qeqlog distance", "'--t'"),
    (["--workspace", WS, *DISTANCE, "stray"], "qeqlog distance", "'stray'"),
    (["--workspace", WS, "derive", "--trace=yes"], "qeqlog derive", "--trace"),
])
def test_rejection_names_the_fault(capsys, argv, prog, fault):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert stop.value.code == 2 and captured.out == ""
    assert usage.startswith(f"usage: {prog} ") and error.startswith(f"{prog}: error: ")
    assert fault in error


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], ["--workspace", WS, "-h"],
                                  ["--workspace", WS, "--help", "distance"]])
def test_top_level_help(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out = capsys.readouterr().out
    assert stop.value.code == 0 and out.startswith("usage: qeqlog [-h] --workspace WORKSPACE ")
    for name, _, about, _ in COMMANDS:
        assert f"  {name}" in out and about in out
    for flag in GLOBALS:
        assert f"  --{flag}" in out


def test_help_comes_before_the_required_check(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["distance", "--lhs", "a", "-h"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qeqlog distance [-h] --theory THEORY ")


def test_a_query_imports_no_argparse():
    """A CLI call pays for its query only: reading argv imports neither
    argparse nor gettext. Without ``site`` (-S), what is imported is the
    program's own doing."""
    script = ("import sys\n"
              "from qeqlog.cli import main\n"
              f"code = main({['--workspace', WS, *DISTANCE]!r})\n"
              "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))\n")
    src = str(pathlib.Path(__file__).parents[1] / "src")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"
