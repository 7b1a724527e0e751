from __future__ import annotations

import io
import json
import pathlib
import re
import sys
import tracemalloc

import pytest

import qeqlog.cli as cli
import qeqlog.monad as monad
from qeqlog.cli import COMMANDS, main

from conftest import error_line


WS = str(pathlib.Path(__file__).parent / "fixtures" / "workspace.json")
WS_NOOPS = str(pathlib.Path(__file__).parent / "fixtures" / "workspace_noops.json")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    assert out, f"no stdout; stderr was {err!r}"
    return code, json.loads(out)


class _CountingRaw(io.RawIOBase):
    """A raw stream that keeps what is written and counts the writes."""

    def __init__(self):
        self.data, self.writes = bytearray(), 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.data += b
        self.writes += 1
        return len(b)


def _edited(tmp_path, keys, value) -> str:
    """The path of a copy of the fixture workspace with the entry at ``keys``
    set to ``value`` (the whole workspace for no keys)."""
    ws = json.loads(pathlib.Path(WS).read_text(encoding="utf-8"))
    if keys:
        node = ws
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    else:
        ws = value
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    return str(path)


class TestCheckModel:
    def test_model_exit_zero(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS, "check-model", "--algebra", "swap",
            "--theory", "EMPTY",
        )
        assert code == 0 and report["model"] is True
        assert report["grid"] == 4 and "skipped_overflow" in report

    def test_swap_models_quarter_theory(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS, "check-model", "--algebra", "stay",
            "--theory", "QUARTER",
        )
        assert code == 0 and report["model"] is True

    def test_counterexample_exit_one(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS, "check-model", "--algebra", "swap",
            "--theory", "PHI1",
        )
        assert code == 1
        assert report["model"] is False
        assert report["counterexample"]["interpretation"] == {"a": "p", "b": "q"}

    def test_missing_name_exit_two(self, capsys):
        code, out, err = run(
            capsys, "--workspace", WS, "check-model", "--algebra", "nope",
            "--theory", "EMPTY",
        )
        assert code == 2 and "nope" in err


class TestDerive:
    def test_derivable_judgment(self, capsys):
        j = json.dumps({"context": "AB", "lhs": "a", "rhs": "b", "eps": None})
        code, report = run_json(
            capsys, "--workspace", WS, "derive", "--theory", "PHI1",
            "--target", "AB", "--judgment", j,
        )
        assert code == 0
        assert report["derivable"] is True and report["distance"] == "0"

    def test_not_derivable_exit_one(self, capsys):
        j = json.dumps({"context": "AB", "lhs": "u(a)", "rhs": "b", "eps": "1/2"})
        code, report = run_json(
            capsys, "--workspace", WS, "derive", "--theory", "QUARTER",
            "--target", "AB", "--judgment", j,
        )
        assert code == 1
        assert report["derivable"] is False and report["distance"] == "3/4"

    def test_trace_output(self, capsys):
        j = json.dumps({"context": "AB", "lhs": "u(a)", "rhs": "b", "eps": "3/4"})
        code, report = run_json(
            capsys, "--workspace", WS, "derive", "--theory", "QUARTER",
            "--target", "AB", "--judgment", j, "--trace",
        )
        assert code == 0
        assert report["trace"][0]["rule"] == "HORN"

    def test_judgment_from_file(self, capsys, tmp_path):
        p = tmp_path / "j.json"
        p.write_text(json.dumps({"context": "AB", "lhs": "a", "rhs": "a", "eps": "0"}))
        code, report = run_json(
            capsys, "--workspace", WS, "derive", "--theory", "EMPTY",
            "--target", "AB", "--judgment", str(p),
        )
        assert code == 0 and report["derivable"] is True


class TestDistance:
    def test_collapsed_distance_is_zero(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS_NOOPS, "distance", "--theory", "PHI1",
            "--target", "AB", "--lhs", "a", "--rhs", "b",
        )
        assert code == 0 and report["distance"] == "0"

    def test_usevar_distance(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS_NOOPS, "distance", "--theory", "EMPTY",
            "--target", "AB", "--lhs", "a", "--rhs", "b",
        )
        assert code == 0 and report["distance"] == "1/2"

    def test_exact_fraction_strings(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS, "distance", "--theory", "QUARTER",
            "--target", "AB", "--lhs", "u(a)", "--rhs", "b",
        )
        assert report["distance"] == "3/4"


class TestFree:
    def test_classes_and_tables(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS, "--depth", "2", "free",
            "--theory", "EMPTY", "--space", "AB",
        )
        assert code == 0
        assert report["classes"] == ["a", "b", "u(a)", "u(b)"]
        assert report["ops"]["u"]["a"] == "u(a)"
        assert report["ops"]["u"]["u(a)"] == "overflow"
        assert report["unit"] == {"a": "a", "b": "b"}
        assert report["delta"][0][1] == "1/2"
        assert report["model_check"]["failed"] == 0

    def test_fine_grid_formats_only_the_values_held(self, capsys):
        # the report's four distances are on every grid: formatting each of
        # the q + 1 grid values traced 135 MB at q = 2,000,000
        args = ("--depth", "2", "free", "--theory", "EMPTY", "--space", "AB")
        code, coarse = run_json(capsys, "--workspace", WS, *args)
        tracemalloc.start()
        try:
            fine = run(capsys, "--workspace", WS, "--grid", "2000000", *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{peak / 2**20:.1f} MB traced"
        assert (fine[0], fine[2]) == (code, "")
        report = json.loads(fine[1])
        assert (report.pop("grid"), coarse.pop("grid")) == (2_000_000, 4)
        assert report == coarse

    def test_collapse(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS_NOOPS, "free", "--theory", "PHI1",
            "--space", "AB",
        )
        assert code == 0 and report["classes"] == ["a"]

    def test_report_of_many_batches_prints_as_json_dumps(self, capsys, tmp_path, monkeypatch):
        # {u/1, f/2} over two points at depth 3: 74 classes, so the report is
        # written in thousands of chunks
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({
            "grid": 4, "signature": {"ops": {"u": 1, "f": 2}}, "spec": {"preset": "FREL"},
            "spaces": {"S": {"carrier": ["a", "b"], "dist": [["0", "1/2"], ["1/2", "0"]]}},
            "theories": {"EMPTY": []},
        }))
        argv = ["--workspace", str(path), "free", "--theory", "EMPTY", "--space", "S"]
        args = cli.parse_args(argv)
        ws = cli.load_workspace(args.workspace, args)
        args.theory, args.space = ws.theories["EMPTY"], ws.spaces["S"]
        report, _ = cli.cmd_free(ws, args)
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
        count = sum(1 for _ in chunks)
        assert count > 1536
        expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert run(capsys, *argv) == (0, expected, "")
        # under a write-through stdout, as with PYTHONUNBUFFERED, each write
        # reaches the raw stream: the chunks go in batches, then the newline
        raw = _CountingRaw()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8",
                                                          write_through=True))
            assert main(argv) == 0
        assert raw.data.decode() == expected
        assert raw.writes <= -(-count // 512) + 1
        # a query that fails before its report prints nothing on stdout
        code, out, err = run(capsys, "--budget-instances", "1", *argv)
        assert (code, out) == (2, "") and err.startswith("error: ")


class TestEntail:
    def test_vacuous_and_refuted(self, capsys):
        j = json.dumps({"context": "AB", "lhs": "u(a)", "rhs": "a", "eps": None})
        code, _ = run_json(
            capsys, "--workspace", WS, "entail", "--theory", "EMPTY",
            "--judgment", j, "--catalog", "stay",
        )
        assert code == 0
        code, report = run_json(
            capsys, "--workspace", WS, "entail", "--theory", "EMPTY",
            "--judgment", j, "--catalog", "swap,stay",
        )
        assert code == 1 and report["entailed"] is False


class TestMonadLaws:
    def test_no_ops_full_coverage(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS_NOOPS, "monad-laws", "--theory", "EMPTY",
            "--space", "AB",
        )
        assert code == 0
        for law in report["laws"]:
            assert law["failed"] == 0 and law["skipped_overflow"] == 0

    def test_unary_depth_three_reports_skips(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS, "monad-laws", "--theory", "EMPTY",
            "--space", "AB",
        )
        assert code == 0
        assert all(law["failed"] == 0 for law in report["laws"])
        assert report["skipped_overflow"] > 0


class TestUmp:
    def test_swap_fixture(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS, "--depth", "2", "ump",
            "--theory", "EMPTY", "--space", "AB", "--algebra", "swap",
            "--map", '{"a": "p", "b": "q"}',
        )
        assert code == 0
        assert report["exists"] is True and report["unique"] is True

    def test_non_model_target_errors(self, capsys):
        code, out, err = run(
            capsys, "--workspace", WS, "--depth", "2", "ump",
            "--theory", "PHI1", "--space", "AB", "--algebra", "swap",
            "--map", '{"a": "p", "b": "q"}',
        )
        assert code == 2 and "model" in err

    @pytest.mark.parametrize("gen_map, stderr", [
        ('[1]', "error: generator map must be a JSON object, not list\n"),
        ('{"a": "p"}', "error: generator map has no image for 'b'\n"),
        ('{"a": "p", "b": "zz"}',
         "error: generator map sends 'b' to 'zz', which is not a point of the algebra\n"),
        ('{"a": "p", "b": "q", "c": "p"}',
         "error: generator map has a key 'c' that is not a point of the space\n"),
    ])
    def test_bad_map_exit_two(self, capsys, gen_map, stderr):
        code, out, err = run(
            capsys, "--workspace", WS, "--depth", "2", "ump",
            "--theory", "EMPTY", "--space", "AB", "--algebra", "swap", "--map", gen_map,
        )
        assert (code, out, err) == (2, "", stderr)


class TestEmCheck:
    def test_swap_round_trip(self, capsys):
        code, report = run_json(
            capsys, "--workspace", WS, "--depth", "2", "em-check",
            "--theory", "EMPTY", "--algebra", "swap",
        )
        assert code == 0
        assert report["round_trip"] is True
        assert all(law["failed"] == 0 for law in report["laws"])

    def test_laws_checked_once(self, capsys, monkeypatch):
        calls = []
        check = monad.check_em_laws

        def counting(mi, cand):
            calls.append(cand)
            return check(mi, cand)

        monkeypatch.setattr(monad, "check_em_laws", counting)
        code, _ = run_json(
            capsys, "--workspace", WS, "em-check", "--theory", "EMPTY",
            "--algebra", "swap",
        )
        assert code == 0 and len(calls) == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("distance", "--theory", "QUARTER", "--target", "AB", "--lhs", "u(a)", "--rhs", "b"),
            ("free", "--theory", "QUARTER", "--space", "AB"),
            ("monad-laws", "--theory", "EMPTY", "--space", "AB"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, args):
        code1, out1, _ = run(capsys, "--workspace", WS, *args)
        code2, out2, _ = run(capsys, "--workspace", WS, *args)
        assert code1 == code2
        assert out1 == out2


class TestBudgets:
    DISTANCE = ("distance", "--theory", "QUARTER", "--target", "AB", "--lhs", "u(a)", "--rhs", "b")
    CHECK = ("check-model", "--algebra", "stay", "--theory", "QUARTER")

    def test_instances_flag(self, capsys):
        code, out, err = run(capsys, "--workspace", WS, "--budget-instances", "1", *self.DISTANCE)
        assert code == 2 and out == ""
        assert "considered more than 1 rule instances" in err

    def test_interps_flag(self, capsys):
        code, out, err = run(capsys, "--workspace", WS, "--budget-interps", "1", *self.CHECK)
        assert code == 2 and out == ""
        assert err == "error: 2 candidate interpretations exceed budget 1\n"

    # em-check's model check counts under the interpretation budget, as
    # check-model's does; the instance budget bounds its saturations alone
    EM_CHECK = ("--depth", "2", "em-check", "--theory", "QUARTER", "--algebra", "stay")

    def test_em_check_model_check_counts_interpretations(self, capsys):
        assert run(capsys, "--workspace", WS, "--budget-interps", "1", *self.EM_CHECK) == (
            2, "", "error: 2 candidate interpretations exceed budget 1\n")

    def test_em_check_instance_budget_bounds_the_saturation(self, capsys):
        assert run(capsys, "--workspace", WS, "--budget-instances", "1", *self.EM_CHECK) == (
            2, "", "error: saturation considered more than 1 rule instances in round 0 at USEVAR\n")

    def test_flags_override_workspace_budgets(self, capsys, tmp_path):
        ws = json.loads(pathlib.Path(WS).read_text(encoding="utf-8"))
        ws["budgets"] = {"depth": 1, "interpretations": 1, "instances": 1}
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(ws), encoding="utf-8")
        assert run(capsys, "--workspace", str(path), *self.DISTANCE)[0] == 2
        assert run(capsys, "--workspace", str(path), *self.CHECK)[0] == 2
        code, report = run_json(capsys, "--workspace", str(path), "--depth", "2",
                                "--budget-instances", "100000", *self.DISTANCE)
        assert code == 0 and report["depth"] == 2 and report["distance"] == "3/4"
        code, report = run_json(capsys, "--workspace", str(path), "--budget-interps", "2",
                                *self.CHECK)
        assert code == 0 and report["model"] is True


    # a workspace without budgets runs under the defaults, patched down here
    @pytest.mark.parametrize("budgets", [
        None, {"depth": 3}, {"depth": None, "interpretations": None, "instances": None}])
    def test_defaults_when_the_workspace_sets_none(self, capsys, tmp_path, monkeypatch, budgets):
        monkeypatch.setitem(cli.Workspace._defaults, "budget_instances", 10)
        monkeypatch.setitem(cli.Workspace._defaults, "budget_interps", 1)
        ws = json.loads(pathlib.Path(WS).read_text(encoding="utf-8"))
        if budgets is None:
            del ws["budgets"]
        else:
            ws["budgets"] = budgets
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(ws), encoding="utf-8")
        code, out, err = run(capsys, "--workspace", str(path), *self.DISTANCE)
        assert (code, out) == (2, "") and "considered more than 10 rule instances" in err
        assert run(capsys, "--workspace", str(path), *self.CHECK) == (
            2, "", "error: 2 candidate interpretations exceed budget 1\n")

    # a null depth was a TypeError traceback with exit 1
    def test_null_budgets_read_as_missing(self, capsys, tmp_path):
        path = _edited(tmp_path, ["budgets"], {"depth": None, "interpretations": None,
                                               "instances": None})
        code, out, _ = run(capsys, "--workspace", path, *self.DISTANCE)
        assert code == 0 and (code, out) == run(capsys, "--workspace", WS, *self.DISTANCE)[:2]
        assert json.loads(out)["depth"] == 3


class TestErrors:
    def test_bad_workspace_path(self, capsys):
        code, out, err = run(capsys, "--workspace", "/nonexistent.json",
                             "check-model", "--algebra", "a", "--theory", "t")
        assert code == 2

    def test_off_grid_override(self, capsys):
        # grid 3 cannot represent 1/2 distances from the workspace
        code, out, err = run(
            capsys, "--workspace", WS, "--grid", "3", "distance",
            "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b",
        )
        assert code == 2 and "grid" in err.lower()

    @pytest.mark.parametrize("args, stderr", [
        (["free", "--theory", "EMPTY", "--space", "nope"], "error: unknown space 'nope'\n"),
        (["free", "--theory", "nope", "--space", "AB"], "error: unknown theory 'nope'\n"),
    ])
    def test_unknown_name_exact_message(self, capsys, args, stderr):
        assert run(capsys, "--workspace", WS, *args) == (2, "", stderr)

    # each case sets one part of the fixture workspace to the wrong JSON shape
    @pytest.mark.parametrize("keys, value", [
        (["signature"], []),
        (["spaces"], []),
        (["spaces", "AB", "carrier"], 5),
        (["spaces", "AB", "dist"], None),
        (["theories", "PHI1"], 5),
        (["theories", "PHI1", 0], ["AB", "a", "b"]),
        (["algebras", "swap", "ops"], {"u": 5}),
        (["budgets"], []),
        ([], []),
        # a string is not a list of its characters
        (["spaces", "AB"], {"carrier": "ab", "dist": ["01", "10"]}),
        (["spaces", "AB", "carrier"], "ab"),
        (["spaces", "AB", "dist"], "01"),
        (["spaces", "AB", "dist", 1], "10"),
        # a key left out
        (["spaces", "AB"], {"carrier": ["a", "b"]}),
        (["algebras", "swap"], {"space": {"carrier": ["p"], "dist": [["0"]]}}),
        # a clause atom of the wrong length
        (["spec"], {"clauses": [{"name": "short", "vars": ["x"], "conclusion": {"dist": ["x"]}}]}),
        # a table that is not an object
        (["spaces"], 5),
        (["budgets"], 5),
    ], ids=["signature", "spaces", "carrier", "dist", "theory", "judgment", "ops",
            "budgets", "top-level", "string-space", "string-carrier", "string-dist",
            "string-row", "no-dist", "no-ops", "short-atom", "spaces-number", "budgets-number"])
    def test_wrong_shape_is_an_error(self, capsys, tmp_path, keys, value):
        code, out, err = run(capsys, "--workspace", _edited(tmp_path, keys, value), "distance",
                             "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b")
        assert (code, out) == (2, "") and err.startswith("error: malformed workspace: ")

    # a null key printed Python's own words, under --depth too, which writes
    # into "budgets"
    @pytest.mark.parametrize("override", [[], ["--depth", "2"]], ids=["", "depth"])
    @pytest.mark.parametrize("keys, stderr", [
        *(([key], f"error: malformed workspace: '{key}' is null\n")
          for key in ("grid", "signature", "spec", "budgets", "spaces", "theories", "algebras")),
        (["signature", "ops", "u"], "error: arity of 'u' is not an integer: None\n"),
        # below the top level, by the entry and the key
        *((keys, f"error: malformed workspace: {name} is null\n") for keys, name in (
            (["signature", "ops"], "signature: 'ops'"),
            (["spec", "clauses"], "spec: 'clauses'"),
            (["spaces", "AB"], "space 'AB'"),
            (["spaces", "AB", "dist"], "space 'AB': 'dist'"),
            (["theories", "EMPTY"], "theory 'EMPTY'"),
            (["theories", "PHI1", 0], "theory 'PHI1': judgment 0"),
            (["algebras", "swap"], "algebra 'swap'"),
            (["algebras", "swap", "ops"], "algebra 'swap': 'ops'"))),
    ], ids=["grid", "signature", "spec", "budgets", "spaces", "theories", "algebras", "arity",
            "ops", "clauses", "space", "dist", "theory", "judgment", "algebra", "algebra-ops"])
    def test_null_is_refused_by_name(self, capsys, tmp_path, keys, stderr, override):
        assert run(capsys, "--workspace", _edited(tmp_path, keys, None), *override, "distance",
                   "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b") == (
            2, "", stderr)

    # a table that is not an object, and a key missing in an entry, are named
    # with the entry, under --depth too
    @pytest.mark.parametrize("override", [[], ["--depth", "2"]], ids=["", "depth"])
    @pytest.mark.parametrize("keys, value, message", [
        (["spaces"], 5, "'spaces' is not an object: 5"),
        (["budgets"], 5, "'budgets' is not an object: 5"),
        (["spaces", "AB"], {"carrier": ["a", "b"]}, "space 'AB': 'dist' is missing"),
        (["theories", "PHI1", 0], {"context": "AB", "rhs": "a"},
         "theory 'PHI1': judgment 0: 'lhs' is missing"),
        (["algebras", "swap"], {"space": {"carrier": ["p"], "dist": [["0"]]}},
         "algebra 'swap': 'ops' is missing"),
    ], ids=["spaces", "budgets", "no-dist", "no-lhs", "no-ops"])
    def test_wrong_shape_is_refused_by_name(self, capsys, tmp_path, keys, value, message,
                                            override):
        assert run(capsys, "--workspace", _edited(tmp_path, keys, value), *override, "distance",
                   "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b") == (
            2, "", f"error: malformed workspace: {message}\n")

    def test_a_null_budget_takes_its_default_under_an_override(self, capsys, tmp_path):
        path = _edited(tmp_path, ["budgets", "depth"], None)
        code, report = run_json(capsys, "--workspace", path, "--depth", "2", "distance",
                                "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b")
        assert code == 0 and report["depth"] == 2

    def test_wrong_shape_inline_judgment_is_an_error(self, capsys):
        for j, stderr in [({"context": 5, "lhs": "a", "rhs": "a"}, "error: malformed judgment: "),
                          ({"context": "AB", "rhs": "a"}, "error: malformed judgment: 'lhs'\n")]:
            code, out, err = run(capsys, "--workspace", WS, "derive", "--theory", "EMPTY",
                                 "--target", "AB", "--judgment", json.dumps(j))
            assert (code, out) == (2, "") and err.startswith(stderr), j

    @pytest.mark.parametrize("context", [{"carrier": "ab", "dist": [["0", "1"], ["1", "0"]]},
                                         {"carrier": ["a", "b"], "dist": ["01", "10"]}],
                             ids=["carrier", "rows"])
    def test_string_inline_context_is_an_error(self, capsys, context):
        # a string is not a list of its characters
        j = json.dumps({"context": context, "lhs": "a", "rhs": "a"})
        code, out, err = run(capsys, "--workspace", WS, "derive", "--theory", "EMPTY",
                             "--target", "AB", "--judgment", j)
        assert (code, out) == (2, "") and err.startswith("error: malformed judgment: ")

    @pytest.mark.parametrize("lhs", ["u(a", "u(u(a)", "a(", "u(", "u(a,"])
    def test_truncated_term_is_an_error(self, capsys, lhs):
        assert run(capsys, "--workspace", WS, "distance", "--theory", "EMPTY", "--target", "AB",
                   "--lhs", lhs, "--rhs", "b") == (2, "", f"error: unexpected end of term in {lhs!r}\n")

    # parsing, the universe lookup and the message's rendering each walk the
    # whole term, past the interpreter's recursion limit at 5,000 levels
    @pytest.mark.parametrize("levels", [500, 5000])
    def test_deep_term_is_outside_the_universe(self, capsys, levels):
        lhs = "u(" * levels + "a" + ")" * levels
        assert run(capsys, "--workspace", WS, "distance", "--theory", "EMPTY", "--target", "AB",
                   "--lhs", lhs, "--rhs", "b") == (
            2, "", error_line(f"{lhs} is outside the depth-3 universe"))

    @pytest.mark.parametrize("levels", [500, 5000])
    def test_deep_term_is_not_evaluated(self, capsys, levels):
        j = json.dumps({"context": "AB", "lhs": "u(" * levels + "a" + ")" * levels, "rhs": "b"})
        assert run(capsys, "--workspace", WS, "entail", "--theory", "EMPTY", "--judgment", j,
                   "--catalog", "swap") == (
            2, "", "error: a term nested more than 200 levels deep cannot be evaluated\n")

    @pytest.mark.parametrize("levels", [500, 5000])
    def test_deep_term_with_a_bad_tail_is_an_error(self, capsys, levels):
        lhs = "u(" * levels + "a" + ")" * (levels + 1)
        assert run(capsys, "--workspace", WS, "distance", "--theory", "EMPTY", "--target", "AB",
                   "--lhs", lhs, "--rhs", "b") == (
            2, "", error_line(f"trailing tokens in {lhs[:2000]!r}"))

    # an axiom deeper than the universe has no instance in it, so saturation
    # never evaluates it; a model check must
    DEEP = [{"context": "X0", "lhs": "u(" * 500 + "x" + ")" * 500, "rhs": "x", "eps": "1/4"}]

    def test_deep_axiom_has_no_instance_in_the_universe(self, capsys, tmp_path):
        path = _edited(tmp_path, ["theories", "DEEP"], self.DEEP)
        for theory in ("DEEP", "EMPTY"):
            assert run_json(capsys, "--workspace", path, "distance", "--theory", theory,
                            "--target", "AB", "--lhs", "a", "--rhs", "b") == (
                0, {"depth": 3, "distance": "1/2", "grid": 4, "skipped_overflow": 0})
        # the free algebra's model check skips the axiom as overflowing
        code, report = run_json(capsys, "--workspace", path, "free", "--theory", "DEEP",
                                "--space", "AB")
        assert code == 0 and report["model_check"] == {
            "checked": 0, "failed": 0, "skipped_overflow": len(report["classes"])}

    def test_deep_axiom_is_evaluated_by_a_model_check(self, capsys, tmp_path):
        path = _edited(tmp_path, ["theories", "DEEP"], self.DEEP)
        assert run(capsys, "--workspace", path, "check-model", "--algebra", "swap",
                   "--theory", "DEEP") == (
            2, "", "error: a term nested more than 200 levels deep cannot be evaluated\n")

    @pytest.mark.parametrize("key", ["depth", "instances", "interpretations"])
    @pytest.mark.parametrize("value", [True, 2.5, "2.5", "many", [3], {"n": 3}])
    def test_non_integral_budget_is_an_error(self, capsys, tmp_path, key, value):
        assert run(capsys, "--workspace", _edited(tmp_path, ["budgets", key], value), "distance",
                   "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b") == (
            2, "", f"error: budget {key!r} is not an integer: {value!r}\n")

    @pytest.mark.parametrize("instances", ["2000000", 2000000.0])
    def test_integral_budget_reads_as_an_integer(self, capsys, tmp_path, instances):
        path = _edited(tmp_path, ["budgets", "instances"], instances)
        args = ("distance", "--theory", "QUARTER", "--target", "AB", "--lhs", "u(a)", "--rhs", "b")
        assert run(capsys, "--workspace", path, *args) == run(capsys, "--workspace", WS, *args)

    # a grid or an arity read by truncation would run a different workspace
    # (4.5 as q = 4, an arity true or 1.5 as 1), and a negative budget would
    # be reported as exceeded
    @pytest.mark.parametrize("keys, value, stderr", [
        (["grid"], 4.5, "grid is not an integer: 4.5"),
        (["grid"], True, "grid is not an integer: True"),
        (["grid"], -4, "grid is negative: -4"),
        (["signature", "ops", "u"], 1.5, "arity of 'u' is not an integer: 1.5"),
        (["signature", "ops", "u"], True, "arity of 'u' is not an integer: True"),
        (["signature", "ops", "u"], -1, "arity of 'u' is negative: -1"),
        (["budgets", "instances"], -5, "budget 'instances' is negative: -5"),
        (["budgets", "interpretations"], -1, "budget 'interpretations' is negative: -1"),
        (["budgets", "depth"], -2.0, "budget 'depth' is negative: -2"),
    ], ids=["grid-fraction", "grid-bool", "grid-negative", "arity-fraction", "arity-bool",
            "arity-negative", "instances-negative", "interpretations-negative",
            "depth-negative"])
    def test_malformed_whole_number_is_an_error(self, capsys, tmp_path, keys, value, stderr):
        args = ("distance", "--theory", "QUARTER", "--target", "AB", "--lhs", "u(a)", "--rhs", "b")
        assert run(capsys, "--workspace", _edited(tmp_path, keys, value), *args) == (
            2, "", f"error: {stderr}\n")

    # the decoder recurses once per nesting level
    DEEP_JSON = "[" * 100_000

    @pytest.mark.parametrize("what, args", [
        ("generator map", ["ump", "--theory", "EMPTY", "--space", "AB", "--algebra", "swap",
                           "--map", DEEP_JSON]),
        ("judgment", ["derive", "--theory", "EMPTY", "--target", "AB", "--judgment",
                      '{"context": "AB", "lhs": "a", "rhs": "b", "eps": ' + DEEP_JSON]),
        ("workspace", ["free", "--theory", "EMPTY", "--space", "AB"]),
    ])
    def test_deeply_nested_json_is_an_error(self, capsys, tmp_path, what, args):
        ws = WS
        if what == "workspace":
            ws = tmp_path / "deep.json"
            ws.write_text('{"grid": ' + self.DEEP_JSON)
        assert run(capsys, "--workspace", str(ws), "--depth", "2", *args) == (
            2, "", f"error: {what} JSON is nested too deeply\n")

    # d(x, y) <= e + f cannot be solved for e and f: at q = 4000 the clause
    # would be tried at 4001^2 grid vectors, listed before any budget is read
    def test_too_many_grid_vectors_is_an_error(self, capsys, tmp_path):
        spec = {"clauses": [{"name": "sum", "vars": ["x", "y"],
                             "premises": [{"dist": ["x", "y", {"plus": ["e", "f"]}]}],
                             "conclusion": {"dist": ["y", "x", {"plus": ["e", "f"]}]}}]}
        assert run(capsys, "--workspace", _edited(tmp_path, ["spec"], spec), "--grid", "4000",
                   "--budget-instances", "1000", "distance", "--theory", "EMPTY",
                   "--target", "AB", "--lhs", "a", "--rhs", "b") == (
            2, "", "error: clause 'sum': 16008001 grid vectors, more than the limit of 1048576\n")

    # a clause d(x,y) <= e => d(y,x) <= min1(min1(... e)): hashing the spec
    # recursed once per level and died past about 500 levels (a plus level is
    # two JSON containers, so 600 of them are past what the decoder reads)
    @pytest.mark.parametrize("kind, levels", [("min1", 200), ("min1", 201), ("min1", 600),
                                              ("plus", 200), ("plus", 201), ("plus", 450)])
    def test_deep_epsilon_expression(self, capsys, tmp_path, kind, levels):
        bound = "e"
        for _ in range(levels):
            bound = {"min1": bound} if kind == "min1" else {"plus": [bound, "0"]}
        spec = {"clauses": [{"name": "deep", "vars": ["x", "y"],
                             "premises": [{"dist": ["x", "y", "e"]}],
                             "conclusion": {"dist": ["y", "x", bound]}}]}
        got = run(capsys, "--workspace", _edited(tmp_path, ["spec"], spec), "distance",
                  "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b")
        if levels <= 200:
            assert got[0] == 0 and json.loads(got[1])["distance"] == "1/2"
        else:
            assert got == (2, "", "error: an epsilon expression nested more than 200 levels"
                                  " deep\n")

    def test_distance_of_the_wrong_shape(self, capsys, tmp_path):
        path = _edited(tmp_path, ["spaces", "AB", "dist", 0, 1], ["1/2"])
        assert run(capsys, "--workspace", path, "distance", "--theory", "EMPTY", "--target", "AB",
                   "--lhs", "a", "--rhs", "b") == (
            2, "", "error: cannot read grid value from ['1/2']\n")

    # a zero denominator was an uncaught ZeroDivisionError: a traceback with exit 1
    @pytest.mark.parametrize("eps", ["1/0", "0/0"])
    def test_zero_denominator_in_a_space(self, capsys, tmp_path, eps):
        path = _edited(tmp_path, ["spaces", "AB", "dist", 0, 1], eps)
        assert run(capsys, "--workspace", path, "distance", "--theory", "EMPTY", "--target", "AB",
                   "--lhs", "a", "--rhs", "b") == (2, "", f"error: zero denominator in {eps!r}\n")

    @pytest.mark.parametrize("eps", ["1/0", "0/0"])
    def test_zero_denominator_in_a_judgment(self, capsys, eps):
        j = json.dumps({"context": "AB", "lhs": "a", "rhs": "b", "eps": eps})
        assert run(capsys, "--workspace", WS, "derive", "--theory", "EMPTY", "--target", "AB",
                   "--judgment", j) == (2, "", f"error: zero denominator in {eps!r}\n")

    @pytest.mark.parametrize("eps", ["1/0", "0/0"])
    def test_zero_denominator_in_a_clause_constant(self, capsys, tmp_path, eps):
        spec = {"clauses": [{"name": "c", "vars": ["x"], "conclusion": {"dist": ["x", "x", eps]}}]}
        assert run(capsys, "--workspace", _edited(tmp_path, ["spec"], spec), "distance",
                   "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b") == (
            2, "", f"error: bad epsilon expression: {eps!r}\n")

    # a string that is neither a fraction nor an identifier was read as a
    # parameter, so the premise d(x, y) <= 0,5 bound nothing and the target
    # failed the clause instead
    @pytest.mark.parametrize("eps, stderr", [
        ("0,5", "error: bad epsilon expression: '0,5'\n"),
        ("1//2", "error: bad epsilon expression: '1//2'\n"),
        ("e'", "error: bad epsilon expression: \"e'\"\n"),
    ])
    def test_malformed_clause_constant(self, capsys, tmp_path, eps, stderr):
        spec = {"clauses": [{"name": "bound", "vars": ["x", "y"],
                             "premises": [{"dist": ["x", "y", eps]}],
                             "conclusion": {"dist": ["x", "y", "0"]}}]}
        assert run(capsys, "--workspace", _edited(tmp_path, ["spec"], spec), "distance",
                   "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b") == (
            2, "", stderr)

    # under a constant c, a carrier point c would read u(c) = c as an axiom
    # over a variable: named and inline contexts are refused alike
    @pytest.mark.parametrize("inline", [False, True])
    def test_carrier_colliding_with_a_symbol(self, capsys, tmp_path, inline):
        ws = json.loads(pathlib.Path(WS).read_text(encoding="utf-8"))
        ws["signature"] = {"ops": {"u": 1, "c": 0}}
        del ws["algebras"]
        ctx = {"carrier": ["c"], "dist": [["0"]]}
        if not inline:
            ws["spaces"]["C"], ctx = ctx, "C"
        ws["theories"]["FIX"] = [{"context": ctx, "lhs": "u(c)", "rhs": "c"}]
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(ws))
        j = json.dumps({"context": "AB", "lhs": "u(a)", "rhs": "a"})
        assert run(capsys, "--workspace", str(path), "derive", "--theory", "FIX",
                   "--target", "AB", "--judgment", j) == (
            2, "", "error: carrier element 'c' collides with an operation symbol\n")

    # each case sets one part of the fixture workspace to a value its reader refuses
    @pytest.mark.parametrize("keys, value, stderr", [
        (["spaces", "AB", "carrier"], ["a", "a"], "duplicate carrier element"),
        (["spaces", "AB", "carrier"], ["a", ""], "empty carrier element name"),
        (["spaces", "AB", "dist"], [["0", "1/2"]], "distance table shape does not match carrier"),
        (["spec"], {"clauses": [{"name": "c", "vars": ["x"],
                                 "conclusion": {"dist": ["x", "y", "0"]}}]},
         "clause 'c' uses an undeclared variable"),
        (["spec"], {"clauses": [{"name": "c", "vars": ["x"], "conclusion": {"le": ["x", "x"]}}]},
         "bad atom: {'le': ['x', 'x']}"),
        (["spec"], {"clauses": [{"name": "c", "vars": ["x"],
                                 "conclusion": {"dist": ["x", "x", ["0"]]}}]},
         "bad epsilon expression: ['0']"),
        (["spec"], {"preset": "ULTRA"}, "unknown preset 'ULTRA'"),
        (["algebras", "swap", "ops"], {}, "missing table for operation 'u'"),
        (["algebras", "swap", "ops", "u"], {"p": "z", "q": "p"},
         "bad table entry for 'u': ('p',) -> 'z'"),
        # a table for an operation the signature lacks is refused, not dropped
        (["algebras", "swap", "ops", "v"], {"p": "p", "q": "p"},
         "table for operation 'v', which the signature lacks"),
        (["theories", "PHI1", 0, "context"], "CD", "unknown space name 'CD'"),
    ], ids=["duplicate-point", "empty-point", "dist-shape", "undeclared-variable", "bad-atom",
            "bad-epsilon", "unknown-preset", "missing-table", "bad-table-entry", "stray-table",
            "unknown-context"])
    def test_refused_workspace_entry(self, capsys, tmp_path, keys, value, stderr):
        assert run(capsys, "--workspace", _edited(tmp_path, keys, value), "distance",
                   "--theory", "EMPTY", "--target", "AB", "--lhs", "a", "--rhs", "b") == (
            2, "", f"error: {stderr}\n")

    @pytest.mark.parametrize("lhs, stderr", [
        ("u(a)!", "cannot tokenize term at '!'"),
        ("u((a))", "unexpected '(' in 'u((a))'"),
        ("c", "unknown name 'c' in 'c'"),
        ("u(a b)", "expected ',' or ')' in 'u(a b)'"),
    ])
    def test_unreadable_term(self, capsys, lhs, stderr):
        assert run(capsys, "--workspace", WS, "distance", "--theory", "EMPTY", "--target", "AB",
                   "--lhs", lhs, "--rhs", "b") == (2, "", f"error: {stderr}\n")

    def test_depth_zero(self, capsys):
        assert run(capsys, "--workspace", WS, "--depth", "0", "distance", "--theory", "EMPTY",
                   "--target", "AB", "--lhs", "a", "--rhs", "b") == (
            2, "", "error: depth must be >= 1\n")

    def test_judgment_context_other_than_the_target(self, capsys):
        j = json.dumps({"context": "X0", "lhs": "x", "rhs": "x"})
        assert run(capsys, "--workspace", WS, "derive", "--theory", "EMPTY", "--target", "AB",
                   "--judgment", j) == (
            2, "", "error: judgment context differs from the saturation target\n")

    def test_em_check_at_depth_one(self, capsys):
        assert run(capsys, "--workspace", WS, "--depth", "1", "em-check", "--theory", "EMPTY",
                   "--algebra", "swap") == (
            2, "", "error: reading op tables off a structure map needs depth >= 2\n")


# a judgment, a map and a term that would each fail to parse: a name error
# before them shows that the names are looked up first
GOOD_J = json.dumps({"context": "AB", "lhs": "a", "rhs": "b"})


class TestNameErrorOrder:
    @pytest.mark.parametrize("args, stderr", [
        (["check-model", "--algebra", "nope", "--theory", "nope"], "unknown algebra 'nope'"),
        (["derive", "--theory", "nope", "--target", "nope", "--judgment", "{"],
         "unknown theory 'nope'"),
        (["distance", "--theory", "nope", "--target", "nope", "--lhs", "u(", "--rhs", "b"],
         "unknown theory 'nope'"),
        (["free", "--theory", "nope", "--space", "nope"], "unknown theory 'nope'"),
        (["entail", "--theory", "nope", "--judgment", "{", "--catalog", "nope"],
         "unknown theory 'nope'"),
        (["monad-laws", "--theory", "nope", "--space", "nope"], "unknown theory 'nope'"),
        (["ump", "--theory", "nope", "--space", "nope", "--algebra", "nope", "--map", "["],
         "unknown theory 'nope'"),
        (["em-check", "--theory", "nope", "--algebra", "nope"], "unknown theory 'nope'"),
        (["check-model", "--algebra", "swap", "--theory", "nope"], "unknown theory 'nope'"),
        (["derive", "--theory", "EMPTY", "--target", "nope", "--judgment", "{"],
         "unknown space 'nope'"),
        (["distance", "--theory", "EMPTY", "--target", "nope", "--lhs", "u(", "--rhs", "b"],
         "unknown space 'nope'"),
        (["ump", "--theory", "EMPTY", "--space", "nope", "--algebra", "nope", "--map", "["],
         "unknown space 'nope'"),
        (["ump", "--theory", "EMPTY", "--space", "AB", "--algebra", "nope", "--map", "["],
         "unknown algebra 'nope'"),
        (["entail", "--theory", "EMPTY", "--judgment", GOOD_J, "--catalog", "stay,W"],
         "unknown algebra 'W'"),
        (["entail", "--theory", "EMPTY", "--judgment", "{", "--catalog", "W"],
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (["em-check", "--theory", "EMPTY", "--algebra", "nope"], "unknown algebra 'nope'"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_first_error_wins(self, capsys, args, stderr):
        assert run(capsys, "--workspace", WS, *args) == (2, "", f"error: {stderr}\n")


class TestHelp:
    @pytest.mark.parametrize("command, options", [
        ("check-model", ["--algebra", "--theory"]),
        ("derive", ["--theory", "--target", "--judgment", "--trace"]),
        ("distance", ["--theory", "--target", "--lhs", "--rhs"]),
        ("free", ["--theory", "--space"]),
        ("entail", ["--theory", "--judgment", "--catalog"]),
        ("monad-laws", ["--theory", "--space"]),
        ("ump", ["--theory", "--space", "--algebra", "--map"]),
        ("em-check", ["--theory", "--algebra"]),
    ])
    def test_lists_every_option(self, capsys, command, options):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert stop.value.code == 0 and out.startswith(f"usage: qeqlog {command} ")
        for option in options:
            assert f"  {option}" in out


def test_readme_names_every_subcommand():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = re.findall(r"^qeqlog --workspace \S+ (\S+)", block, re.MULTILINE)
    assert sorted(named) == sorted(name for name, *_ in COMMANDS)
