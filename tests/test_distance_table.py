"""The flat distance table: its typecode, its memory and the size refusal.

``DerivationDB.dmin`` holds one cell per pair of universe ids in the
smallest unsigned typecode that holds q. A grid past one byte must derive
what the reference loop derives, a large universe must stay within a fixed
memory bound, and a universe whose table would pass ``MAX_CELLS`` is refused
before a single term of it is built.
"""
from __future__ import annotations

import json
import time
import tracemalloc

import pytest

import qeqlog.deduce as deduce
import qeqlog.terms as terms
from qeqlog.cli import main
from qeqlog.deduce import MAX_CELLS, saturate
from qeqlog.errors import BudgetExceeded
from qeqlog.gmet import FREL, MET, EpsGrid, FuzzySpace
from qeqlog.qalg import Judgment, Theory
from qeqlog.terms import App, Signature, Var, universe_size

import reference_engine

U_SIG = Signature.of({"u": 1})
UF_SIG = Signature.of({"u": 1, "f": 2})


def _pair(q: int, d: int) -> FuzzySpace:
    return FuzzySpace(EpsGrid(q), ("a", "b"), ((0, d), (d, 0)))


class TestWideGrids:
    @pytest.mark.parametrize("q, code", [(300, "H"), (70_000, "L")])
    def test_same_as_reference(self, q, code):
        # u(x) within a quarter of x over two points at a half: the triangle
        # and substitution write cells that need more than one byte
        target = _pair(q, q // 2)
        ctx = FuzzySpace(EpsGrid(q), ("x",), ((0,),))
        theory = Theory("T", (Judgment(ctx, App("u", (Var("x"),)), Var("x"), q // 4),))
        args = (U_SIG, theory, MET, target, 3)
        db, ref = saturate(*args), reference_engine.saturate(*args)
        assert db.dmin.typecode == code
        assert db.events == ref.events
        n = len(db.universe)
        assert [db.find(i) for i in range(n)] == [ref.find(i) for i in range(n)]
        assert [db.cell(i, j) for i in range(n) for j in range(n)] == \
            [ref.cell(i, j) for i in range(n) for j in range(n)]
        assert {db.cell(i, j) for i in range(n) for j in range(n)} > {0, q // 4, q}

    def test_one_byte_up_to_255(self):
        assert saturate(U_SIG, Theory("E", ()), MET, _pair(255, 1), 2).dmin.typecode == "B"
        assert saturate(U_SIG, Theory("E", ()), MET, _pair(256, 1), 2).dmin.typecode == "H"


def test_depth_four_table_stays_small():
    # 5,552 terms: 30.8 M cells, one byte each; as lists they took 239 MB
    target = _pair(4, 2)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        db = saturate(UF_SIG, Theory("E", ()), FREL, target, 4)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(db.universe) == 5_552
    assert peak < 64 * 2**20, f"{peak / 2**20:.1f} MB traced"
    assert elapsed < 1.0


def _refuse_enumeration(monkeypatch):
    def fail(*args):
        raise AssertionError("the universe was enumerated")
    # saturation enumerates ids; the trees are built from the same ids
    monkeypatch.setattr(deduce, "universe_nodes", fail)
    monkeypatch.setattr(terms, "universe_nodes", fail)
    monkeypatch.setattr(terms, "enumerate_universe", fail)


class TestUniverseRefused:
    # 3 points at depth 4: 59,295 terms, 3.5e9 cells
    CARRIER = ("a", "b", "c")
    MESSAGE = ("universe: depth 4 has 59295 terms, and their distance table of"
               f" 3515897025 cells passes the limit of {MAX_CELLS}")

    def test_refused_before_enumeration(self, monkeypatch):
        assert universe_size(UF_SIG, self.CARRIER, 4) == 59_295
        half = tuple(tuple(0 if i == j else 2 for j in range(3)) for i in range(3))
        target = FuzzySpace(EpsGrid(4), self.CARRIER, half)
        _refuse_enumeration(monkeypatch)
        with pytest.raises(BudgetExceeded) as exc:
            saturate(UF_SIG, Theory("E", ()), MET, target, 4)
        assert str(exc.value) == self.MESSAGE

    def test_cli_exit_two(self, monkeypatch, capsys, tmp_path):
        ws = {
            "grid": 4,
            "signature": {"ops": {"u": 1, "f": 2}},
            "spec": {"preset": "MET"},
            "budgets": {"depth": 4},
            "spaces": {"ABC": {
                "carrier": list(self.CARRIER),
                "dist": [["0" if i == j else "1/2" for j in range(3)] for i in range(3)],
            }},
            "theories": {"EMPTY": []},
            "algebras": {},
        }
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(ws), encoding="utf-8")
        _refuse_enumeration(monkeypatch)
        code = main(["--workspace", str(path), "distance", "--theory", "EMPTY",
                     "--target", "ABC", "--lhs", "a", "--rhs", "b"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {self.MESSAGE}\n")
