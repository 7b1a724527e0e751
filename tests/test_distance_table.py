"""The sparse distance table: its values, its memory and the size refusals.

``DerivationDB.dmin`` holds only the cells below q, and a missing cell reads
q. A wide grid must derive what the reference loop derives, a large universe
must stay within a fixed memory bound, a universe of more than ``MAX_TERMS``
terms is refused before a single term of it is built, and a free algebra
whose dense class table would pass ``free.MAX_CELLS`` is refused before it
is built.
"""
from __future__ import annotations

import gc
import json
import time
import tracemalloc

import pytest

import qeqlog.deduce as deduce
import qeqlog.terms as terms
from qeqlog.cli import main
from qeqlog.deduce import MAX_TERMS, DerivationDB, saturate
from qeqlog.free import MAX_CELLS, FreeAlgebra
from qeqlog.errors import BudgetExceeded
from qeqlog.gmet import FREL, MET, EpsGrid, FuzzySpace
from qeqlog.qalg import Judgment, Theory
from qeqlog.terms import App, Signature, Var, universe_size

import reference_engine

U_SIG = Signature.of({"u": 1})
UF_SIG = Signature.of({"u": 1, "f": 2})
UV_SIG = Signature.of({"u": 1, "v": 1})
F_SIG = Signature.of({"f": 2})


def _pair(q: int, d: int) -> FuzzySpace:
    return FuzzySpace(EpsGrid(q), ("a", "b"), ((0, d), (d, 0)))


class TestWideGrids:
    @pytest.mark.parametrize("q", [300, 70_000])
    def test_same_as_reference(self, q):
        # u(x) within a quarter of x over two points at a half: the triangle
        # and substitution write cells that need more than one byte
        target = _pair(q, q // 2)
        ctx = FuzzySpace(EpsGrid(q), ("x",), ((0,),))
        theory = Theory("T", (Judgment(ctx, App("u", (Var("x"),)), Var("x"), q // 4),))
        args = (U_SIG, theory, MET, target, 3)
        db, ref = saturate(*args), reference_engine.saturate(*args)
        assert db.events == ref.events
        n = len(db.universe)
        assert [db.find(i) for i in range(n)] == [ref.find(i) for i in range(n)]
        assert [db.cell(i, j) for i in range(n) for j in range(n)] == \
            [ref.cell(i, j) for i in range(n) for j in range(n)]
        assert {db.cell(i, j) for i in range(n) for j in range(n)} > {0, q // 4, q}


def test_depth_four_table_stays_small():
    # 5,552 terms and 4 cells below q: a dense table of one byte per cell
    # took 31 MB, and one as lists 239 MB
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
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MB traced"
    assert elapsed < 1.0


def test_depth_four_saturation_transient_stays_small():
    # MET over {u/1, f/2}, two points at 1/2, no axioms: 5,552 terms and one
    # diagonal write each. The first triangle pass queues a one-tuple stream
    # per written cell: the queue must keep the tuple, not the stream with
    # its product, choices and near list, which put the peak at 2.1x
    gc.collect()
    tracemalloc.start()
    try:
        db = saturate(UF_SIG, Theory("E", ()), MET, _pair(4, 2), 4)
        # objects freed into the interpreter's free lists are traced until a
        # collection empties them
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert db._n == 5_552 and len(db.events) == 5_554
    assert peak <= 1.6 * held, f"peak {peak / 2**20:.2f} MB, held {held / 2**20:.2f} MB"


def test_free_tables_take_a_pointer_an_entry():
    # FREL over {u/1, f/2}, three points at 1/2, depth 3: 243 classes and
    # 59,292 table entries. With a tuple key in a dict per entry the free
    # algebra held 110 B an entry over its saturation; flat tables take 8 B
    # and the class distance table about as much again
    gc.collect()
    tracemalloc.start()
    try:
        db = saturate(UF_SIG, Theory("E", ()), FREL, _space(3), 3)
        gc.collect()
        saturated = tracemalloc.get_traced_memory()[0]
        fa = FreeAlgebra(db)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = sum(map(len, fa.optable.values()))
    assert len(fa.classes) == 243 and entries == 59_292
    assert held - saturated <= 24 * entries, f"{(held - saturated) / entries:.1f} B an entry"


def test_congruence_premises_share_one_tuple_per_pair():
    # FREL over {f/2}, two points, depth 4, under the commutativity,
    # idempotence and f(x, y) =1/4 x axioms: thousands of congruence
    # premises over a few dozen id pairs, one tuple object each
    q = 4
    pair = FuzzySpace(EpsGrid(q), ("x", "y"), ((0, q), (q, 0)))
    point = FuzzySpace(EpsGrid(q), ("x",), ((0,),))
    x, y = Var("x"), Var("y")
    theory = Theory("CI", (Judgment(pair, App("f", (x, y)), App("f", (y, x))),
                           Judgment(point, App("f", (x, x)), x),
                           Judgment(pair, App("f", (x, y)), x, 1)))
    db = saturate(Signature.of({"f": 2}), theory, FREL, _pair(q, 2), 4)
    premises = [p for ev in db.events if ev.rule == "CONG" for p in ev.premises]
    assert premises and {p[0] for p in premises} == {"eq"}
    assert len({id(p) for p in premises}) == len(set(premises)) < len(premises) / 10


def _refuse_enumeration(monkeypatch):
    def fail(*args):
        raise AssertionError("the universe was enumerated")
    # saturation enumerates ids; the trees are built from the same ids
    monkeypatch.setattr(deduce, "universe_nodes", fail)
    monkeypatch.setattr(terms, "universe_nodes", fail)
    monkeypatch.setattr(terms, "enumerate_universe", fail)


def _space(points: int) -> FuzzySpace:
    carrier = "abc"[:points]
    half = tuple(tuple(0 if i == j else 2 for j in range(points)) for i in range(points))
    return FuzzySpace(EpsGrid(4), tuple(carrier), half)


def _workspace(tmp_path, spec: str, points: int, depth: int) -> str:
    ws = {
        "grid": 4,
        "signature": {"ops": {"u": 1, "f": 2}},
        "spec": {"preset": spec},
        "budgets": {"depth": depth},
        "spaces": {"S": {
            "carrier": list("abc"[:points]),
            "dist": [["0" if i == j else "1/2" for j in range(points)] for i in range(points)],
        }},
        "theories": {"EMPTY": []},
        "algebras": {},
    }
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(ws), encoding="utf-8")
    return str(path)


class TestPastTheSquareWall:
    # universes whose n^2 cells passed 2^28: each saturates, holding only
    # the cells below q that USEVAR writes
    @pytest.mark.parametrize("points, depth, size", [(3, 4, 59_295), (1, 5, 33_673)])
    def test_saturates(self, points, depth, size):
        start = time.perf_counter()
        db = saturate(UF_SIG, Theory("E", ()), FREL, _space(points), depth)
        elapsed = time.perf_counter() - start
        assert db._n == size and len(db.roots()) == size
        assert len(db.events) == len(db.dmin) == points * points
        assert db.cell(0, 0) == 0 and db.cell(0, size - 1) == 4
        assert elapsed < 5.0

    def test_free_refuses_its_dense_table(self, capsys, tmp_path):
        code = main(["--workspace", _workspace(tmp_path, "FREL", 3, 4), "free", "--theory", "EMPTY",
                     "--space", "S"])
        captured = capsys.readouterr()
        message = ("free algebra over 59295 classes: its distance table of 3515897025 cells"
                   f" passes the limit of {MAX_CELLS}")
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


class TestFreeCellLimit:
    # {u/1, v/1} over one point under FREL with no axioms: each of the
    # 2^depth - 1 terms is its own class. Depth 11 has 4,190,209 cells, which
    # the CLI's free takes at about 20 B a cell; depth 12 has four times as
    # many
    MESSAGE = ("free algebra over 4095 classes: its distance table of 16769025 cells"
               f" passes the limit of {MAX_CELLS}")

    @staticmethod
    def _refuse_tables(monkeypatch):
        def fail(*args):
            raise AssertionError("a table was built")
        monkeypatch.setattr(deduce.DerivationDB, "cell_table", fail)
        monkeypatch.setattr(deduce.DerivationDB, "app_ids", fail)

    @staticmethod
    def _saturate(depth: int):
        return saturate(UV_SIG, Theory("E", ()), FREL, FuzzySpace(EpsGrid(2), ("a",), ((0,),)), depth)

    def test_refused_before_any_table(self, monkeypatch):
        db = self._saturate(12)
        self._refuse_tables(monkeypatch)
        with pytest.raises(BudgetExceeded) as exc:
            FreeAlgebra(db)
        assert str(exc.value) == self.MESSAGE

    def test_cli_exit_two(self, monkeypatch, capsys, tmp_path):
        ws = {"grid": 2, "signature": {"ops": {"u": 1, "v": 1}}, "spec": {"preset": "FREL"},
              "budgets": {"depth": 12}, "spaces": {"P": {"carrier": ["a"], "dist": [["0"]]}},
              "theories": {"EMPTY": []}, "algebras": {}}
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(ws), encoding="utf-8")
        self._refuse_tables(monkeypatch)
        code = main(["--workspace", str(path), "free", "--theory", "EMPTY", "--space", "P"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {self.MESSAGE}\n")

    def test_depth_eleven_builds(self):
        fa = FreeAlgebra(self._saturate(11))
        assert len(fa.classes) == len(fa.delta) == 2_047
        assert len(fa.optable["u"]) == len(fa.optable["v"]) == 2_047


class TestUniverseRefused:
    # 2 points at depth 5: 30,830,258 terms
    MESSAGE = f"universe: depth 5 has 30830258 terms, more than the limit of {MAX_TERMS}"

    def test_refused_before_enumeration(self, monkeypatch):
        assert universe_size(UF_SIG, ("a", "b"), 5) == 30_830_258
        _refuse_enumeration(monkeypatch)
        with pytest.raises(BudgetExceeded) as exc:
            saturate(UF_SIG, Theory("E", ()), MET, _space(2), 5)
        assert str(exc.value) == self.MESSAGE

    # {f/2} over two points: depth 5 is the first layer past the limit, and
    # depth 15's count has more digits than str converts
    @pytest.mark.parametrize("depth", [6, 15])
    def test_deeper_universe_names_the_first_layer_past_the_limit(self, depth):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc:
            DerivationDB(F_SIG, Theory("E", ()), FREL, _space(2), depth)
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == (f"universe: depth {depth} has at least the 2090918 terms"
                                  f" of depth 5, more than the limit of {MAX_TERMS}")
        assert universe_size(F_SIG, ("a", "b"), 5) == 2_090_918
        assert universe_size(F_SIG, ("a", "b"), 4) <= MAX_TERMS

    def test_cli_exit_two(self, monkeypatch, capsys, tmp_path):
        path = _workspace(tmp_path, "MET", 2, 5)
        _refuse_enumeration(monkeypatch)
        code = main(["--workspace", path, "distance", "--theory", "EMPTY",
                     "--target", "S", "--lhs", "a", "--rhs", "b"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {self.MESSAGE}\n")
