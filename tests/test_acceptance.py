"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is exact (grid arithmetic) and every runtime bound is
asserted inside the test that carries it.
"""
from __future__ import annotations

import itertools
import random
import time

import pytest

from qeqlog.deduce import derives, distance, saturate
from qeqlog.free import build_free, check_free_is_model, check_ump
from qeqlog.gmet import (
    FREL,
    MET,
    PMET,
    EpsGrid,
    FuzzySpace,
    check_space,
    discrete_lift,
    is_nonexpansive,
)
from qeqlog.monad import (
    MonadInstance,
    check_em_laws,
    check_hom_image_model,
    check_monad_laws,
    em_from_model,
    model_from_em,
)
from qeqlog.qalg import Judgment, QuantAlgebra, Theory, is_model, satisfies
from qeqlog.terms import App, Signature, Var

from conftest import (
    random_algebra,
    random_space,
    random_theory,
    space,
    trivial_model,
)
from test_monad import make_hom_image_quadruples


GRID = EpsGrid(4)
EMPTY_SIG = Signature.of({})
U_SIG = Signature.of({"u": 1})

AB = FuzzySpace.of(GRID, ["a", "b"], [["0", "1/2"], ["1/2", "0"]])
X0 = FuzzySpace.of(GRID, ["x"], [["0"]])
COLLAPSE = Theory("PHI1", (Judgment(AB, Var("a"), Var("b"), 0),))
QUARTER = Theory("QUARTER", (Judgment(X0, App("u", (Var("x"),)), Var("x"), 1),))
INVOLUTION = Theory(
    "INV", (Judgment(X0, App("u", (App("u", (Var("x"),)),)), Var("x")),)
)


def _ok(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:02d}] PASS  {text}")


def assert_connection_lemma(db) -> None:
    """derives(s =_eps t) iff distance(s,t) <= eps, all pairs, all grid eps."""
    for s in db.universe:
        for t in db.universe:
            d = db.class_distance(db.index_of(s), db.index_of(t))
            for eps in db.grid.values():
                assert derives(db, Judgment(db.target, s, t, eps)) == (d <= eps)


def test_criterion_01_collapse_fixture():
    start = time.monotonic()
    db = saturate(EMPTY_SIG, COLLAPSE, MET, AB, 1)
    fa = build_free(EMPTY_SIG, COLLAPSE, MET, AB, 1)
    elapsed = time.monotonic() - start
    assert len(fa.classes) == 1
    assert distance(db, Var("a"), Var("b")) == 0
    assert elapsed < 1.0
    _ok(1, f"1 class, distance(a,b)=0, {elapsed:.3f}s < 1s")


def test_criterion_02_use_variables_fixture():
    start = time.monotonic()
    db = saturate(EMPTY_SIG, Theory("EMPTY", ()), MET, AB, 1)
    elapsed = time.monotonic() - start
    assert distance(db, Var("a"), Var("b")) == GRID.fraction(GRID.value("1/2"))
    assert elapsed < 1.0
    _ok(2, f"distance(a,b)=1/2 exactly, {elapsed:.3f}s < 1s")


def test_criterion_03_met_axiom_suite():
    runs = 0
    for seed in range(20):
        rng = random.Random(7000 + seed)
        grid = EpsGrid(rng.choice([2, 4]))
        target = random_space(rng, grid, rng.randint(2, 3), MET)
        sig = rng.choice([EMPTY_SIG, U_SIG])
        theory = random_theory(rng, sig, grid, MET, rng.randint(0, 2))
        db = saturate(sig, theory, MET, target, rng.choice([2, 3]))
        roots = db.roots()
        q = grid.q
        for r1 in roots:
            assert db.cell(r1, r1) == 0
            for r2 in roots:
                assert db.cell(r1, r2) == db.cell(r2, r1)
                assert (db.cell(r1, r2) == 0) == (r1 == r2)
                for r3 in roots:
                    assert db.cell(r1, r3) <= min(q, db.cell(r1, r2) + db.cell(r2, r3))
        assert_connection_lemma(db)
        runs += 1
    assert runs >= 20
    _ok(3, f"{runs} randomized MET runs: symmetry, triangle, d(s,s)=0, equality<->0")


def test_criterion_04_soundness_sweep():
    start = time.monotonic()
    runs = 0
    checked_judgments = 0
    for seed in range(100):
        rng = random.Random(9000 + seed)
        grid = EpsGrid(rng.choice([2, 3, 4]))
        spec = rng.choice([MET, PMET, FREL])
        sig = rng.choice(
            [EMPTY_SIG, U_SIG, Signature.of({"u": 1, "c": 0}),
             Signature.of({"f": 2}), Signature.of({"u": 1, "v": 1})]
        )
        binary = any(ar > 1 for _, ar in sig.ops)
        depth = rng.choice([1, 2]) if binary else rng.choice([1, 2, 3])
        target = random_space(rng, grid, rng.randint(2, 3), spec)
        theory = random_theory(rng, sig, grid, spec, rng.randint(0, 2))
        db = saturate(sig, theory, spec, target, depth)
        catalog = [trivial_model(sig, grid)] + [
            random_algebra(rng, sig, grid, spec, 2) for _ in range(4)
        ]
        models = [alg for alg in catalog if is_model(alg, spec, theory)]
        roots = db.roots()
        for r1 in roots:
            for r2 in roots:
                s, t = db.universe[r1], db.universe[r2]
                j = Judgment(target, s, t, db.cell(r1, r2))
                for alg in models:
                    assert satisfies(alg, spec, j).holds, (theory, j.describe())
                    checked_judgments += 1
                if r1 != r2 and db.same(r1, r2):
                    jeq = Judgment(target, s, t)
                    for alg in models:
                        assert satisfies(alg, spec, jeq).holds
        assert_connection_lemma(db)
        runs += 1
    elapsed = time.monotonic() - start
    assert runs >= 100
    assert elapsed < 120.0
    _ok(4, f"{runs} runs, {checked_judgments} judgment/model checks, "
           f"0 violations, {elapsed:.1f}s < 120s")


def test_criterion_05_connection_lemma_on_fixture_dbs():
    dbs = [
        saturate(EMPTY_SIG, COLLAPSE, MET, AB, 1),
        saturate(EMPTY_SIG, Theory("EMPTY", ()), MET, AB, 2),
        saturate(U_SIG, QUARTER, MET, AB, 3),
        saturate(U_SIG, INVOLUTION, MET, AB, 3),
        saturate(U_SIG, Theory("EMPTY", ()), FREL,
                 space(GRID, ["a", "b"], [["1/4", "1/2"], ["3/4", "1"]]), 2),
    ]
    pairs = 0
    for db in dbs:
        assert_connection_lemma(db)
        pairs += len(db.universe) ** 2 * (db.grid.q + 1)
    _ok(5, f"derives(s=_eps t) <-> distance<=eps on {len(dbs)} DBs, {pairs} checks "
           "(also verified on every DB of criteria 3 and 4)")


def test_criterion_06_free_algebra_is_model():
    fixtures = [
        (EMPTY_SIG, COLLAPSE, MET, AB, 1),
        (EMPTY_SIG, Theory("EMPTY", ()), MET, AB, 1),
        (U_SIG, QUARTER, MET, AB, 3),
        (U_SIG, INVOLUTION, MET, AB, 3),
        (U_SIG, QUARTER, MET, AB, 2),
    ]
    rng = random.Random(13)
    for _ in range(8):
        spec = rng.choice([MET, PMET])
        fixtures.append(
            (U_SIG, random_theory(rng, U_SIG, GRID, spec, rng.randint(1, 2)),
             spec, random_space(rng, GRID, 2, spec), rng.choice([2, 3]))
        )
    logged = []
    for sig, theory, spec, sp, depth in fixtures:
        fa = build_free(sig, theory, spec, sp, depth)
        rep = check_free_is_model(fa, theory, spec)
        assert rep.failed == 0, rep
        logged.append(f"{theory.name}@{depth}: checked={rep.checked} "
                      f"skipped={rep.skipped_overflow}")
    _ok(6, "failed=0 on all fixtures; " + "; ".join(logged))


def test_criterion_07_universal_mapping_property():
    start = time.monotonic()
    swap_space = space(GRID, ["p", "q"], [["0", "1/2"], ["1/2", "0"]])
    swap = QuantAlgebra(swap_space, U_SIG, {"u": {("p",): "q", ("q",): "p"}})
    three = space(
        GRID, ["p", "q", "r"],
        [["0", "1/2", "1/2"], ["1/2", "0", "1/2"], ["1/2", "1/2", "0"]],
    )
    cyc = QuantAlgebra(
        three, U_SIG, {"u": {("p",): "q", ("q",): "r", ("r",): "p"}}
    )
    one = QuantAlgebra(space(GRID, ["z"], [["0"]]), U_SIG, {"u": {("z",): "z"}})
    fixtures = [
        (build_free(U_SIG, Theory("EMPTY", ()), MET, AB, 2), swap, {"a": "p", "b": "q"}),
        (build_free(U_SIG, Theory("EMPTY", ()), MET, AB, 2), cyc, {"a": "p", "b": "q"}),
        (build_free(U_SIG, QUARTER, MET, AB, 2), one, {"a": "z", "b": "z"}),
        (build_free(U_SIG, Theory("EMPTY", ()), MET, X0, 2), cyc, {"x": "r"}),
    ]
    total_candidates = 0
    for fa, alg, f in fixtures:
        assert len(fa.classes) <= 6 and len(alg.space.carrier) <= 3
        res = check_ump(fa, alg, f)
        assert res.exists and res.unique, (alg, f)
        assert res.candidates == len(alg.space.carrier) ** len(fa.classes)
        total_candidates += res.candidates
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(7, f"exists and unique on {len(fixtures)} fixtures "
           f"({total_candidates} candidate maps exhausted), {elapsed:.2f}s < 60s")


def test_criterion_08_monad_laws():
    no_ops = MonadInstance(EMPTY_SIG, Theory("EMPTY", ()), MET, 2)
    for r in check_monad_laws(no_ops, AB):
        assert r.failed == 0
        assert r.skipped_overflow == 0
    inv = MonadInstance(U_SIG, INVOLUTION, MET, 3)
    inv_reports = check_monad_laws(inv, AB)
    for r in inv_reports:
        assert r.failed == 0
        assert r.coverage >= 0.5, r
    plain = MonadInstance(U_SIG, Theory("EMPTY", ()), MET, 3)
    plain_reports = check_monad_laws(plain, AB)
    for r in plain_reports:
        assert r.failed == 0
    assoc = next(r for r in plain_reports if "M(mult)" in r.law)
    _ok(8, "failed=0 everywhere; no-ops full coverage; u/1 depth-3 involution "
           f"coverage {min(r.coverage for r in inv_reports):.0%} >= 50%; "
           f"u/1 depth-3 empty-theory assoc coverage {assoc.coverage:.0%} "
           f"(checked={assoc.checked}, skipped={assoc.skipped_overflow})")


def test_criterion_09_em_round_trip():
    rng = random.Random(31)
    done = 0
    while done < 10:
        spec = rng.choice([MET, PMET])
        alg = random_algebra(rng, U_SIG, GRID, spec, rng.randint(1, 2))
        mi = MonadInstance(U_SIG, Theory("EMPTY", ()), spec, 2)
        cand = em_from_model(mi, alg)
        for r in check_em_laws(mi, cand):
            assert r.failed == 0
        rebuilt, _ = model_from_em(mi, cand)
        assert rebuilt.ops == alg.ops
        assert rebuilt.space == alg.space
        done += 1
    _ok(9, f"{done} randomized models: laws pass, op tables reproduced exactly")


def test_criterion_10_hom_image_lemma():
    rng = random.Random(77)
    quads = make_hom_image_quadruples(rng, 20)
    for a, b, f, g, th, spec in quads:
        assert check_hom_image_model(a, b, f, g, th, spec)
    _ok(10, f"{len(quads)} quadruples meeting the hypotheses: image always a model")


def test_criterion_11_discrete_lifting():
    src = space(GRID, ["a", "b"], [["0", "1/4"], ["1/4", "0"]])
    frel_lift = discrete_lift(FREL, src, 2)
    assert all(v == GRID.q for row in frel_lift.dist for v in row)
    met_lift = discrete_lift(MET, src, 2)
    for i, x in enumerate(met_lift.carrier):
        for j, y in enumerate(met_lift.carrier):
            assert met_lift.dist[i][j] == (0 if i == j else GRID.q)
    assert check_space(FREL, frel_lift) == []
    assert check_space(MET, met_lift) == []
    checked_fns = 0
    for preset, lifted in ((FREL, frel_lift), (MET, met_lift)):
        dst = (
            space(GRID, ["p", "q"], [["1/4", "1/2"], ["3/4", "0"]])
            if preset is FREL
            else space(GRID, ["p", "q"], [["0", "1/2"], ["1/2", "0"]])
        )
        assert check_space(preset, dst) == []
        for images in itertools.product(dst.carrier, repeat=len(lifted.carrier)):
            f = dict(zip(lifted.carrier, images))
            assert is_nonexpansive(f, lifted, dst)
            checked_fns += 1
    _ok(11, f"FREL lift constant 1, MET lift 0/1; both pass check_space; "
            f"all {checked_fns} set-functions out of the lifts nonexpansive")


def test_criterion_12_depth_monotonicity():
    fixtures = [
        (EMPTY_SIG, COLLAPSE, MET, AB, 1),
        (U_SIG, QUARTER, MET, AB, 2),
        (U_SIG, INVOLUTION, MET, AB, 2),
        (U_SIG, Theory("EMPTY", ()), MET, AB, 2),
    ]
    rng = random.Random(55)
    for _ in range(3):
        spec = rng.choice([MET, PMET])
        fixtures.append(
            (U_SIG, random_theory(rng, U_SIG, GRID, spec, 1), spec,
             random_space(rng, GRID, 2, spec), 2)
        )
    compared = 0
    for sig, theory, spec, sp, depth in fixtures:
        shallow = saturate(sig, theory, spec, sp, depth)
        deep = saturate(sig, theory, spec, sp, depth + 1)
        for s in shallow.universe:
            for t in shallow.universe:
                si, ti = shallow.index_of(s), shallow.index_of(t)
                di, dj = deep.index_of(s), deep.index_of(t)
                if shallow.same(si, ti):
                    assert deep.same(di, dj)
                assert deep.class_distance(di, dj) <= shallow.class_distance(si, ti)
                for eps in shallow.grid.values():
                    if derives(shallow, Judgment(sp, s, t, eps)):
                        assert derives(deep, Judgment(sp, s, t, eps))
                compared += 1
    _ok(12, f"{len(fixtures)} fixtures re-run at depth+1: no class splits, "
            f"no distance increases, no lost judgments ({compared} pairs)")
