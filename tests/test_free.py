from __future__ import annotations

import random

import pytest

import qeqlog.free as free_mod
from qeqlog.errors import BudgetExceeded, NotAModel, NotNonexpansive, QeqlogError
from qeqlog.free import OVERFLOW, FreeAlgebra, build_free, check_free_is_model, check_ump, extend_hom, free_eval
from qeqlog.gmet import FREL, MET, PMET, EpsGrid, check_space
from qeqlog.qalg import Judgment, QuantAlgebra, Theory
from qeqlog.deduce import derives, saturate
from qeqlog.terms import App, Signature, Var, term_to_str

from conftest import random_space, random_theory, space
from test_models_reference import SIGS, _theory


GRID = EpsGrid(4)
EMPTY_SIG = Signature.of({})
U_SIG = Signature.of({"u": 1})
UC_SIG = Signature.of({"u": 1, "c": 0})


def quarter_theory(grid=GRID) -> Theory:
    ctx = space(grid, ["x"], [["0"]])
    return Theory("T", (Judgment(ctx, App("u", (Var("x"),)), Var("x"), 1),))


class TestBuildFree:
    def test_collapse_single_class(self, ab_half):
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        fa = build_free(EMPTY_SIG, th, MET, ab_half, 1)
        assert len(fa.classes) == 1

    def test_constants_and_unary_over_one_generator(self):
        sp = space(GRID, ["a"], [["0"]])
        fa = build_free(UC_SIG, Theory("E", ()), MET, sp, 2)
        assert [term_to_str(t) for t in fa.classes] == ["a", "c", "u(a)", "u(c)"]
        assert fa.delta[0][1] == GRID.q  # nothing relates distinct generators

    def test_two_generators_no_axioms(self, ab_half):
        fa = build_free(EMPTY_SIG, Theory("E", ()), MET, ab_half, 1)
        assert len(fa.classes) == 2
        assert fa.delta[0][1] == GRID.value("1/2")

    def test_optable_overflow_at_frontier(self, ab_half):
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        ua = fa.class_of(App("u", (Var("a"),)))
        assert fa.optable["u"][(fa.class_of(Var("a")),)] == ua
        assert fa.optable["u"][(ua,)] is OVERFLOW

    def test_unit_maps_generators(self, ab_half):
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        assert fa.unit["a"] == fa.class_of(Var("a"))

    def test_quotient_is_a_space_of_the_class(self, ab_half):
        th = quarter_theory()
        fa = build_free(U_SIG, th, MET, ab_half, 3)
        assert check_space(MET, fa.space) == []

    def test_table_size_is_checked_against_the_budget(self, ab_half):
        # {u/1, g/3} at depth 3 under FREL saturates in 4 instances into
        # 1,742 classes: the g table alone would have 1,742^3 entries
        sig = Signature.of({"u": 1, "g": 3})
        db = saturate(sig, Theory("E", ()), FREL, ab_half, 3, 20_000)
        assert len(db.roots()) == 1742 and db.instances <= 20_000
        with pytest.raises(BudgetExceeded, match=r"^free algebra over 1742 classes: the tables"
                           r" up to g hold 5286210488 entries, more than the budget of 20000$"):
            FreeAlgebra(db)

    def test_table_budget_boundary(self, ab_half):
        # u and c over two generators at depth 2: six classes, 6 + 1 entries
        args = (UC_SIG, Theory("E", ()), FREL, ab_half, 2)
        assert sum(len(t) for t in build_free(*args, 7).optable.values()) == 7
        with pytest.raises(BudgetExceeded, match="tables up to u hold 7 entries"):
            build_free(*args, 6)

    @pytest.mark.parametrize("seed", range(4))
    def test_quotient_passes_spec_randomized(self, seed):
        rng = random.Random(seed)
        spec = rng.choice([MET, PMET])
        target = random_space(rng, GRID, 2, spec)
        th = random_theory(rng, U_SIG, GRID, spec, rng.randint(0, 2))
        fa = build_free(U_SIG, th, spec, target, 2)
        assert check_space(spec, fa.space) == []


class TestFreeEval:
    @pytest.fixture
    def fa(self, ab_half):
        return build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)

    def test_variable_base_case(self, fa):
        ua = fa.class_of(App("u", (Var("a"),)))
        assert free_eval(fa, {"x": ua}, Var("x")) == ua

    def test_application_case(self, fa):
        ca = fa.class_of(Var("a"))
        assert free_eval(fa, {"x": ca}, App("u", (Var("x"),))) == fa.class_of(
            App("u", (Var("a"),))
        )

    def test_overflow_at_depth_bound(self, fa):
        ua = fa.class_of(App("u", (Var("a"),)))
        assert free_eval(fa, {"x": ua}, App("u", (Var("x"),))) is OVERFLOW


class TestFreeIsModel:
    def test_empty_theory(self, ab_half):
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        rep = check_free_is_model(fa, Theory("E", ()), MET)
        assert rep.failed == 0 and rep.checked == 0

    def test_quarter_theory_all_pass(self, ab_half):
        th = quarter_theory()
        fa = build_free(U_SIG, th, MET, ab_half, 3)
        rep = check_free_is_model(fa, th, MET)
        assert rep.failed == 0
        assert rep.checked > 0

    def test_corrupted_delta_detected(self, ab_half):
        th = quarter_theory()
        fa = build_free(U_SIG, th, MET, ab_half, 3)
        ua, a = fa.class_of(App("u", (Var("a"),))), fa.class_of(Var("a"))
        rows = [list(r) for r in fa.delta]
        rows[ua][a] = GRID.q
        fa.delta = tuple(tuple(r) for r in rows)
        rep = check_free_is_model(fa, th, MET)
        assert rep.failed > 0


class TestCompletenessWitness:
    def test_unit_evaluation_mirrors_derivability(self, ab_half):
        th = quarter_theory()
        fa = build_free(U_SIG, th, MET, ab_half, 3)
        db = fa.base
        unit_tau = dict(fa.unit)
        for s in db.universe:
            cs = free_eval(fa, unit_tau, s)
            assert cs == fa.class_of(s)
            for t in db.universe:
                ct = free_eval(fa, unit_tau, t)
                for eps in GRID.values():
                    assert (fa.delta[cs][ct] <= eps) == derives(
                        db, Judgment(ab_half, s, t, eps)
                    )

    def test_unit_nonexpansive(self, ab_half):
        th = quarter_theory()
        fa = build_free(U_SIG, th, MET, ab_half, 2)
        for a in ab_half.carrier:
            for b in ab_half.carrier:
                assert fa.delta[fa.unit[a]][fa.unit[b]] <= ab_half.d(a, b)


class TestWellDefinedness:
    def test_distance_independent_of_representatives(self, ab_half):
        th = Theory(
            "T",
            (
                Judgment(ab_half, App("u", (Var("a"),)), Var("a")),
                Judgment(ab_half, App("u", (Var("b"),)), Var("b"), 1),
            ),
        )
        db = saturate(U_SIG, th, MET, ab_half, 3)
        for s1 in db.universe:
            for s2 in db.universe:
                if not db.same(db.index_of(s1), db.index_of(s2)):
                    continue
                for t in db.universe:
                    assert db.class_distance(
                        db.index_of(s1), db.index_of(t)
                    ) == db.class_distance(db.index_of(s2), db.index_of(t))


class TestExtendHom:
    def test_forced_values(self, swap_algebra, ab_half):
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        f = {"a": "p", "b": "q"}
        ext = extend_hom(fa, swap_algebra, f)
        assert ext[fa.class_of(App("u", (Var("a"),)))] == "q"
        # extension property: composing with the unit recovers the generator map
        for a in ab_half.carrier:
            assert ext[fa.unit[a]] == f[a]

    def test_not_a_model(self, swap_algebra, ab_half):
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        fa = build_free(U_SIG, th, MET, ab_half, 2)
        with pytest.raises(NotAModel):
            extend_hom(fa, swap_algebra, {"a": "p", "b": "q"})

    def test_not_nonexpansive(self, sig_u, ab_half):
        far = space(GRID, ["p", "q"], [["0", "1"], ["1", "0"]])
        alg = QuantAlgebra(far, sig_u, {"u": {("p",): "q", ("q",): "p"}})
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        with pytest.raises(NotNonexpansive):
            extend_hom(fa, alg, {"a": "p", "b": "q"})

    def test_agrees_across_representatives(self, swap_algebra, ab_half):
        th = Theory("T", (Judgment(ab_half, App("u", (App("u", (Var("a"),)),)), Var("a")),))
        fa = build_free(U_SIG, th, MET, ab_half, 3)
        # would raise internally if any class member evaluated differently
        ext = extend_hom(fa, swap_algebra, {"a": "p", "b": "q"})
        assert set(ext) == set(range(len(fa.classes)))

    def test_member_audit_names_the_member(self, swap_algebra, ab_half, monkeypatch):
        # let a non-model through: a and b share a class but evaluate apart
        monkeypatch.setattr(free_mod, "is_model", lambda *args: True)
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        fa = build_free(U_SIG, th, MET, ab_half, 2)
        with pytest.raises(QeqlogError, match=r"^extension disagrees on class members: b$"):
            extend_hom(fa, swap_algebra, {"a": "p", "b": "q"})

    def test_class_images_names_the_member_without_the_universe(self, ab_half):
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        fa = build_free(U_SIG, th, MET, ab_half, 2)
        n = len(fa.base._parent)
        ub = fa.base.index_of(App("u", (Var("b"),)))
        assert ub not in fa.rep_ids
        values = [fa.class_at(i) for i in range(n)]
        assert fa.class_images(values, "same") == list(range(len(fa.classes)))
        values[ub] = -1
        with pytest.raises(QeqlogError, match=r"^altered on class members: u\(b\)$"):
            fa.class_images(values, "altered")
        # naming one member builds its term alone, not every term tree
        assert "universe" not in vars(fa.base)


class TestCheckUmp:
    def test_swap_fixture_exists_unique(self, swap_algebra, ab_half):
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        res = check_ump(fa, swap_algebra, {"a": "p", "b": "q"})
        assert res.exists and res.unique
        assert res.candidates == 2 ** len(fa.classes)

    def test_collapsed_fixture(self, swap_algebra, ab_half):
        th = quarter_theory()
        fa = build_free(U_SIG, th, MET, ab_half, 2)
        alg_one = QuantAlgebra(
            space(GRID, ["z"], [["0"]]), U_SIG, {"u": {("z",): "z"}}
        )
        res = check_ump(fa, alg_one, {"a": "z", "b": "z"})
        assert res.exists and res.unique

    def test_budget(self, swap_algebra, ab_half):
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        with pytest.raises(BudgetExceeded):
            check_ump(fa, swap_algebra, {"a": "p", "b": "q"}, budget=3)

    def test_precondition_errors_propagate(self, swap_algebra, ab_half):
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        fa = build_free(U_SIG, th, MET, ab_half, 2)
        with pytest.raises(NotAModel):
            check_ump(fa, swap_algebra, {"a": "p", "b": "q"})

    @pytest.mark.parametrize("seed", range(60))
    def test_every_class_is_forced(self, seed):
        """The lemma check_ump decides by: each class is a value of the unit,
        or a non-Overflow table entry whose argument classes are all lower.
        Seeds 3, 18, 33 and 48 draw a 0-point target under a signature with
        a constant."""
        rng = random.Random(seed)
        sig = SIGS[seed % len(SIGS)]
        gens = 0 if seed % 15 == 3 else rng.randint(1, 2)
        spec, grid = rng.choice([FREL, PMET, MET]), EpsGrid(rng.randint(1, 4))
        theory = _theory(rng, sig, grid, spec, rng.randint(0, 3))
        try:
            fa = build_free(sig, theory, spec, random_space(rng, grid, gens, spec),
                            rng.randint(1, 3), 20000)
        except QeqlogError:
            return
        forced = set(fa.unit.values())
        for table in fa.optable.values():
            forced.update(res for args, res in table.items()
                          if res is not OVERFLOW and all(a < res for a in args))
        assert forced == set(range(len(fa.classes)))


class TestMonotoneRefinement:
    @pytest.mark.parametrize("seed", range(3))
    def test_deeper_free_algebra_refines(self, seed):
        rng = random.Random(42 + seed)
        target = random_space(rng, GRID, 2, MET)
        th = random_theory(rng, U_SIG, GRID, MET, 1)
        shallow = build_free(U_SIG, th, MET, target, 2)
        deep = build_free(U_SIG, th, MET, target, 3)
        for t1 in shallow.base.universe:
            for t2 in shallow.base.universe:
                c1s, c2s = shallow.class_of(t1), shallow.class_of(t2)
                c1d, c2d = deep.class_of(t1), deep.class_of(t2)
                if c1s == c2s:
                    assert c1d == c2d
                assert deep.delta[c1d][c2d] <= shallow.delta[c1s][c2s]
