from __future__ import annotations

import itertools
import random

import pytest

import qeqlog.free as free_mod
import qeqlog.qalg as qalg_mod
from qeqlog.errors import (BudgetExceeded, GridMismatch, NotAModel, NotNonexpansive, QeqlogError,
                           SpecViolation)
from qeqlog.free import (OVERFLOW, FreeAlgebra, LawReport, build_free, check_free_is_model, check_ump,
                         extend_hom, free_eval)
from qeqlog.gmet import FREL, MET, PMET, EpsGrid, FuzzySpace, check_space, nonexpansive_images
from qeqlog.qalg import Judgment, QuantAlgebra, Theory, satisfies
from qeqlog.deduce import DerivationDB, derives, saturate
from qeqlog.terms import App, Signature, Var, term_to_str, term_vars

import known_theories
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

    def test_overflow_is_the_hashcons_none(self, ab_half):
        # a term outside the universe reads None in the tables as in the hashcons
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        ua = fa.class_of(App("u", (Var("a"),)))
        assert OVERFLOW is None and fa.base.app_index("u", (fa.rep_ids[ua],)) is None

    def test_law_report_json_is_its_fields_in_order(self):
        assert list(LawReport("L", 3, 1, 1, "x").to_json().items()) == [
            ("law", "L"), ("checked", 3), ("skipped_overflow", 1), ("failed", 1),
            ("first_failure", "x")]

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


CUG_SIG = Signature.of({"c": 0, "u": 1, "g": 3})


def _per_entry_tables(fa) -> dict:
    """Each operation's table, one app_index lookup per entry over the
    representatives' ids, its class found among the representatives."""
    reps, base = fa.rep_ids, fa.base
    tables = {}
    for op, arity in base.sig.ops:
        table = {}
        for args in itertools.product(range(len(reps)), repeat=arity):
            i = base.app_index(op, tuple(reps[a] for a in args))
            table[args] = OVERFLOW if i is None else reps.index(base.find(i))
        tables[op] = table
    return tables


class TestFlatTables:
    """Each table is a read-only mapping over one flat tuple in product order."""

    @pytest.mark.parametrize("seed", range(6))
    def test_tables_match_a_per_entry_reference(self, seed):
        # a constant, a unary and a ternary operation, with random axioms
        rng = random.Random(seed)
        spec = rng.choice([FREL, PMET, MET])
        theory = _theory(rng, CUG_SIG, GRID, spec, rng.randint(0, 2))
        fa = build_free(CUG_SIG, theory, spec, random_space(rng, GRID, rng.randint(1, 2), spec),
                        2, 100_000)
        n, reference = len(fa.classes), _per_entry_tables(fa)
        assert set(fa.optable) == {"c", "u", "g"}
        for op, arity in CUG_SIG.ops:
            table, expected = fa.optable[op], reference[op]
            assert dict(table.items()) == expected
            assert list(table) == list(itertools.product(range(n), repeat=arity))
            assert list(table.values()) == list(expected.values())
            assert len(table) == n ** arity
            assert table == expected and expected == table
            assert all(table[args] == res for args, res in expected.items())

    def test_wrong_keys_raise_key_error(self, ab_half):
        fa = build_free(CUG_SIG, Theory("E", ()), FREL, ab_half, 2)
        n, g = len(fa.classes), fa.optable["g"]
        a, b, c = map(fa.class_of, (Var("a"), Var("b"), App("c", ())))
        assert g[(a, b, c)] == fa.class_of(App("g", (Var("a"), Var("b"), App("c", ()))))
        assert g[(a, b, n - 1)] is OVERFLOW
        for key in [(0, 1), (0, 1, 2, 3), (0, 1, n), (0, -1, 0), (0, 0, "a"), [0, 0, 0], 0]:
            with pytest.raises(KeyError):
                g[key]
            assert key not in g
        assert fa.optable["c"][()] == c
        with pytest.raises(KeyError):
            fa.optable["c"][(0,)]


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
        # the check reads the space's table, which is delta
        fa.delta = tuple(tuple(r) for r in rows)
        fa.space = FuzzySpace(fa.space.grid, fa.space.carrier, fa.delta)
        rep = check_free_is_model(fa, th, MET)
        assert rep.failed > 0

    def test_compiles_each_side_once_per_judgment(self, ab_half, monkeypatch):
        th = quarter_theory()
        fa = build_free(U_SIG, th, MET, ab_half, 3)
        calls, compiled = [], DerivationDB.compiled

        def counted(db, t, names):
            calls.append(t)
            return compiled(db, t, names)

        monkeypatch.setattr(DerivationDB, "compiled", counted)
        rep = check_free_is_model(fa, th, MET)
        assert rep.checked + rep.skipped_overflow > 1
        assert len(calls) == 2 * len(th.judgments)

    def test_shared_context_is_searched_once(self, ab_half, monkeypatch):
        # two judgments on one context: one search serves both
        th = Theory("T", (Judgment(ab_half, App("u", (Var("a"),)), Var("a"), 2),
                          Judgment(ab_half, Var("a"), Var("b"), 2)))
        fa = build_free(U_SIG, th, MET, ab_half, 3)
        searched = []

        def counted(src, dst, budget):
            searched.append(src)
            return nonexpansive_images(src, dst, budget)

        monkeypatch.setattr(qalg_mod, "nonexpansive_images", counted)
        rep = check_free_is_model(fa, th, MET)
        assert searched == [ab_half]
        interps = len(list(nonexpansive_images(ab_half, fa.space)))
        assert interps > 1 and rep.checked + rep.skipped_overflow == 2 * interps

    def test_off_spec_context_is_refused_as_satisfies_refuses_it(self, ab_half, swap_algebra):
        skew = space(GRID, ["x", "y"], [["0", "1/4"], ["3/4", "0"]])
        j = Judgment(skew, Var("x"), Var("y"), GRID.value("1/2"))
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        with pytest.raises(SpecViolation) as refused:
            satisfies(swap_algebra, MET, j)
        with pytest.raises(SpecViolation) as err:
            check_free_is_model(fa, Theory("S", (j,)), MET)
        assert str(err.value) == str(refused.value)
        assert str(err.value) == "judgment context violates MET: symm: x=x, y=y [e=1/4]"

    def test_context_on_another_grid_is_refused_as_satisfies_refuses_it(self, ab_half, swap_algebra):
        halves = EpsGrid(2)
        j = Judgment(space(halves, ["x", "y"], [["0", "1/2"], ["1/2", "0"]]), Var("x"), Var("y"),
                     halves.value("1/2"))
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        with pytest.raises(GridMismatch) as refused:
            satisfies(swap_algebra, MET, j)
        with pytest.raises(GridMismatch) as err:
            check_free_is_model(fa, Theory("G", (j,)), MET)
        assert str(err.value) == str(refused.value)

    def test_sides_compile_at_the_first_interpretation(self):
        # a side nested 201 levels deep, past what compile_term takes, in a
        # universe deep enough to hold it: it is compiled, and refused, only
        # when its context has an interpretation, and after the budget
        fa = build_free(U_SIG, Theory("E", ()), FREL, space(GRID, ["a"], [["1"]]), 202)
        deep = Var("x")
        for _ in range(200):
            deep = App("u", (deep,))

        def theory(self_distance):
            return Theory("D", (Judgment(space(GRID, ["x"], [[self_distance]]), deep, Var("x")),))

        # every class is at 1 from itself, so a context at 0 has no interpretation
        assert check_free_is_model(fa, theory("0"), FREL) == LawReport("D", 0, 0, 0)
        with pytest.raises(QeqlogError, match="nested more than 200 levels deep"):
            check_free_is_model(fa, theory("1"), FREL)
        for d in ("0", "1"):
            with pytest.raises(BudgetExceeded):
                check_free_is_model(fa, theory(d), FREL, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_free_eval_on_every_interpretation(self, seed, monkeypatch):
        rng = random.Random(seed)
        spec = rng.choice([MET, PMET, FREL])
        th = random_theory(rng, U_SIG, GRID, spec, rng.randint(1, 3))
        fa = build_free(U_SIG, th, spec, random_space(rng, GRID, 2, spec), rng.randint(2, 3))
        if seed % 2:
            rows = [list(r) for r in fa.delta]
            rows[0][-1] = rows[-1][0] = 0
            fa.delta = tuple(tuple(r) for r in rows)
        expected = []
        for j in th.judgments:
            for images in nonexpansive_images(j.context, fa.space):
                tau = dict(zip(j.context.carrier, images))
                left, right = free_eval(fa, tau, j.lhs), free_eval(fa, tau, j.rhs)
                if left is OVERFLOW or right is OVERFLOW:
                    expected.append(None)
                elif j.eps is None:
                    expected.append(left == right)
                else:
                    expected.append(fa.delta[left][right] <= j.eps)
        # the check's outcomes, one per interpretation, in place of its tally
        monkeypatch.setattr(LawReport, "tally", classmethod(lambda cls, law, outs: list(outs)))
        got = check_free_is_model(fa, th, spec)
        assert [o if o is None else o is True for o in got] == expected
        assert expected


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

    def test_budget_message(self, swap_algebra, ab_half):
        # 4 classes, so 2**4 maps into the two points
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        with pytest.raises(BudgetExceeded) as exc:
            check_ump(fa, swap_algebra, {"a": "p", "b": "q"}, budget=15)
        assert str(exc.value) == "16 candidate maps exceed budget 15"

    def test_count_past_str_is_charged(self):
        # {u/1, v/1} over one point under FREL at depth 11: 2,047 classes,
        # each term its own, so 127**2047 maps into 127 points, a count of
        # more digits than str converts
        uv = Signature.of({"u": 1, "v": 1})
        fa = build_free(uv, Theory("E", ()), FREL, space(GRID, ["g"], [["0"]]), 11)
        assert len(fa.classes) == 2_047
        points = [f"p{i}" for i in range(127)]
        alg = QuantAlgebra(space(GRID, points, [["0"] * 127] * 127), uv,
                           {op: {(p,): p for p in points} for op in ("u", "v")})
        with pytest.raises(BudgetExceeded) as exc:
            check_ump(fa, alg, {"g": "p0"}, budget=10**6)
        assert str(exc.value) == "127**2047 candidate maps exceed budget 1000000"

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


def hausdorff(sp: FuzzySpace, s, t) -> int:
    """The Hausdorff distance in ``sp`` between two nonempty sets of its points."""
    def reach(a, t):
        return min(sp.d(a, b) for b in t)
    return max(*(reach(a, t) for a in s), *(reach(b, s) for b in t))


class TestKnownAnswers:
    # the free quantitative semilattice is the nonempty subsets of the
    # generators under the Hausdorff distance: over two generators, closed at
    # depth 3, the classes of a, b and f(a,b)
    @pytest.mark.parametrize("d", ["1/2", "1"])
    def test_semilattice_classes_are_at_their_hausdorff_distance(self, d):
        target = space(GRID, ["a", "b"], [["0", d], [d, "0"]])
        fa = build_free(known_theories.SIG, known_theories.semilattice(GRID), MET, target, 3)
        assert len(fa.classes) == 3
        assert OVERFLOW not in fa.optable["f"].values()
        sets = [term_vars(t) for t in fa.classes]
        assert fa.delta == tuple(tuple(hausdorff(target, s, t) for t in sets) for s in sets)
