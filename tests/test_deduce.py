from __future__ import annotations

import itertools
import random
import re
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from qeqlog import deduce
from qeqlog.errors import (
    BudgetExceeded,
    OutOfUniverse,
    QeqlogError,
    SpecViolation,
    TrivialPair,
    UnknownFact,
    UnknownVariable,
)
from qeqlog.gmet import FREL, MET, PMET, EpsGrid, FuzzySpace
from qeqlog.qalg import Judgment, QuantAlgebra, Theory, is_model, satisfies
from qeqlog.deduce import (
    DerivationDB,
    derives,
    distance,
    gen_nonexpansive_axioms,
    saturate,
    trace,
)
from qeqlog.terms import (App, Signature, Var, apply_subst, enumerate_universe, term_vars,
                          universe_size)

from conftest import (
    random_algebra,
    random_space,
    random_term,
    random_theory,
    space,
    trivial_model,
)
from oracle import OracleDB
from test_deduce_custom_specs import OFF_GRID_BEHIND_ZERO
from test_terms import terms_strategy


GRID = EpsGrid(4)
EMPTY_SIG = Signature.of({})
U_SIG = Signature.of({"u": 1})
F_SIG = Signature.of({"f": 2})
UF_SIG = Signature.of({"u": 1, "f": 2})


def unary_axiom_quarter(grid) -> Theory:
    """u(x) within 1/4 of x, over a one-point context."""
    ctx = FuzzySpace(grid, ("x",), ((0,),))
    return Theory("T", (Judgment(ctx, App("u", (Var("x"),)), Var("x"), 1),))


def _universe_size(sig: Signature, n_carrier: int, depth: int) -> int:
    return universe_size(sig, [f"p{i}" for i in range(n_carrier)], depth)


class TestSubstIndex:
    """The compiled substitution against building the substituted term and
    finding it in the universe, which runs no compiled term."""

    @settings(deadline=None)
    @given(
        st.lists(st.sampled_from((0, 1, 2, 3)), min_size=1, max_size=3),
        st.integers(1, 2),
        st.integers(1, 3),
        st.data(),
    )
    def test_matches_apply_subst(self, arities, n_carrier, depth, data):
        sig = Signature.of({f"o{i}": ar for i, ar in enumerate(arities)})
        carrier = ("a", "b")[:n_carrier]
        assume(_universe_size(sig, n_carrier, depth) <= 300)
        target = space(GRID, carrier, [["0"] * n_carrier] * n_carrier)
        db = saturate(sig, Theory("E", ()), FREL, target, depth)
        pattern = data.draw(terms_strategy(sig, ("x", "y")))
        roots = db.roots()
        sigma = {x: data.draw(st.sampled_from(roots)) for x in ("x", "y")}
        built = apply_subst({x: db.universe[i] for x, i in sigma.items()}, pattern)
        expected = db.universe.index(built) if built in db.universe else None
        assert db.subst_index(sigma, pattern) == expected
        for x in term_vars(pattern):
            stray = {y: i for y, i in sigma.items() if y != x}
            # a variable missing from sigma is refused before any lookup
            with pytest.raises(UnknownVariable):
                db.subst_index(stray, pattern)

    def test_stray_variable_is_typed(self, ab_half):
        db = saturate(U_SIG, Theory("E", ()), FREL, ab_half, 2)
        with pytest.raises(UnknownVariable):
            db.subst_index({}, Var("x"))
        with pytest.raises(UnknownVariable):
            db.subst_index({"x": 0}, App("u", (Var("y"),)))


class TestSaturateFixtures:
    def test_collapse_to_single_class(self, ab_half):
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        db = saturate(EMPTY_SIG, th, MET, ab_half, 1)
        assert len(db.roots()) == 1
        assert derives(db, Judgment(ab_half, Var("a"), Var("b")))

    def test_use_variables_only(self, ab_half):
        db = saturate(EMPTY_SIG, Theory("E", ()), MET, ab_half, 1)
        assert distance(db, Var("a"), Var("b")) == GRID.fraction(2)
        assert distance(db, Var("a"), Var("a")) == 0

    def test_subst_twice_plus_triangle(self, ab_half):
        db = saturate(U_SIG, unary_axiom_quarter(GRID), MET, ab_half, 3)
        assert distance(db, App("u", (Var("a"),)), Var("b")) == GRID.fraction(3)

    def test_frel_keeps_usevar_values(self):
        sp = space(GRID, ["a", "b"], [["1/4", "1/2"], ["3/4", "1"]])
        db = saturate(EMPTY_SIG, Theory("E", ()), FREL, sp, 1)
        for a in sp.carrier:
            for b in sp.carrier:
                assert distance(db, Var(a), Var(b)) == GRID.fraction(sp.d(a, b))

    def test_trivial_pair(self):
        sp = FuzzySpace(GRID, (), ())
        with pytest.raises(TrivialPair):
            saturate(U_SIG, Theory("E", ()), MET, sp, 2)

    def test_spec_violation(self):
        bad = space(GRID, ["a", "b"], [["0", "1/4"], ["1/2", "0"]])
        with pytest.raises(SpecViolation):
            saturate(EMPTY_SIG, Theory("E", ()), MET, bad, 1)

    def test_budget(self, ab_half):
        with pytest.raises(BudgetExceeded):
            saturate(U_SIG, unary_axiom_quarter(GRID), MET, ab_half, 3, budget=10)


_BUDGET_RE = re.compile(
    r"^saturation considered more than (\d+) rule instances in round (\d+) at (\S+)$"
)


def _mixed(ab_half) -> Theory:
    # u(x) within 1/4 of x lowers; u(a) = u(b) over a pair at 1/2 merges
    ua, ub = App("u", (Var("a"),)), App("u", (Var("b"),))
    return Theory("MIX", unary_axiom_quarter(GRID).judgments + (Judgment(ab_half, ua, ub),))


class TestBudgetNamesPhase:
    """Every phase that counts instances can trip the budget, and says so."""

    @pytest.mark.parametrize("phase,round_", [
        ("USEVAR", 0), ("HORN:triangle", 1), ("SUBST:PHI1[0]", 1), ("CONG", 3),
    ])
    def test_first_budget_tripping_in_phase(self, ab_half, phase, round_):
        # a = b at distance 0: the merge makes u(a), u(b) a congruence pair
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        needed = saturate(U_SIG, th, MET, ab_half, 2).instances
        for budget in range(needed):
            with pytest.raises(BudgetExceeded) as exc:
                saturate(U_SIG, th, MET, ab_half, 2, budget=budget)
            m = _BUDGET_RE.match(str(exc.value))
            assert m and int(m[1]) == budget, str(exc.value)
            if m[3] == phase:
                assert int(m[2]) == round_
                return
        pytest.fail(f"no budget below {needed} trips in {phase}")

    # per fixture, the (phase, round, how many budgets in a row trip there)
    # of every budget below the total, in budget order
    PHI1_TRIPS = [
        ("USEVAR", 0, 4), ("HORN:refl", 1, 4), ("HORN:symm", 1, 6), ("HORN:triangle", 1, 10),
        ("HORN:zero_implies_eq", 1, 6), ("HORN:eq_implies_zero", 1, 4), ("SUBST:PHI1[0]", 1, 6),
        ("HORN:symm", 2, 2), ("HORN:triangle", 2, 6), ("HORN:zero_implies_eq", 2, 11),
        ("CONG", 3, 1),
    ]
    MIXED_TRIPS = [
        ("USEVAR", 0, 4), ("HORN:refl", 1, 6), ("HORN:symm", 1, 8), ("HORN:triangle", 1, 12),
        ("HORN:zero_implies_eq", 1, 8), ("HORN:eq_implies_zero", 1, 6), ("SUBST:MIX[0]", 1, 6),
        ("SUBST:MIX[1]", 1, 10), ("CONG", 2, 1), ("HORN:symm", 2, 3), ("HORN:triangle", 2, 42),
        ("HORN:zero_implies_eq", 2, 10), ("SUBST:MIX[1]", 2, 12), ("HORN:symm", 3, 2),
    ]

    @pytest.mark.parametrize("fixture", ["PHI1", "MIXED"])
    def test_every_budget_names_its_phase_and_round(self, ab_half, fixture):
        if fixture == "PHI1":
            th, depth, expected = (Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),)),
                                   2, self.PHI1_TRIPS)
        else:
            th, depth, expected = _mixed(ab_half), 3, self.MIXED_TRIPS
        needed = saturate(U_SIG, th, MET, ab_half, depth).instances
        trips = []
        for budget in range(needed):
            with pytest.raises(BudgetExceeded) as exc:
                saturate(U_SIG, th, MET, ab_half, depth, budget=budget)
            m = _BUDGET_RE.match(str(exc.value))
            assert m and int(m[1]) == budget, str(exc.value)
            trips.append((m[3], int(m[2])))
        assert [(*trip, len(list(run))) for trip, run in itertools.groupby(trips)] == expected

    def test_a_rule_build_error_comes_at_its_first_pass(self):
        # u^201(x) =1/4 x is in the depth-202 universe but too deep to
        # compile: the axiom's first pass raises, after every budget trip
        # in USEVAR (1 instance) and the five clauses' first passes (202 each)
        sp = FuzzySpace(GRID, ("x",), ((0,),))
        deep = Var("x")
        for _ in range(201):
            deep = App("u", (deep,))
        th = Theory("DEEP", (Judgment(sp, deep, Var("x"), 1),))
        too_deep = "a term nested more than 200 levels deep cannot be evaluated"
        for budget in (None, 1011, 1012, 5000):
            with pytest.raises(QeqlogError, match=too_deep) as exc:
                saturate(U_SIG, th, MET, sp, 202, budget=budget)
            assert not isinstance(exc.value, BudgetExceeded)
        for budget in [*range(0, 1011, 25), 1010]:
            with pytest.raises(BudgetExceeded) as exc:
                saturate(U_SIG, th, MET, sp, 202, budget=budget)
            m = _BUDGET_RE.match(str(exc.value))
            assert m and int(m[1]) == budget, str(exc.value)
            assert (m[3], m[2]) == ("USEVAR", "0") or (m[3].startswith("HORN:") and m[2] == "1")
        assert m[3] == "HORN:eq_implies_zero"


class TestRulePasses:
    """Each rule is one generator of passes, built at its first pass."""

    def test_rule_parts_are_built_once(self, ab_half, monkeypatch):
        # three rounds, five clauses and two axioms: each clause compiles
        # once and each axiom its two sides once, not once per round
        calls = {"clause": 0, "side": 0}

        def counting(key, f):
            def wrapped(*args):
                calls[key] += 1
                return f(*args)
            return wrapped

        monkeypatch.setattr(deduce, "compile_clause", counting("clause", deduce.compile_clause))
        monkeypatch.setattr(DerivationDB, "compiled", counting("side", DerivationDB.compiled))
        th = _mixed(ab_half)
        db = saturate(U_SIG, th, MET, ab_half, 3)
        assert db._round == 3
        assert calls == {"clause": len(MET.clauses), "side": 2 * len(th.judgments)}

    def test_no_pass_state_outlives_its_pass(self, ab_half):
        # between passes a rule's frame keeps its parts, not the pass's roots
        # tuple or worklist, which grow with the universe
        th = _mixed(ab_half)
        db = DerivationDB(U_SIG, th, MET, ab_half, 3, None)
        rules = [deduce._horn_rule(c, db) for c in MET.clauses] + [
            deduce._subst_rule(k, j, db) for k, j in enumerate(th.judgments)]
        for _ in range(2):
            for passes in rules:
                next(passes)
                held = passes.gi_yieldfrom.gi_frame.f_locals
                assert not [k for k, v in held.items() if isinstance(v, (tuple, deduce._Worklist))]

    def test_merged_class_is_requeued_once_a_pass(self):
        # every distance of the axiom's context is 1, so its search prunes
        # nothing, and a member's first streams hold all its later tuples:
        # requeued at every merge instead, it took some 50 times as long
        grid = EpsGrid(1)
        ctx = FuzzySpace(grid, ("a", "b", "c"), ((1,) * 3,) * 3)
        theory = Theory("T", (Judgment(ctx, App("f", (Var("a"), Var("a"))), Var("c")),))
        target = FuzzySpace(grid, ("a",), ((1,),))
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc:
            saturate(Signature.of({"u": 1, "f": 2, "g": 3}), theory, OFF_GRID_BEHIND_ZERO,
                     target, 3, budget=5000)
        assert str(exc.value) == ("saturation considered more than 5000 rule instances"
                                  " in round 1 at SUBST:T[0]")
        assert time.perf_counter() - start < 1


class TestDerivesAndDistance:
    @pytest.fixture
    def collapse_db(self, ab_half):
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        return saturate(EMPTY_SIG, th, MET, ab_half, 1), ab_half

    def test_equation_after_collapse(self, collapse_db):
        db, sp = collapse_db
        assert derives(db, Judgment(sp, Var("a"), Var("b")))

    def test_one_max_always_derivable(self, collapse_db):
        db, sp = collapse_db
        assert derives(db, Judgment(sp, Var("a"), Var("b"), GRID.q))

    def test_below_minimum_not_derivable(self, ab_half):
        db = saturate(U_SIG, unary_axiom_quarter(GRID), MET, ab_half, 3)
        ua = App("u", (Var("a"),))
        assert derives(db, Judgment(ab_half, ua, Var("b"), 3))
        assert not derives(db, Judgment(ab_half, ua, Var("b"), 2))

    def test_out_of_universe(self, collapse_db, ab_half):
        db, _ = collapse_db
        with pytest.raises(OutOfUniverse):
            distance(db, App("u", (Var("a"),)), Var("b"))

    def test_variable_outside_the_target_is_out_of_universe(self, collapse_db):
        db, _ = collapse_db
        with pytest.raises(OutOfUniverse, match=r"^zz is outside the depth-1 universe$"):
            db.index_of(Var("zz"))

    def test_distance_of_self_is_zero_under_met(self, ab_half):
        db = saturate(U_SIG, Theory("E", ()), MET, ab_half, 2)
        for t in db.universe:
            assert distance(db, t, t) == 0


class TestIdsNotTrees:
    """Saturation and the queries on it run on universe ids; the tree of
    each id is a view built on its first read."""

    def test_saturate_builds_no_tree(self, ab_half, monkeypatch):
        ua, b = App("u", (Var("a"),)), Var("b")
        judgments = (Judgment(ab_half, ua, b, 3), Judgment(ab_half, ua, App("f", (b, b))))
        theory = unary_axiom_quarter(GRID)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a term tree was built")

        monkeypatch.setattr(App, "__init__", refuse)
        monkeypatch.setattr(Var, "__init__", refuse)
        db = saturate(UF_SIG, theory, MET, ab_half, 3)
        answers = [derives(db, j) for j in judgments], distance(db, ua, b)
        monkeypatch.undo()
        assert answers == ([True, False], GRID.fraction(3))
        assert "universe" not in vars(db)

    def test_universe_view(self, ab_half):
        db = saturate(UF_SIG, unary_axiom_quarter(GRID), MET, ab_half, 3)
        # a trace builds only the terms that it names
        trace(db, Judgment(ab_half, App("u", (Var("a"),)), Var("b"), 3))
        assert "universe" not in vars(db)
        assert db.universe is db.universe
        assert db.universe == tuple(enumerate_universe(UF_SIG, ab_half.carrier, 3))


# --- trace machinery: structure, leaves, local replay of each rule ---

_DIST_RE = re.compile(r"^(?P<lhs>\S+) =(?P<eps>[0-9/]+) (?P<rhs>\S+)$")
_EQ_RE = re.compile(r"^(?P<lhs>\S+) = (?P<rhs>\S+)$")

AXIOM_LEAVES = {"INIT", "USEVAR", "ONEMAX", "REFL"}


def _parse_fact(s: str):
    if s.startswith("axiom "):
        return ("axiom", s[6:])
    m = _DIST_RE.match(s)
    if m:
        from fractions import Fraction

        return ("dist", m["lhs"], m["rhs"], Fraction(m["eps"]))
    m = _EQ_RE.match(s)
    if m:
        return ("eq", m["lhs"], m["rhs"])
    raise AssertionError(f"unparseable fact {s!r}")


def replay_node(node, target: FuzzySpace, grid: EpsGrid):
    """Re-derive each node's conclusion from its children, rule by rule."""
    for child in node.children:
        replay_node(child, target, grid)
    fact = _parse_fact(node.conclusion)
    kids = [_parse_fact(c.conclusion) for c in node.children]
    rule = node.rule
    if rule in AXIOM_LEAVES:
        assert not node.children or rule == "INIT"
        if rule == "USEVAR":
            _, a, b, eps = fact
            assert grid.value(eps) == target.d(a, b)
        if rule == "ONEMAX":
            assert fact[3] == 1
        if rule == "REFL":
            assert fact[1] == fact[2]
    elif rule == "MAX":
        (kind, a, b, eps), (k2, a2, b2, eps2) = fact, kids[0]
        assert (kind, a, b) == (k2, a2, b2) and eps2 <= eps
    elif rule == "SYMM":
        assert fact[0] == "eq" and kids[0][0] == "eq"
        assert (fact[1], fact[2]) == (kids[0][2], kids[0][1])
    elif rule == "TRANS":
        assert fact[0] == "eq" and [k[0] for k in kids] == ["eq", "eq"]
        assert kids[0][1] == fact[1] and kids[1][2] == fact[2]
        assert kids[0][2] == kids[1][1]
    elif rule == "CONG":
        assert fact[0] == "eq"
        assert fact[1].startswith(node.detail + "(")
        for k in kids:
            assert k[0] == "eq"
    elif rule in ("LCONG", "RCONG"):
        eq, dist_fact = kids[0], kids[1]
        assert eq[0] == "eq" and dist_fact[0] == "dist" and fact[0] == "dist"
        assert dist_fact[3] == fact[3]
        pair = {eq[1], eq[2]}
        # one endpoint is rewritten along the equality, the other is kept
        assert (
            (dist_fact[1] in pair and fact[1] in pair and dist_fact[2] == fact[2])
            or (dist_fact[2] in pair and fact[2] in pair and dist_fact[1] == fact[1])
        )
    elif rule == "HORN":
        _replay_horn(node.detail, fact, kids, grid)
    elif rule == "SUBST":
        assert kids[0][0] == "axiom"
        for k in kids[1:]:
            assert k[0] == "dist"
    else:
        raise AssertionError(f"unexpected rule {rule}")


def _replay_horn(clause: str, fact, kids, grid):
    if clause == "refl":
        assert fact[0] == "dist" and fact[1] == fact[2] and fact[3] == 0
    elif clause == "symm":
        assert fact[0] == "dist" and kids[0][0] == "dist"
        assert (fact[1], fact[2], fact[3]) == (kids[0][2], kids[0][1], kids[0][3])
    elif clause == "triangle":
        (_, x, y1, e1), (_, y2, z, e2) = kids
        assert y1 == y2
        assert fact == ("dist", x, z, min(1, e1 + e2))
    elif clause == "zero_implies_eq":
        assert fact[0] == "eq" and kids[0] == ("dist", fact[1], fact[2], 0)
    elif clause == "eq_implies_zero":
        assert fact == ("dist", kids[0][1], kids[0][2], 0)


class TestTrace:
    def test_collapse_trace_tags(self, ab_half):
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        db = saturate(EMPTY_SIG, th, MET, ab_half, 1)
        tree = trace(db, Judgment(ab_half, Var("a"), Var("b")))
        rules = {n.rule for n in _walk(tree)}
        assert "INIT" in rules
        assert any(
            n.rule == "HORN" and n.detail == "zero_implies_eq" for n in _walk(tree)
        )
        replay_node(tree, ab_half, GRID)

    def test_self_distance_trace_is_single_axiom(self, ab_half):
        db = saturate(U_SIG, Theory("E", ()), MET, ab_half, 2)
        uu = App("u", (Var("a"),))
        tree = trace(db, Judgment(ab_half, uu, uu, 0))
        assert tree.rule == "HORN" and tree.detail == "refl"
        assert tree.children == ()
        replay_node(tree, ab_half, GRID)

    def test_subst_triangle_trace(self, ab_half):
        db = saturate(U_SIG, unary_axiom_quarter(GRID), MET, ab_half, 3)
        tree = trace(db, Judgment(ab_half, App("u", (Var("a"),)), Var("b"), 3))
        rules = [n.rule for n in _walk(tree)]
        assert "SUBST" in rules and "USEVAR" in rules
        assert tree.rule == "HORN" and tree.detail == "triangle"
        replay_node(tree, ab_half, GRID)

    def test_premise_at_one_is_not_its_own_conclusion(self):
        # the axiom's context puts a and b at distance 1, so the SUBST that
        # lowers d(a, b) to 1/2 reads that same cell at 1: the premise is
        # ONEMAX, not the event it justifies
        grid = EpsGrid(2)
        far = space(grid, ["a", "b"], [["0", "1"], ["1", "0"]])
        th = Theory("T", (Judgment(far, Var("a"), Var("b"), 1),))
        db = saturate(EMPTY_SIG, th, PMET, far, 1)
        tree = trace(db, Judgment(far, Var("a"), Var("b"), 1))
        assert tree.rule == "SUBST"
        assert [c.rule for c in tree.children] == ["INIT", "USEVAR", "ONEMAX", "ONEMAX", "USEVAR"]
        replay_node(tree, far, grid)

    def test_unknown_fact(self, ab_half):
        db = saturate(EMPTY_SIG, Theory("E", ()), MET, ab_half, 1)
        with pytest.raises(UnknownFact):
            trace(db, Judgment(ab_half, Var("a"), Var("b")))

    def test_one_max_leaf(self, ab_half):
        db = saturate(EMPTY_SIG, Theory("E", ()), MET, ab_half, 1)
        tree = trace(db, Judgment(ab_half, Var("a"), Var("b"), GRID.q))
        assert tree.leaves() is not None
        replay_node(tree, ab_half, GRID)

    def test_max_wrap(self, ab_half):
        db = saturate(EMPTY_SIG, Theory("E", ()), MET, ab_half, 1)
        tree = trace(db, Judgment(ab_half, Var("a"), Var("b"), 3))
        assert tree.rule == "MAX"
        replay_node(tree, ab_half, GRID)

    def test_history_is_read_off_the_events(self, ab_half):
        # axiom 0 lowers u(x) to x, axiom 1 merges u(u(x)) with u(x)
        one = FuzzySpace(GRID, ("x",), ((0,),))
        ux = App("u", (Var("x"),))
        th = Theory("T", (unary_axiom_quarter(GRID).judgments[0],
                          Judgment(one, App("u", (ux,)), ux, None)))
        db = saturate(U_SIG, th, MET, ab_half, 3)
        state = dict(vars(db))
        assert not {"_hist", "_forest", "_views", "_axiom_events"} & set(state)
        hist, forest = db._history()
        assert hist and any(forest)
        assert all(v != hist and v != forest for v in state.values())
        for k in range(len(th.judgments)):
            assert (db.events[k].rule, db.events[k].conclusion) == ("INIT", ("axiom", k))
        axioms = [ev.premises[0] for ev in db.events if ev.rule == "SUBST"]
        assert set(axioms) == {("axiom", k) for k in range(len(th.judgments))}
        ua = App("u", (Var("a"),))
        uua = App("u", (ua,))
        for j in (Judgment(ab_half, uua, ua), Judgment(ab_half, uua, Var("b"), 3)):
            first = trace(db, j)
            assert trace(db, j) == first
            replay_node(first, ab_half, GRID)

    def test_every_saturated_fact_replays(self, ab_half):
        db = saturate(U_SIG, unary_axiom_quarter(GRID), MET, ab_half, 2)
        for i, s in enumerate(db.universe):
            for t in db.universe:
                eps = db.class_distance(db.index_of(s), db.index_of(t))
                tree = trace(db, Judgment(ab_half, s, t, eps))
                replay_node(tree, ab_half, GRID)
                for leaf in tree.leaves():
                    assert leaf.rule in AXIOM_LEAVES or leaf.rule == "HORN"
                if db.same(db.index_of(s), db.index_of(t)):
                    replay_node(trace(db, Judgment(ab_half, s, t)), ab_half, GRID)


def _walk(node):
    yield node
    for c in node.children:
        yield from _walk(c)


def replay_derived_facts(db, target: FuzzySpace) -> None:
    """Replay the trace of every cell below q and of every merged term."""
    grid = target.grid
    roots = db.roots()
    for r1 in roots:
        for r2 in roots:
            eps = db.cell(r1, r2)
            if eps < grid.q:
                j = Judgment(target, db.universe[r1], db.universe[r2], eps)
                replay_node(trace(db, j), target, grid)
    for i, t in enumerate(db.universe):
        if db.find(i) != i:
            replay_node(trace(db, Judgment(target, t, db.universe[db.find(i)])), target, grid)


class TestAgainstOracle:
    CASES = [
        (EMPTY_SIG, "MET", 2, 2, 1),
        (EMPTY_SIG, "PMET", 2, 2, 1),
        (U_SIG, "MET", 2, 2, 2),
        (U_SIG, "FREL", 2, 2, 2),
        (Signature.of({"u": 1, "c": 0}), "MET", 2, 2, 2),
        (F_SIG, "MET", 3, 2, 2),
        (F_SIG, "PMET", 4, 2, 2),
        (UF_SIG, "MET", 4, 2, 2),
        (UF_SIG, "FREL", 3, 2, 2),
        (U_SIG, "MET", 4, 3, 2),
        (U_SIG, "PMET", 3, 3, 2),
        (Signature.of({"u": 1, "c": 0}), "MET", 3, 3, 2),
        (F_SIG, "MET", 4, 3, 2),
    ]

    @pytest.mark.parametrize("sig,preset,q,size,depth", CASES)
    def test_random_instances_match(self, sig, preset, q, size, depth):
        from qeqlog.gmet import PRESETS

        spec = PRESETS[preset]
        rng = random.Random(f"{preset}-{sorted(sig.ops)}-{q}-{size}-{depth}")
        for _ in range(4):
            grid = EpsGrid(q)
            target = random_space(rng, grid, size, spec)
            theory = random_theory(rng, sig, grid, spec, rng.randint(0, 2))
            db = saturate(sig, theory, spec, target, depth)
            oracle = OracleDB(sig, theory, spec, target, depth)
            for s in db.universe:
                for t in db.universe:
                    i, j = db.index_of(s), db.index_of(t)
                    assert db.same(i, j) == oracle.equal(s, t), (s, t)
                    assert db.class_distance(i, j) == oracle.distance(s, t), (s, t)
            replay_derived_facts(db, target)

    def test_paper_fixture_against_oracle(self, ab_half):
        theory = unary_axiom_quarter(GRID)
        db = saturate(U_SIG, theory, MET, ab_half, 2)
        oracle = OracleDB(U_SIG, theory, MET, ab_half, 2)
        for s in db.universe:
            for t in db.universe:
                assert db.class_distance(db.index_of(s), db.index_of(t)) == \
                    oracle.distance(s, t)


class TestConnectionAndCongruence:
    def _db(self, ab_half):
        return saturate(U_SIG, unary_axiom_quarter(GRID), MET, ab_half, 3)

    def test_connection_lemma(self, ab_half):
        db = self._db(ab_half)
        for s in db.universe:
            for t in db.universe:
                d = db.class_distance(db.index_of(s), db.index_of(t))
                for eps in GRID.values():
                    assert derives(db, Judgment(ab_half, s, t, eps)) == (d <= eps)

    def test_equiv_is_congruence(self, ab_half):
        db = self._db(ab_half)
        for s in db.universe:
            for t in db.universe:
                if db.same(db.index_of(s), db.index_of(t)):
                    us, ut = App("u", (s,)), App("u", (t,))
                    if db.term_in_universe(us) and db.term_in_universe(ut):
                        assert db.same(db.index_of(us), db.index_of(ut))

    def test_left_right_congruence_of_distance(self, ab_half):
        db = self._db(ab_half)
        for s in db.universe:
            for t in db.universe:
                if not db.same(db.index_of(s), db.index_of(t)):
                    continue
                for u in db.universe:
                    assert distance(db, s, u) == distance(db, t, u)
                    assert distance(db, u, s) == distance(db, u, t)


class TestMetAxiomSuite:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_met_runs(self, seed):
        rng = random.Random(seed)
        grid = EpsGrid(4)
        target = random_space(rng, grid, rng.randint(2, 3), MET)
        theory = random_theory(rng, U_SIG, grid, MET, rng.randint(0, 2))
        db = saturate(U_SIG, theory, MET, target, 2)
        roots = db.roots()
        q = grid.q
        for r1 in roots:
            assert db.cell(r1, r1) == 0
            for r2 in roots:
                assert db.cell(r1, r2) == db.cell(r2, r1)
                assert (db.cell(r1, r2) == 0) == (r1 == r2)
                for r3 in roots:
                    assert db.cell(r1, r3) <= min(q, db.cell(r1, r2) + db.cell(r2, r3))

    @pytest.mark.parametrize("seed", range(3))
    def test_pmet_runs_symmetric_triangular(self, seed):
        rng = random.Random(100 + seed)
        grid = EpsGrid(4)
        target = random_space(rng, grid, 2, PMET)
        db = saturate(U_SIG, random_theory(rng, U_SIG, grid, PMET, 1), PMET, target, 2)
        roots = db.roots()
        for r1 in roots:
            assert db.cell(r1, r1) == 0
            for r2 in roots:
                assert db.cell(r1, r2) == db.cell(r2, r1)


class TestSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_derived_facts_hold_in_models(self, seed):
        rng = random.Random(1000 + seed)
        grid = EpsGrid(rng.choice([2, 4]))
        spec = rng.choice([MET, PMET, FREL])
        sig = rng.choice([EMPTY_SIG, U_SIG])
        target = random_space(rng, grid, rng.randint(2, 3), spec)
        theory = random_theory(rng, sig, grid, spec, rng.randint(0, 2))
        db = saturate(sig, theory, spec, target, 2)
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
                    assert satisfies(alg, spec, j).holds, (j.describe(), alg)
                if r1 != r2 and db.same(r1, r2):
                    jeq = Judgment(target, s, t)
                    for alg in models:
                        assert satisfies(alg, spec, jeq).holds


class TestDeterminism:
    def test_identical_runs_identical_dbs(self, ab_half):
        th = unary_axiom_quarter(GRID)
        db1 = saturate(U_SIG, th, MET, ab_half, 3)
        db2 = saturate(U_SIG, th, MET, ab_half, 3)
        assert db1.events == db2.events
        assert db1.dmin == db2.dmin
        assert db1.roots() == db2.roots()


class TestDepthMonotonicity:
    @pytest.mark.parametrize("seed", range(4))
    def test_deeper_never_splits_or_increases(self, seed):
        rng = random.Random(2000 + seed)
        grid = EpsGrid(4)
        spec = rng.choice([MET, PMET])
        target = random_space(rng, grid, 2, spec)
        theory = random_theory(rng, U_SIG, grid, spec, rng.randint(1, 2))
        shallow = saturate(U_SIG, theory, spec, target, 2)
        deep = saturate(U_SIG, theory, spec, target, 3)
        for s in shallow.universe:
            for t in shallow.universe:
                si, ti = shallow.index_of(s), shallow.index_of(t)
                if shallow.same(si, ti):
                    assert deep.same(deep.index_of(s), deep.index_of(t))
                assert deep.class_distance(
                    deep.index_of(s), deep.index_of(t)
                ) <= shallow.class_distance(si, ti)


class TestGenNonexpansiveAxioms:
    def test_grid_two_gives_three_judgments(self):
        grid = EpsGrid(2)
        th = gen_nonexpansive_axioms(U_SIG, "u", grid)
        assert len(th.judgments) == 3
        assert sorted(j.eps for j in th.judgments) == [0, 1, 2]

    def test_eps_one_instance_vacuous(self):
        grid = EpsGrid(2)
        th = gen_nonexpansive_axioms(U_SIG, "u", grid)
        top = next(j for j in th.judgments if j.eps == grid.q)
        rng = random.Random(3)
        for _ in range(10):
            alg = random_algebra(rng, U_SIG, grid, FREL, 2)
            assert satisfies(alg, FREL, top).holds

    def test_expanding_table_fails_model_check(self):
        grid = EpsGrid(4)
        th = gen_nonexpansive_axioms(U_SIG, "u", grid)
        sp = space(grid, ["p", "q"], [["0", "1/4"], ["1/2", "0"]])
        expanding = QuantAlgebra(sp, U_SIG, {"u": {("p",): "q", ("q",): "p"}})
        assert not is_model(expanding, FREL, th)
        contracting = QuantAlgebra(sp, U_SIG, {"u": {("p",): "p", ("q",): "p"}})
        assert is_model(contracting, FREL, th)

    def test_binary_contexts(self):
        grid = EpsGrid(2)
        sig = Signature.of({"f": 2})
        th = gen_nonexpansive_axioms(sig, "f", grid)
        j = th.judgments[1]
        assert j.context.carrier == ("x1", "x2", "y1", "y2")
        assert j.context.d("x1", "y1") == 1
        assert j.context.d("x1", "x2") == grid.q
        assert j.context.d("x1", "x1") == 0
