"""The delta-driven saturation steps against the naive round loop they replace.

``reference_engine.saturate`` evaluates every clause instance, every
congruence key and every axiom substitution in every round. The engine
evaluates only instances that a written cell or a merge can have changed, in
the same order, so it must record the very same events, minimal distances,
distance history and merge forest, raise the same error, and consider no
more instances.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qeqlog.deduce import (DerivationDB, _fires_at_top, _links, _step_cong, _tied, _Worklist,
                           saturate)
from qeqlog.errors import GridMismatch, QeqlogError
from qeqlog.gmet import (
    FREL,
    MET,
    PMET,
    DistAtom,
    EpsConst,
    EpsGrid,
    EpsMin1,
    EpsParam,
    EpsPlus,
    EqAtom,
    FuzzySpace,
    GMetSpec,
    HornClause,
    compile_clause,
    space_passes,
)
from qeqlog.qalg import Judgment, Theory
from qeqlog.terms import App, Signature, Var

import reference_engine
from conftest import random_frel_space, random_met_space, random_space, random_term
from test_deduce import _universe_size
from test_deduce_custom_specs import HALVING, MIXED, OFF_GRID_BEHIND_ZERO, SHARED_PARAM
from test_saturation_golden import CASES, MET_EQ_PREMISE, PMET_GRID_EQ, ZEQ_CHAIN

SIGS = (
    Signature.of({"u": 1}),
    Signature.of({"f": 2}),
    Signature.of({"u": 1, "c": 0}),
    Signature.of({"u": 1, "f": 2}),
)


def _near(k: int, q: int) -> GMetSpec:
    """Every pair within k/q, by a clause without premises: it can fire on
    cells that nothing wrote, so its first pass visits every tuple."""
    clause = HornClause("near", ("x", "y"), (), DistAtom("x", "y", EpsConst(Fraction(k, q))))
    return GMetSpec(f"near{k}", (clause,))


def _space(rng: random.Random, grid: EpsGrid, size: int, spec: GMetSpec) -> FuzzySpace:
    """A random space of the spec. For a custom spec, the first of a random
    metric space, a random relation, all distances 1 and all distances 0
    that the spec accepts; an off-grid constant the check reaches rejects."""
    if spec in (MET, PMET, FREL):
        return random_space(rng, grid, size, spec)
    names = tuple("abc"[:size])
    tries = (random_met_space(rng, grid, size), random_frel_space(rng, grid, size),
             *(FuzzySpace(grid, names, ((v,) * size,) * size) for v in (grid.q, 0)))
    for sp in tries:
        try:
            if space_passes(spec, sp):
                return sp
        except GridMismatch:
            pass
    return tries[-1]


def _theory(rng: random.Random, sig: Signature, grid: EpsGrid, spec: GMetSpec,
            points: int = 2) -> Theory:
    """0-2 random axioms over contexts of 1 to ``points`` points."""
    judgments = []
    for _ in range(rng.randint(0, 2)):
        ctx = _space(rng, grid, rng.randint(1, points), spec)
        lhs = random_term(rng, sig, ctx.carrier, 2)
        rhs = random_term(rng, sig, ctx.carrier, 2)
        judgments.append(Judgment(ctx, lhs, rhs, rng.choice([None] + list(range(grid.q + 1)))))
    return Theory("random", tuple(judgments))


def _run(engine, *args):
    try:
        db = engine(*args)
    except QeqlogError as exc:
        return None, (type(exc).__name__, str(exc))
    return db, None


def assert_same_saturation(sig, theory, spec, target, depth):
    ref, ref_err = _run(reference_engine.saturate, sig, theory, spec, target, depth)
    db, err = _run(saturate, sig, theory, spec, target, depth)
    assert err == ref_err
    if ref is None:
        return
    assert db.events == ref.events
    assert db.dmin == ref.dmin
    assert db._history() == ref._history()
    assert db.instances <= ref.instances


def _naive_cost(spec: GMetSpec, sig: Signature, size: int, depth: int) -> int:
    """Tuples the naive loop visits per round: n ** |vars| per clause."""
    n = _universe_size(sig, size, depth)
    return sum(n ** len(c.vars) for c in spec.clauses)


# first passes over tied positions: z = x and y = z tie all three; an
# equality after a bound lookup ties nothing
TIED = GMetSpec("tied", PMET.clauses + (
    HornClause("tie_three", ("x", "y", "z"), (EqAtom("z", "x"), EqAtom("y", "z")),
               DistAtom("y", "x", EpsConst(Fraction(0)))),
    HornClause("tie_two", ("x", "y", "z"), (EqAtom("z", "x"),),
               DistAtom("z", "x", EpsConst(Fraction(0)))),
    HornClause("late_eq", ("x", "y"), (DistAtom("x", "y", EpsConst(Fraction(1))), EqAtom("x", "y")),
               DistAtom("x", "y", EpsConst(Fraction(0)))),
    # an equality its own premise ties: no instance over classes can fire
    HornClause("eq_symm", ("x", "y"), (EqAtom("x", "y"),), EqAtom("y", "x")),
))

# x = y reaches the off-grid constant 1/3 (at q = 4) before any cell is read
EQ_THEN_THIRD = HornClause("eq_then_third", ("x", "y"),
                           (EqAtom("x", "y"), DistAtom("x", "y", EpsConst(Fraction(1, 3)))),
                           DistAtom("y", "x", EpsConst(Fraction(0))))


def _d(x: str, y: str, eps) -> DistAtom:
    return DistAtom(x, y, EpsParam(eps) if isinstance(eps, str) else EpsConst(Fraction(eps)))


# a chain of three cells: a write on the middle one joins w and z, two
# positions, through the near-cell index
CHAIN4 = HornClause("chain4", ("w", "x", "y", "z"),
                    (_d("w", "x", "e1"), _d("x", "y", "e2"), _d("y", "z", "e3")),
                    DistAtom("w", "z", EpsMin1(EpsPlus(tuple(EpsParam(e) for e in ("e1", "e2", "e3"))))))
# the conclusion holds below 1 whatever e is, so e's premise blocks nothing
LOOSE = HornClause("loose", ("x", "y", "z"), (_d("x", "y", "e"),), _d("x", "z", Fraction(1, 2)))
# the same behind a zero premise: no pass starts from every tuple, and a
# write on d(x, y) joins z with every root, not just those near y
LOOSE_AFTER_ZERO = HornClause("loose_after_zero", ("x", "y", "z"),
                              (_d("x", "y", 0), _d("y", "z", "e")), _d("x", "z", Fraction(1, 2)))
# a bound of 1 holds on every cell, so x ranges over every root
ONE_BOUND = HornClause("one_bound", ("x", "y", "z"), (_d("x", "y", 1), _d("y", "z", "e")),
                       _d("x", "z", "e"))
JOIN = GMetSpec("join", (CHAIN4, ONE_BOUND, LOOSE_AFTER_ZERO))
# the loose clause fires at top: in the join spec, its first pass would bring
# every cell below 1 and leave no tuple for a wrong join to miss
LOOSE_PMET = GMetSpec("loose_pmet", PMET.clauses + (LOOSE,))

NAMED = {s.name: s for s in (MET, PMET, FREL, HALVING, SHARED_PARAM, MIXED, PMET_GRID_EQ,
                              ZEQ_CHAIN, MET_EQ_PREMISE, OFF_GRID_BEHIND_ZERO, TIED, JOIN,
                              LOOSE_PMET)}


class TestAgainstNaiveLoop:
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(
        st.sampled_from(sorted(NAMED) + ["near"]),
        st.integers(0, len(SIGS) - 1),
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_same_events_and_error(self, spec_name, sig_i, q, size, depth, k, seed):
        sig = SIGS[sig_i]
        spec = _near(min(k, q), q) if spec_name == "near" else NAMED[spec_name]
        assume(_universe_size(sig, size, depth) <= 300)
        assume(_naive_cost(spec, sig, size, depth) <= 30_000)
        rng = random.Random(seed)
        grid = EpsGrid(q)
        target = _space(rng, grid, size, spec)
        assert_same_saturation(sig, _theory(rng, sig, grid, spec), spec, target, depth)

    @pytest.mark.parametrize("spec_name", sorted(NAMED) + ["near"])
    def test_every_signature_and_grid(self, spec_name):
        for sig_i, sig in enumerate(SIGS):
            for q in (2, 3, 4):
                spec = _near(q // 2, q) if spec_name == "near" else NAMED[spec_name]
                size = 1 + (q + sig_i) % 3
                depth = max(d for d in (1, 2, 3) if _naive_cost(spec, sig, size, d) <= 30_000)
                rng = random.Random(f"{spec_name}-{sig_i}-{q}")
                target = _space(rng, EpsGrid(q), size, spec)
                theory = _theory(rng, sig, EpsGrid(q), spec)
                assert_same_saturation(sig, theory, spec, target, depth)

    def test_off_grid_constant_reached_before_any_cell_is_written(self):
        # no carrier, so no cell is written before the first Horn pass; every
        # x = x instance reaches the off-grid constant, and both loops raise
        spec = GMetSpec("eq_offgrid", (EQ_THEN_THIRD,))
        target = FuzzySpace(EpsGrid(4), (), ())
        args = (Signature.of({"u": 1, "c": 0}), Theory("E", ()), spec, target, 2)
        with pytest.raises(GridMismatch, match="1/3"):
            reference_engine.saturate(*args)
        assert_same_saturation(*args)


class TestFiresAtTop:
    # a first pass starts from every tuple only for a clause that the
    # two-point space with every distance 1 violates
    @pytest.mark.parametrize("clause, fires", [
        *((c, c.name in ("refl", "eq_implies_zero")) for c in MET.clauses),
        (EQ_THEN_THIRD, True),
        (TIED.clauses[-1], False),
    ], ids=lambda v: v.name if isinstance(v, HornClause) else None)
    def test_first_pass_predicate(self, clause, fires):
        assert _fires_at_top(compile_clause(clause, 4), len(clause.vars), 4) is fires


class TestLinks:
    # a premise blocks at top when no instance fires while its cell reads 1;
    # a write then joins the position it ties only with the near roots
    @pytest.mark.parametrize("clause, links", [
        (MET.clauses[2], [(0, 1), (1, 0), (1, 2), (2, 1)]),
        (MET.clauses[1], [(0, 1), (1, 0)]),
        (CHAIN4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]),
        (LOOSE, []),
        (LOOSE_AFTER_ZERO, [(0, 1), (1, 0)]),
        (ONE_BOUND, [(1, 2), (2, 1)]),
        # the constant 1/3 is off the q = 4 grid
        (OFF_GRID_BEHIND_ZERO.clauses[0], []),
        # grid-vector and merging clauses keep full streams
        (MIXED.clauses[0], []),
        (MET.clauses[3], []),
    ], ids=lambda v: v.name if isinstance(v, HornClause) else None)
    def test_blocking_premises(self, clause, links):
        assert _links(compile_clause(clause, 4), 4) == links

    # each case has a tuple that fires and that a wrong join leaves out: one
    # through a bound of 1 or a parameter the conclusion ignores, or one that
    # reads the cells on the wrong side of the fixed root
    GRID = EpsGrid(4)
    POINT = FuzzySpace(GRID, ("a",), ((0,),))
    # d(a, b) = 1/4 and d(b, a) = 1
    ARROW = FuzzySpace(GRID, ("a", "b"), ((0, 1), (4, 0)))
    CLOSE = FuzzySpace(GRID, ("a", "b"), ((0, 1), (1, 0)))

    @pytest.mark.parametrize("clause, target, axiom", [
        (LOOSE_AFTER_ZERO, POINT, False),
        (ONE_BOUND, POINT, False),
        (MET.clauses[2], ARROW, True),
        (CHAIN4, CLOSE, True),
    ], ids=lambda v: v.name if isinstance(v, HornClause) else None)
    def test_join_matches_naive_loop(self, clause, target, axiom):
        # the axiom x =1/4 u(x) writes cells one way round, a round after
        # the target's
        ctx = FuzzySpace(self.GRID, ("x",), ((0,),))
        theory = Theory("Q", (Judgment(ctx, Var("x"), App("u", (Var("x"),)), 1),) if axiom else ())
        assert_same_saturation(SIGS[0], theory, GMetSpec(clause.name, (clause,)), target, 3)


class TestNearJoinScale:
    # the written cell joins only near roots: on these universes a join
    # over every class took 61.7 million and 152,247 instances
    GRID = EpsGrid(4)
    SIG = Signature.of({"u": 1, "f": 2})

    def test_depth_four_without_axioms(self):
        two = FuzzySpace(self.GRID, ("a", "b"), ((0, 2), (2, 0)))
        db = saturate(self.SIG, Theory("E", ()), MET, two, 4, budget=100_000)
        assert (len(db.universe), len(db.events)) == (5552, 5554)

    def test_three_points_with_a_quarter_axiom(self):
        three = FuzzySpace(self.GRID, ("a", "b", "c"), ((0, 2, 2), (2, 0, 2), (2, 2, 0)))
        ctx = FuzzySpace(self.GRID, ("x",), ((0,),))
        theory = Theory("Q", (Judgment(ctx, App("u", (Var("x"),)), Var("x"), 1),))
        db = saturate(self.SIG, theory, MET, three, 3, budget=10_000)
        assert (len(db.universe), len(db.events)) == (243, 298)

    def _first_substitution_pass(self, ctx_rows, lhs, rhs):
        # FREL at q = 2 with both points at 1/2: only the four cells between
        # the points are written, all at 1/2, and no tuple passes the premise
        # d = 0 of the axiom lhs = rhs; at depth 4 there are 5,552 roots
        grid = EpsGrid(2)
        two = FuzzySpace(grid, ("a", "b"), ((1, 1), (1, 1)))
        ctx = FuzzySpace(grid, "xyz"[:len(ctx_rows)], ctx_rows)
        theory = Theory("C", (Judgment(ctx, lhs, rhs, None),))
        for budget in (None, 1_000):
            db = saturate(self.SIG, theory, FREL, two, 4, budget=budget)
            assert (db.instances, len(db.events), len(db.roots())) == (4, 5, 5552)

    def test_first_substitution_pass_joins_near_roots(self):
        # the first pass joins each written cell at the premise cell (x, y),
        # which puts one root at x and one at y: a search over all 5,552 roots
        # at each point took 12-16 s to count the same 4 instances, and a
        # budget of 1,000 never fired
        x, y = Var("x"), Var("y")
        self._first_substitution_pass(((2, 0), (0, 2)), App("f", (x, y)), App("f", (y, x)))

    def test_first_substitution_pass_leaves_point_zero_free(self):
        # point 0 is in no premise pair: a first pass from every root at x,
        # with every root at y and z, made about 1.7e11 pair checks, and a
        # budget of 1,000 never fired
        x, y, z = Var("x"), Var("y"), Var("z")
        self._first_substitution_pass(((2, 2, 2), (2, 2, 0), (2, 0, 2)),
                                      App("f", (x, y)), App("f", (x, z)))


class TestCongruenceAndSubstitution:
    # shapes whose work is congruence and substitution rather than Horn
    # clauses: the benchmark's CI theory over FREL, whose congruence merges
    # 1,446 terms into 63 classes at depth 4, and merges of u(a) and u(b)
    # into a constant whose folds read cells in a fixed order
    @pytest.mark.parametrize("case_id", ["equational-CI-T-d3", "equational-CI-T-d4",
                                         "fold-COLUMN", "fold-ROWS"])
    def test_recorded_shapes(self, case_id):
        assert_same_saturation(*CASES[case_id])

    # u(x) =1/4 x over a MET target: substitution writes a cell in every
    # round, and the Horn step spreads it
    @pytest.mark.parametrize("sig_i, points, depth", [(0, 2, 4), (2, 2, 3), (3, 1, 3)])
    def test_quarter_axiom(self, sig_i, points, depth):
        grid = EpsGrid(4)
        x0 = FuzzySpace(grid, ("x",), ((0,),))
        theory = Theory("Q", (Judgment(x0, App("u", (Var("x"),)), Var("x"), 1),))
        target = FuzzySpace(grid, ("a", "b")[:points],
                            tuple(row[:points] for row in ((0, 2), (2, 0))[:points]))
        assert_same_saturation(SIGS[sig_i], theory, MET, target, depth)

    # FREL over {u/1, c/0} and one point a at distance 1 from itself, so
    # that only axioms write self-distances: ids a, c, u(a), u(c), u(u(a)),
    # u(u(c)) are 0..5
    LOOSE = FuzzySpace(EpsGrid(4), ("y",), ((4,),))
    TIGHT = FuzzySpace(EpsGrid(4), ("y",), ((0,),))
    Y, C = Var("y"), App("c", ())

    def _lone_point(self, *axioms) -> list[tuple]:
        theory = Theory("AX", axioms)
        target = FuzzySpace(EpsGrid(4), ("a",), ((4,),))
        assert_same_saturation(SIGS[2], theory, FREL, target, 3)
        return [ev.conclusion for ev in saturate(SIGS[2], theory, FREL, target, 3).events
                if ev.rule == "SUBST"]

    def test_pruned_axiom_requeues_a_merged_class_at_every_merge(self):
        # the search of u(k) = b passes over the tuples whose cells read
        # above the context's, and a later merge of a member's class can
        # lower those cells: a merge must requeue every member, not only the
        # ones that no earlier merge of the pass queued
        grid = EpsGrid(2)
        sig = Signature.of({"k": 0, "u": 1})
        ctx = FuzzySpace(grid, ("a", "b"), ((0, 1), (0, 2)))
        theory = Theory("AX", (Judgment(ctx, App("u", (App("k", ()),)), Var("b")),))
        target = FuzzySpace(grid, ("a", "b", "c"), ((1, 0, 0), (0, 2, 0), (2, 1, 0)))
        assert_same_saturation(sig, theory, FREL, target, 2)

    def test_merge_mid_pass_maps_a_later_column_onto_the_winner(self):
        # in round 1, axiom 0 writes d(4, 4) = 0 before axiom 1's first pass,
        # and axiom 2 writes d(2, 2) and d(3, 3) after it. Axiom 1's second
        # pass starts from tuples 2 and 3 only; at 2 it merges u(u(a)) into
        # c, whose fold writes d(c, c) = 0. Tuple 4 now stands for c, so a
        # full pass derives u(c) = c there, before axiom 3 would bound
        # d(u(c), c) in round 2: the pass must queue it
        u_y, uu_y = App("u", (self.Y,)), App("u", (App("u", (self.Y,)),))
        conclusions = self._lone_point(
            Judgment(self.LOOSE, uu_y, uu_y, 0), Judgment(self.TIGHT, u_y, self.C, None),
            Judgment(self.LOOSE, u_y, u_y, 0), Judgment(self.TIGHT, u_y, self.C, 1))
        assert [c for c in conclusions if c[0] == "eq"] == [("eq", 4, 1), ("eq", 5, 1), ("eq", 3, 1)]

    def test_write_mid_pass_reaches_a_later_tuple(self):
        # axiom 1 writes d(c, c) = 0 after axiom 0's first pass, so axiom 0's
        # second pass starts from c alone; its write d(u(c), u(c)) = 0 must
        # queue u(c) in the same pass, before axiom 2 bounds d(u(u(c)), c)
        u_y = App("u", (self.Y,))
        assert self._lone_point(
            Judgment(self.TIGHT, u_y, u_y, 0), Judgment(self.LOOSE, self.C, self.C, 0),
            Judgment(self.TIGHT, u_y, self.C, 1)) == [
            ("dist", 1, 1, 0), ("dist", 3, 1, 1), ("dist", 3, 3, 0), ("dist", 5, 5, 0),
            ("dist", 5, 1, 1)]

    # axioms over two and three points: a premise pair can tie a point to
    # point 0 or to another tied point, and a written cell fixes two of three;
    # from seed 12 on, FREL contexts put point 0 in no premise pair, so the
    # first pass joins the written cells at a pair of the other points; from
    # seed 18 on, every context distance is 1 over 0 to 3 points, so an axiom
    # has no premise cell and its first pass takes every tuple (no point
    # falls on SIGS[2], which has a constant)
    @pytest.mark.parametrize("seed", range(24))
    def test_three_point_contexts(self, seed):
        rng = random.Random(seed)
        sig, spec = SIGS[seed % len(SIGS)], (MET, PMET, FREL)[seed % 3] if seed < 12 else FREL
        grid = EpsGrid(rng.randint(2, 4))
        target = _space(rng, grid, 2, spec)
        axioms = []
        for _ in range(3):
            if seed >= 18:
                points = (2 - seed) % 4
                ctx = FuzzySpace(grid, tuple("xyz"[:points]), ((grid.q,) * points,) * points)
            else:
                ctx = _space(rng, grid, rng.randint(2, 3), spec)
            if 12 <= seed < 18:
                ctx = FuzzySpace(grid, ctx.carrier, tuple(
                    tuple(grid.q if 0 in (x, y) else d for y, d in enumerate(row))
                    for x, row in enumerate(ctx.dist)))
            lhs, rhs = (random_term(rng, sig, ctx.carrier, 2) for _ in range(2))
            axioms.append(Judgment(ctx, lhs, rhs, rng.choice([None] + list(range(grid.q + 1)))))
        # 8 to 38 terms, so that the naive loop stays fast
        depth = (5, 3, 5, 2)[seed % len(SIGS)]
        assert_same_saturation(sig, Theory("T3", tuple(axioms)), spec, target, depth)

    def test_axioms_over_an_empty_context(self):
        # a context with no points has one assignment, the empty one, and
        # only an axiom's first pass instantiates it: u(c) = c merges, and
        # c =1/4 u(u(c)) writes its cell before congruence merges u(u(c))
        # into c
        empty = FuzzySpace(EpsGrid(4), (), ())
        u_c = App("u", (self.C,))
        theory = Theory("E", (Judgment(empty, u_c, self.C, None),
                              Judgment(empty, self.C, App("u", (u_c,)), 1)))
        args = (SIGS[2], theory, MET, FuzzySpace(EpsGrid(4), ("a",), ((0,),)), 3)
        assert_same_saturation(*args)
        db = saturate(*args)
        assert (db.instances, len(db.events), len(db.roots())) == (34, 11, 4)
        assert [ev.rule for ev in db.events].count("SUBST") == 2

    def test_application_re_keyed_in_successive_steps(self):
        # f(c, b) is re-keyed when c merges into a and again when b does;
        # each congruence step matches the naive one on the same database
        sig = Signature.of({"f": 2})
        target = FuzzySpace(EpsGrid(2), ("a", "b", "c"), ((0,) * 3,) * 3)
        db, ref = (DerivationDB(sig, Theory("E", ()), FREL, target, 2, None) for _ in range(2))
        index = {t: i for i, t in enumerate(ref.universe)}
        children = [tuple(index[a] for a in getattr(t, "args", ())) for t in ref.universe]
        fcb = db.app_index("f", (2, 1))
        for loser in (2, 1, None):
            for d in (db, ref):
                if loser is not None:
                    d._merge(0, loser, "TEST", None, ())
            assert (fcb in db._dirty) is (loser is not None)
            assert _step_cong(db) is reference_engine._step_cong(ref, children)
            assert ((db.events, db._history()[1], db.roots())
                    == (ref.events, ref._history()[1], ref.roots()))
            assert db.instances <= ref.instances
        assert db.roots() == [0, 3]


class TestTied:
    def _tuples(self, name, pool=(0, 1, 2)):
        clause = next(c for c in TIED.clauses if c.name == name)
        prems = compile_clause(clause, 4)[2]
        return list(_tied(len(clause.vars), prems, pool))

    def test_equalities_tie_positions(self):
        assert self._tuples("tie_three") == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        assert self._tuples("tie_two") == [(a, b, a) for a in (0, 1, 2) for b in (0, 1, 2)]

    def test_equality_after_a_bound_lookup_ties_nothing(self):
        assert self._tuples("late_eq") == [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)]


_TUPLES = st.tuples(st.integers(0, 3), st.integers(0, 3))
_STREAMS = st.lists(st.sets(_TUPLES, max_size=8), max_size=3)


class TestWorklist:
    @settings(deadline=None, max_examples=200)
    @given(_STREAMS, st.dictionaries(st.integers(1, 12), _STREAMS, max_size=4))
    def test_merge_with_streams_added_mid_pass(self, initial, schedule):
        # the worklist against its contract: each tuple once, ascending, and
        # a stream added after the n-th tuple contributes only later tuples
        queue = _Worklist()
        queue.add(*(iter(sorted(s)) for s in initial))
        out = []
        for t in queue:
            out.append(t)
            queue.add(*(iter(sorted(s)) for s in schedule.get(len(out), ())))

        pending, expected, last = set().union(*initial), [], ()
        while any(t > last for t in pending):
            last = min(t for t in pending if t > last)
            expected.append(last)
            for s in schedule.get(len(expected), ()):
                pending |= {t for t in s if t > last}
        assert out == expected
