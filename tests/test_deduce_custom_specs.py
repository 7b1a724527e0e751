"""Engine vs oracle on user-defined Horn clauses and wider signatures.

The preset clauses all have bare-parameter premises, which the engine handles
with the minimal-parameter shortcut; these specs force the exhaustive
parameter path (compound expressions in premises, alone or next to a bare
premise on the same parameter) and shared parameters, and the binary
signature exercises congruence grouping over argument tuples.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qeqlog.errors import GridMismatch
from qeqlog.gmet import (
    DistAtom,
    EpsConst,
    EpsGrid,
    EpsMin1,
    EpsParam,
    EpsPlus,
    FuzzySpace,
    GMetSpec,
    HornClause,
    MET,
    check_space,
)
from qeqlog.qalg import Judgment, Theory
from qeqlog.deduce import distance, saturate
from qeqlog.terms import App, Signature, Var

import reference_engine
from conftest import random_space, random_theory, space
from oracle import OracleDB


U_SIG = Signature.of({"u": 1})
F_SIG = Signature.of({"f": 2})

HALVING = GMetSpec(
    "halving",
    (
        HornClause(
            "half",
            ("x", "y"),
            (DistAtom("x", "y", EpsMin1(EpsPlus((EpsParam("e"), EpsParam("e"))))),),
            DistAtom("y", "x", EpsParam("e")),
        ),
    ),
)

SHARED_PARAM = GMetSpec(
    "shared",
    (
        HornClause(
            "boundpair",
            ("x", "y", "z"),
            (DistAtom("x", "y", EpsParam("e")), DistAtom("y", "z", EpsParam("e"))),
            DistAtom("x", "z", EpsParam("e")),
        ),
    ),
)

# e is bare in the first premise and inside plus in the second: the clause
# goes through the grid-vector path, where a bare premise is checked, not solved
MIXED = GMetSpec(
    "mixed",
    (
        HornClause(
            "halfstep",
            ("x", "y", "z"),
            (
                DistAtom("x", "y", EpsParam("e")),
                DistAtom("y", "z", EpsMin1(EpsPlus((EpsParam("e"), EpsParam("e"))))),
            ),
            DistAtom("x", "z", EpsParam("e")),
        ),
    ),
)


# the second premise's constant is off the q=4 grid; it is only evaluated
# for an instance whose first premise holds
OFF_GRID_BEHIND_ZERO = GMetSpec(
    "offgrid",
    (
        HornClause(
            "zero_then_third",
            ("x", "y"),
            (
                DistAtom("x", "y", EpsConst(Fraction(0))),
                DistAtom("x", "y", EpsConst(Fraction(1, 3))),
            ),
            DistAtom("y", "x", EpsConst(Fraction(0))),
        ),
    ),
)


def zero_space(grid: EpsGrid, names) -> FuzzySpace:
    n = len(names)
    return FuzzySpace(grid, tuple(names), tuple(tuple(0 for _ in range(n)) for _ in range(n)))


class TestCompoundPremiseClause:
    def test_space_accepted(self):
        grid = EpsGrid(4)
        assert check_space(HALVING, zero_space(grid, ["a", "b"])) == []

    def test_distances_contract_toward_quarter(self):
        # d(u a, u b) starts at 1; each clause round halves it (rounded up),
        # stopping at 1/4 on the q=4 grid
        grid = EpsGrid(4)
        sp = zero_space(grid, ["a", "b"])
        db = saturate(U_SIG, Theory("E", ()), HALVING, sp, 2)
        ua, ub = App("u", (Var("a"),)), App("u", (Var("b"),))
        assert distance(db, ua, ub) == Fraction(1, 4)

    def test_matches_oracle(self):
        grid = EpsGrid(4)
        sp = zero_space(grid, ["a", "b"])
        theory = Theory("E", ())
        db = saturate(U_SIG, theory, HALVING, sp, 2)
        oracle = OracleDB(U_SIG, theory, HALVING, sp, 2)
        for s in db.universe:
            for t in db.universe:
                assert db.class_distance(db.index_of(s), db.index_of(t)) == \
                    oracle.distance(s, t)

    def test_matches_oracle_with_axioms(self):
        grid = EpsGrid(2)
        sp = zero_space(grid, ["a", "b"])
        ctx = zero_space(grid, ["v"])
        theory = Theory("T", (Judgment(ctx, App("u", (Var("v"),)), Var("v"), 1),))
        db = saturate(U_SIG, theory, HALVING, sp, 2)
        oracle = OracleDB(U_SIG, theory, HALVING, sp, 2)
        for s in db.universe:
            for t in db.universe:
                assert db.class_distance(db.index_of(s), db.index_of(t)) == \
                    oracle.distance(s, t)
                assert db.same(db.index_of(s), db.index_of(t)) == oracle.equal(s, t)


class TestSharedParameterClause:
    def test_matches_oracle(self):
        grid = EpsGrid(3)
        sp = zero_space(grid, ["a", "b"])
        theory = Theory("E", ())
        db = saturate(U_SIG, theory, SHARED_PARAM, sp, 2)
        oracle = OracleDB(U_SIG, theory, SHARED_PARAM, sp, 2)
        for s in db.universe:
            for t in db.universe:
                assert db.class_distance(db.index_of(s), db.index_of(t)) == \
                    oracle.distance(s, t)

    def test_fast_path_agrees_with_exhaustive_semantics(self):
        # the conclusion at e = max(d(x,y), d(y,z)) dominates all grid choices
        grid = EpsGrid(4)
        sp = space(grid, ["a", "b", "c"],
                   [["0", "1/4", "1"], ["1/4", "0", "1/2"], ["1", "1/2", "0"]])
        violations = check_space(SHARED_PARAM, sp)
        assert violations  # 1 = d(a,c) > max(1/4, 1/2)
        repaired = space(grid, ["a", "b", "c"],
                         [["0", "1/4", "1/2"], ["1/4", "0", "1/2"], ["1/2", "1/2", "0"]])
        assert check_space(SHARED_PARAM, repaired) == []
        db = saturate(Signature.of({}), Theory("E", ()), SHARED_PARAM, repaired, 1)
        assert distance(db, Var("a"), Var("c")) == Fraction(1, 2)


class TestMixedBareAndCompoundPremises:
    @pytest.mark.parametrize("q", [3, 4])
    @pytest.mark.parametrize("with_axiom", [False, True])
    def test_matches_oracle(self, q, with_axiom):
        grid = EpsGrid(q)
        sp = FuzzySpace(grid, ("a", "b"), ((0, 1), (1, 0)))
        assert check_space(MIXED, sp) == []
        axioms = (Judgment(zero_space(grid, ["v"]), App("u", (Var("v"),)), Var("v"), 2),)
        theory = Theory("T", axioms if with_axiom else ())
        db = saturate(U_SIG, theory, MIXED, sp, 2)
        oracle = OracleDB(U_SIG, theory, MIXED, sp, 2)
        for s in db.universe:
            for t in db.universe:
                assert db.same(db.index_of(s), db.index_of(t)) == oracle.equal(s, t)
                assert db.class_distance(db.index_of(s), db.index_of(t)) == \
                    oracle.distance(s, t)
        # with y = x, d(a, u(a)) halves from 1 (rounded up) down to one grid step
        ua = App("u", (Var("a"),))
        assert distance(db, Var("a"), ua) == Fraction(1, q)


class TestLazyClauseBounds:
    def test_unreached_off_grid_constant_is_never_evaluated(self):
        grid = EpsGrid(4)
        sp = space(grid, ["a", "b"], [["1/4", "1/2"], ["1/2", "1/4"]])
        args = (U_SIG, Theory("E", ()), OFF_GRID_BEHIND_ZERO, sp, 2)
        ref = reference_engine.saturate(*args)
        assert ref.instances == 20
        assert len(ref.events) == 4
        # 4 USEVAR instances, then one clause instance per USEVAR cell: no
        # cell is at distance 0, so the second premise is never reached
        db = saturate(*args)
        assert db.instances == 8
        assert db.events == ref.events

    def test_reached_off_grid_constant_raises(self):
        # the spaces pass the spec; the axiom derives d(u(a), u(a)) <= 0,
        # and the next Horn round reaches the constant
        grid = EpsGrid(4)
        sp = space(grid, ["a", "b"], [["1/4", "1/2"], ["1/2", "1/4"]])
        ctx = space(grid, ["v"], [["1/4"]])
        uv = App("u", (Var("v"),))
        theory = Theory("T", (Judgment(ctx, uv, uv, 0),))
        with pytest.raises(GridMismatch, match="1/3"):
            saturate(U_SIG, theory, OFF_GRID_BEHIND_ZERO, sp, 2)

    def test_full_first_pass_counts_each_tuple_as_it_is_taken(self):
        # the premise-free clause's first pass evaluates every tuple; its
        # first instance reaches the off-grid constant before the second
        # instance passes the budget
        grid = EpsGrid(4)
        third = GMetSpec("third", (
            HornClause("third", ("x", "y"), (), DistAtom("x", "y", EpsConst(Fraction(1, 3)))),
        ))
        empty = FuzzySpace(grid, (), ())
        sig = Signature.of({"u": 1, "c": 0})
        with pytest.raises(GridMismatch, match="1/3"):
            saturate(sig, Theory("E", ()), third, empty, 2, budget=1)


class TestBinarySignature:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle(self, seed):
        rng = random.Random(600 + seed)
        grid = EpsGrid(2)
        sp = random_space(rng, grid, 2, MET)
        theory = random_theory(rng, F_SIG, grid, MET, rng.randint(0, 1))
        db = saturate(F_SIG, theory, MET, sp, 2)
        oracle = OracleDB(F_SIG, theory, MET, sp, 2)
        for s in db.universe:
            for t in db.universe:
                assert db.same(db.index_of(s), db.index_of(t)) == oracle.equal(s, t)
                assert db.class_distance(db.index_of(s), db.index_of(t)) == \
                    oracle.distance(s, t)

    def test_congruence_chain_traces(self):
        # a = b forces f(a,a) = f(b,b) = f(a,b); the equality trace crosses
        # several merges
        from qeqlog.deduce import trace
        from test_deduce import replay_node

        grid = EpsGrid(2)
        sp = space(grid, ["a", "b"], [["0", "1/2"], ["1/2", "0"]])
        theory = Theory("T", (Judgment(sp, Var("a"), Var("b")),))
        db = saturate(F_SIG, theory, MET, sp, 2)
        faa = App("f", (Var("a"), Var("a")))
        fbb = App("f", (Var("b"), Var("b")))
        fab = App("f", (Var("a"), Var("b")))
        assert db.same(db.index_of(faa), db.index_of(fbb))
        for lhs, rhs in [(faa, fbb), (fab, fbb), (faa, fab)]:
            tree = trace(db, Judgment(sp, lhs, rhs))
            replay_node(tree, sp, grid)
