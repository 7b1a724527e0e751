from __future__ import annotations

import itertools
import random

import pytest

from qeqlog.errors import BudgetExceeded, SpecViolation, UnknownVariable
from qeqlog.gmet import FREL, MET, EpsGrid
from qeqlog.qalg import (
    Judgment,
    QuantAlgebra,
    Theory,
    entails_catalog,
    eval_term,
    is_homomorphism,
    is_model,
    satisfies,
)
from qeqlog.terms import App, Signature, Var, apply_subst

from conftest import random_algebra, random_space, random_term, space


GRID = EpsGrid(4)


@pytest.fixture
def swap_uc(pq_half):
    sig = Signature.of({"u": 1, "c": 0})
    return QuantAlgebra(
        pq_half, sig, {"u": {("p",): "q", ("q",): "p"}, "c": {(): "p"}}
    )


class TestEvalTerm:
    def test_table_composition(self, swap_uc):
        t = App("u", (App("c", ()),))
        assert eval_term(swap_uc, {}, t) == "q"

    def test_base_case(self, swap_uc):
        assert eval_term(swap_uc, {"a": "p"}, Var("a")) == "p"

    def test_involution(self, swap_uc):
        t = App("u", (App("u", (Var("a"),)),))
        assert eval_term(swap_uc, {"a": "p"}, t) == "p"

    def test_unknown_variable(self, swap_uc):
        with pytest.raises(UnknownVariable):
            eval_term(swap_uc, {}, Var("a"))

    def test_compositional_with_substitution(self, swap_uc):
        # eval(tau, subst(sigma, t)) == eval(tau after evaluating sigma, t)
        rng = random.Random(2)
        sig = swap_uc.sig
        for _ in range(50):
            t = random_term(rng, sig, ("x", "y"), 3)
            sigma = {
                "x": random_term(rng, sig, ("a",), 2),
                "y": random_term(rng, sig, ("a",), 2),
            }
            tau = {"a": rng.choice(swap_uc.space.carrier)}
            composed = {v: eval_term(swap_uc, tau, sigma[v]) for v in sigma}
            assert eval_term(swap_uc, tau, apply_subst(sigma, t)) == eval_term(
                swap_uc, composed, t
            )


class TestSatisfies:
    def test_swap_within_half(self, swap_algebra, ab_half):
        j = Judgment(ab_half, App("u", (Var("a"),)), Var("a"), GRID.value("1/2"))
        assert satisfies(swap_algebra, MET, j).holds

    def test_involution_equation(self, swap_algebra, ab_half):
        t = App("u", (App("u", (Var("a"),)),))
        assert satisfies(swap_algebra, MET, Judgment(ab_half, t, Var("a"))).holds

    def test_zero_fails_with_first_counterexample(self, swap_algebra, ab_half):
        j = Judgment(ab_half, App("u", (Var("a"),)), Var("a"), 0)
        res = satisfies(swap_algebra, MET, j)
        assert not res.holds
        assert res.counterexample == {"a": "p", "b": "p"}

    def test_eps_one_always_holds(self, swap_algebra):
        rng = random.Random(4)
        for _ in range(20):
            ctx = random_space(rng, GRID, 2, MET)
            lhs = random_term(rng, swap_algebra.sig, ctx.carrier, 2)
            rhs = random_term(rng, swap_algebra.sig, ctx.carrier, 2)
            j = Judgment(ctx, lhs, rhs, GRID.q)
            assert satisfies(swap_algebra, MET, j).holds

    def test_up_closure(self, swap_algebra):
        rng = random.Random(5)
        for _ in range(30):
            ctx = random_space(rng, GRID, 2, MET)
            lhs = random_term(rng, swap_algebra.sig, ctx.carrier, 2)
            rhs = random_term(rng, swap_algebra.sig, ctx.carrier, 2)
            for eps in range(GRID.q):
                if satisfies(swap_algebra, MET, Judgment(ctx, lhs, rhs, eps)).holds:
                    assert satisfies(
                        swap_algebra, MET, Judgment(ctx, lhs, rhs, eps + 1)
                    ).holds

    def test_spec_violation_on_bad_context(self, swap_algebra):
        bad = space(GRID, ["a", "b"], [["0", "0"], ["0", "0"]])
        with pytest.raises(SpecViolation):
            satisfies(swap_algebra, MET, Judgment(bad, Var("a"), Var("b"), 1))

    def test_budget(self, swap_algebra, ab_half):
        j = Judgment(ab_half, Var("a"), Var("b"), GRID.q)
        with pytest.raises(BudgetExceeded):
            satisfies(swap_algebra, MET, j, budget=3)


class TestIsModel:
    def test_empty_theory(self, swap_algebra):
        assert is_model(swap_algebra, MET, Theory("empty", ()))

    def test_swap_models_half_axiom(self, swap_algebra, ab_half):
        th = Theory(
            "T", (Judgment(ab_half, App("u", (Var("a"),)), Var("a"), GRID.value("1/2")),)
        )
        assert is_model(swap_algebra, MET, th)

    def test_fails_with_added_equation(self, swap_algebra, ab_half):
        th = Theory(
            "T",
            (
                Judgment(ab_half, App("u", (Var("a"),)), Var("a"), GRID.value("1/2")),
                Judgment(ab_half, App("u", (Var("a"),)), Var("a")),
            ),
        )
        assert not is_model(swap_algebra, MET, th)


class TestIsHomomorphism:
    def test_identity(self, swap_algebra):
        f = {a: a for a in swap_algebra.space.carrier}
        assert is_homomorphism(f, swap_algebra, swap_algebra)

    def test_swap_map_on_swap_algebra(self, swap_algebra):
        assert is_homomorphism({"p": "q", "q": "p"}, swap_algebra, swap_algebra)

    def test_collapse_against_distinguishing_table(self, swap_algebra, sig_u):
        one = space(GRID, ["z"], [["0"]])
        collapsed = QuantAlgebra(one, sig_u, {"u": {("z",): "z"}})
        # collapsing into a point is a homomorphism here; but if u moves the
        # common image, the tables no longer commute
        assert is_homomorphism({"p": "z", "q": "z"}, swap_algebra, collapsed)
        mover = QuantAlgebra(
            swap_algebra.space, sig_u, {"u": {("p",): "q", ("q",): "q"}}
        )
        assert not is_homomorphism({"p": "p", "q": "p"}, swap_algebra, mover)

    def test_exhaustive_table_check(self, sig_u):
        rng = random.Random(9)
        for _ in range(20):
            a = random_algebra(rng, sig_u, GRID, FREL, 2)
            b = random_algebra(rng, sig_u, GRID, FREL, 2)
            for images in itertools.product(b.space.carrier, repeat=2):
                f = dict(zip(a.space.carrier, images))
                want = all(
                    b.space.d(f[x], f[y]) <= a.space.d(x, y)
                    for x in a.space.carrier
                    for y in a.space.carrier
                ) and all(
                    f[a.apply("u", (x,))] == b.apply("u", (f[x],))
                    for x in a.space.carrier
                )
                assert is_homomorphism(f, a, b) == want


class TestEntailsCatalog:
    def test_empty_catalog_vacuous(self, ab_half):
        j = Judgment(ab_half, Var("a"), Var("b"))
        assert entails_catalog([], MET, Theory("empty", ()), j)

    def test_swap_catalog_accepts_half(self, swap_algebra, ab_half):
        j = Judgment(ab_half, Var("a"), Var("b"), GRID.value("1/2"))
        assert entails_catalog([swap_algebra], MET, Theory("empty", ()), j)

    def test_swap_catalog_rejects_fixed_point(self, swap_algebra, ab_half):
        j = Judgment(ab_half, App("u", (Var("a"),)), Var("a"))
        assert not entails_catalog([swap_algebra], MET, Theory("empty", ()), j)

    def test_non_models_are_ignored(self, swap_algebra, ab_half, sig_u):
        # an algebra violating the theory cannot refute anything
        th = Theory("T", (Judgment(ab_half, App("u", (Var("a"),)), Var("a")),))
        j = Judgment(ab_half, Var("a"), Var("a"), 0)
        assert not is_model(swap_algebra, MET, th)
        assert entails_catalog([swap_algebra], MET, th, j)


class TestAlgebraJson:
    def test_roundtrip(self, swap_uc):
        obj = {
            "space": {"carrier": ["p", "q"], "dist": [["0", "1/2"], ["1/2", "0"]]},
            "ops": {"c": "p", "u": {"p": "q", "q": "p"}},
        }
        assert QuantAlgebra.from_json(obj, swap_uc.sig, GRID) == swap_uc

    def test_binary_table_keys(self):
        sig = Signature.of({"f": 2})
        sp = space(GRID, ["p", "q"], [["0", "1"], ["1", "0"]])
        obj = {
            "space": {"carrier": ["p", "q"], "dist": [["0", "1"], ["1", "0"]]},
            "ops": {"f": {"p,p": "p", "p,q": "q", "q,p": "q", "q,q": "p"}},
        }
        alg = QuantAlgebra.from_json(obj, sig, GRID)
        assert alg == QuantAlgebra(sp, sig, {"f": {
            ("p", "p"): "p", ("p", "q"): "q", ("q", "p"): "q", ("q", "q"): "p"}})

    def test_partial_table_rejected(self, pq_half, sig_u):
        with pytest.raises(ValueError):
            QuantAlgebra(pq_half, sig_u, {"u": {("p",): "q"}})
