"""The model checker against the exhaustive reference loops it replaces.

``oracle.satisfies_exhaustive`` tries every map from a judgment's context
into the algebra's carrier, keeps the nonexpansive ones and evaluates both
sides with ``eval_term``; ``oracle.check_ump_exhaustive`` tries every map
from the free algebra's classes. The model checker searches interpretations
once per context, and the UMP check decides from the extension alone, since
the unit and the non-Overflow table entries force every class; both must
agree on the verdict, the first failing judgment, its counterexample, every
``UmpResult`` field and any error, including the budget errors and their order.
"""
from __future__ import annotations

import contextlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qeqlog.errors import BudgetExceeded, QeqlogError
import qeqlog.free as free_mod
from qeqlog.free import build_free, check_free_is_model, check_ump
from qeqlog.gmet import (BUDGET_INTERPS, FREL, MET, PMET, EpsGrid, enumerate_nonexpansive,
                         is_nonexpansive)
from qeqlog.qalg import Judgment, QuantAlgebra, Theory, entails_catalog, first_failure, is_model, satisfies
from qeqlog.terms import App, Signature, Var

import oracle
from conftest import random_algebra, random_space, random_term, space

SPECS = {"FREL": FREL, "PMET": PMET, "MET": MET}
SIGS = (
    Signature.of({"u": 1}),
    Signature.of({"f": 2}),
    Signature.of({"u": 1, "f": 2}),
    Signature.of({"u": 1, "c": 0}),
    # an arity above 2 takes the compiled term's generic path
    Signature.of({"u": 1, "g": 3}),
)
U_SIG = Signature.of({"u": 1})
GRID = EpsGrid(4)
_SETTINGS = settings(deadline=None, max_examples=80,
                     suppress_health_check=[HealthCheck.too_slow])


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except QeqlogError as exc:
        return None, (type(exc).__name__, str(exc))


def _theory(rng: random.Random, sig, grid, spec, n_judgments: int) -> Theory:
    """Judgments over a pool of two contexts, so some share one and some do
    not; each eps is None or a random grid value."""
    pool = [random_space(rng, grid, rng.randint(1, 3), spec) for _ in range(2)]
    judgments = []
    for _ in range(n_judgments):
        ctx = rng.choice(pool) if rng.random() < 0.7 else random_space(rng, grid, rng.randint(1, 3), spec)
        lhs = random_term(rng, sig, ctx.carrier, 3)
        rhs = random_term(rng, sig, ctx.carrier, 3)
        judgments.append(Judgment(ctx, lhs, rhs, rng.choice([None] + list(range(grid.q + 1)))))
    return Theory("random", tuple(judgments))


class TestSatisfiesAgainstReference:
    @_SETTINGS
    @given(
        st.sampled_from(sorted(SPECS)),
        st.integers(0, len(SIGS) - 1),
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(0, 5),
        st.sampled_from([BUDGET_INTERPS, 1, 3, 9, 27]),
        st.integers(0, 2**32 - 1),
    )
    def test_same_verdicts_counterexamples_and_errors(self, spec_name, sig_i, q, size, n, budget, seed):
        rng = random.Random(seed)
        spec, sig, grid = SPECS[spec_name], SIGS[sig_i], EpsGrid(q)
        alg = random_algebra(rng, sig, grid, spec, size)
        theory = _theory(rng, sig, grid, spec, n)

        for j in theory.judgments:
            assert _outcome(satisfies, alg, spec, j, budget) == \
                _outcome(oracle.satisfies_exhaustive, alg, spec, j, budget)

        want, want_err = _outcome(oracle.first_failure_exhaustive, alg, spec, theory, budget)
        got, got_err = _outcome(first_failure, alg, spec, theory, budget)
        assert got_err == want_err
        if want_err is None:
            if want is None:
                assert got is None
            else:
                k, tau = want
                assert got == (theory.judgments[k], tau)
        assert _outcome(is_model, alg, spec, theory, budget) == \
            ((want is None, None) if want_err is None else (None, want_err))

    @_SETTINGS
    @given(
        st.sampled_from(sorted(SPECS)),
        st.integers(0, len(SIGS) - 1),
        st.integers(2, 4),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_entails_catalog(self, spec_name, sig_i, q, n, seed):
        rng = random.Random(seed)
        spec, sig, grid = SPECS[spec_name], SIGS[sig_i], EpsGrid(q)
        catalog = [random_algebra(rng, sig, grid, spec, rng.randint(1, 3)) for _ in range(3)]
        theory = _theory(rng, sig, grid, spec, n)
        # the query shares its context with the theory's first judgment when there is one
        ctx = theory.judgments[0].context if n and rng.random() < 0.5 else \
            random_space(rng, grid, rng.randint(1, 3), spec)
        j = Judgment(ctx, random_term(rng, sig, ctx.carrier, 3), random_term(rng, sig, ctx.carrier, 3),
                     rng.choice([None] + list(range(q + 1))))
        want = all(
            oracle.first_failure_exhaustive(alg, spec, theory) is not None
            or oracle.satisfies_exhaustive(alg, spec, j).holds
            for alg in catalog
        )
        assert entails_catalog(catalog, spec, theory, j) == want

    @_SETTINGS
    @given(st.sampled_from(sorted(SPECS)), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 3), st.sampled_from([BUDGET_INTERPS, 1, 4, 16]), st.integers(0, 2**32 - 1))
    def test_enumerate_nonexpansive_is_the_filtered_product(self, spec_name, q, n, m, budget, seed):
        rng = random.Random(seed)
        grid = EpsGrid(q)
        src = random_space(rng, grid, n, SPECS[spec_name])
        dst = random_space(rng, grid, m, SPECS[spec_name])
        want = [
            f for f in (dict(zip(src.carrier, images))
                        for images in itertools.product(dst.carrier, repeat=n))
            if is_nonexpansive(f, src, dst)
        ]
        if m ** n > budget:
            with pytest.raises(BudgetExceeded, match=rf"^{m ** n} candidate interpretations exceed budget {budget}$"):
                enumerate_nonexpansive(src, dst, budget)
        else:
            assert enumerate_nonexpansive(src, dst, budget) == want


def _valid_theory(rng, sig, grid, spec, alg, n):
    """A random theory cut down to the judgments the algebra satisfies, so
    the algebra is a model and the UMP check gets past its preconditions."""
    theory = _theory(rng, sig, grid, spec, n)
    kept = tuple(j for j in theory.judgments if oracle.satisfies_exhaustive(alg, spec, j).holds)
    return Theory("kept", kept if rng.random() < 0.8 else theory.judgments)


class TestUmpAgainstReference:
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(
        st.sampled_from(sorted(SPECS)),
        st.integers(0, len(SIGS) - 1),
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(1, 3),
        st.integers(0, 3),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    # the ternary signature at depth 3 over two generators: 1,742 roots, and
    # a three-point axiom context for the first substitution pass
    @example("PMET", 4, 3, 1, 2, 3, 3, True, True, 3361672518)
    # the same signature, where axiom 0 is a = u(a) over three points that
    # tie b and c to a: each merge requeues the merged class's members, and
    # the tied points take only the roots near its root, not all 1,742
    @example("MET", 4, 3, 3, 2, 3, 2, True, False, 1528806)
    def test_same_result_and_errors(self, spec_name, sig_i, q, size, gens, depth, n,
                                    any_target, budgeted, seed):
        """``any_target`` lets a non-model through the model precondition, so
        that the extension need not exist."""
        rng = random.Random(seed)
        spec, sig, grid = SPECS[spec_name], SIGS[sig_i], EpsGrid(q)
        alg = random_algebra(rng, sig, grid, spec, size)
        theory = _theory(rng, sig, grid, spec, n) if any_target else \
            _valid_theory(rng, sig, grid, spec, alg, n)
        target = random_space(rng, grid, gens, spec)
        try:
            fa = build_free(sig, theory, spec, target, depth, 20000)
        except QeqlogError:
            return
        if size ** len(fa.classes) > 5000:
            return
        maps = [dict(zip(target.carrier, images))
                for images in itertools.product(alg.space.carrier, repeat=gens)]
        nonexp = [g for g in maps if is_nonexpansive(g, target, alg.space)]
        gen_map = rng.choice(nonexp) if nonexp and rng.random() < 0.85 else rng.choice(maps)
        budget = rng.randint(1, 2 * size ** len(fa.classes)) if budgeted else BUDGET_INTERPS
        with mock.patch.object(free_mod, "is_model", lambda *args: True) if any_target \
                else contextlib.nullcontext():
            assert _outcome(check_ump, fa, alg, gen_map, budget) == \
                _outcome(oracle.check_ump_exhaustive, fa, alg, gen_map, budget)

    def test_no_extension_when_a_distance_expands(self, swap_algebra, ab_half, monkeypatch):
        # swap is no model of u(x) =1/4 x: d(u(p), p) = 1/2, so no map is nonexpansive
        monkeypatch.setattr(free_mod, "is_model", lambda *args: True)
        quarter = Theory("Q", (Judgment(space(GRID, ["x"], [["0"]]), App("u", (Var("x"),)), Var("x"), 1),))
        fa = build_free(U_SIG, quarter, MET, ab_half, 2)
        got = check_ump(fa, swap_algebra, {"a": "p", "b": "q"})
        assert got == oracle.check_ump_exhaustive(fa, swap_algebra, {"a": "p", "b": "q"})
        assert (got.exists, got.unique) == (False, False)

    @pytest.mark.parametrize("seed", range(6))
    def test_free_is_model_reports_every_instance(self, seed):
        rng = random.Random(seed)
        sig = SIGS[seed % len(SIGS)]
        theory = _theory(rng, sig, EpsGrid(4), MET, 3)
        fa = build_free(sig, theory, MET, random_space(rng, EpsGrid(4), 2, MET), 2)
        report = check_free_is_model(fa, theory, MET)
        total = sum(len(enumerate_nonexpansive(j.context, fa.space)) for j in theory.judgments)
        assert report.checked + report.skipped_overflow == total


@pytest.fixture
def three_points():
    return space(GRID, ["p", "q", "r"], [["0", "1/2", "1/2"], ["1/2", "0", "1/2"], ["1/2", "1/2", "0"]])


class TestBudgetsWithSharedSearch:
    def test_each_judgment_raises_at_its_own_candidate_count(self, three_points):
        alg = QuantAlgebra(three_points, U_SIG, {"u": {("p",): "q", ("q",): "r", ("r",): "p"}})
        small = space(GRID, ["x"], [["0"]])
        big = space(GRID, ["a", "b"], [["0", "1/2"], ["1/2", "0"]])
        u = lambda t: App("u", (t,))  # noqa: E731
        theory = Theory("T", (
            Judgment(small, u(u(u(Var("x")))), Var("x")),
            Judgment(big, Var("a"), Var("a")),
            Judgment(big, u(Var("a")), u(Var("a"))),
        ))
        # 3 maps fit, 9 do not: the first judgment passes, the second raises
        with pytest.raises(BudgetExceeded, match=r"^9 candidate interpretations exceed budget 8$"):
            first_failure(alg, MET, theory, 8)
        with pytest.raises(BudgetExceeded, match=r"^9 candidate interpretations exceed budget 8$"):
            is_model(alg, MET, theory, 8)
        assert first_failure(alg, MET, theory, 9) is None
        for j in theory.judgments[1:]:
            with pytest.raises(BudgetExceeded, match=r"^9 candidate interpretations exceed budget 8$"):
                satisfies(alg, MET, j, 8)

    def test_an_earlier_failure_wins_over_a_later_budget(self, three_points):
        alg = QuantAlgebra(three_points, U_SIG, {"u": {("p",): "q", ("q",): "r", ("r",): "p"}})
        small = space(GRID, ["x"], [["0"]])
        big = space(GRID, ["a", "b"], [["0", "1/2"], ["1/2", "0"]])
        theory = Theory("T", (
            Judgment(small, App("u", (Var("x"),)), Var("x")),
            Judgment(big, Var("a"), Var("a")),
        ))
        assert first_failure(alg, MET, theory, 8) == (theory.judgments[0], {"x": "p"})
        assert not is_model(alg, MET, theory, 8)

    def test_ump_raises_at_every_map_although_it_visits_few(self, swap_algebra, ab_half):
        fa = build_free(U_SIG, Theory("E", ()), MET, ab_half, 2)
        total = 2 ** len(fa.classes)
        with pytest.raises(BudgetExceeded, match=rf"^{total} candidate maps exceed budget {total - 1}$"):
            check_ump(fa, swap_algebra, {"a": "p", "b": "q"}, budget=total - 1)
        assert check_ump(fa, swap_algebra, {"a": "p", "b": "q"}, budget=total).candidates == total
