from __future__ import annotations

import itertools
import random

import pytest

import qeqlog.monad as monad_mod
from qeqlog.errors import (BudgetExceeded, EMLawViolation, NotAModel, NotNonexpansive,
                           OutOfUniverse, PreconditionViolation, QeqlogError)
from qeqlog.free import OVERFLOW
from qeqlog.gmet import FREL, MET, PMET, EpsGrid, FuzzySpace, is_nonexpansive
from qeqlog.monad import (
    EMCandidate,
    MonadInstance,
    check_em_laws,
    check_hom_image_model,
    check_monad_laws,
    em_from_model,
    m_map,
    m_mult,
    m_object,
    m_unit,
    model_from_em,
)
from qeqlog.qalg import Judgment, QuantAlgebra, Theory, is_model, satisfies
from qeqlog.terms import App, Signature, Var, apply_subst

from conftest import random_algebra, random_space, random_theory, space


GRID = EpsGrid(4)
EMPTY_SIG = Signature.of({})
U_SIG = Signature.of({"u": 1})


def mi_empty(sig=EMPTY_SIG, spec=MET, depth=2) -> MonadInstance:
    return MonadInstance(sig, Theory("E", ()), spec, depth)


def quarter_mi(depth=3) -> MonadInstance:
    ctx = space(GRID, ["x"], [["0"]])
    th = Theory("T", (Judgment(ctx, App("u", (Var("x"),)), Var("x"), 1),))
    return MonadInstance(U_SIG, th, MET, depth)


class TestObjectAction:
    def test_two_points_stay_two_points(self, ab_half):
        m = m_object(mi_empty(), ab_half)
        assert len(m.carrier) == 2
        assert m.d("a", "b") == GRID.value("1/2")

    def test_collapsing_theory_gives_point(self, ab_half):
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        mi = MonadInstance(EMPTY_SIG, th, MET, 2)
        assert len(m_object(mi, ab_half).carrier) == 1

    def test_frel_copies_usevar_table(self):
        sp = space(GRID, ["a", "b"], [["1/4", "1/2"], ["3/4", "1"]])
        mi = MonadInstance(EMPTY_SIG, Theory("E", ()), FREL, 2)
        m = m_object(mi, sp)
        for a in sp.carrier:
            for b in sp.carrier:
                assert m.d(a, b) == sp.d(a, b)


class TestMapAction:
    def test_identity_functor_law(self, ab_half):
        mi = quarter_mi(2)
        ident = {a: a for a in ab_half.carrier}
        mapped = m_map(mi, ident, ab_half, ab_half)
        assert mapped == {n: n for n in m_object(mi, ab_half).carrier}

    def test_application_case(self, ab_half, pq_half):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        f = {"a": "p", "b": "q"}
        mapped = m_map(mi, f, ab_half, pq_half)
        assert mapped["u(a)"] == "u(p)"

    def test_composition_functor_law(self):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        s1 = space(GRID, ["a", "b"], [["0", "1/2"], ["1/2", "0"]])
        s2 = space(GRID, ["p", "q"], [["0", "1/2"], ["1/2", "0"]])
        s3 = space(GRID, ["w"], [["0"]])
        f = {"a": "p", "b": "q"}
        g = {"p": "w", "q": "w"}
        via = m_map(mi, g, s2, s3)
        direct = m_map(mi, {a: g[f[a]] for a in s1.carrier}, s1, s3)
        composed = {n: via[v] for n, v in m_map(mi, f, s1, s2).items()}
        assert composed == direct

    def test_expanding_map_refused(self, ab_half):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        far = space(GRID, ["p", "q"], [["0", "1"], ["1", "0"]])
        with pytest.raises(NotNonexpansive) as exc:
            m_map(mi, {"a": "p", "b": "q"}, ab_half, far)
        assert str(exc.value) == "m_map requires a nonexpansive map"

    def test_result_nonexpansive(self, ab_half, pq_half):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        mapped = m_map(mi, {"a": "p", "b": "q"}, ab_half, pq_half)
        assert is_nonexpansive(mapped, m_object(mi, ab_half), m_object(mi, pq_half))


class TestUnit:
    def test_unit_names_classes(self, ab_half):
        mi = quarter_mi(2)
        assert m_unit(mi, ab_half) == {"a": "a", "b": "b"}

    def test_collapsed_unit_not_injective(self, ab_half):
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        mi = MonadInstance(EMPTY_SIG, th, MET, 2)
        unit = m_unit(mi, ab_half)
        assert unit["a"] == unit["b"]

    def test_unit_nonexpansive(self, ab_half):
        mi = quarter_mi(2)
        assert is_nonexpansive(m_unit(mi, ab_half), ab_half, m_object(mi, ab_half))

    def test_naturality_square(self, ab_half, pq_half):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        f = {"a": "p", "b": "q"}
        mf = m_map(mi, f, ab_half, pq_half)
        unit_src = m_unit(mi, ab_half)
        unit_dst = m_unit(mi, pq_half)
        for a in ab_half.carrier:
            assert mf[unit_src[a]] == unit_dst[f[a]]


class TestMult:
    def test_flatten_variable(self, ab_half):
        mi = quarter_mi(2)
        mult = m_mult(mi, ab_half)
        m1 = m_object(mi, ab_half)
        for name in m1.carrier:
            assert mult[name] == name or mult[name] is OVERFLOW
        assert mult["a"] == "a"

    def test_flatten_nested_application(self, ab_half):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 3)
        mult = m_mult(mi, ab_half)
        assert mult["u(u(a))"] == "u(u(a))"

    def test_overflow_where_flattened_depth_exceeds(self, ab_half):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        mult = m_mult(mi, ab_half)
        # u applied to the generator named u(a) flattens to depth 3, beyond 2
        assert mult["u([u(a)])"] is OVERFLOW
        assert mult["[u(a)]"] == "u(a)"

    def test_mult_nonexpansive_on_defined_entries(self, ab_half):
        mi = quarter_mi(2)
        m1 = m_object(mi, ab_half)
        m2 = m_object(mi, m1)
        mult = m_mult(mi, ab_half)
        for n1 in m2.carrier:
            for n2 in m2.carrier:
                if mult[n1] is OVERFLOW or mult[n2] is OVERFLOW:
                    continue
                assert m1.d(mult[n1], mult[n2]) <= m2.d(n1, n2)

    def test_naturality_square(self, ab_half, pq_half):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        f = {"a": "p", "b": "q"}
        src1, dst1 = m_object(mi, ab_half), m_object(mi, pq_half)
        mf = m_map(mi, f, ab_half, pq_half)
        mmf = m_map(mi, mf, src1, dst1)
        mult_src = m_mult(mi, ab_half)
        mult_dst = m_mult(mi, pq_half)
        for n in m_object(mi, src1).carrier:
            if mult_src[n] is OVERFLOW:
                continue
            assert mult_dst[mmf[n]] == mf[mult_src[n]]

    def test_flattening_agrees_on_class_members(self, ab_half):
        # members of one outer class must flatten into one inner class
        # wherever both flattenings stay within the bound
        ctx = space(GRID, ["x"], [["0"]])
        invol = Theory(
            "INV", (Judgment(ctx, App("u", (App("u", (Var("x"),)),)), Var("x")),)
        )
        mi = MonadInstance(U_SIG, invol, MET, 3)
        fa = mi.free(ab_half)
        outer = mi.free(fa.space)
        rep_of_name = {fa.class_name(c): rep for c, rep in enumerate(fa.classes)}
        for s in outer.base.universe:
            rep = outer.classes[outer.class_of(s)]
            fs, fr = apply_subst(rep_of_name, s), apply_subst(rep_of_name, rep)
            if fa.base.term_in_universe(fs) and fa.base.term_in_universe(fr):
                assert fa.class_of(fs) == fa.class_of(fr)


class TestMonadLaws:
    def test_no_operations_all_exact(self, ab_half):
        reports = check_monad_laws(mi_empty(), ab_half)
        for r in reports:
            assert r.failed == 0
            assert r.skipped_overflow == 0
            assert r.checked > 0

    def test_unary_depth_three_reports_skips(self, ab_half):
        reports = check_monad_laws(MonadInstance(U_SIG, Theory("E", ()), MET, 3), ab_half)
        for r in reports:
            assert r.failed == 0
        assoc = next(r for r in reports if "M(mult)" in r.law)
        assert assoc.skipped_overflow > 0
        assert assoc.checked == 20 and assoc.skipped_overflow == 34

    def test_unary_depth_three_involution_full_coverage(self, ab_half):
        ctx = space(GRID, ["x"], [["0"]])
        invol = Theory(
            "INV",
            (Judgment(ctx, App("u", (App("u", (Var("x"),)),)), Var("x")),),
        )
        reports = check_monad_laws(MonadInstance(U_SIG, invol, MET, 3), ab_half)
        for r in reports:
            assert r.failed == 0
            assert r.coverage >= 0.5

    def test_collapsing_theory(self, ab_half):
        th = Theory("PHI1", (Judgment(ab_half, Var("a"), Var("b"), 0),))
        reports = check_monad_laws(MonadInstance(EMPTY_SIG, th, MET, 2), ab_half)
        assert all(r.failed == 0 for r in reports)

    def test_injected_fault_detected(self, ab_half, monkeypatch):
        real_mult = monad_mod.m_mult

        def corrupted(mi, sp):
            out = real_mult(mi, sp)
            defined = sorted(k for k, v in out.items() if v is not OVERFLOW)
            if len({out[k] for k in defined}) > 1:
                a = next(k for k in defined if out[k] != out[defined[0]])
                out[a], out[defined[0]] = out[defined[0]], out[a]
            return out

        monkeypatch.setattr(monad_mod, "m_mult", corrupted)
        reports = check_monad_laws(mi_empty(), ab_half)
        assert any(r.failed > 0 for r in reports)


    def test_swapped_unit_fails_right_unit_law(self, ab_half, monkeypatch):
        real_unit = monad_mod.m_unit

        def swapped(mi, sp):
            out = real_unit(mi, sp)
            if sp != ab_half:
                return out
            return {a: out[b] for a, b in zip(sp.carrier, reversed(sp.carrier))}

        monkeypatch.setattr(monad_mod, "m_unit", swapped)
        reports = {r.law: r for r in check_monad_laws(mi_empty(), ab_half)}
        assert reports["mult.M(unit)=id"].failed == 2
        assert reports["mult.M(unit)=id"].first_failure == "mult(M(unit)(a)) = b"


class TestEilenbergMoore:
    def test_structure_map_evaluates(self, swap_algebra):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        cand = em_from_model(mi, swap_algebra)
        assert cand.h["u(p)"] == "q"
        assert cand.h["p"] == "p"

    def test_em_laws_pass(self, swap_algebra):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        cand = em_from_model(mi, swap_algebra)
        for r in check_em_laws(mi, cand):
            assert r.failed == 0

    def test_not_a_model_rejected(self, swap_algebra, ab_half):
        th = Theory("T", (Judgment(ab_half, App("u", (Var("a"),)), Var("a")),))
        mi = MonadInstance(U_SIG, th, MET, 2)
        with pytest.raises(NotAModel):
            em_from_model(mi, swap_algebra)

    def test_model_check_counts_under_its_own_budget(self, pq_half):
        stay = QuantAlgebra(pq_half, U_SIG, {"u": {("p",): "p", ("q",): "q"}})
        # the interpretation budget bounds the model check alone
        with pytest.raises(BudgetExceeded) as exc:
            em_from_model(quarter_mi(2), stay, 1)
        assert str(exc.value) == "2 candidate interpretations exceed budget 1"
        assert em_from_model(quarter_mi(2), stay, 2).h["u(p)"] == "p"
        # and the instance budget the saturation alone
        mi = MonadInstance(U_SIG, quarter_mi().theory, MET, 2, budget=1)
        with pytest.raises(BudgetExceeded) as exc:
            em_from_model(mi, stay)
        assert str(exc.value) == "saturation considered more than 1 rule instances in round 0 at USEVAR"

    def test_expanding_structure_map_is_refused(self, swap_algebra, monkeypatch):
        # let a non-model through: under u(x) =1/4 x, swap's structure map
        # sends u(p) and p, within a quarter, to q and p, a half apart
        monkeypatch.setattr(monad_mod, "is_model", lambda *args: True)
        with pytest.raises(NotNonexpansive, match=r"^structure map is not nonexpansive$"):
            em_from_model(quarter_mi(2), swap_algebra)

    def test_corrupted_structure_map_fails_laws(self, swap_algebra):
        # depth 3: at depth 2 every instance touching the corrupted entry is
        # overflow-skipped, so the truncated laws honestly cannot see it
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 3)
        cand = em_from_model(mi, swap_algebra)
        h = dict(cand.h)
        h["u(p)"] = "p"  # breaks h.M(h) = h.mult
        bad = EMCandidate(cand.space, h)
        reports = check_em_laws(mi, bad)
        assert any(r.failed > 0 for r in reports)
        with pytest.raises(EMLawViolation):
            model_from_em(mi, bad)

    # h(unit(p)) = q breaks the unit law, but at depth 1 no table can be read
    @pytest.mark.parametrize("h_p", ["p", "q"], ids=["lawful", "lawless"])
    def test_depth_one_is_refused_before_the_laws(self, swap_algebra, monkeypatch, h_p):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 1)
        cand = em_from_model(mi, swap_algebra)
        cand = EMCandidate(cand.space, {**cand.h, "p": h_p})
        calls, real = [], monad_mod.check_em_laws
        monkeypatch.setattr(monad_mod, "check_em_laws", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(QeqlogError) as info:
            model_from_em(mi, cand)
        assert type(info.value) is QeqlogError and calls == []
        assert str(info.value) == "reading op tables off a structure map needs depth >= 2"

    def test_round_trip_reproduces_tables(self, swap_algebra):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        cand = em_from_model(mi, swap_algebra)
        rebuilt, reports = model_from_em(mi, cand)
        assert rebuilt.ops == swap_algebra.ops
        assert rebuilt.space == swap_algebra.space
        assert all(r.failed == 0 for r in reports)

    def test_round_trip_randomized(self):
        rng = random.Random(8)
        done = 0
        while done < 10:
            spec = rng.choice([MET, PMET])
            alg = random_algebra(rng, U_SIG, GRID, spec, 2)
            mi = MonadInstance(U_SIG, Theory("E", ()), spec, 2)
            cand = em_from_model(mi, alg)
            rebuilt, _ = model_from_em(mi, cand)
            assert rebuilt.ops == alg.ops
            done += 1

    # each signature with the most points of its models: with a constant or
    # a ternary operation (a projection, which the theory states) the
    # universe of M(M(A)) grows fast. The constant is k: c is the third point
    # of a random space.
    LAW_SIGS = ((U_SIG, 3), (Signature.of({"u": 1, "k": 0}), 2), (Signature.of({"t": 3}), 2),
                (Signature.of({"t": 3, "k": 0}), 1))

    @pytest.mark.parametrize("seed", range(24))
    def test_structure_map_of_a_model_is_lawful(self, seed):
        """em_from_model runs no law: on a model its structure map is lawful
        by construction, and it gives back the model's tables."""
        rng = random.Random(seed)
        spec, (sig, most) = (FREL, PMET, MET)[seed % 3], self.LAW_SIGS[seed // 3 % 4]
        alg = random_algebra(rng, sig, GRID, spec, rng.randint(1, most))
        axioms, depth = [], rng.choice([2, 3])
        if "t" in sig.symbols:
            # every map from the context is nonexpansive; at depth 3 the
            # universe over two points holds a thousand terms
            one = "1" if spec == FREL else "0"
            xyz = space(GRID, "xyz", [[one, "1", "1"], ["1", one, "1"], ["1", "1", one]])
            k, depth = rng.randrange(3), 2
            axioms.append(Judgment(xyz, App("t", tuple(map(Var, "xyz"))), Var("xyz"[k])))
            alg = QuantAlgebra(alg.space, sig, {**alg.ops, "t": {
                args: args[k] for args in itertools.product(alg.space.carrier, repeat=3)}})
        # with the random axioms that the algebra satisfies
        axioms += [j for j in random_theory(rng, sig, GRID, spec, 2).judgments
                   if satisfies(alg, spec, j).holds]
        mi = MonadInstance(sig, Theory("T", tuple(axioms)), spec, depth)
        cand = em_from_model(mi, alg)
        reports = check_em_laws(mi, cand)
        assert [r.failed for r in reports] == [0, 0] and reports[1].checked > 0
        rebuilt, _ = model_from_em(mi, cand)
        assert rebuilt.ops == alg.ops

    def test_induced_table_obeys_theory(self, ab_half):
        mi = quarter_mi(2)
        sp = space(GRID, ["p", "q"], [["0", "1/2"], ["1/2", "0"]])
        stay = QuantAlgebra(sp, U_SIG, {"u": {("p",): "p", ("q",): "q"}})
        cand = em_from_model(mi, stay)
        rebuilt, _ = model_from_em(mi, cand)
        for x in sp.carrier:
            assert sp.d(rebuilt.apply("u", (x,)), x) <= GRID.value("1/4")

    def test_structure_map_off_the_carrier_raises(self, swap_algebra):
        # an image outside the carrier is no generator: the renamed class
        # is outside the universe, which is an error, not an overflow skip
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        cand = em_from_model(mi, swap_algebra)
        with pytest.raises(OutOfUniverse):
            check_em_laws(mi, EMCandidate(cand.space, {**cand.h, "u(p)": "zz"}))

    def test_candidate_violating_unit_law(self, swap_algebra):
        mi = MonadInstance(U_SIG, Theory("E", ()), MET, 2)
        cand = em_from_model(mi, swap_algebra)
        h = dict(cand.h)
        h["p"] = "q"
        reports = check_em_laws(mi, EMCandidate(cand.space, h))
        unit_law = next(r for r in reports if r.law == "h.unit=id")
        assert unit_law.failed > 0


class TestHomImage:
    def base_pair(self):
        sig = U_SIG
        a_space = FuzzySpace(
            GRID, ("x", "y", "z"), ((0, 0, 2), (0, 0, 2), (2, 2, 0))
        )
        a = QuantAlgebra(
            a_space, sig, {"u": {("x",): "y", ("y",): "x", ("z",): "z"}}
        )
        b_space = space(GRID, ["p", "r"], [["0", "1/2"], ["1/2", "0"]])
        b = QuantAlgebra(b_space, sig, {"u": {("p",): "p", ("r",): "r"}})
        f = {"x": "p", "y": "p", "z": "r"}
        g = {"p": "x", "r": "z"}
        ctx = space(GRID, ["v"], [["0"]])
        th = Theory("T", (Judgment(ctx, App("u", (Var("v"),)), Var("v"), 0),))
        return a, b, f, g, th

    def test_identity_iso_trivial(self, swap_algebra):
        ident = {x: x for x in swap_algebra.space.carrier}
        assert check_hom_image_model(
            swap_algebra, swap_algebra, ident, ident, Theory("E", ()), MET
        )

    def test_three_point_surjection_with_section(self):
        a, b, f, g, th = self.base_pair()
        assert is_model(a, PMET, th)
        assert check_hom_image_model(a, b, f, g, th, PMET)

    def test_precondition_named(self):
        a, b, f, g, th = self.base_pair()
        bad_g = {"p": "x", "r": "y"}  # lands both sections in the 0-distance pair
        with pytest.raises(PreconditionViolation, match="identity"):
            check_hom_image_model(a, b, f, bad_g, th, PMET)
        broken_f = {"x": "p", "y": "r", "z": "r"}
        with pytest.raises(PreconditionViolation, match="homomorphism"):
            check_hom_image_model(a, b, broken_f, g, th, PMET)

    def test_not_nonexpansive_section(self):
        a, b, f, g, th = self.base_pair()
        rows = [list(r) for r in a.space.dist]
        rows[0][2] = rows[2][0] = GRID.q
        stretched = FuzzySpace(GRID, a.space.carrier, tuple(tuple(r) for r in rows))
        a2 = QuantAlgebra(stretched, a.sig, a.ops)
        with pytest.raises(PreconditionViolation, match="nonexpansive"):
            check_hom_image_model(a2, b, f, g, th, PMET)

    def test_domain_not_a_model(self):
        # u swaps x and y, so u(v) = v fails on the domain
        a, b, f, g, _ = self.base_pair()
        ctx = space(GRID, ["v"], [["0"]])
        th = Theory("T", (Judgment(ctx, App("u", (Var("v"),)), Var("v")),))
        with pytest.raises(PreconditionViolation) as exc:
            check_hom_image_model(a, b, f, g, th, PMET)
        assert str(exc.value) == "the domain algebra is not a model"

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_quadruples(self, seed):
        rng = random.Random(300 + seed)
        quads = make_hom_image_quadruples(rng, 4)
        for a, b, f, g, th, spec in quads:
            assert check_hom_image_model(a, b, f, g, th, spec)


def make_hom_image_quadruples(rng: random.Random, count: int):
    """Collapse the zero-distance pairs of a pseudometric model; lift tables
    through a chosen section so the quotient map is a homomorphism."""
    out = []
    attempts = 0
    while len(out) < count and attempts < 200:
        attempts += 1
        a_space = random_space(rng, GRID, 3, PMET)
        # group carrier elements at distance 0 (an equivalence under PMET)
        groups: list[list[str]] = []
        for x in a_space.carrier:
            for grp in groups:
                if a_space.d(grp[0], x) == 0:
                    grp.append(x)
                    break
            else:
                groups.append([x])
        if len(groups) == len(a_space.carrier) and rng.random() < 0.5:
            continue  # prefer genuinely collapsing examples
        reps = [grp[0] for grp in groups]
        b_names = [f"b{i}" for i in range(len(groups))]
        f = {x: b_names[i] for i, grp in enumerate(groups) for x in grp}
        g = {b_names[i]: reps[i] for i in range(len(groups))}
        b_rows = tuple(
            tuple(a_space.d(reps[i], reps[j]) for j in range(len(groups)))
            for i in range(len(groups))
        )
        b_space = FuzzySpace(GRID, tuple(b_names), b_rows)
        u_b = {name: rng.choice(b_names) for name in b_names}
        a_ops = {"u": {(x,): g[u_b[f[x]]] for x in a_space.carrier}}
        b_ops = {"u": {(n,): u_b[n] for n in b_names}}
        a = QuantAlgebra(a_space, U_SIG, a_ops)
        b = QuantAlgebra(b_space, U_SIG, b_ops)
        ctx = space(GRID, ["v", "w"], [["0", "1"], ["1", "0"]])
        eps = rng.choice([None] + list(range(GRID.q + 1)))
        th = Theory(
            "T", (Judgment(ctx, App("u", (Var("v"),)), Var("v"), eps),)
        )
        if not is_model(a, PMET, th):
            continue
        out.append((a, b, f, g, th, PMET))
    assert len(out) == count, "generator failed to produce enough quadruples"
    return out
