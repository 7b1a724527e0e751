from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from qeqlog.errors import BudgetExceeded, GridMismatch, UnsupportedPreset
from qeqlog.gmet import (
    FREL,
    MET,
    PMET,
    PRESETS,
    DistAtom,
    EpsConst,
    EpsGrid,
    EpsMin1,
    EpsParam,
    EpsPlus,
    FuzzySpace,
    GMetSpec,
    MAX_GRID_VECTORS,
    HornClause,
    check_space,
    compile_clause,
    discrete_lift,
    enumerate_nonexpansive,
    is_nonexpansive,
    tuple_name,
)

from conftest import random_space, space


GRID = EpsGrid(4)


class TestGrid:
    @pytest.mark.parametrize(
        "raw,num", [("1/2", 2), ("0", 0), (1, 4), (0.25, 1), (Fraction(3, 4), 3)]
    )
    def test_parse(self, raw, num):
        assert GRID.value(raw) == num

    @pytest.mark.parametrize("raw", ["1/3", "2", "-1/4", 0.3])
    def test_off_grid(self, raw):
        with pytest.raises(GridMismatch):
            GRID.value(raw)

    def test_format(self):
        assert [GRID.format(n) for n in GRID.values()] == ["0", "1/4", "1/2", "3/4", "1"]

    # a grid remembers the str and int values it has read: no other value may
    # read a remembered answer, and an error is raised on every read
    def test_bool_after_int_is_refused(self):
        grid = EpsGrid(4)
        assert grid.value(1) == 4
        with pytest.raises(GridMismatch, match="^not a distance: True$"):
            grid.value(True)

    @pytest.mark.parametrize("raw", [[1], {}])
    def test_unhashable_is_refused(self, raw):
        with pytest.raises(GridMismatch, match=r"^cannot read grid value from "):
            EpsGrid(4).value(raw)

    def test_off_grid_is_refused_on_every_read(self):
        grid = EpsGrid(4)
        for _ in range(2):
            with pytest.raises(GridMismatch, match="^1/5 is not on the grid with denominator 4$"):
                grid.value("1/5")

    def test_forms_agree_on_every_read(self):
        grid = EpsGrid(4)
        for _ in range(2):
            assert [grid.value(x) for x in ("1/2", 0.5, Fraction(1, 2), 1)] == [2, 2, 2, 4]


class TestCheckSpace:
    def test_symmetric_metric_passes(self, ab_half):
        assert check_space(MET, ab_half) == []

    def test_zero_between_distinct_points(self):
        sp = space(GRID, ["a", "b"], [["0", "0"], ["0", "0"]])
        violations = check_space(MET, sp)
        assert any(v.clause == "zero_implies_eq" for v in violations)

    def test_asymmetry_detected(self):
        sp = space(GRID, ["a", "b"], [["0", "1/4"], ["1/2", "0"]])
        violations = check_space(MET, sp)
        assert any(v.clause == "symm" for v in violations)

    def test_triangle_detected(self):
        sp = space(
            GRID,
            ["a", "b", "c"],
            [["0", "1/4", "1"], ["1/4", "0", "1/4"], ["1", "1/4", "0"]],
        )
        violations = check_space(MET, sp)
        assert any(v.clause == "triangle" for v in violations)

    def test_frel_accepts_anything(self):
        rng = random.Random(0)
        for _ in range(10):
            assert check_space(FREL, random_space(rng, GRID, 3, FREL)) == []

    def test_empty_report_means_every_instance_holds(self, ab_half):
        # independent re-verification loop over all instances of all clauses
        sp = ab_half
        assert check_space(MET, sp) == []
        q = sp.grid.q
        for clause in MET.clauses:
            params = clause.param_names()
            for values in itertools.product(sp.carrier, repeat=len(clause.vars)):
                env = dict(zip(clause.vars, values))
                for pvec in itertools.product(range(q + 1), repeat=len(params)):
                    penv = dict(zip(params, pvec))

                    def sat(atom):
                        if not isinstance(atom, DistAtom):
                            return env[atom.x] == env[atom.y]
                        return sp.d(env[atom.x], env[atom.y]) <= min(
                            q, atom.eps.eval(penv, q)
                        )

                    if all(sat(p) for p in clause.premises):
                        assert sat(clause.conclusion)


class TestNonexpansive:
    def test_identity(self, ab_half):
        f = {a: a for a in ab_half.carrier}
        assert is_nonexpansive(f, ab_half, ab_half)

    def test_constant_into_zero_self_distance(self, ab_half, pq_half):
        assert is_nonexpansive({"a": "p", "b": "p"}, ab_half, pq_half)

    def test_expanding_pair_rejected(self, pq_half):
        src = space(GRID, ["a", "b"], [["0", "0"], ["0", "0"]])
        assert not is_nonexpansive({"a": "p", "b": "q"}, src, pq_half)

    def test_composition_closure(self):
        rng = random.Random(3)
        for _ in range(25):
            s1 = random_space(rng, GRID, 2, FREL)
            s2 = random_space(rng, GRID, 3, FREL)
            s3 = random_space(rng, GRID, 2, FREL)
            for f_img in itertools.product(s2.carrier, repeat=2):
                f = dict(zip(s1.carrier, f_img))
                if not is_nonexpansive(f, s1, s2):
                    continue
                for g_img in itertools.product(s3.carrier, repeat=3):
                    g = dict(zip(s2.carrier, g_img))
                    if is_nonexpansive(g, s2, s3):
                        gf = {a: g[f[a]] for a in s1.carrier}
                        assert is_nonexpansive(gf, s1, s3)


class TestEnumerateNonexpansive:
    def test_single_point_source(self, pq_half):
        src = space(GRID, ["x"], [["0"]])
        maps = enumerate_nonexpansive(src, pq_half)
        assert maps == [{"x": "p"}, {"x": "q"}]

    def test_matching_distances_all_maps(self, ab_half, pq_half):
        maps = enumerate_nonexpansive(ab_half, pq_half)
        assert len(maps) == 4  # brute force over the 4 candidates

    def test_zero_source_forces_constants(self, pq_half):
        src = space(GRID, ["a", "b"], [["0", "0"], ["0", "0"]])
        maps = enumerate_nonexpansive(src, pq_half)
        assert maps == [{"a": "p", "b": "p"}, {"a": "q", "b": "q"}]

    def test_budget(self, ab_half, pq_half):
        with pytest.raises(BudgetExceeded):
            enumerate_nonexpansive(ab_half, pq_half, budget=3)

    def test_matches_filtered_product(self):
        rng = random.Random(11)
        cases = itertools.product([FREL, MET], [2, 4, 24], range(1, 6), range(1, 5))
        for spec, q, n, m in cases:
            src = random_space(rng, EpsGrid(q), n, spec)
            dst = random_space(rng, EpsGrid(q), m, spec)
            got = enumerate_nonexpansive(src, dst)
            # list equality: the order is carrier-product order
            want = [
                dict(zip(src.carrier, images))
                for images in itertools.product(dst.carrier, repeat=n)
                if all(
                    dst.d(images[i], images[j]) <= src.dist[i][j]
                    for i in range(n)
                    for j in range(n)
                )
            ]
            assert got == want, (spec.name, q, n, m)

    def test_budget_boundary(self):
        rng = random.Random(5)
        src = random_space(rng, GRID, 3, MET)
        dst = random_space(rng, GRID, 4, MET)
        total = 4 ** 3
        enumerate_nonexpansive(src, dst, budget=total)
        with pytest.raises(BudgetExceeded):
            enumerate_nonexpansive(src, dst, budget=total - 1)


class TestDiscreteLift:
    def test_frel_constant_one(self, ab_half):
        lifted = discrete_lift(FREL, ab_half, 2)
        assert all(v == GRID.q for row in lifted.dist for v in row)
        assert len(lifted.carrier) == 4

    def test_met_diagonal(self, ab_half):
        lifted = discrete_lift(MET, ab_half, 2)
        ab, ba = tuple_name(["a", "b"]), tuple_name(["b", "a"])
        assert lifted.d(ab, ab) == 0
        assert lifted.d(ab, ba) == GRID.q

    @pytest.mark.parametrize("preset", [FREL, PMET, MET])
    def test_n_equals_one(self, preset, ab_half):
        lifted = discrete_lift(preset, ab_half, 1)
        names = [tuple_name([a]) for a in ab_half.carrier]
        assert lifted.carrier == tuple(names)
        if preset is FREL:
            assert all(v == GRID.q for row in lifted.dist for v in row)
        else:
            assert lifted.d(names[0], names[0]) == 0
            assert lifted.d(names[0], names[1]) == GRID.q

    @pytest.mark.parametrize("preset", [FREL, PMET, MET])
    def test_lift_passes_own_preset(self, preset, ab_half):
        assert check_space(preset, discrete_lift(preset, ab_half, 2)) == []

    @pytest.mark.parametrize("preset", [FREL, PMET, MET])
    def test_universal_nonexpansiveness(self, preset, pq_half):
        # every set function out of the lifted square is nonexpansive
        rng = random.Random(5)
        src = space(GRID, ["a", "b"], [["0", "1/4"], ["1/4", "0"]])
        lifted = discrete_lift(preset, src, 2)
        dst = pq_half if preset is not FREL else random_space(rng, GRID, 2, FREL)
        assert check_space(preset, dst) == []
        for images in itertools.product(dst.carrier, repeat=len(lifted.carrier)):
            f = dict(zip(lifted.carrier, images))
            assert is_nonexpansive(f, lifted, dst)

    def test_met_projections_nonexpansive(self, ab_half):
        lifted = discrete_lift(MET, ab_half, 2)
        for pos in range(2):
            proj = {
                tuple_name(t): t[pos]
                for t in itertools.product(ab_half.carrier, repeat=2)
            }
            assert is_nonexpansive(proj, lifted, ab_half)

    def test_user_spec_rejected(self, ab_half):
        user = GMetSpec("mine", MET.clauses[:1])
        with pytest.raises(UnsupportedPreset):
            discrete_lift(user, ab_half, 2)

    def test_renamed_met_clone_is_still_fine(self, ab_half):
        # structural comparison: same clauses means same lifting formula
        clone = GMetSpec("MET", MET.clauses)
        assert discrete_lift(clone, ab_half, 2) == discrete_lift(MET, ab_half, 2)


class TestSpecJson:
    def test_preset_roundtrip(self):
        for name, spec in PRESETS.items():
            assert GMetSpec.from_json({"preset": name}) is spec

    def test_custom_clause_roundtrip(self):
        obj = {
            "name": "halfsym",
            "clauses": [
                {
                    "name": "halfsym",
                    "vars": ["x", "y"],
                    "premises": [{"dist": ["x", "y", "e"]}],
                    "conclusion": {
                        "dist": ["y", "x", {"min1": {"plus": ["e", "1/4"]}}]
                    },
                }
            ],
        }
        spec = GMetSpec.from_json(obj)
        e = EpsParam("e")
        assert spec == GMetSpec("halfsym", (HornClause(
            "halfsym", ("x", "y"), (DistAtom("x", "y", e),),
            DistAtom("y", "x", EpsMin1(EpsPlus((e, EpsConst(Fraction(1, 4)))))),
        ),))
        sp = space(GRID, ["a", "b"], [["0", "1/4"], ["1", "0"]])
        assert check_space(spec, sp) != []  # 1 > 1/4 + 1/4

    def test_space_json_roundtrip(self, ab_half):
        obj = {"carrier": ["a", "b"], "dist": [[0, "1/2"], [0.5, "0"]]}
        assert FuzzySpace.from_json(obj, GRID) == ab_half


class TestCompileClause:
    # d(x, y) <= e + f cannot be solved for e and f, so every grid vector is tried
    @staticmethod
    def sum_clause() -> HornClause:
        return GMetSpec.from_json({"clauses": [{
            "name": "sum", "vars": ["x", "y"],
            "premises": [{"dist": ["x", "y", {"plus": ["e", "f"]}]}],
            "conclusion": {"dist": ["y", "x", {"plus": ["e", "f"]}]},
        }]}).clauses[0]

    def test_grid_vectors_at_the_limit_are_listed(self):
        q = 2**10 - 1  # (q + 1)^2 is the limit itself
        assert len(compile_clause(self.sum_clause(), q)[1]) == MAX_GRID_VECTORS

    def test_more_grid_vectors_are_refused_before_listing(self, monkeypatch):
        def listed(*args, **kwargs):
            raise AssertionError("the grid vectors were listed")

        monkeypatch.setattr(itertools, "product", listed)
        with pytest.raises(BudgetExceeded, match=(
                f"^clause 'sum': 16008001 grid vectors, more than the limit of {MAX_GRID_VECTORS}$")):
            compile_clause(self.sum_clause(), 4000)
