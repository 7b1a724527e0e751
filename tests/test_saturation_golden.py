"""Saturation state against a recorded fixture.

``fixtures/saturation_golden.json`` holds, for every case below, the number
of rule instances considered, the event count and sha256 digests of the
events, the minimal-distance matrix, the class of every universe term, the
distance history and the merge forest, recorded from a known-good build. A
change that reorders, adds or drops a single recorded event fails here, as
does one that raises a different error. To record the fixture again after
an intended change, run ``PYTHONPATH=src python tests/test_saturation_golden.py``.
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from qeqlog.cli import Workspace
from qeqlog.deduce import saturate
from qeqlog.errors import BudgetExceeded, QeqlogError
from qeqlog.gmet import (
    FREL,
    MET,
    PMET,
    DistAtom,
    EpsConst,
    EpsGrid,
    EpsParam,
    EpsPlus,
    EqAtom,
    FuzzySpace,
    GMetSpec,
    HornClause,
)
from qeqlog.qalg import Judgment, Theory
from qeqlog.terms import App, Signature, Var

from conftest import random_met_space, random_space, random_theory
from test_deduce_custom_specs import HALVING, MIXED, SHARED_PARAM

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "saturation_golden.json"

U_SIG = Signature.of({"u": 1})

# d(x,y) <= e and d(y,x) <= 0 => x = y, tried at every grid value of e: a
# merging clause with several parameter vectors per assignment
GRID_EQ = HornClause(
    "zero_eq_grid",
    ("x", "y"),
    (DistAtom("x", "y", EpsPlus((EpsParam("e"),))), DistAtom("y", "x", EpsConst(Fraction(0)))),
    EqAtom("x", "y"),
)
# an equality premise next to a solved one
EQ_SHIFT = HornClause(
    "eq_shift",
    ("x", "y", "z"),
    (EqAtom("x", "y"), DistAtom("y", "z", EpsParam("e"))),
    DistAtom("x", "z", EpsParam("e")),
)
# x = y, d(y,z) <= 0 => x = z: an equality premise in a merging clause
EQ_CHAIN = HornClause(
    "eq_chain",
    ("x", "y", "z"),
    (EqAtom("x", "y"), DistAtom("y", "z", EpsConst(Fraction(0)))),
    EqAtom("x", "z"),
)
# without the triangle, merges fold rows that still differ
ZEQ = GMetSpec("zeq", MET.clauses[3:4])
ZEQ_CHAIN = GMetSpec("zeq_chain", (MET.clauses[1], EQ_CHAIN, MET.clauses[3]))
MET_EQ_PREMISE = GMetSpec("met_eq_premise", MET.clauses + (EQ_SHIFT,))
PMET_GRID_EQ = GMetSpec("pmet_grid_eq", PMET.clauses[:1] + (GRID_EQ,) + PMET.clauses[1:]
                        + MET.clauses[4:] + (EQ_SHIFT,))

# shaped like the benchmark's metric workspace: {f/2}, q=4, depth 3
METRIC_WS = {
    "grid": 4,
    "signature": {"ops": {"f": 2}},
    "spec": {"preset": "MET"},
    "budgets": {"depth": 3},
    "spaces": {
        "T": {"carrier": ["a", "b"], "dist": [["0", "1/2"], ["1/2", "0"]]},
        "C2": {"carrier": ["x", "y"], "dist": [["0", "1"], ["1", "0"]]},
        "C1": {"carrier": ["x"], "dist": [["0"]]},
    },
    "theories": {
        "TH": [
            {"context": "C2", "lhs": "f(x,y)", "rhs": "f(y,x)", "eps": "1/4"},
            {"context": "C1", "lhs": "f(x,x)", "rhs": "x", "eps": "3/4"},
        ]
    },
}


def _zero_space(grid: EpsGrid, names) -> FuzzySpace:
    return FuzzySpace(grid, tuple(names), tuple(tuple(0 for _ in names) for _ in names))


def _workspace_cases(name: str, ws: Workspace) -> dict:
    return {
        f"{name}-{th}-{sp}": (ws.sig, ws.theories[th], ws.spec, ws.spaces[sp], ws.depth)
        for th in sorted(ws.theories) for sp in sorted(ws.spaces)
    }


def _cases() -> dict:
    fixture = json.loads((FIXTURES / "workspace.json").read_text(encoding="utf-8"))
    cases = _workspace_cases("workspace", Workspace.from_json(fixture))
    metric = Workspace.from_json(METRIC_WS)
    cases["metric-TH-T"] = (metric.sig, metric.theories["TH"], metric.spec,
                            metric.spaces["T"], metric.depth)
    for spec in (HALVING, SHARED_PARAM, MIXED):
        for q in (2, 3, 4):
            grid = EpsGrid(q)
            sp = FuzzySpace(grid, ("a", "b"), ((0, 1), (1, 0)))
            axiom = Judgment(_zero_space(grid, ["v"]), App("u", (Var("v"),)), Var("v"), 2)
            for theory in (Theory("E", ()), Theory("T", (axiom,))):
                cases[f"{spec.name}-q{q}-{theory.name}"] = (U_SIG, theory, spec, sp, 3)
    grid = EpsGrid(4)
    ab = FuzzySpace.of(grid, ["a", "b"], [["0", "1/2"], ["1/2", "0"]])
    x0 = FuzzySpace.of(grid, ["x"], [["0"]])
    theories = (
        Theory("PHI1", (Judgment(ab, Var("a"), Var("b"), 0),)),
        Theory("QUARTER", (Judgment(x0, App("u", (Var("x"),)), Var("x"), 1),)),
    )
    for spec in (MET_EQ_PREMISE, PMET_GRID_EQ):
        for theory in theories:
            cases[f"{spec.name}-{theory.name}"] = (U_SIG, theory, spec, ab, 3)
    sigs = (U_SIG, Signature.of({"f": 2}), Signature.of({"u": 1, "c": 0}))
    for seed in range(20):
        rng = random.Random(7100 + seed)
        spec = (MET, PMET, FREL)[seed % 3]
        grid = EpsGrid(2 + seed % 3)
        k = rng.randrange(3)
        sig, depth = sigs[k], (3, 2, 3)[k]
        sp = random_space(rng, grid, rng.randint(1, 3), spec)
        theory = random_theory(rng, sig, grid, spec, rng.randint(0, 2))
        cases[f"random{seed}-{spec.name}"] = (sig, theory, spec, sp, depth)
    # axioms over metric contexts, saturated under weak specs: classes merge
    # mid-loop and each merge folds several rows
    for seed in range(80):
        rng = random.Random(7200 + seed)
        spec = (ZEQ, ZEQ_CHAIN, FREL)[seed % 3]
        grid = EpsGrid(2 + rng.randrange(3))
        k = rng.randrange(3)
        sig, depth = sigs[k], (3, 2, 3)[k]
        sp = random_met_space(rng, grid, rng.randint(2, 3))
        theory = random_theory(rng, sig, grid, MET, rng.randint(1, 3))
        cases[f"merging{seed}-{spec.name}"] = (sig, theory, spec, sp, depth)
    return cases


CASES = _cases()


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def snapshot(case_id: str) -> dict:
    sig, theory, spec, target, depth = CASES[case_id]
    try:
        db = saturate(sig, theory, spec, target, depth)
    except QeqlogError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "instances": db.instances,
        "events": len(db.events),
        "events_sha256": _digest(db.events),
        "dmin_sha256": _digest(db.dmin),
        "classes_sha256": _digest([db.find(i) for i in range(len(db.universe))]),
        "hist_sha256": _digest(sorted(db._hist.items())),
        "forest_sha256": _digest(db._forest),
    }


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_matches_golden(case_id):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case_id]
    assert snapshot(case_id) == expected


def test_fixture_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


def test_metric_case_size():
    # the benchmark's metric queries each consider this many instances
    assert json.loads(GOLDEN.read_text(encoding="utf-8"))["metric-TH-T"]["instances"] == 182_176


# a MET case, the grid-vector path and a theory that merges classes
@pytest.mark.parametrize("case_id", ["workspace-QUARTER-AB", "halving-q4-T", "workspace-PHI1-AB"])
def test_budget_boundary(case_id):
    sig, theory, spec, target, depth = CASES[case_id]
    needed = saturate(sig, theory, spec, target, depth).instances
    assert saturate(sig, theory, spec, target, depth, budget=needed).instances == needed
    with pytest.raises(BudgetExceeded):
        saturate(sig, theory, spec, target, depth, budget=needed - 1)


if __name__ == "__main__":
    golden = {case_id: snapshot(case_id) for case_id in sorted(CASES)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
