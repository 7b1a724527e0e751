"""Free-algebra and monad law results against a recorded fixture.

``fixtures/law_golden.json`` holds, for every case below, the ``to_json()``
of each law report, the structure maps, the unit, multiplication and map
actions of the monad (``overflow`` entries included) and the homomorphic
extensions, recorded from a known-good build. Errors are recorded by type and
message. To record the fixture again after an intended change, run
``PYTHONPATH=src python tests/test_law_golden.py``.
"""
from __future__ import annotations

import json
import pathlib

import pytest

from qeqlog.cli import Workspace
from qeqlog.errors import QeqlogError
from qeqlog.free import OVERFLOW, build_free, check_free_is_model, extend_hom
from qeqlog.gmet import FREL, EpsGrid, FuzzySpace
from qeqlog.monad import (
    EMCandidate,
    MonadInstance,
    check_em_laws,
    check_monad_laws,
    em_from_model,
    m_map,
    m_mult,
    m_unit,
    model_from_em,
)
from qeqlog.qalg import Judgment, QuantAlgebra, Theory
from qeqlog.terms import App, Signature, Var

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "law_golden.json"
WS = Workspace.from_json(json.loads((FIXTURES / "workspace.json").read_text(encoding="utf-8")))

# nonexpansive maps between the workspace spaces, for m_map
MAPS = {
    "AB-swap": ("AB", "AB", {"a": "b", "b": "a"}),
    "AB-to-X0": ("AB", "X0", {"a": "x", "b": "x"}),
    "X0-to-AB": ("X0", "AB", {"x": "a"}),
}
# generator maps into the workspace algebras, for extend_hom
GEN_MAPS = {"AB": {"a": "p", "b": "q"}, "X0": {"x": "q"}}

# {f/2} under FREL with the commutative, idempotent theory and f(x,y) =1/2 x
GRID = EpsGrid(4)
F_SIG = Signature.of({"f": 2})
_C2 = FuzzySpace.of(GRID, ["x", "y"], [["0", "1"], ["1", "0"]])
_C1 = FuzzySpace.of(GRID, ["x"], [["0"]])
_X, _Y = Var("x"), Var("y")
CI = Theory("CI", (
    Judgment(_C2, App("f", (_X, _Y)), App("f", (_Y, _X)), None),
    Judgment(_C1, App("f", (_X, _X)), _X, None),
    Judgment(_C2, App("f", (_X, _Y)), _X, 2),
))
CI_SPACE = FuzzySpace.of(GRID, ["a", "b"], [["0", "1/4"], ["3/4", "0"]])
_PQ = FuzzySpace.of(GRID, ["p", "q"], [["0", "1/4"], ["1/4", "0"]])
# left projection models IDEM but not CI, which it fails by commutativity
LEFT = QuantAlgebra(
    _PQ, F_SIG, {"f": {("p", "p"): "p", ("p", "q"): "p", ("q", "p"): "q", ("q", "q"): "q"}}
)
# join with p below q models CI
JOIN = QuantAlgebra(
    _PQ, F_SIG, {"f": {("p", "p"): "p", ("p", "q"): "q", ("q", "p"): "q", ("q", "q"): "q"}}
)
IDEM = Theory("IDEM", CI.judgments[1:2])


def _names(mapping) -> dict:
    return {k: "overflow" if v is OVERFLOW else v for k, v in sorted(mapping.items())}


def _guard(fn):
    try:
        return fn()
    except QeqlogError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _monad_case(mi: MonadInstance, sp: FuzzySpace) -> dict:
    return {
        "monad_laws": _guard(lambda: [r.to_json() for r in check_monad_laws(mi, sp)]),
        "unit": _guard(lambda: _names(m_unit(mi, sp))),
        "mult": _guard(lambda: _names(m_mult(mi, sp))),
    }


def _free_case(sig, theory, spec, sp, depth, checked=None) -> dict:
    """check_free_is_model of the free algebra of ``theory`` against
    ``checked`` (default: ``theory`` itself)."""
    fa = build_free(sig, theory, spec, sp, depth)
    return _guard(lambda: check_free_is_model(fa, checked or theory, spec).to_json())


def _em_case(mi: MonadInstance, alg: QuantAlgebra, corrupt: dict) -> dict:
    def run():
        cand = em_from_model(mi, alg)
        rebuilt, reports = model_from_em(mi, cand)
        bad = EMCandidate(cand.space, {**cand.h, **corrupt})
        return {
            "h": _names(cand.h),
            "laws": [r.to_json() for r in reports],
            "ops": {op: {",".join(k): v for k, v in sorted(t.items())}
                    for op, t in sorted(rebuilt.ops.items())},
            "corrupt_laws": [r.to_json() for r in check_em_laws(mi, bad)],
        }
    return _guard(run)


def _extend_case(sig, theory, spec, sp, depth, alg, gen_map) -> dict:
    fa = build_free(sig, theory, spec, sp, depth)
    return _guard(lambda: {fa.class_name(c): v
                           for c, v in extend_hom(fa, alg, gen_map).items()})


def _cases() -> dict:
    cases = {}
    for th in sorted(WS.theories):
        theory = WS.theories[th]
        mi = MonadInstance(WS.sig, theory, WS.spec, WS.depth)
        for sp in sorted(WS.spaces):
            space = WS.spaces[sp]
            cases[f"monad-{th}-{sp}"] = lambda mi=mi, space=space: _monad_case(mi, space)
            cases[f"free-{th}-{sp}"] = lambda theory=theory, space=space: _free_case(
                WS.sig, theory, WS.spec, space, WS.depth)
            # the free algebra of no axioms fails the others
            cases[f"free-EMPTY-as-{th}-{sp}"] = lambda theory=theory, space=space: _free_case(
                WS.sig, WS.theories["EMPTY"], WS.spec, space, WS.depth, theory)
            for alg in sorted(WS.algebras):
                cases[f"extend-{th}-{sp}-{alg}"] = (
                    lambda theory=theory, space=space, sp=sp, alg=alg: _extend_case(
                        WS.sig, theory, WS.spec, space, WS.depth, WS.algebras[alg], GEN_MAPS[sp]))
        for name, (src, dst, f) in MAPS.items():
            cases[f"map-{th}-{name}"] = lambda mi=mi, src=src, dst=dst, f=f: _guard(
                lambda: m_map(mi, f, WS.spaces[src], WS.spaces[dst]))
        for alg in sorted(WS.algebras):
            # u(p) -> p breaks h.M(h) = h.mult; p -> q breaks the unit law
            for tag, corrupt in (("mult", {"u(p)": "p"}), ("unit", {"p": "q"})):
                cases[f"em-{th}-{alg}-{tag}"] = (
                    lambda mi=mi, alg=alg, corrupt=corrupt: _em_case(mi, WS.algebras[alg], corrupt))
    for th, alg in ((CI, JOIN), (IDEM, LEFT)):
        mi = MonadInstance(F_SIG, th, FREL, 2)
        cases[f"monad-f2-{th.name}"] = lambda mi=mi: _monad_case(mi, CI_SPACE)
        cases[f"free-f2-{th.name}"] = lambda th=th: _free_case(F_SIG, th, FREL, CI_SPACE, 3)
        cases[f"free-f2-IDEM-as-{th.name}"] = lambda th=th: _free_case(
            F_SIG, IDEM, FREL, CI_SPACE, 3, th)
        cases[f"extend-f2-{th.name}"] = lambda th=th, alg=alg: _extend_case(
            F_SIG, th, FREL, CI_SPACE, 3, alg, {"a": "p", "b": "q"})
        cases[f"map-f2-{th.name}"] = lambda mi=mi: _guard(
            lambda: m_map(mi, {"a": "b", "b": "b"}, CI_SPACE, CI_SPACE))
        flip = {"f(p,q)": "q" if alg.apply("f", ("p", "q")) == "p" else "p"}
        for tag, corrupt in (("mult", flip), ("unit", {"p": "q"})):
            cases[f"em-f2-{th.name}-{tag}"] = (
                lambda mi=mi, alg=alg, corrupt=corrupt: _em_case(mi, alg, corrupt))
    return cases


CASES = _cases()


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_matches_golden(case_id):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case_id]
    assert json.loads(json.dumps(CASES[case_id]())) == expected


def test_fixture_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    golden = {case_id: CASES[case_id]() for case_id in sorted(CASES)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
