"""The value classes against frozen data classes with the same fields.

``Record`` replaces ``dataclass(frozen=True)`` for the package's value
classes, so each is checked against a frozen data class twin built from its
annotations and defaults: ``repr`` (digested by the saturation goldens),
``==`` and ``hash`` must agree on every sample. Importing the CLI must not
load ``dataclasses`` or the modules it pulls in, nor ``fractions``.
"""
from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qeqlog._record import Record
from qeqlog.cli import Workspace
from qeqlog.deduce import RuleInstance, TraceNode, saturate
from qeqlog.free import LawReport, UmpResult
from qeqlog.gmet import (
    BUDGET_INTERPS,
    MET,
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
    Violation,
)
from qeqlog.monad import EMCandidate
from qeqlog.qalg import Judgment, QuantAlgebra, SatisfactionResult, Theory
from qeqlog.terms import App, Signature, Var

GRID = EpsGrid(4)
NEAR = FuzzySpace(GRID, ("a", "b"), ((0, 2), (2, 0)))
FAR = FuzzySpace(GRID, ("a", "b"), ((0, 4), (4, 0)))
SIG = Signature.of({"u": 1})
UA = App("u", (Var("a"),))
SWAP = {"u": {("a",): "b", ("b",): "a"}}
E = EpsParam("e")
SYM = HornClause("sym", ("x", "y"), (DistAtom("x", "y", E),), DistAtom("y", "x", E))
JUDGMENT = Judgment(NEAR, Var("a"), UA)

# positional arguments of two or more instances per class, some equal
SAMPLES = {
    Workspace: [(GRID, SIG, MET, {}, {}, {}), (GRID, SIG, MET, {"S": NEAR}, {}, {}, 2)],
    TraceNode: [("AXIOM", None, "a = b", ()),
                ("HORN", "sym", "b =1/2 a", (TraceNode("AXIOM", None, "a =1/2 b", ()),))],
    LawReport: [("unit", 3, 0, 0), ("unit", 3, 0, 1, "a"), ("unit", 3, 0, 0, None)],
    UmpResult: [(True, True, 1), (True, False, 2)],
    EpsGrid: [(4,), (8,), (4,)],
    FuzzySpace: [(GRID, ("a", "b"), ((0, 2), (2, 0))), (GRID, ("a", "b"), ((0, 4), (4, 0)))],
    EpsConst: [(Fraction(1, 4),), (Fraction(1, 2),), (Fraction(2, 8),)],
    EpsParam: [("e",), ("f",)],
    EpsPlus: [((E, EpsConst(Fraction(1, 4))),), ((E,),)],
    EpsMin1: [(E,), (EpsPlus((E, E)),)],
    EqAtom: [("x", "y"), ("y", "x")],
    DistAtom: [("x", "y", E), ("x", "y", EpsConst(Fraction(0)))],
    HornClause: [("sym", ("x", "y"), (DistAtom("x", "y", E),), DistAtom("y", "x", E)),
                 ("refl", ("x",), (), EqAtom("x", "x"))],
    GMetSpec: [("S", (SYM,)), ("T", ())],
    Violation: [("sym", (("x", "a"), ("y", "b")), (("e", 1),)), ("sym", (("x", "a"),), ())],
    EMCandidate: [(NEAR, {"a": "a", "b": "b"}), (FAR, {"a": "b", "b": "a"})],
    QuantAlgebra: [(NEAR, SIG, SWAP), (FAR, SIG, SWAP)],
    Judgment: [(NEAR, Var("a"), UA), (NEAR, Var("a"), UA, 2), (FAR, UA, Var("b"), None)],
    Theory: [("T", (JUDGMENT,)), ("E", ())],
    SatisfactionResult: [(True,), (False, {"a": "b"}), (True, None)],
    Signature: [((("u", 1),),), ((("c", 0), ("f", 2)),)],
    Var: [("a",), ("b",)],
    App: [("u", (Var("a"),)), ("u", (UA,)), ("u", (Var("a"),))],
}


def _twin(cls):
    """A frozen data class with the fields and defaults of ``cls``."""
    own = vars(cls)
    fields = [
        (name, object, dataclasses.field(default=own[name])) if name in own else (name, object)
        for name in own["__annotations__"]
    ]
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def test_every_record_has_samples():
    assert set(Record.__subclasses__()) == set(SAMPLES)
    assert len(SAMPLES) == 23


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_repr_eq_and_hash_match_the_frozen_twin(cls):
    twin = _twin(cls)
    records = [cls(*args) for args in SAMPLES[cls]]
    twins = [twin(*args) for args in SAMPLES[cls]]
    for rec, tw, args in zip(records, twins, SAMPLES[cls]):
        assert repr(rec) == repr(tw)
        assert _hash(rec) == _hash(tw)
        assert rec == cls(*args)
        assert rec == cls(**dict(zip(cls._fields, args)))
    for (r1, t1), (r2, t2) in itertools.product(zip(records, twins), repeat=2):
        assert (r1 == r2) == (t1 == t2)
        assert (r1 != r2) == (t1 != t2)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_frozen(cls):
    rec = cls(*SAMPLES[cls][0])
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.unknown = 1
    assert getattr(rec, field) == SAMPLES[cls][0][0]


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_pickle_and_copies_are_equal(cls):
    for args in SAMPLES[cls]:
        rec = cls(*args)
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec


EVENT = RuleInstance("HORN", "sym", (("dist", 0, 1, 2),), ("dist", 1, 0, 2))


def test_an_event_holds_no_attribute_dict():
    # saturation keeps one RuleInstance per event
    assert not hasattr(EVENT, "__dict__")


def test_an_event_is_the_tuple_of_its_fields():
    # a named tuple, not a Record: the saturation goldens digest its repr
    db = saturate(SIG, Theory("E", ()), MET, NEAR, 1)
    for ev in db.events:
        assert ev == tuple(ev) and hash(ev) == hash(tuple(ev))
    assert repr(EVENT) == ("RuleInstance(rule='HORN', detail='sym', premises=(('dist', 0, 1, 2),),"
                           " conclusion=('dist', 1, 0, 2))")
    for ev in (EVENT, db.events[-1]):
        for back in (pickle.loads(pickle.dumps(ev)), copy.copy(ev), copy.deepcopy(ev)):
            assert repr(back) == repr(ev)
    with pytest.raises(AttributeError):
        EVENT.rule = "SUBST"


def test_missing_and_extra_arguments():
    with pytest.raises(TypeError, match="missing"):
        App("u")
    with pytest.raises(TypeError, match="missing"):
        Judgment(NEAR, lhs=Var("a"))
    with pytest.raises(TypeError, match="extra"):
        App("u", (), 3)
    with pytest.raises(TypeError, match="extra"):
        App(op="u", args=(), extra=1)
    with pytest.raises(TypeError, match="repeated"):
        App("u", op="v")


def test_defaults_apply():
    assert Judgment(NEAR, Var("a"), UA).eps is None
    assert Judgment(NEAR, Var("a"), UA, eps=2).eps == 2
    assert SatisfactionResult(True).counterexample is None
    assert LawReport("unit", 1, 0, 0).first_failure is None
    ws = Workspace(GRID, SIG, MET, {}, {}, {}, budget_instances=5)
    assert (ws.depth, ws.budget_interps, ws.budget_instances) == (3, BUDGET_INTERPS, 5)


def test_post_init_still_validates():
    with pytest.raises(ValueError):
        EpsGrid(0)
    with pytest.raises(ValueError):
        EpsGrid(q=0)


def test_equal_fields_of_different_classes_differ():
    assert EpsParam("x") != Var("x")
    assert Var("x") != EpsParam("x")
    assert EqAtom("x", "y") != ("x", "y")


def _loaded_by_cli_import(modules: tuple[str, ...]) -> str:
    """Those of ``modules`` that ``import qeqlog.cli`` loads in a fresh
    interpreter without ``site``, as the printed sorted list."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import qeqlog.cli\n"
        f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
    )
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_loads_no_class_generation_machinery():
    assert _loaded_by_cli_import(("dataclasses", "inspect", "ast", "dis")) == "[]\n"


# grid values are read and printed as integer numerators; Fraction, and the
# decimal and numbers modules it imports, load only for other forms
def test_cli_import_loads_no_fractions():
    assert _loaded_by_cli_import(("fractions", "decimal", "_decimal", "numbers")) == "[]\n"


# annotations are strings that nothing evaluates: the abstract types come
# from collections.abc, and typing, about 3 ms to import, never loads
def test_cli_import_loads_no_typing():
    assert _loaded_by_cli_import(("typing",)) == "[]\n"
