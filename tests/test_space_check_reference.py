"""Production check_space against the exhaustive reference loop.

``check_space`` solves bare-parameter premises and lists one violation per
failing (clause, assignment), at the least parameter vector; a clause with a
compound parameterised premise still tries every grid vector. The exhaustive
loop in ``oracle.check_space_exhaustive`` lists every failing vector. The two
must agree on the verdict, the first violation (which ``require_space``
reports), the failing (clause, assignment) pairs and any ``GridMismatch``.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qeqlog.errors import GridMismatch, SpecViolation
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
    GMetSpec,
    HornClause,
    check_space,
    require_space,
)

from conftest import random_frel_space, random_met_space, random_pmet_space, space
from oracle import check_space_exhaustive
from test_deduce_custom_specs import HALVING, MIXED, SHARED_PARAM


QS = (1, 2, 3, 4, 6)
SPACE_KINDS = (random_met_space, random_pmet_space, random_frel_space)
# 1/3 and 2/3 are off the grid for q in {1, 2, 4}, 1/4 for q in {1, 2, 3, 6}
CONSTS = tuple(Fraction(c) for c in ("0", "1/4", "1/3", "1/2", "2/3", "1"))
PARAMS = ("e1", "e2")


def _outcome(check, spec, sp):
    try:
        return check(spec, sp), None
    except GridMismatch as exc:
        return None, str(exc)


def assert_agrees(spec, sp):
    want, want_err = _outcome(check_space_exhaustive, spec, sp)
    got, got_err = _outcome(check_space, spec, sp)
    assert got_err == want_err
    if want is None:
        return
    assert (got == []) == (want == [])
    assert got[:1] == want[:1]
    assert {(v.clause, v.assignment) for v in got} == {
        (v.clause, v.assignment) for v in want
    }
    assert set(got) <= set(want)


def _expr(rng, depth=0):
    r = rng.random()
    if depth >= 2 or r < 0.4:
        return EpsParam(rng.choice(PARAMS))
    if r < 0.6:
        return EpsConst(rng.choice(CONSTS))
    if r < 0.85:
        return EpsPlus((_expr(rng, depth + 1), _expr(rng, depth + 1)))
    return EpsMin1(_expr(rng, depth + 1))


def _atom(rng, names, eq_chance):
    x, y = rng.choice(names), rng.choice(names)
    if rng.random() < eq_chance:
        return EqAtom(x, y)
    return DistAtom(x, y, _expr(rng))


def random_spec(rng) -> GMetSpec:
    clauses = []
    for i in range(rng.randint(1, 3)):
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        premises = tuple(_atom(rng, names, 0.2) for _ in range(rng.randint(0, 3)))
        clauses.append(HornClause(f"c{i}", names, premises, _atom(rng, names, 0.25)))
    return GMetSpec("random", tuple(clauses))


@pytest.mark.parametrize("spec", [MET, PMET, FREL], ids=lambda s: s.name)
@pytest.mark.parametrize("q", QS)
def test_presets(spec, q):
    rng = random.Random(f"preset-{spec.name}-{q}")
    grid = EpsGrid(q)
    for make in SPACE_KINDS:
        for size in (1, 2, 3):
            assert_agrees(spec, make(rng, grid, size))


@pytest.mark.parametrize(
    "spec", [HALVING, SHARED_PARAM, MIXED], ids=lambda s: s.name
)
@pytest.mark.parametrize("q", QS)
def test_custom_named_specs(spec, q):
    rng = random.Random(f"named-{spec.name}-{q}")
    grid = EpsGrid(q)
    for size in (1, 2, 3):
        for make in (random_pmet_space, random_frel_space):
            assert_agrees(spec, make(rng, grid, size))


@pytest.mark.parametrize("q", QS)
def test_random_custom_specs(q):
    rng = random.Random(f"random-{q}")
    grid = EpsGrid(q)
    for _ in range(30):
        spec = random_spec(rng)
        assert_agrees(spec, random_frel_space(rng, grid, rng.randint(1, 3)))


def test_require_space_text_unchanged():
    grid = EpsGrid(4)
    sp = space(
        grid,
        ["a", "b", "c"],
        [["0", "1/4", "1"], ["1/4", "0", "1/4"], ["1", "1/4", "0"]],
    )
    with pytest.raises(SpecViolation) as info:
        require_space(PMET, sp, "context")
    assert str(info.value) == (
        "context violates PMET: triangle: x=a, y=b, z=c [e1=1/4, e2=1/4]"
    )
