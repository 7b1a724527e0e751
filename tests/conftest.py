"""Shared fixtures: the two-point metric space, the swap algebra, generators."""
from __future__ import annotations

import itertools
import random

import pytest

from qeqlog.gmet import MET, PMET, EpsGrid, FuzzySpace
from qeqlog.qalg import Judgment, QuantAlgebra, Theory
from qeqlog.terms import App, Signature, Var


GRID4 = EpsGrid(4)


def error_line(message: str, prefix: str = "error: ") -> str:
    """The CLI's error line of ``message``: all of it up to 2,000 characters,
    else its first 2,000 and its length."""
    if len(message) > 2000:
        message = f"{message[:2000]}… ({len(message)} characters)"
    return f"{prefix}{message}\n"


def space(grid, carrier, rows) -> FuzzySpace:
    return FuzzySpace.of(grid, carrier, rows)


@pytest.fixture
def grid4():
    return GRID4


@pytest.fixture
def ab_half():
    """Two points at distance 1/2: the running example context."""
    return space(GRID4, ["a", "b"], [["0", "1/2"], ["1/2", "0"]])


@pytest.fixture
def pq_half():
    return space(GRID4, ["p", "q"], [["0", "1/2"], ["1/2", "0"]])


@pytest.fixture
def sig_u():
    return Signature.of({"u": 1})


@pytest.fixture
def swap_algebra(pq_half, sig_u):
    """Unary u swapping the two points of a 1/2-distance metric space."""
    return QuantAlgebra(pq_half, sig_u, {"u": {("p",): "q", ("q",): "p"}})


def random_met_space(rng: random.Random, grid: EpsGrid, size: int) -> FuzzySpace:
    """Random metric space: symmetric positive table closed under triangle."""
    names = [chr(ord("a") + i) for i in range(size)]
    q = grid.q
    d = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d[i][j] = d[j][i] = rng.randint(1, q)
    for k in range(size):
        for i in range(size):
            for j in range(size):
                d[i][j] = min(d[i][j], min(q, d[i][k] + d[k][j]))
    return FuzzySpace(grid, tuple(names), tuple(tuple(row) for row in d))


def random_pmet_space(rng: random.Random, grid: EpsGrid, size: int) -> FuzzySpace:
    names = [chr(ord("a") + i) for i in range(size)]
    q = grid.q
    d = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d[i][j] = d[j][i] = rng.randint(0, q)
    for k in range(size):
        for i in range(size):
            for j in range(size):
                d[i][j] = min(d[i][j], min(q, d[i][k] + d[k][j]))
    return FuzzySpace(grid, tuple(names), tuple(tuple(row) for row in d))


def random_frel_space(rng: random.Random, grid: EpsGrid, size: int) -> FuzzySpace:
    names = [chr(ord("a") + i) for i in range(size)]
    rows = tuple(
        tuple(rng.randint(0, grid.q) for _ in range(size)) for _ in range(size)
    )
    return FuzzySpace(grid, tuple(names), rows)


def random_space(rng: random.Random, grid: EpsGrid, size: int, spec) -> FuzzySpace:
    if spec == MET:
        return random_met_space(rng, grid, size)
    if spec == PMET:
        return random_pmet_space(rng, grid, size)
    return random_frel_space(rng, grid, size)


def random_term(rng: random.Random, sig: Signature, carrier, max_depth: int):
    constants = [name for name, ar in sig.ops if ar == 0]
    if max_depth <= 1 or not any(ar > 0 for _, ar in sig.ops) or rng.random() < 0.4:
        pool = list(carrier) + constants
        name = rng.choice(pool)
        return App(name, ()) if name in constants else Var(name)
    candidates = [(name, ar) for name, ar in sig.ops if ar > 0]
    name, ar = rng.choice(candidates)
    return App(name, tuple(random_term(rng, sig, carrier, max_depth - 1) for _ in range(ar)))


def random_theory(rng: random.Random, sig: Signature, grid: EpsGrid, spec,
                  n_axioms: int, max_ctx: int = 2) -> Theory:
    judgments = []
    for _ in range(n_axioms):
        ctx = random_space(rng, grid, rng.randint(1, max_ctx), spec)
        lhs = random_term(rng, sig, ctx.carrier, 2)
        rhs = random_term(rng, sig, ctx.carrier, 2)
        eps = rng.choice([None] + list(range(grid.q + 1)))
        judgments.append(Judgment(ctx, lhs, rhs, eps))
    return Theory("random", tuple(judgments))


def random_algebra(rng: random.Random, sig: Signature, grid: EpsGrid, spec,
                   size: int) -> QuantAlgebra:
    sp = random_space(rng, grid, size, spec)
    ops = {}
    for name, arity in sig.ops:
        ops[name] = {
            args: rng.choice(sp.carrier)
            for args in itertools.product(sp.carrier, repeat=arity)
        }
    return QuantAlgebra(sp, sig, ops)


def trivial_model(sig: Signature, grid: EpsGrid) -> QuantAlgebra:
    """One point, all ops collapse: models every theory."""
    sp = FuzzySpace(grid, ("z",), ((0,),))
    ops = {
        name: {args: "z" for args in itertools.product(("z",), repeat=arity)}
        for name, arity in sig.ops
    }
    return QuantAlgebra(sp, sig, ops)
