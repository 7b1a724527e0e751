"""Saturation against the brute-force oracle over drawn instances.

``oracle.OracleDB`` shares no code with the engine: no union-find, no
delta, no pruned search. Each draw picks a signature, a spec, a grid, a
target space and a theory, keeps the universe small enough for the oracle,
and checks every class and distance, the trace of every derived fact, and
that a second run records the same events.
"""
from __future__ import annotations

import random
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qeqlog.deduce import saturate
from qeqlog.errors import QeqlogError, SpecViolation
from qeqlog.gmet import EpsGrid
from qeqlog.qalg import Theory
from qeqlog.terms import Signature

from oracle import OracleDB
from test_deduce import _universe_size, replay_derived_facts
from test_horn_delta import NAMED, _space, _theory

OPS = (("c", 0), ("u", 1), ("f", 2), ("g", 3))


def _oracle_cost(spec, theory: Theory, n: int, q: int) -> int:
    """Steps of one oracle round: the distance congruence sweep, every clause
    over every assignment and parameter vector, every axiom substitution."""
    return (n ** 3 * (q + 1)
            + sum(n ** len(c.vars) * (q + 1) ** len(c.param_names()) for c in spec.clauses)
            + sum(n ** len(j.context.carrier) for j in theory.judgments))


@settings(deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(
    st.sets(st.sampled_from(OPS[1:]), min_size=1),
    st.booleans(),
    st.sampled_from(sorted(NAMED)),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_saturation_matches_oracle(ops, constant, spec_name, q, size, depth, seed):
    sig = Signature.of(dict(ops | ({OPS[0]} if constant else set())))
    n = _universe_size(sig, size, depth)
    assume(n <= 40)
    spec, grid, rng = NAMED[spec_name], EpsGrid(q), random.Random(seed)
    target = _space(rng, grid, size, spec)
    theory = _theory(rng, sig, grid, spec, 3)
    assume(_oracle_cost(spec, theory, n, q) <= 60_000)
    try:
        db = saturate(sig, theory, spec, target, depth)
    except SpecViolation:
        # a space the spec rejects: the oracle takes its inputs as given
        assume(False)
    except QeqlogError as exc:
        # an off-grid constant, which the oracle meets too
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            OracleDB(sig, theory, spec, target, depth)
        return
    assert saturate(sig, theory, spec, target, depth).events == db.events
    oracle = OracleDB(sig, theory, spec, target, depth)
    least: dict[tuple[int, int], int] = {}
    for i, j, e in oracle.dist:
        least[i, j] = min(e, least.get((i, j), q))
    ids = [db.index_of(t) for t in oracle.universe]
    for a, i in enumerate(ids):
        for b, j in enumerate(ids):
            assert db.same(i, j) == ((a, b) in oracle.eq), (oracle.universe[a], oracle.universe[b])
            assert db.class_distance(i, j) == least[a, b], (oracle.universe[a], oracle.universe[b])
    replay_derived_facts(db, target)
