"""The naive round loop of the saturation engine, kept as its reference.

``saturate`` with ``_step_cong``, ``_step_horn`` and ``_step_subst`` as they
were before the engine's steps became delta-driven: every round re-keys every
application, and instantiates every clause and every axiom over every tuple
of class representatives. It shares the
``DerivationDB`` primitives (union-find, merge fold, distance writes, and the
INIT event that ``DerivationDB`` records for each axiom) with the engine, so a
difference between the two is a difference of the round loop.
The recorded saturation fixture gates this loop on every field, the
instance count included; the engine is cross-checked against it.
"""
from __future__ import annotations

import itertools

from qeqlog.deduce import DerivationDB, _validate_inputs
from qeqlog.gmet import FuzzySpace, GMetSpec, compile_clause
from qeqlog.qalg import Theory
from qeqlog.terms import Signature, Var


def saturate(sig: Signature, theory: Theory, spec: GMetSpec, target: FuzzySpace,
             depth: int, budget: int | None = None) -> DerivationDB:
    """Run all rules to their least fixpoint over the bounded universe."""
    _validate_inputs(sig, theory, spec, target)
    db = DerivationDB(sig, theory, spec, target, depth, budget)
    for a in target.carrier:
        for b in target.carrier:
            _count(db)
            db._lower(
                db.index_of(Var(a)), db.index_of(Var(b)), target.d(a, b),
                "USEVAR", None, (),
            )
    # argument ids through a term -> id map of the tree view, not the
    # engine's id enumeration
    index = {t: i for i, t in enumerate(db.universe)}
    children = [tuple(index[a] for a in getattr(t, "args", ())) for t in db.universe]
    while True:
        changed = _step_cong(db, children)
        changed = _step_horn(db) or changed
        changed = _step_subst(db) or changed
        if not changed:
            break
    return db


def _count(db: DerivationDB, k: int = 1) -> None:
    """Count ``k`` rule instances, raising the engine's budget error past the
    budget."""
    db.instances += k
    if db.budget is not None and db.instances > db.budget:
        raise db._over_budget()


def _step_cong(db: DerivationDB, children: list[tuple[int, ...]]) -> bool:
    changed = False
    groups: dict[tuple, list[int]] = {}
    for idx, t in enumerate(db.universe):
        if children[idx]:
            key = (t.op, tuple(db.find(a) for a in children[idx]))
            groups.setdefault(key, []).append(idx)
    for key in sorted(groups):
        members = groups[key]
        first = members[0]
        for other in members[1:]:
            _count(db)
            if db.same(first, other):
                continue
            premises = tuple(
                ("eq", x, y) for x, y in zip(children[first], children[other])
            )
            changed |= db._merge(first, other, "CONG", db.universe[first].op, premises)
    return changed


def _step_horn(db: DerivationDB) -> bool:
    changed = False
    q = db.grid.q
    get, n, find = db.dmin.get, len(db.universe), db.find
    for clause in db.spec.clauses:
        params, vectors, prems, cx, cy, conc_bounds = compile_clause(clause, q)
        merging = conc_bounds is None
        root_list = db.roots()
        _count(db, len(root_list) ** len(clause.vars) * len(vectors))
        for assignment in itertools.product(root_list, repeat=len(clause.vars)):
            # only a merging clause turns members of root_list into non-roots
            reps = [find(r) for r in assignment] if merging else assignment
            for pvec in vectors:
                vals = list(pvec)
                for xp, yp, si, bounds in prems:
                    if bounds is None:
                        if reps[xp] != reps[yp]:
                            break
                    elif si >= 0:
                        d = get(reps[xp] * n + reps[yp], q)
                        if d > vals[si]:
                            vals[si] = d
                    elif get(reps[xp] * n + reps[yp], q) > bounds[pvec]:
                        break
                else:
                    # nearly every instance fires nothing: record premises only
                    # for one whose conclusion is new
                    x, y = reps[cx], reps[cy]
                    if merging:
                        if x == y:
                            continue
                    else:
                        value = conc_bounds[tuple(vals)]
                        if value >= get(x * n + y, q):
                            continue
                    premises = tuple(
                        ("eq", assignment[xp], assignment[yp]) if bounds is None
                        else ("dist", reps[xp], reps[yp], vals[si] if si >= 0 else bounds[pvec])
                        for xp, yp, si, bounds in prems
                    )
                    if merging:
                        changed |= db._merge(
                            assignment[cx], assignment[cy], "HORN", clause.name, premises
                        )
                    else:
                        changed |= db._lower(x, y, value, "HORN", clause.name, premises)
    return changed


def _step_subst(db: DerivationDB) -> bool:
    changed = False
    for ax_i, j in enumerate(db.theory.judgments):
        ctx = j.context
        elems = ctx.carrier
        k = len(elems)
        root_list = db.roots()
        chosen: list[int] = []

        def assign(pos: int) -> None:
            nonlocal changed
            if pos == k:
                _count(db)
                sigma = {elems[m]: db.find(chosen[m]) for m in range(k)}
                li = db.subst_index(sigma, j.lhs)
                ri = li if li is None else db.subst_index(sigma, j.rhs)
                if ri is None:
                    return
                premises = (("axiom", ax_i),) + tuple(
                    (
                        "dist",
                        db.find(chosen[a]),
                        db.find(chosen[b]),
                        ctx.dist[a][b],
                    )
                    for a in range(k)
                    for b in range(k)
                )
                if j.eps is None:
                    changed |= db._merge(li, ri, "SUBST", f"axiom {ax_i}", premises)
                else:
                    changed |= db._lower(li, ri, j.eps, "SUBST", f"axiom {ax_i}", premises)
                return
            for r in root_list:
                if db.class_distance(r, r) > ctx.dist[pos][pos]:
                    continue
                if any(
                    db.class_distance(chosen[m], r) > ctx.dist[m][pos]
                    or db.class_distance(r, chosen[m]) > ctx.dist[pos][m]
                    for m in range(pos)
                ):
                    continue
                chosen.append(r)
                assign(pos + 1)
                chosen.pop()

        assign(0)
    return changed

