"""Brute-force reference for the saturation engine.

Completely independent implementation: no union-find, no class
representatives, no minimal-parameter shortcut. Facts are materialized
up-closed sets of (s, t, eps) triples plus a plain set of equal pairs, and
every rule is applied by exhaustive enumeration over all universe terms and
all grid parameter vectors until nothing changes.

``check_space_exhaustive`` is the same kind of reference for
``gmet.check_space``: every assignment times every grid parameter vector.
``satisfies_exhaustive`` and ``check_ump_exhaustive`` are the references
for the model checker: every map into the carrier is tried.
"""
from __future__ import annotations

import itertools

from qeqlog.errors import BudgetExceeded, GridMismatch
from qeqlog.free import OVERFLOW, UmpResult, extend_hom
from qeqlog.gmet import Atom, DistAtom, EqAtom, Violation, is_nonexpansive, require_space
from qeqlog.qalg import SatisfactionResult, eval_term
from qeqlog.terms import App, Var, apply_subst, enumerate_universe


class OracleDB:
    def __init__(self, sig, theory, spec, target, depth):
        self.grid = target.grid
        self.universe = enumerate_universe(sig, target.carrier, depth)
        self.index = {t: i for i, t in enumerate(self.universe)}
        self.sig = sig
        self.theory = theory
        self.spec = spec
        self.target = target
        n = len(self.universe)
        q = self.grid.q
        self.eq = {(i, i) for i in range(n)}
        self.dist = {(i, j, q) for i in range(n) for j in range(n)}
        self._saturate()

    def _add_dist(self, i, j, eps) -> bool:
        new = {(i, j, e) for e in range(eps, self.grid.q + 1)} - self.dist
        self.dist |= new
        return bool(new)

    def _add_eq(self, i, j) -> bool:
        if (i, j) in self.eq:
            return False
        self.eq.add((i, j))
        return True

    def _saturate(self):
        q = self.grid.q
        n = len(self.universe)
        for a in self.target.carrier:
            for b in self.target.carrier:
                self._add_dist(
                    self.index[Var(a)], self.index[Var(b)], self.target.d(a, b)
                )
        changed = True
        while changed:
            changed = False
            # symmetry / transitivity of equality
            for (i, j) in list(self.eq):
                changed |= self._add_eq(j, i)
            for (i, j) in list(self.eq):
                for (j2, k) in list(self.eq):
                    if j2 == j:
                        changed |= self._add_eq(i, k)
            # congruence
            for op, arity in self.sig.ops:
                if arity == 0:
                    continue
                apps = [
                    (i, t) for i, t in enumerate(self.universe)
                    if isinstance(t, App) and t.op == op
                ]
                for (i1, t1), (i2, t2) in itertools.product(apps, apps):
                    if all(
                        (self.index[a], self.index[b]) in self.eq
                        for a, b in zip(t1.args, t2.args)
                    ):
                        changed |= self._add_eq(i1, i2)
            # left/right congruence of equality with distances
            for (i, j) in list(self.eq):
                for (j2, k, e) in list(self.dist):
                    if j2 == j:
                        changed |= self._add_dist(i, k, e)
                for (k, j2, e) in list(self.dist):
                    if j2 == j:
                        changed |= self._add_dist(k, i, e)
            # Horn clauses, all term assignments, all parameter vectors
            for clause in self.spec.clauses:
                params = sorted(
                    {p for atom in (*clause.premises, clause.conclusion)
                     if isinstance(atom, DistAtom) for p in atom.eps.params()}
                )
                for values in itertools.product(range(n), repeat=len(clause.vars)):
                    env = dict(zip(clause.vars, values))
                    for pvec in itertools.product(range(q + 1), repeat=len(params)):
                        penv = dict(zip(params, pvec))
                        ok = True
                        for p in clause.premises:
                            if isinstance(p, EqAtom):
                                if (env[p.x], env[p.y]) not in self.eq:
                                    ok = False
                                    break
                            else:
                                e = min(q, p.eps.eval(penv, q))
                                if (env[p.x], env[p.y], e) not in self.dist:
                                    ok = False
                                    break
                        if not ok:
                            continue
                        c = clause.conclusion
                        if isinstance(c, EqAtom):
                            changed |= self._add_eq(env[c.x], env[c.y])
                        else:
                            e = min(q, c.eps.eval(penv, q))
                            changed |= self._add_dist(env[c.x], env[c.y], e)
            # substitution instances of every axiom
            for j in self.theory.judgments:
                ctx = j.context
                elems = ctx.carrier
                for targets in itertools.product(range(n), repeat=len(elems)):
                    sigma = {
                        e: self.universe[t] for e, t in zip(elems, targets)
                    }
                    if any(
                        (targets[a], targets[b], ctx.dist[a][b]) not in self.dist
                        for a in range(len(elems))
                        for b in range(len(elems))
                    ):
                        continue
                    lhs = apply_subst(sigma, j.lhs)
                    rhs = apply_subst(sigma, j.rhs)
                    if lhs not in self.index or rhs not in self.index:
                        continue
                    li, ri = self.index[lhs], self.index[rhs]
                    if j.eps is None:
                        changed |= self._add_eq(li, ri)
                    else:
                        changed |= self._add_dist(li, ri, j.eps)

    def equal(self, s, t) -> bool:
        return (self.index[s], self.index[t]) in self.eq

    def distance(self, s, t) -> int:
        i, j = self.index[s], self.index[t]
        return min(e for (a, b, e) in self.dist if (a, b) == (i, j))


def check_space_exhaustive(spec, sp) -> list[Violation]:
    """Exhaustively instantiate every clause; list the instances that fail.

    Every variable assignment into the carrier and every grid value of every
    epsilon parameter is tried. This was ``gmet.check_space`` before it solved
    parameters; production is cross-checked against it.
    """
    q = sp.grid.q
    out: list[Violation] = []

    def holds(atom: Atom, env: dict[str, str], penv: dict[str, int]) -> bool:
        if isinstance(atom, EqAtom):
            return env[atom.x] == env[atom.y]
        return sp.d(env[atom.x], env[atom.y]) <= min(q, atom.eps.eval(penv, q))

    for clause in spec.clauses:
        params = clause.param_names()
        for values in itertools.product(sp.carrier, repeat=len(clause.vars)):
            env = dict(zip(clause.vars, values))
            for pvec in itertools.product(range(q + 1), repeat=len(params)):
                penv = dict(zip(params, pvec))
                if all(holds(p, env, penv) for p in clause.premises) and not holds(
                    clause.conclusion, env, penv
                ):
                    out.append(
                        Violation(clause.name, tuple(env.items()), tuple(penv.items()))
                    )
    return out


def satisfies_exhaustive(alg, spec, j, budget=None) -> SatisfactionResult:
    """Every one of the |B|^|X| maps from the context into the algebra's
    carrier, in product order, filtered by ``is_nonexpansive`` and evaluated
    by ``eval_term``; the first that fails is the counterexample."""
    require_space(spec, alg.space, "algebra space")
    require_space(spec, j.context, "judgment context")
    if alg.space.grid != j.context.grid:
        raise GridMismatch("algebra and judgment use different grids")
    total = len(alg.space.carrier) ** len(j.context.carrier)
    if budget is not None and total > budget:
        raise BudgetExceeded(f"{total} candidate interpretations exceed budget {budget}")
    for images in itertools.product(alg.space.carrier, repeat=len(j.context.carrier)):
        tau = dict(zip(j.context.carrier, images))
        if not is_nonexpansive(tau, j.context, alg.space):
            continue
        left, right = eval_term(alg, tau, j.lhs), eval_term(alg, tau, j.rhs)
        if not (left == right if j.eps is None else alg.space.d(left, right) <= j.eps):
            return SatisfactionResult(False, tau)
    return SatisfactionResult(True, None)


def first_failure_exhaustive(alg, spec, theory, budget=None):
    """(index, counterexample) of the first failing judgment, or None."""
    for k, j in enumerate(theory.judgments):
        res = satisfies_exhaustive(alg, spec, j, budget)
        if not res.holds:
            return k, res.counterexample
    return None


def _is_quotient_hom(f, alg, g) -> bool:
    """Nonexpansive + commutes with every non-Overflow op-table entry."""
    for c1 in range(len(f.classes)):
        for c2 in range(len(f.classes)):
            if alg.space.d(g[c1], g[c2]) > f.delta[c1][c2]:
                return False
    for op, table in f.optable.items():
        for args, res in table.items():
            if res is OVERFLOW:
                continue
            if g[res] != alg.apply(op, tuple(g[a] for a in args)):
                return False
    return True


def check_ump_exhaustive(f, alg, gen_map, budget=None) -> UmpResult:
    """Existence and uniqueness of the extension, by exhausting all maps.

    Uniqueness quantifies over every function from classes to the target
    carrier, keeping those that are nonexpansive homomorphisms on non-Overflow
    entries and extend the generator map. ``free.check_ump`` enumerates none:
    it relies on the unit and the non-Overflow entries forcing every class,
    which this loop does not assume.
    """
    ext = extend_hom(f, alg, gen_map, budget)
    exists = _is_quotient_hom(f, alg, ext) and all(
        ext[f.unit[a]] == gen_map[a] for a in f.base.target.carrier
    )
    n = len(f.classes)
    total = len(alg.space.carrier) ** n
    if budget is not None and total > budget:
        raise BudgetExceeded(f"{total} candidate maps exceed budget {budget}")
    matching = 0
    for images in itertools.product(alg.space.carrier, repeat=n):
        g = dict(enumerate(images))
        if all(g[f.unit[a]] == gen_map[a] for a in f.base.target.carrier) and \
                _is_quotient_hom(f, alg, g):
            matching += 1
    return UmpResult(exists, matching == 1, total)
