"""Forward-chaining saturation over a bounded term universe.

The engine computes, for one target context space, the least fixpoint of the
deduction rules on all terms up to a depth bound: a union-find holds the
derived equality classes, and an exact grid-valued matrix holds the minimal
derived distance per class pair. Every productive step records the rule
instance that produced it, so any derived fact can be expanded into a finite,
replayable derivation tree.

Bounded-universe contract: congruence and substitution instances are generated
only when every produced term stays within the depth bound, so derivability is
sound but possibly incomplete for the unbounded term algebra; raising the
depth never removes derivations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    GridMismatch,
    OutOfUniverse,
    TrivialPair,
    UnknownFact,
)
from .gmet import (
    DistAtom,
    EpsGrid,
    EpsParam,
    EqAtom,
    FuzzySpace,
    GMetSpec,
    require_space,
)
from .qalg import Judgment, Theory
from .terms import (
    App,
    Signature,
    Term,
    Var,
    apply_subst,
    check_nontrivial,
    enumerate_universe,
    term_to_str,
)

# Premise descriptors:
#   ("axiom", event_id)        a theory axiom, recorded as an INIT event
#   ("eq", i, j)               universe indices already in one class
#   ("dist", i, j, eps)        dmin(class(i), class(j)) <= eps held at rule time
# Conclusions:
#   ("eq", i, j) | ("dist", i, j, value) | ("axiom", axiom_index)


@dataclass(frozen=True)
class RuleInstance:
    rule: str
    detail: str | None
    premises: tuple
    conclusion: tuple


@dataclass(frozen=True)
class TraceNode:
    rule: str
    detail: str | None
    conclusion: str
    children: tuple["TraceNode", ...]

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "detail": self.detail,
            "conclusion": self.conclusion,
            "premises": [c.to_json() for c in self.children],
        }

    def leaves(self):
        if not self.children:
            yield self
        for c in self.children:
            yield from c.leaves()


class DerivationDB:
    """Saturated classes, minimal-distance matrix and trace events.

    Built by :func:`saturate`. Reads are not side-effect free: :meth:`find`
    compresses union-find paths, so even lookups mutate the structure.
    """

    def __init__(self, sig: Signature, theory: Theory, spec: GMetSpec,
                 target: FuzzySpace, depth: int, budget: int | None):
        self.sig = sig
        self.theory = theory
        self.spec = spec
        self.target = target
        self.depth = depth
        self.grid = target.grid
        self.budget = budget
        self.universe: tuple[Term, ...] = tuple(
            enumerate_universe(sig, target.carrier, depth)
        )
        self._index = {t: i for i, t in enumerate(self.universe)}
        n = len(self.universe)
        self._parent = list(range(n))
        self._roots = list(range(n))
        self._forest: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        q = self.grid.q
        self.dmin = [[q] * n for _ in range(n)]
        self._hist: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.events: list[RuleInstance] = []
        self.instances = 0
        self._axiom_events: list[int] = []

    # --- union-find with a proof forest ---

    def find(self, i: int) -> int:
        while self._parent[i] != i:
            self._parent[i] = self._parent[self._parent[i]]
            i = self._parent[i]
        return i

    def same(self, i: int, j: int) -> bool:
        return self.find(i) == self.find(j)

    def roots(self) -> list[int]:
        """The class representatives in ascending order, as a new list.

        The sorted list is kept up to date by :meth:`_merge`, not recomputed.
        """
        return list(self._roots)

    def index_of(self, t: Term) -> int:
        try:
            return self._index[t]
        except KeyError:
            raise OutOfUniverse(f"{term_to_str(t)} is outside the depth-{self.depth} universe") from None

    def term_in_universe(self, t: Term) -> bool:
        return t in self._index

    def class_distance(self, i: int, j: int) -> int:
        return self.dmin[self.find(i)][self.find(j)]

    # --- recording ---

    def _record(self, rule: str, detail: str | None, premises: tuple, conclusion: tuple) -> int:
        self.events.append(RuleInstance(rule, detail, premises, conclusion))
        return len(self.events) - 1

    def _count(self, k: int = 1) -> None:
        self.instances += k
        if self.budget is not None and self.instances > self.budget:
            raise BudgetExceeded(
                f"saturation considered more than {self.budget} rule instances"
            )

    def _set_dist(self, a: int, b: int, value: int, rule: str, detail: str | None,
                  premises: tuple) -> None:
        self.dmin[a][b] = value
        eid = self._record(rule, detail, premises, ("dist", a, b, value))
        self._hist.setdefault((a, b), []).append((value, eid))

    def _lower(self, i: int, j: int, value: int, rule: str, detail: str | None,
               premises: tuple) -> bool:
        ri, rj = self.find(i), self.find(j)
        if value >= self.dmin[ri][rj]:
            return False
        self._set_dist(ri, rj, value, rule, detail, premises)
        return True

    def _merge(self, i: int, j: int, rule: str, detail: str | None, premises: tuple) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        cause = self._record(rule, detail, premises, ("eq", i, j))
        self._forest[i].append((j, cause))
        self._forest[j].append((i, cause))
        winner, loser = min(ri, rj), max(ri, rj)
        self._parent[loser] = winner
        self._roots.remove(loser)
        eq_premise = ("eq", winner, loser)
        # 2x2 block between the two old classes
        block = [(winner, winner), (winner, loser), (loser, winner), (loser, loser)]
        best_val, best_pair = min(
            (self.dmin[a][b], (a, b)) for a, b in block
        )
        if best_val < self.dmin[winner][winner]:
            a, b = best_pair
            last_fact = ("dist", a, b, best_val)
            if a != winner:
                self._set_dist(winner, b, best_val, "LCONG", None, (eq_premise, last_fact))
                last_fact = ("dist", winner, b, best_val)
            if b != winner:
                self._set_dist(winner, winner, best_val, "RCONG", None, (eq_premise, last_fact))
        # fold rows and columns against every other class
        for k in [r for r in self._roots if r != winner]:
            v = self.dmin[loser][k]
            if v < self.dmin[winner][k]:
                self._set_dist(winner, k, v, "LCONG", None, (eq_premise, ("dist", loser, k, v)))
            v = self.dmin[k][loser]
            if v < self.dmin[k][winner]:
                self._set_dist(k, winner, v, "RCONG", None, (eq_premise, ("dist", k, loser, v)))
        return True

    # --- trace reconstruction ---

    def _fact_str(self, conclusion: tuple) -> str:
        kind = conclusion[0]
        if kind == "axiom":
            j = self.theory.judgments[conclusion[1]]
            return f"axiom {j.describe()}"
        _, i, jj, *rest = conclusion
        s, t = term_to_str(self.universe[i]), term_to_str(self.universe[jj])
        if kind == "eq":
            return f"{s} = {t}"
        return f"{s} ={self.grid.format(rest[0])} {t}"

    def _expand_event(self, eid: int) -> TraceNode:
        ev = self.events[eid]
        children = tuple(self._expand_premise(p) for p in ev.premises)
        return TraceNode(ev.rule, ev.detail, self._fact_str(ev.conclusion), children)

    def _expand_premise(self, premise: tuple) -> TraceNode:
        kind = premise[0]
        if kind == "axiom":
            return self._expand_event(premise[1])
        if kind == "eq":
            return self._eq_tree(premise[1], premise[2])
        _, i, j, eps = premise
        return self._dist_tree(i, j, eps)

    def _dist_tree(self, i: int, j: int, eps: int) -> TraceNode:
        hist = self._hist.get((i, j), [])
        for value, eid in hist:
            if value <= eps:
                node = self._expand_event(eid)
                if value < eps:
                    node = TraceNode("MAX", None, self._fact_str(("dist", i, j, eps)), (node,))
                return node
        if eps == self.grid.q:
            return TraceNode("ONEMAX", None, self._fact_str(("dist", i, j, eps)), ())
        raise UnknownFact(
            f"no derivation recorded for {self._fact_str(('dist', i, j, eps))}"
        )

    def _forest_path(self, i: int, j: int) -> list[tuple[int, int, int]]:
        """Edges (u, v, event) along the unique forest path from i to j."""
        prev: dict[int, tuple[int, int]] = {i: (-1, -1)}
        queue = [i]
        while queue:
            u = queue.pop(0)
            if u == j:
                break
            for v, eid in self._forest[u]:
                if v not in prev:
                    prev[v] = (u, eid)
                    queue.append(v)
        if j not in prev:
            raise UnknownFact("terms are not in the same class")
        path = []
        cur = j
        while cur != i:
            u, eid = prev[cur]
            path.append((u, cur, eid))
            cur = u
        path.reverse()
        return path

    def _eq_tree(self, i: int, j: int) -> TraceNode:
        if i == j:
            s = term_to_str(self.universe[i])
            return TraceNode("REFL", None, f"{s} = {s}", ())
        # an "eq" premise names class members; walk the merge forest between them
        pieces = []
        for u, v, eid in self._forest_path(i, j):
            node = self._expand_event(eid)
            a, b = self.events[eid].conclusion[1], self.events[eid].conclusion[2]
            if (a, b) != (u, v):
                node = TraceNode("SYMM", None, self._fact_str(("eq", u, v)), (node,))
            pieces.append((v, node))
        tree = pieces[0][1]
        for v, node in pieces[1:]:
            tree = TraceNode("TRANS", None, self._fact_str(("eq", i, v)), (tree, node))
        return tree


def _validate_inputs(sig: Signature, theory: Theory, spec: GMetSpec,
                     target: FuzzySpace) -> None:
    require_space(spec, target, "target space")
    if not check_nontrivial(sig, target.carrier):
        raise TrivialPair("target carrier is empty and the signature has no constants")
    for j in theory.judgments:
        if j.context.grid != target.grid:
            raise GridMismatch("theory context and target use different grids")
        require_space(spec, j.context, "axiom context")
        if not check_nontrivial(sig, j.context.carrier):
            raise TrivialPair("axiom context is a trivial pair")


def saturate(sig: Signature, theory: Theory, spec: GMetSpec, target: FuzzySpace,
             depth: int, budget: int | None = None) -> DerivationDB:
    """Run all rules to their least fixpoint over the bounded universe."""
    _validate_inputs(sig, theory, spec, target)
    db = DerivationDB(sig, theory, spec, target, depth, budget)
    for ax_i, j in enumerate(theory.judgments):
        db._axiom_events.append(
            db._record("INIT", f"{theory.name}[{ax_i}]", (), ("axiom", ax_i))
        )
    for a in target.carrier:
        for b in target.carrier:
            db._count()
            db._lower(
                db.index_of(Var(a)), db.index_of(Var(b)), target.d(a, b),
                "USEVAR", None, (),
            )
    while True:
        changed = _step_cong(db)
        changed = _step_horn(db) or changed
        changed = _step_subst(db) or changed
        if not changed:
            break
    return db


def _step_cong(db: DerivationDB) -> bool:
    changed = False
    groups: dict[tuple, list[int]] = {}
    for idx, t in enumerate(db.universe):
        if isinstance(t, App) and t.args:
            key = (t.op, tuple(db.find(db.index_of(a)) for a in t.args))
            groups.setdefault(key, []).append(idx)
    for key in sorted(groups):
        members = groups[key]
        first = members[0]
        first_args = [db.index_of(a) for a in db.universe[first].args]
        for other in members[1:]:
            db._count()
            if db.same(first, other):
                continue
            other_args = [db.index_of(a) for a in db.universe[other].args]
            premises = tuple(
                ("eq", x, y) for x, y in zip(first_args, other_args)
            )
            changed |= db._merge(first, other, "CONG", db.universe[first].op, premises)
    return changed


class _Bounds(dict):
    """min(q, eps) per parameter vector, each evaluated on its first lookup.

    Lazy on purpose: an off-grid clause constant raises GridMismatch only
    when an instance reaches it.
    """

    def __init__(self, eps, params: tuple[str, ...], q: int):
        super().__init__()
        self.eps, self.params, self.q = eps, params, q

    def __missing__(self, pvec: tuple[int, ...]) -> int:
        value = self[pvec] = min(self.q, self.eps.eval(dict(zip(self.params, pvec)), self.q))
        return value


def _step_horn(db: DerivationDB) -> bool:
    changed = False
    q = db.grid.q
    dmin, find = db.dmin, db.find
    for clause in db.spec.clauses:
        params = clause.param_names()
        # Bare-parameter premises are solved: the least parameter is the max of
        # their class distances. A compound parameterised premise cannot be
        # solved that way, so then every grid vector is tried instead.
        solve = not any(
            isinstance(p, DistAtom) and p.eps.params() and not isinstance(p.eps, EpsParam)
            for p in clause.premises
        )
        if solve:
            vectors = [(0,) * len(params)]
        else:
            vectors = list(itertools.product(range(q + 1), repeat=len(params)))
        pos = {v: k for k, v in enumerate(clause.vars)}
        # (x position, y position, solved parameter index or -1, bounds); an
        # equality premise has no bounds
        prems = [
            (pos[p.x], pos[p.y], -1, None) if isinstance(p, EqAtom) else (
                pos[p.x], pos[p.y],
                params.index(p.eps.name) if solve and isinstance(p.eps, EpsParam) else -1,
                _Bounds(p.eps, params, q),
            )
            for p in clause.premises
        ]
        conc = clause.conclusion
        cx, cy = pos[conc.x], pos[conc.y]
        merging = isinstance(conc, EqAtom)
        conc_bounds = None if merging else _Bounds(conc.eps, params, q)
        root_list = db.roots()
        db._count(len(root_list) ** len(clause.vars) * len(vectors))
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
                        d = dmin[reps[xp]][reps[yp]]
                        if d > vals[si]:
                            vals[si] = d
                    elif dmin[reps[xp]][reps[yp]] > bounds[pvec]:
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
                        if value >= dmin[x][y]:
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
                db._count()
                sigma = {
                    elems[m]: db.universe[db.find(chosen[m])] for m in range(k)
                }
                lhs = apply_subst(sigma, j.lhs)
                rhs = apply_subst(sigma, j.rhs)
                if not (db.term_in_universe(lhs) and db.term_in_universe(rhs)):
                    return
                premises = (("axiom", db._axiom_events[ax_i]),) + tuple(
                    (
                        "dist",
                        db.find(chosen[a]),
                        db.find(chosen[b]),
                        ctx.dist[a][b],
                    )
                    for a in range(k)
                    for b in range(k)
                )
                li, ri = db.index_of(lhs), db.index_of(rhs)
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


def derives(db: DerivationDB, j: Judgment) -> bool:
    """Equation: same class. Quantitative equation: minimal distance <= eps."""
    if j.context != db.target:
        raise ValueError("judgment context differs from the saturation target")
    li, ri = db.index_of(j.lhs), db.index_of(j.rhs)
    if j.eps is None:
        return db.same(li, ri)
    return db.class_distance(li, ri) <= j.eps


def distance(db: DerivationDB, s: Term, t: Term) -> Fraction:
    """The minimal derived distance between the classes of s and t."""
    return db.grid.fraction(db.class_distance(db.index_of(s), db.index_of(t)))


def trace(db: DerivationDB, j: Judgment) -> TraceNode:
    """Derivation tree for a fact present in the database.

    Leaves are axiom uses (INIT), USEVAR, ONEMAX, REFL or premise-free Horn
    instances; replaying the rules at each node re-derives the root fact.
    """
    if j.context != db.target:
        raise ValueError("judgment context differs from the saturation target")
    li, ri = db.index_of(j.lhs), db.index_of(j.rhs)
    if j.eps is None:
        if not db.same(li, ri):
            raise UnknownFact(f"{j.describe()} is not derived")
        return db._eq_tree(li, ri)
    if db.class_distance(li, ri) > j.eps:
        raise UnknownFact(f"{j.describe()} is not derived")
    return db._dist_tree(db.find(li), db.find(ri), j.eps)


def gen_nonexpansive_axioms(sig: Signature, op: str, grid: EpsGrid) -> Theory:
    """One judgment per grid value forcing the symbol to act nonexpansively.

    For arity n, the context holds x1..xn, y1..yn with d(x_i, y_i) = eps,
    self-distances 0 and all other distances 1; the judgment bounds the
    distance of op(x) and op(y) by the same eps.
    """
    n = sig.arity(op)
    if n < 1:
        raise ValueError("nonexpansiveness axioms need arity >= 1")
    xs = tuple(f"x{i + 1}" for i in range(n))
    ys = tuple(f"y{i + 1}" for i in range(n))
    carrier = xs + ys
    judgments = []
    for eps in grid.values():
        rows = []
        for a in carrier:
            row = []
            for b in carrier:
                if a == b:
                    row.append(0)
                elif a in xs and b == ys[xs.index(a)]:
                    row.append(eps)
                else:
                    row.append(grid.q)
            rows.append(tuple(row))
        ctx = FuzzySpace(grid, carrier, tuple(rows))
        judgments.append(
            Judgment(ctx, App(op, tuple(Var(x) for x in xs)),
                     App(op, tuple(Var(y) for y in ys)), eps)
        )
    return Theory(f"nonexpansive({op})", tuple(judgments))
