"""Forward-chaining saturation over a bounded term universe.

The engine computes, for one target context space, the least fixpoint of the
deduction rules on all terms up to a depth bound: a union-find holds the
derived equality classes, and an exact grid-valued store holds the minimal
derived distance per class pair, for the pairs below 1. Every productive
step appends the rule instance that produced it to one event list, and a
trace expands any derived fact from that list alone into a replayable tree.

Bounded-universe contract: congruence and substitution instances are generated
only when every produced term stays within the depth bound, so derivability is
sound but possibly incomplete for the unbounded term algebra; raising the
depth never removes derivations.

All three rule steps are delta-driven and order-preserving: each evaluates
only what the merges and writes since its previous run can have changed, in
the order of evaluating everything, so it records the same events, and only
the count of instances considered falls.

- Congruence. An application's key is its operation over the roots of its
  arguments. A root is the least id of its class, and ids ascend by depth,
  then by argument ids, so the application over a key's own roots is in the
  universe and is the least under the key; a step merges every application
  under a key with it. A key changes only when a class loses its root, and
  then the least application under the old key, which is over that root
  itself (``_uses``), is re-keyed to the new key. Every other application
  under the old key is already in its class and comes later, so a full
  step would skip it. A step therefore re-keys only the applications over
  the ids that lost their root since the previous step took its keys.
- Horn clauses, then theory axioms under substitution: each rule is one
  generator of passes (:func:`_passes`), one pass a round, that builds its
  parts once, at its first pass. Over a fixed tuple of roots, a conclusion
  is monotone in the premise cells, which only fall, and a merge only joins
  classes, so an instance that failed or fired can fire again only once a
  premise cell is written. A pass starts from the cells written since the
  rule's previous pass began (the event list is the write log), joins each
  with the roots near it (:func:`_on_cell`), takes the tuples in product
  order, and requeues the later tuples that its own writes and merges reach
  through the same join, a merged class's members at one position each.
  The first pass joins every written cell at one premise that blocks at top,
  one that no instance passes while its cell reads 1: every context cell
  below 1 of an axiom, and some of a clause's premises. A rule that fires
  with every premise cell at 1 starts from the tuples :func:`_tied` gives
  instead. A rule gives what differs: its blocking premises, its tuple
  search (a product for a clause, a pruned search for an axiom) and its
  count (per parameter vector for a clause, per tuple for an axiom).
"""
from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from functools import cached_property, partial
from operator import itemgetter

from ._record import Record
from .errors import (
    BudgetExceeded,
    GridMismatch,
    OutOfUniverse,
    TrivialPair,
    UnknownFact,
)
from .gmet import (EpsGrid, FuzzySpace, GMetSpec, HornClause, clause_failures, compile_clause,
                   images_within, require_space)
from .qalg import Judgment, Theory
from .terms import (
    App,
    Signature,
    Term,
    Var,
    check_nontrivial,
    compile_term,
    exceeds,
    fold_nodes,
    fold_term,
    fold_tree,
    layer_sizes,
    lookup,
    term_depth,
    term_to_str,
    universe_nodes,
)

# the most terms a saturation enumerates, refused before it is built: about
# 0.1 GB at the 0.8 KB of max RSS per term that MET without axioms takes
MAX_TERMS = 2**17

# the instance budget of a saturation that sets none: over ten times the most
# that any test or benchmark query counts, 151,503 rule instances (a test)
BUDGET_INSTANCES = 2_000_000

# the deepest derivation a trace returns: json's indenting encoder, the one walk
# of a trace that recurses, nests at most 496 levels at the default limit
MAX_TRACE_DEPTH = 400

# Premise descriptors:
#   ("axiom", k)               theory axiom k, whose INIT is event k
#   ("eq", i, j)               universe indices already in one class
#   ("dist", i, j, eps)        dmin(class(i), class(j)) <= eps held at rule time
# Conclusions:
#   ("eq", i, j) | ("dist", i, j, value) | ("axiom", axiom_index)


# One event, under MET one per term or more: a tuple of the fields, with no
# attribute dict, that equals the plain tuple of them.
RuleInstance = namedtuple("RuleInstance", "rule detail premises conclusion")


class TraceNode(Record):
    rule: str
    detail: str | None
    conclusion: str
    children: tuple["TraceNode", ...]

    def to_json(self) -> dict:
        return fold_tree(self, lambda node: (node, node.children), lambda node, premises: {
            "rule": node.rule,
            "detail": node.detail,
            "conclusion": node.conclusion,
            "premises": list(premises),
        })

    def leaves(self):
        stack = [self]
        while stack:
            node = stack.pop()
            if not node.children:
                yield node
            stack += reversed(node.children)


class DerivationDB:
    """Saturated classes, minimal distances and the events that derived them.

    Built by :func:`saturate`, which ends with every union-find entry
    pointing at its root: after it, :meth:`find` is one lookup and reads
    change nothing. Classes are read off the union-find alone: the roots are
    the entries that are their own parent (:meth:`roots`). History is read
    off ``events`` alone, whose event k is axiom k's INIT (:meth:`_history`).

    Terms are universe ids, read off :func:`~qeqlog.terms.universe_nodes`
    without building a tree. A hashcons maps each operation and tuple of
    argument ids to the id of that application, and each variable to its id:
    a lookup folds a term over its tables in one walk (:meth:`index_of`,
    :meth:`subst_index`), a term run many times is compiled over them
    (:meth:`compiled`), and a term over known ids needs no tree at all
    (:meth:`app_index`, :meth:`fold`). ``universe`` is built once, on first read.

    ``dmin`` holds only the cells below q, the cell of ids i and j under
    ``i * n + j``, read as ``dmin.get(i * n + j, q)`` (:meth:`cell`). A
    near-cell index holds, for each id, the ids on the other side of its
    cells below q; a merge folds only those, so it costs the loser's derived
    distances, not the class count. A universe of more than ``MAX_TERMS``
    terms, or a symbol of more arguments, is refused before it is enumerated.

    Use-lists hold, for each id that is an argument, the applications over
    it; they are fixed by the universe, and only the ids with parents have
    one. A merge appends the loser's use-list to a dirty list, which the next
    congruence step re-keys and empties. The step needs no record of the
    keys it has seen: the least application under a key is the one over the
    key's roots, found in the hashcons. Its premises rest on few id pairs,
    each one ``("eq", i, j)`` tuple that every event on it shares.

    A reader of a whole table, such as the free algebra, takes it in one
    call: :meth:`roots_by_id`, :meth:`cell_table` and :meth:`app_ids`.
    """

    def __init__(self, sig: Signature, theory: Theory, spec: GMetSpec,
                 target: FuzzySpace, depth: int, budget: int = BUDGET_INSTANCES):
        self.sig = sig
        self.theory = theory
        self.spec = spec
        self.target = target
        self.depth = depth
        self.grid = target.grid
        self.budget = budget
        # every reader of the tables builds argument tuples of each arity
        for op, arity in sig.ops:
            if arity > MAX_TERMS:
                raise BudgetExceeded(f"signature: {op} takes {arity} arguments, more than the"
                                     f" limit of {MAX_TERMS}")
        # counted up to the first layer past the limit: it grows doubly exponentially
        for d, n in enumerate(itertools.islice(layer_sizes(sig, target.carrier), max(depth, 1)), 1):
            if exceeds(n, MAX_TERMS):
                count = f"{n} terms" if d == depth else f"at least the {n} terms of depth {d}"
                raise BudgetExceeded(f"universe: depth {depth} has {count}, more than the limit"
                                     f" of {MAX_TERMS}")
        self._n = n
        self._nodes = universe_nodes(sig, target.carrier, depth)
        # op -> (argument ids -> id)
        self._hashcons: dict[str, dict[tuple[int, ...], int]] = {op: {} for op, _ in sig.ops}
        self.var_ids = {name: i for i, (name, args) in enumerate(self._nodes) if args is None}
        # per id with parents, the applications over it
        self._uses: dict[int, list[int]] = {}
        for i, (name, args) in enumerate(self._nodes):
            if args is not None:
                self._hashcons[name][args] = i
                for a in args:
                    self._uses.setdefault(a, []).append(i)
        # the applications over the ids that lost their root since the last
        # congruence step took its keys
        self._dirty: list[int] = []
        # i * n + j -> the premise ("eq", i, j) of every congruence event on it
        self._eq_facts: dict[int, tuple[str, int, int]] = {}
        self._parent = list(range(n))
        self.dmin: dict[int, int] = {}
        # per id, the ids across its cells below q, or None before its first
        self._near: list[list[int] | None] = [None] * n
        # the one record of what saturation derived
        self.events = [RuleInstance("INIT", f"{theory.name}[{k}]", (), ("axiom", k))
                       for k in range(len(theory.judgments))]
        self.instances = 0
        # where the next counted instance belongs, for budget errors
        self._round = 0
        self._phase = "USEVAR"

    # --- union-find ---

    def find(self, i: int) -> int:
        while self._parent[i] != i:
            self._parent[i] = self._parent[self._parent[i]]
            i = self._parent[i]
        return i

    def same(self, i: int, j: int) -> bool:
        return self.find(i) == self.find(j)

    def roots(self) -> list[int]:
        """The class representatives in ascending order, as a new list."""
        return [i for i, p in enumerate(self._parent) if p == i]

    def roots_by_id(self) -> list[int]:
        """The root of each id, in id order, as a new list."""
        return list(map(self.find, range(self._n)))

    def index_of(self, t: Term) -> int:
        i = fold_term(t, self.var_ids.get, self.app_index)
        if i is None:
            raise OutOfUniverse(f"{term_to_str(t)} is outside the depth-{self.depth} universe")
        return i

    def term_in_universe(self, t: Term) -> bool:
        return fold_term(t, self.var_ids.get, self.app_index) is not None

    def app_index(self, op: str, args: tuple[int, ...]) -> int | None:
        """The id of ``op`` applied to the terms with ids ``args``, or None
        when that application is outside the universe."""
        apps = self._hashcons.get(op)
        return apps.get(args) if apps else None

    def app_ids(self, op: str, arg_tuples, missing):
        """Lazily, :meth:`app_index` of ``op`` over each tuple in
        ``arg_tuples``, with ``missing`` in place of None: one lookup each."""
        return map(self._hashcons[op].get, arg_tuples, itertools.repeat(missing))

    def subst_index(self, sigma: dict[str, int], t: Term) -> int | None:
        """The id of ``t`` with each variable replaced by the term with id
        ``sigma[name]``, or None when it is outside the universe.

        The universe is closed under subterms, so this is the id of
        ``apply_subst`` over the same terms whenever that term is in it. A
        variable missing from ``sigma`` raises :class:`UnknownVariable`.
        """
        return fold_term(t, partial(lookup, sigma), self.app_index)

    def compiled(self, t: Term, names: tuple[str, ...]):
        """``t`` as a function of one id per name: the id of ``t`` with
        ``names[k]`` replaced by the term with the k-th id, or None when it
        is outside the universe. A term deeper than the universe is outside
        it under every substitution, and is not compiled; a variable not in
        ``names`` raises :class:`UnknownVariable` all the same."""
        if term_depth(t) <= self.depth:
            return compile_term(t, names, self._hashcons)
        fold_term(t, partial(lookup, dict.fromkeys(names)), lambda op, args: None)
        return lambda ids: None

    def fold(self, leaf, node) -> list:
        """One value per universe id: :func:`~qeqlog.terms.fold_nodes`."""
        return fold_nodes(self._nodes, leaf, node)

    def terms(self, ids) -> list[Term]:
        """The term of each id in ``ids``, building only their subterms, each
        once: a subterm that two of them share is one object."""
        nodes, built = self._nodes, {}

        def combine(i: int, args: tuple) -> Term:
            if i not in built:
                name, arg_ids = nodes[i]
                built[i] = Var(name) if arg_ids is None else App(name, args)
            return built[i]

        return [fold_tree(i, lambda i: (i, () if i in built else nodes[i][1] or ()), combine)
                for i in ids]

    @cached_property
    def universe(self) -> tuple[Term, ...]:
        """The term of each universe id, built on first read."""
        return tuple(self.fold(Var, App))

    def cell(self, i: int, j: int) -> int:
        """The table cell of ids i and j, whether or not they are roots."""
        return self.dmin.get(i * self._n + j, self.grid.q)

    def cell_table(self, ids) -> tuple[tuple[int, ...], ...]:
        """The cells among ``ids``, one row per id, as :meth:`cell` reads them."""
        get, n, q = self.dmin.get, self._n, self.grid.q
        return tuple(tuple([get(i * n + j, q) for j in ids]) for i in ids)

    def class_distance(self, i: int, j: int) -> int:
        return self.cell(self.find(i), self.find(j))

    # --- recording ---

    def _over_budget(self) -> BudgetExceeded:
        return BudgetExceeded(
            f"saturation considered more than {self.budget} rule instances"
            f" in round {self._round} at {self._phase}"
        )

    def _set_dist(self, a: int, b: int, value: int, rule: str, detail: str | None,
                  premises: tuple) -> None:
        dmin, n, near = self.dmin, self._n, self._near
        if a * n + b not in dmin and b * n + a not in dmin:
            # the first cell below q between a and b: each joins the other's list
            for u, v in ((a, b), (b, a)) if a != b else ((a, a),):
                if near[u] is None:
                    near[u] = [v]
                else:
                    near[u].append(v)
        dmin[a * n + b] = value
        self.events.append(RuleInstance(rule, detail, premises, ("dist", a, b, value)))

    def _lower(self, i: int, j: int, value: int, rule: str, detail: str | None,
               premises: tuple) -> bool:
        ri, rj = self.find(i), self.find(j)
        if value >= self.dmin.get(ri * self._n + rj, self.grid.q):
            return False
        self._set_dist(ri, rj, value, rule, detail, premises)
        return True

    def _merge(self, i: int, j: int, rule: str, detail: str | None, premises: tuple) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.events.append(RuleInstance(rule, detail, premises, ("eq", i, j)))
        winner, loser = min(ri, rj), max(ri, rj)
        parent, get, n, q = self._parent, self.dmin.get, self._n, self.grid.q
        parent[loser] = winner
        self._dirty += self._uses.get(loser, ())
        if self._near[loser] is None:
            # every cell of the loser reads q, so it lowers nothing
            return True
        eq_premise = ("eq", winner, loser)
        # 2x2 block between the two old classes
        block = [(winner, winner), (winner, loser), (loser, winner), (loser, loser)]
        best_val, best_pair = min((get(a * n + b, q), (a, b)) for a, b in block)
        if best_val < get(winner * n + winner, q):
            a, b = best_pair
            last_fact = ("dist", a, b, best_val)
            if a != winner:
                self._set_dist(winner, b, best_val, "LCONG", None, (eq_premise, last_fact))
                last_fact = ("dist", winner, b, best_val)
            if b != winner:
                self._set_dist(winner, winner, best_val, "RCONG", None, (eq_premise, last_fact))
        # fold rows and columns against every other class; a cell at q lowers
        # nothing, so only classes with a cell below q to the loser can change
        loser_near, self._near[loser] = self._near[loser], None
        for k in sorted(k for k in loser_near if k != winner and parent[k] == k):
            v = get(loser * n + k, q)
            if v < get(winner * n + k, q):
                self._set_dist(winner, k, v, "LCONG", None, (eq_premise, ("dist", loser, k, v)))
            v = get(k * n + loser, q)
            if v < get(k * n + winner, q):
                self._set_dist(k, winner, v, "RCONG", None, (eq_premise, ("dist", k, loser, v)))
        return True

    # --- trace reconstruction ---

    def _history(self) -> tuple[dict, list]:
        """Two views of ``events``, built in one scan on the first read after
        it grew: per cell the (value, event) of each write, and per id the
        (other end, event) of each merge of it, the proof forest's edges."""
        if self.__dict__.get("_views", (-1,))[0] != len(self.events):
            hist, forest = {}, [[] for _ in range(self._n)]
            for eid, ev in enumerate(self.events):
                c = ev.conclusion
                if c[0] == "dist":
                    hist.setdefault(c[1:3], []).append((c[3], eid))
                elif c[0] == "eq":
                    forest[c[1]].append((c[2], eid))
                    forest[c[2]].append((c[1], eid))
            self._views = (len(self.events), (hist, forest))
        return self._views[1]

    def _fact_str(self, conclusion: tuple) -> str:
        kind = conclusion[0]
        if kind == "axiom":
            j = self.theory.judgments[conclusion[1]]
            return f"axiom {j.describe()}"
        _, i, jj, *rest = conclusion
        return Judgment(self.target, *self.terms((i, jj)), *rest).describe()

    def _build(self, proof) -> tuple[TraceNode, int]:
        """The tree of ``proof`` and its depth (:func:`~qeqlog.terms.fold_tree`).
        A proof is an event id, standing for that event over the proofs of its
        premises, or ``(rule, detail, conclusion, premise proofs)``."""
        def expand(p):
            if isinstance(p, int):
                ev = self.events[p]
                p = ev.rule, ev.detail, ev.conclusion, tuple([
                    x[1] if x[0] == "axiom" else self._eq_tree(x[1], x[2]) if x[0] == "eq"
                    else self._dist_tree(*x[1:], p) for x in ev.premises])
            return p[:3], p[3]

        return fold_tree(proof, expand, lambda head, built: (
            TraceNode(*head[:2], self._fact_str(head[2]), tuple(node for node, _ in built)),
            1 + max((depth for _, depth in built), default=0)))

    def _dist_tree(self, i: int, j: int, eps: int, before: int):
        """The proof of d(i, j) <= eps from events before ``before``."""
        for value, eid in self._history()[0].get((i, j), ()):
            if value <= eps and eid < before:
                return eid if value == eps else ("MAX", None, ("dist", i, j, eps), (eid,))
        if eps == self.grid.q:
            return "ONEMAX", None, ("dist", i, j, eps), ()
        raise UnknownFact(
            f"no derivation recorded for {self._fact_str(('dist', i, j, eps))}"
        )

    def _forest_path(self, i: int, j: int) -> list[tuple[int, int, int]]:
        """Edges (u, v, event) along the unique forest path from i to j."""
        forest = self._history()[1]
        prev: dict[int, tuple[int, int]] = {i: (-1, -1)}
        # breadth first: the loop also takes the ids appended while it runs
        queue = [i]
        for u in queue:
            if u == j:
                break
            for v, eid in forest[u]:
                if v not in prev:
                    prev[v] = (u, eid)
                    queue.append(v)
        if j not in prev:
            raise UnknownFact("terms are not in the same class")
        path = []
        while j != i:
            u, eid = prev[j]
            path.append((u, j, eid))
            j = u
        return path[::-1]

    def _eq_tree(self, i: int, j: int):
        """The proof of i = j."""
        if i == j:
            return "REFL", None, ("eq", i, i), ()
        # an "eq" premise names class members; walk the merge forest between them
        for u, v, eid in self._forest_path(i, j):
            proof = eid
            if self.events[eid].conclusion[1:3] != (u, v):
                proof = "SYMM", None, ("eq", u, v), (proof,)
            if u != i:
                proof = "TRANS", None, ("eq", i, v), (tree, proof)
            tree = proof
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
             depth: int, budget: int = BUDGET_INSTANCES) -> DerivationDB:
    """Run all rules to their least fixpoint over the bounded universe."""
    _validate_inputs(sig, theory, spec, target)
    db = DerivationDB(sig, theory, spec, target, depth, budget)
    for a in target.carrier:
        for b in _counted(db, target.carrier):
            db._lower(db.var_ids[a], db.var_ids[b], target.d(a, b), "USEVAR", None, ())
    # a rule builds its parts at its first pass, so that a build error comes
    # in its phase of round 1, after any budget trip before it
    rules = [(f"HORN:{c.name}", _horn_rule(c, db)) for c in spec.clauses] + [
        (f"SUBST:{theory.name}[{k}]", _subst_rule(k, j, db))
        for k, j in enumerate(theory.judgments)]
    changed = True
    while changed:
        db._round += 1
        changed = _step_cong(db)
        for phase, passes in rules:
            db._phase = phase
            changed = next(passes) or changed
    db._parent = db.roots_by_id()
    return db


def _step_cong(db: DerivationDB) -> bool:
    """Merge the applications that share a key, an operation over argument
    roots, re-keying only the applications over the ids that lost their
    root since the last step (:meth:`DerivationDB._merge`)."""
    db._phase = "CONG"
    dirty, db._dirty = sorted(set(db._dirty)), []
    changed = False
    groups: dict[tuple, list[int]] = {}
    nodes, find, facts, n = db._nodes, db.find, db._eq_facts, db._n
    for idx in dirty:
        op, args = nodes[idx]
        groups.setdefault((op, tuple([find(a) for a in args])), []).append(idx)
    for (op, roots), members in sorted(groups.items()):
        # the application over the key's roots is in the universe and is the
        # least under the key, and no merge has re-keyed it
        first = db._hashcons[op][roots]
        for other in _counted(db, members):
            if find(first) == find(other):
                continue
            # each premise ("eq", x, y) is the one tuple of its pair
            premises = tuple(facts.setdefault(x * n + y, ("eq", x, y))
                             for x, y in zip(roots, nodes[other][1]))
            changed |= db._merge(first, other, "CONG", op, premises)
    return changed


def _passes(db: DerivationDB, arity: int, cells, blocking, merging: bool, search, seed, fire):
    """A rule's passes over the tuples of the roots, each in product order,
    yielding after each pass whether it wrote or merged.

    No instance fires while a premise cell in ``blocking`` reads 1. The
    first pass starts from ``seed(pool)``, :func:`_tied` for a rule that
    fires with every premise cell at 1, or if ``seed`` is None from every
    written cell joined at one blocking premise, across two positions if
    one is (every premise cell if none blocks); a tuple it leaves out is
    queued by the write that lowers that cell. Every other pass starts from
    the cells written since the previous pass began, joined at every
    premise cell. A position that a blocking premise ties to the written
    cell takes only the roots near it. ``search`` turns the candidates per
    position into an ascending tuple stream, or if None their product.
    ``fire`` counts and runs the tuples it takes, and yields each new
    conclusion as (i, j, eps, rule, detail, premises). The pass records it,
    merging i and j for a ``merging`` rule and otherwise lowering their
    cell to eps, and requeues the later tuples on the written cell, or for
    a ``merging`` rule those with a member of the merged class at p, joined
    like a write on the cell (p, p) of its root. With product streams, or
    a search that prunes nothing, a member of a merged class is requeued
    once a pass; a pruned stream has passed over tuples whose cells a later
    merge can lower, so otherwise a member is requeued at every merge.
    """
    links = [pair for xp, yp in blocking if xp != yp for pair in ((xp, yp), (yp, xp))]
    first = links[:1] or blocking[:1] or cells
    expand = partial(itertools.starmap, itertools.product) if search is None else partial(map, search)
    complete = search is None or not cells
    requeue_cells = [(p, p) for p in range(arity)] if merging else cells
    find, since = db.find, None
    while True:
        # a tuple, so that itertools.product takes it without a copy
        pool = tuple(db.roots())
        queue = _Worklist()
        start, since = since, len(db.events)
        if start is None and seed is not None:
            queue.add(seed(pool))
        else:
            for a, b in _written(db, start or 0):
                queue.add(*expand(_on_cell(db, arity, first if start is None else cells, links,
                                           a, b, pool)))
        changed, requeued, members, premises = False, set(), None, None
        for i, j, eps, rule, detail, premises in fire(queue):
            if merging:
                db._merge(i, j, rule, detail, premises)
            else:
                db._lower(i, j, eps, rule, detail, premises)
            x, y = find(i), find(j)
            changed = True
            if not complete:
                requeued.clear()
            if merging:
                members = tuple(r for r in pool if find(r) == x and r not in requeued)
                requeued.update(members)
            queue.add(*expand(_on_cell(db, arity, requeue_cells, links, x, y, pool, members)))
        # the frame lives on between passes: keep nothing the size of a pass
        del pool, queue, requeued, members, premises
        yield changed


def _horn_rule(clause: HornClause, db: DerivationDB):
    """A clause's passes (:func:`_passes`), built at its first: the products
    of the candidates, one instance per parameter vector, the premises that
    block at top (:func:`_blocking`), and a first pass over the tied tuples
    (:func:`_tied`) if the clause fires at top."""
    dmin, n, q, find = db.dmin, db._n, db.grid.q, db.find
    compiled = compile_clause(clause, q)
    _, vectors, prems, cx, cy, conc_bounds = compiled
    merging, arity = conc_bounds is None, len(clause.vars)

    def fire(tuples):
        # only a merging clause turns members of the pool into non-roots
        for assignment, reps, pvec, vals in clause_failures(
                compiled, dmin, q, n, _counted(db, tuples, len(vectors)), find if merging else None):
            # nearly every instance fires nothing: premises are built only for
            # one whose conclusion is new
            premises = tuple(
                ("eq", assignment[xp], assignment[yp]) if bounds is None
                else ("dist", reps[xp], reps[yp], vals[si] if si >= 0 else bounds[pvec])
                for xp, yp, si, bounds in prems
            )
            # a lowering clause reads its tuple without find: its roots are the assignment
            eps = None if merging else conc_bounds[tuple(vals)]
            yield assignment[cx], assignment[cy], eps, "HORN", clause.name, premises

    cells = [(xp, yp) for xp, yp, _, bounds in prems if bounds is not None]
    yield from _passes(db, arity, cells, _blocking(compiled, q), merging, search=None,
                       seed=partial(_tied, arity, prems) if _fires_at_top(compiled, arity, q) else None,
                       fire=fire)


def _subst_rule(ax_i: int, j: Judgment, db: DerivationDB):
    """An axiom's passes (:func:`_passes`), built at its first: premise
    cells at a context distance below 1, each of which blocks at top, a
    pruned search (:func:`images_within`) that reads a cell when it reaches
    it, and one instance per tuple it yields. With no premise cell, the
    first pass starts from every tuple (:func:`_tied`)."""
    dmin, n, q, find = db.dmin, db._n, db.grid.q, db.find
    ctx, merging, arity = j.context, j.eps is None, len(j.context.carrier)
    cells = [(x, y) for x, row in enumerate(ctx.dist) for y, d in enumerate(row) if d < q]
    # only a merging axiom turns members of the pool into non-roots
    search = partial(images_within, ctx.dist, dmin, q, n, find=find if merging else None)
    left, right = (db.compiled(side, ctx.carrier) for side in (j.lhs, j.rhs))

    def fire(tuples):
        for chosen in _counted(db, tuples):
            chosen = [find(r) for r in chosen] if merging else chosen
            li = left(chosen)
            ri = li if li is None else right(chosen)
            # build premises only for a new conclusion, as _merge and _lower
            # would record nothing for the others
            if ri is None or (db.same(li, ri) if merging
                              else j.eps >= dmin.get(find(li) * n + find(ri), q)):
                continue
            premises = (("axiom", ax_i),) + tuple(
                ("dist", a, b, d) for a, row in zip(chosen, ctx.dist) for b, d in zip(chosen, row)
            )
            yield li, ri, j.eps, "SUBST", f"axiom {ax_i}", premises

    yield from _passes(db, arity, cells, cells, merging, search,
                       seed=None if cells else partial(_tied, arity, ()), fire=fire)


def _written(db: DerivationDB, since: int):
    """The root pairs whose cells the events from ``since`` on wrote, each
    once, lazily: a cell between roots is written under their ids, and as
    its value only falls, just its last write holds the value it reads."""
    parent, dmin, n = db._parent, db.dmin, db._n
    for ev in db.events[since:]:
        c = ev.conclusion
        if (c[0] == "dist" and parent[c[1]] == c[1] and parent[c[2]] == c[2]
                and dmin[c[1] * n + c[2]] == c[3]):
            yield c[1], c[2]


def _counted(db: DerivationDB, items, per_item: int = 1):
    """``items``, counting ``per_item`` rule instances for each before it is
    taken."""
    budget = db.budget
    for item in items:
        # counted inline, not by a call: every rule pass takes its tuples here
        db.instances += per_item
        if db.instances > budget:
            raise db._over_budget()
        yield item


def _fires_at_top(compiled, arity: int, q: int) -> bool:
    """Whether the two-point space with every distance 1 violates a clause
    compiled by :func:`~qeqlog.gmet.compile_clause` with ``arity`` variables.

    If not, every instance over classes that can fire has a distance premise
    below 1. An off-grid constant that the check reaches may be one that no
    instance reaches yet: that counts as firing, and the caller's full pass
    raises exactly where instances do.
    """
    try:
        return any(clause_failures(compiled, {}, q, 2, itertools.product(range(2), repeat=arity)))
    except GridMismatch:
        return True


def _tied(arity: int, prems, pool: tuple[int, ...]):
    """The tuples over ``pool`` that hold one value at the positions an
    equality premise ties, in ascending order: every tuple for an axiom.

    Only the equality premises before the first bound lookup tie positions,
    as an instance stops at a failed one before it can reach an off-grid
    constant. Over distinct roots, every tuple left out fails one of them.
    """
    lead = list(range(arity))
    for xp, yp, si, bounds in prems:
        if bounds is None:
            lo, hi = sorted((lead[xp], lead[yp]))
            lead = [lo if k == hi else k for k in lead]
        elif si < 0:
            break
    free = sorted(set(lead))
    if len(free) == arity:
        return itertools.product(pool, repeat=arity)
    # two or more positions, so itemgetter returns tuples
    at = itemgetter(*(free.index(k) for k in lead))
    return map(at, itertools.product(pool, repeat=len(free)))


def _blocking(compiled, q: int) -> list[tuple[int, int]]:
    """The position pairs of the distance premises that block at top: a
    constant bound below 1, or a bare parameter that puts the monotone
    conclusion bound at 1 when it reads 1 and the others 0. While such a
    cell reads 1, no instance fires. A grid-vector clause, one that
    concludes an equality and one with an off-grid constant have none."""
    _, vectors, prems, _, _, conc_bounds = compiled
    if conc_bounds is None or len(vectors) > 1:
        return []
    zero = vectors[0]
    try:
        conc_bounds[zero]
        return [(xp, yp) for xp, yp, si, bounds in prems if bounds is not None and (
            conc_bounds[zero[:si] + (q,) + zero[si + 1:]] == q if si >= 0 else bounds[zero] < q)]
    except GridMismatch:
        return []


def _on_cell(db: DerivationDB, arity: int, cells, links, a: int, b: int,
             pool: tuple[int, ...], members=None):
    """Per premise cell (x, y), the candidates per position of the tuples
    over ``pool`` with a at x and b at y, or ``members`` at x = y. A position
    that a link, a blocking premise across two positions, ties to x or y
    takes only the roots with a cell below 1 to a or b (``db._near``)."""
    near, parent = db._near, db._parent
    for xp, yp in cells:
        if xp != yp or a == b:
            choices = [pool] * arity
            choices[xp], choices[yp] = (a,), ((b,) if members is None else members)
            for fixed, free in links:
                if fixed in (xp, yp) and choices[free] is pool:
                    v = a if fixed == xp else b
                    choices[free] = sorted(r for r in near[v] or () if parent[r] == r)
            yield choices


class _Worklist:
    """The tuples of ascending streams, merged in ascending order, each once.

    A stream added while the merge runs contributes only the tuples after
    the last one taken, so the merge ascends and a repeat is the one taken.
    A stream's first tuple waits in a heap of bare tuples, and only a stream
    with a second joins a heap of (next tuple, order, stream): most hold one.
    One loop takes the lesser of the two heads.
    """

    def __init__(self):
        self._tuples: list = []
        self._heap: list = []
        self._last: tuple | None = None  # nothing taken yet, not even ()
        self._ids = itertools.count()

    def add(self, *streams) -> None:
        for stream in streams:
            for t in stream:
                if self._last is None or t > self._last:
                    heapq.heappush(self._tuples, t)
                    nxt = next(stream, None)
                    if nxt is not None:
                        heapq.heappush(self._heap, (nxt, next(self._ids), stream))
                    break

    def __iter__(self):
        tuples, heap = self._tuples, self._heap
        while tuples or heap:
            if tuples and (not heap or tuples[0] < heap[0][0]):
                t = heapq.heappop(tuples)
            else:
                t, i, stream = heap[0]
                nxt = next(stream, None)
                if nxt is None:
                    heapq.heappop(heap)
                else:
                    heapq.heapreplace(heap, (nxt, i, stream))
            if t != self._last:
                self._last = t
                yield t


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
    if not derives(db, j):
        raise UnknownFact(f"{j.describe()} is not derived")
    li, ri = db.index_of(j.lhs), db.index_of(j.rhs)
    tree, depth = db._build(db._eq_tree(li, ri) if j.eps is None else
                            db._dist_tree(db.find(li), db.find(ri), j.eps, len(db.events)))
    if depth > MAX_TRACE_DEPTH:
        raise BudgetExceeded(f"trace: the derivation is nested {depth} levels deep,"
                             f" more than the limit of {MAX_TRACE_DEPTH}")
    return tree


def gen_nonexpansive_axioms(sig: Signature, op: str, grid: EpsGrid) -> Theory:
    """One judgment per grid value forcing the symbol to act nonexpansively:
    a FREL theory, which PMET and MET refuse with ``SpecViolation``.

    For arity n, the context holds x1..xn, y1..yn with d(x_i, y_i) = eps,
    self-distances 0 and all other distances 1, d(y_i, x_i) among them, so
    it is not symmetric; the judgment bounds the distance of op(x) and
    op(y) by the same eps.
    """
    n = sig.arity(op)
    if n < 1:
        raise ValueError("nonexpansiveness axioms need arity >= 1")
    xs = tuple(f"x{i + 1}" for i in range(n))
    ys = tuple(f"y{i + 1}" for i in range(n))
    carrier, pairs = xs + ys, set(zip(xs, ys))
    lhs, rhs = App(op, tuple(map(Var, xs))), App(op, tuple(map(Var, ys)))
    return Theory(f"nonexpansive({op})", tuple(
        Judgment(FuzzySpace(grid, carrier, tuple(
            tuple(0 if a == b else eps if (a, b) in pairs else grid.q for b in carrier)
            for a in carrier)), lhs, rhs, eps)
        for eps in grid.values()))
