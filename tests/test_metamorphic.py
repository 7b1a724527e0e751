"""Metamorphic relations of saturation: what two runs on related inputs must
share, compared by terms, not by universe ids.

- Renaming and reordering the target's points maps the classes and the
  distances along the renaming.
- Refining the grid from q to 2q, with every target distance, context
  distance and axiom bound doubled, gives the same classes and the same
  distances as fractions.
- Adding an axiom, or lowering the distance between two target points,
  never splits a class and never raises a distance.
- Adding clauses, from FREL to PMET to MET, never splits a class and never
  raises a distance. These draws are their own: {u/1}, {f/2}, {u/1, f/2} or
  {c/0, u/1}, one or two axioms from ``conftest.random_theory``, q = 4,
  depth 2 or 3, with the target and every context a MET space, which all
  three specs accept.

Each draw is seeded: {u/1, f/2} under MET, PMET or FREL, two or three
target points (two at depth 3), one or two random axioms over one or two context points,
q in {2, 4}, depth 2 or 3. An instance budget bounds a draw's cost: a draw
whose runs pass it is not compared, and each relation must compare most
of its draws. A target is lowered only where the result is still a space of
the spec: a draw with no such lowering is not compared either.

Three relations are of model checking, after the closure of a class of
quantitative algebras under products, subalgebras and homomorphic images
(Mardare, Panangaden & Plotkin, "Quantitative Algebraic Reasoning", LICS
2016, and "On the Axiomatizability of Quantitative Algebras", LICS 2017):

- the product of two algebras, with the max distance on pairs and the tables
  taken componentwise, satisfies a judgment exactly when both factors do, as
  each factor admits an interpretation of the context;
- a subset of the carrier that the tables map into itself, with the induced
  distances, satisfies every judgment its algebra satisfies;
- each projection of a product that models a theory is a homomorphism with
  a nonexpansive section, a ↦ (a, b0), so the factor models the theory too,
  as :func:`~qeqlog.monad.check_hom_image_model` checks.

Each draw is of algebras under MET at q = 4, two-point {f/2} ones for the
product and its projections and three-point {u/1, f/2} ones for their
subalgebras, and an equation or a quantitative equation over two context
points at least 1/4 apart.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import partial

from qeqlog.deduce import saturate
from qeqlog.errors import BudgetExceeded, PreconditionViolation
from qeqlog.gmet import FREL, MET, PMET, EpsGrid, FuzzySpace, check_space
from qeqlog.monad import check_hom_image_model
from qeqlog.qalg import Judgment, QuantAlgebra, Theory, satisfies
from qeqlog.terms import Signature, Var, apply_subst, term_to_str

from conftest import random_algebra, random_met_space, random_space, random_term, random_theory

SIG = Signature.of({"u": 1, "f": 2})
SPECS = (MET, PMET, FREL)
BUDGET = 20_000
DRAWS = range(15)
MIN_COMPARED = 12
# the draws that each relation of model checking below must compare
MIN_MODEL_DRAWS = 150


def _axioms(rng: random.Random, grid: EpsGrid, spec, count: int) -> tuple[Judgment, ...]:
    """Axioms that bind: an application equal to a context point, or within
    a grid value below 1 of it, over one or two context points."""
    out = []
    for _ in range(count):
        ctx = random_space(rng, grid, rng.randint(1, 2), spec)
        lhs = Var("")
        while isinstance(lhs, Var):
            lhs = random_term(rng, SIG, ctx.carrier, 2)
        eps = rng.choice((None, *range(1, grid.q)))
        out.append(Judgment(ctx, lhs, Var(rng.choice(ctx.carrier)), eps))
    return tuple(out)


def _draw(seed: int, relation: str):
    """(spec, target, theory, depth) of one seeded draw."""
    rng = random.Random(f"{relation}-{seed}")
    spec = SPECS[seed % len(SPECS)]
    grid = EpsGrid(rng.choice((2, 4)))
    depth = rng.choice((2, 3))
    target = random_space(rng, grid, rng.randint(2, 3) if depth == 2 else 2, spec)
    return spec, target, Theory("T", _axioms(rng, grid, spec, rng.randint(1, 2))), depth


def _facts(db, rename=lambda t: t):
    """The classes as sets of terms, each passed through ``rename`` and
    printed, and the distance between every two classes as a fraction."""
    members: dict[int, set[str]] = {}
    for t, r in zip(db.universe, db.roots_by_id()):
        members.setdefault(r, set()).add(term_to_str(rename(t)))
    classes = {r: frozenset(m) for r, m in members.items()}
    q = db.grid.q
    dist = {(classes[r], classes[s]): Fraction(db.class_distance(r, s), q)
            for r in classes for s in classes}
    return set(classes.values()), dist


def _scaled(sp: FuzzySpace, k: int) -> FuzzySpace:
    return FuzzySpace(EpsGrid(sp.grid.q * k), sp.carrier,
                      tuple(tuple(v * k for v in row) for row in sp.dist))


def _saturated(*runs):
    """The saturation of each run, (theory, spec, target, depth), or None
    when one of them passes the budget."""
    try:
        return [saturate(SIG, *run, BUDGET) for run in runs]
    except BudgetExceeded:
        return None


def test_renaming_the_target_maps_classes_and_distances():
    compared = 0
    for seed in DRAWS:
        spec, target, theory, depth = _draw(seed, "rename")
        rng = random.Random(seed)
        new = ["t", "s", "r"][:len(target.carrier)]
        rng.shuffle(new)
        names = {a: Var(b) for a, b in zip(target.carrier, new)}
        order = list(range(len(target.carrier)))
        rng.shuffle(order)
        renamed = FuzzySpace(target.grid, tuple(new[i] for i in order),
                             tuple(tuple(target.dist[i][j] for j in order) for i in order))
        dbs = _saturated((theory, spec, target, depth), (theory, spec, renamed, depth))
        if dbs is not None:
            compared += 1
            assert _facts(dbs[0], partial(apply_subst, names)) == _facts(dbs[1]), seed
    assert compared >= MIN_COMPARED


def test_refining_the_grid_keeps_classes_and_distances():
    compared = 0
    for seed in DRAWS:
        spec, target, theory, depth = _draw(seed, "refine")
        refined = Theory(theory.name, tuple(
            Judgment(_scaled(j.context, 2), j.lhs, j.rhs, None if j.eps is None else 2 * j.eps)
            for j in theory.judgments))
        dbs = _saturated((theory, spec, target, depth),
                         (refined, spec, _scaled(target, 2), depth))
        if dbs is not None:
            compared += 1
            assert _facts(dbs[0]) == _facts(dbs[1]), seed
    assert compared >= MIN_COMPARED


def _lowered(rng: random.Random, spec, target: FuzzySpace) -> FuzzySpace | None:
    """The target with the distance between two of its points lowered both
    ways to a smaller grid value: the first such target, in a seeded order,
    that is a space of ``spec``, or None if there is none."""
    d, n = target.dist, len(target.carrier)
    options = [(i, j, v) for i in range(n) for j in range(i + 1, n)
               for v in range(max(d[i][j], d[j][i]))]
    rng.shuffle(options)
    for i, j, v in options:
        dist = [list(row) for row in d]
        dist[i][j], dist[j][i] = min(d[i][j], v), min(d[j][i], v)
        lowered = FuzzySpace(target.grid, target.carrier, tuple(map(tuple, dist)))
        if not check_space(spec, lowered):
            return lowered
    return None


def test_an_added_axiom_never_splits_a_class_or_raises_a_distance():
    compared = {"axiom": 0, "lowered": 0}
    for seed in DRAWS:
        spec, target, theory, depth = _draw(seed, "add")
        extra = _axioms(random.Random(seed), target.grid, spec, 1)
        runs = {"axiom": (Theory(theory.name, theory.judgments + extra), spec, target, depth)}
        lowered = _lowered(random.Random(f"lower-{seed}"), spec, target)
        if lowered is not None:
            runs["lowered"] = (theory, spec, lowered, depth)
        for name, run in runs.items():
            dbs = _saturated((theory, spec, target, depth), run)
            if dbs is None:
                continue
            compared[name] += 1
            (classes, dist), (big_classes, big_dist) = map(_facts, dbs)
            owner = {t: c for c in big_classes for t in c}
            assert all(len({owner[t] for t in c}) == 1 for c in classes), (name, seed)
            for (c, d), value in dist.items():
                assert big_dist[owner[next(iter(c))], owner[next(iter(d))]] <= value, (name, seed)
    assert min(compared.values()) >= MIN_COMPARED, compared


# each spec adds clauses to the one before it
CHAIN = (FREL, PMET, MET)
CLAUSE_SIGS = tuple(Signature.of(ops) for ops in ({"u": 1}, {"f": 2}, {"u": 1, "f": 2},
                                                   {"c": 0, "u": 1}))


def test_an_added_clause_keeps_every_derivation():
    compared = 0
    for seed in range(60):
        rng = random.Random(f"clause-{seed}")
        sig, grid = CLAUSE_SIGS[seed % len(CLAUSE_SIGS)], EpsGrid(4)
        # MET spaces are spaces of every spec in the chain
        target = random_met_space(rng, grid, 2)
        theory = random_theory(rng, sig, grid, MET, rng.randint(1, 2))
        depth = rng.choice((2, 3))
        try:
            facts = [_facts(saturate(sig, theory, spec, target, depth, BUDGET)) for spec in CHAIN]
        except BudgetExceeded:
            continue
        compared += 1
        for (classes, dist), (big_classes, big_dist) in zip(facts, facts[1:]):
            owner = {t: c for c in big_classes for t in c}
            assert all(len({owner[t] for t in c}) == 1 for c in classes), seed
            for (c, d), value in dist.items():
                assert big_dist[owner[next(iter(c))], owner[next(iter(d))]] <= value, seed
    assert compared >= 50, compared


def _product(a: QuantAlgebra, b: QuantAlgebra) -> QuantAlgebra:
    """A×B: each pair of points named by its two names, at the max of their
    two distances, and each table taken componentwise."""
    pairs = list(itertools.product(a.space.carrier, b.space.carrier))
    names = {pair: "".join(pair) for pair in pairs}
    dist = tuple(tuple(max(a.space.d(x, u), b.space.d(y, v)) for u, v in pairs) for x, y in pairs)
    ops = {op: {tuple(names[pair] for pair in args): names[a.apply(op, tuple(x for x, _ in args)),
                                                         b.apply(op, tuple(y for _, y in args))]
                for args in itertools.product(pairs, repeat=arity)}
           for op, arity in a.sig.ops}
    return QuantAlgebra(FuzzySpace(a.space.grid, tuple(names.values()), dist), a.sig, ops)


def test_a_product_satisfies_what_both_factors_satisfy():
    sig, grid = Signature.of({"f": 2}), EpsGrid(4)
    for seed in range(600):
        rng = random.Random(f"product-{seed}")
        a, b = (random_algebra(rng, sig, grid, MET, 2) for _ in range(2))
        ctx = random_met_space(rng, grid, 2)
        lhs, rhs = (random_term(rng, sig, ctx.carrier, 3) for _ in range(2))
        j = Judgment(ctx, lhs, rhs, rng.choice((None, *grid.values())))
        both = satisfies(a, MET, j).holds and satisfies(b, MET, j).holds
        assert satisfies(_product(a, b), MET, j).holds == both, seed


def _judgment(rng: random.Random, sig: Signature, grid: EpsGrid) -> Judgment:
    """A judgment drawn as the product test draws its own."""
    ctx = random_met_space(rng, grid, 2)
    lhs, rhs = (random_term(rng, sig, ctx.carrier, 3) for _ in range(2))
    return Judgment(ctx, lhs, rhs, rng.choice((None, *grid.values())))


def _subalgebras(alg: QuantAlgebra):
    """Each proper subset of the carrier that the tables map into itself,
    as an algebra with the induced distances."""
    carrier, dist = alg.space.carrier, alg.space.dist
    for size in range(1, len(carrier)):
        for keep in itertools.combinations(range(len(carrier)), size):
            names = [carrier[i] for i in keep]
            ops = {op: {args: alg.apply(op, args) for args in itertools.product(names, repeat=arity)}
                   for op, arity in alg.sig.ops}
            if all(v in names for table in ops.values() for v in table.values()):
                sub = tuple(tuple(dist[i][k] for k in keep) for i in keep)
                yield QuantAlgebra(FuzzySpace(alg.space.grid, tuple(names), sub), alg.sig, ops)


def test_a_subalgebra_satisfies_what_its_algebra_satisfies():
    sig, grid = Signature.of({"u": 1, "f": 2}), EpsGrid(4)
    compared = 0
    for seed in range(300):
        rng = random.Random(f"subalgebra-{seed}")
        alg = random_algebra(rng, sig, grid, MET, 3)
        subs = list(_subalgebras(alg))
        for _ in range(3):
            j = _judgment(rng, sig, grid)
            if subs and satisfies(alg, MET, j).holds:
                compared += 1
                assert all(satisfies(sub, MET, j).holds for sub in subs), seed
    assert compared >= MIN_MODEL_DRAWS, compared


def test_a_projection_of_a_model_product_is_a_model():
    sig, grid = Signature.of({"f": 2}), EpsGrid(4)
    compared = 0
    for seed in range(300):
        rng = random.Random(f"projection-{seed}")
        a, b = (random_algebra(rng, sig, grid, MET, 2) for _ in range(2))
        theory = Theory("T", (_judgment(rng, sig, grid),))
        product = _product(a, b)
        pairs = list(itertools.product(a.space.carrier, b.space.carrier))
        a0, b0 = pairs[0]
        for k, factor, section in ((0, a, lambda x: x + b0), (1, b, lambda y: a0 + y)):
            project = {"".join(pair): pair[k] for pair in pairs}
            inverse = {x: section(x) for x in factor.space.carrier}
            try:
                holds = check_hom_image_model(product, factor, project, inverse, theory, MET)
            except PreconditionViolation as exc:
                assert str(exc) == "the domain algebra is not a model", seed
                continue
            compared += 1
            assert holds, (seed, k)
    assert compared >= MIN_MODEL_DRAWS, compared
