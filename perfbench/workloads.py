"""Seeded generator for the three benchmark workloads.

Every workload has a fixed shape: the signature, universe sizes, carrier
sizes, query kinds and query count per pass never depend on the seed. The seed
picks values only: distances, epsilons, query terms and operation tables. So
the cost of a pass is comparable across seeds, while the answers differ. Where
a count the cost follows would still vary with the distances (nonexpansive
maps in ``models``), the distance tables are fixed and the seed relabels
their points.

The generator knows nothing about the program: it writes the JSON workspaces
and the argument lists that the CLI receives. ``answers.py`` computes what the
CLI must reply, from outside the program.

Terms are a variable name (``str``) or a tuple ``(op, arg, ...)``.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from reference import ground_ci_normal_form, nonexpansive_maps, render, side_distances, universe

WORKLOADS = ("metric", "equational", "models")

# Budgets written into every workspace, so that a runaway regression trips
# a typed error (exit 2) instead of hanging. Each is at least 10x the largest
# count a single call reaches at the commit that introduced the benchmark:
# 182,176 instances per {f/2} depth-3 saturation, 499,284 for the 54-term
# saturation inside monad-laws, 46,656 candidate maps for ump.
BUDGET_INSTANCES = 20_000_000
BUDGET_INTERPRETATIONS = 1_000_000


def frac(num: int, q: int) -> str:
    return f"{num}/{q}"


def space(carrier, rows, q: int) -> dict:
    return {"carrier": list(carrier), "dist": [[frac(v, q) for v in row] for row in rows]}


def judgment(context: str, lhs, rhs, eps: int | None, q: int) -> dict:
    return {
        "context": context,
        "lhs": render(lhs),
        "rhs": render(rhs),
        "eps": None if eps is None else frac(eps, q),
    }


def random_metric(rng: random.Random, n: int, lo: int, hi: int) -> list[list[int]]:
    """Symmetric table, zero diagonal, off-diagonal values in [lo, hi].

    With 2 * lo >= hi every such table satisfies the triangle inequality, so
    it is a MET space without further checks.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


@dataclass
class Query:
    """One CLI call: ``qeqlog --workspace <ws> <args...>``."""

    qid: str
    kind: str
    ws: str
    args: list[str]
    # values the known-answer checker needs and the CLI does not receive
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    workspaces: dict[str, dict]
    queries: list[Query]

    def write(self, outdir) -> None:
        """Write the CLI inputs: one JSON file per workspace and the query list."""
        outdir.mkdir(parents=True, exist_ok=True)
        for name, ws in self.workspaces.items():
            (outdir / f"{name}.json").write_text(json.dumps(ws, indent=1, sort_keys=True))
        listing = [{"id": q.qid, "workspace": f"{q.ws}.json", "args": q.args} for q in self.queries]
        (outdir / "queries.json").write_text(json.dumps(listing, indent=1))


def _budgets(depth_bound: int) -> dict:
    return {
        "depth": depth_bound,
        "interpretations": BUDGET_INTERPRETATIONS,
        "instances": BUDGET_INSTANCES,
    }


# --- metric: Horn saturation under MET ---------------------------------------

def _metric(rng: random.Random, seed: int) -> Workload:
    q = 4
    # An epsilon of 1 states nothing and saves a saturation round, which
    # would make the cost depend on the seed: epsilons stay below 1.
    delta = rng.randint(1, q)
    e1, e2 = rng.randint(1, q - 1), rng.randint(1, q - 1)
    ws_f = {
        "grid": q,
        "signature": {"ops": {"f": 2}},
        "spec": {"preset": "MET"},
        "budgets": _budgets(3),
        "spaces": {
            "T": space("ab", [[0, delta], [delta, 0]], q),
            "C2": space("xy", [[0, q], [q, 0]], q),
            "C1": space("x", [[0]], q),
        },
        "theories": {
            "TH": [
                judgment("C2", ("f", "x", "y"), ("f", "y", "x"), e1, q),
                judgment("C1", ("f", "x", "x"), "x", e2, q),
            ]
        },
        "algebras": {},
    }
    delta_u, eps_u = rng.randint(1, q), rng.randint(1, q - 1)
    ws_u = {
        "grid": q,
        "signature": {"ops": {"u": 1}},
        "spec": {"preset": "MET"},
        "budgets": _budgets(3),
        "spaces": {
            "T": space("ab", [[0, delta_u], [delta_u, 0]], q),
            "C1": space("x", [[0]], q),
        },
        "theories": {"U": [judgment("C1", ("u", "x"), "x", eps_u, q)]},
        "algebras": {},
    }

    # Pairs with a nontrivial derivation, each with a derivable upper bound.
    small = universe({"f": 2}, "ab", 2)

    def swapped():
        s, t = rng.sample(small, 2)
        return ("f", s, t), ("f", t, s), e1

    def collapse_then_move():
        x, y = rng.sample("ab", 2)
        return ("f", x, x), y, min(q, e2 + delta)

    def double_collapse():
        x = rng.choice("ab")
        fxx = ("f", x, x)
        return ("f", fxx, fxx), x, min(q, 2 * e2)

    # 9 queries per pass: enough samples for verdict_tail_s over 2 passes
    queries = []
    distances = (swapped, collapse_then_move, double_collapse, swapped, collapse_then_move)
    for k, family in enumerate(distances):
        lhs, rhs, _ = family()
        queries.append(Query(
            f"distance{k}", "distance", "ws_f",
            ["distance", "--theory", "TH", "--target", "T",
             "--lhs", render(lhs), "--rhs", render(rhs)],
            {"lhs": lhs, "rhs": rhs},
        ))
    for k, family in enumerate((collapse_then_move, double_collapse, swapped)):
        lhs, rhs, bound = family()
        j = {"context": "T", "lhs": render(lhs), "rhs": render(rhs), "eps": frac(bound, q)}
        queries.append(Query(
            f"derive{k}", "derive", "ws_f",
            ["derive", "--theory", "TH", "--target", "T", "--trace",
             "--judgment", json.dumps(j, sort_keys=True)],
            {"lhs": lhs, "rhs": rhs, "eps": bound},
        ))
    queries.append(Query(
        "monad-laws", "monad-laws", "ws_u",
        ["monad-laws", "--theory", "U", "--space", "T"],
    ))
    return Workload("metric", seed, {"ws_f": ws_f, "ws_u": ws_u}, queries)


# --- equational: congruence over a large FREL universe ------------------------

def _equational(rng: random.Random, seed: int) -> Workload:
    q = 4
    eps = rng.randint(1, q - 1)
    ab, ba = rng.randint(0, q), rng.randint(0, q)
    ws = {
        "grid": q,
        "signature": {"ops": {"f": 2}},
        "spec": {"preset": "FREL"},
        "budgets": _budgets(4),
        "spaces": {
            "T": space("ab", [[0, ab], [ba, 0]], q),
            "C2": space("xy", [[0, q], [q, 0]], q),
            "C1": space("x", [[0]], q),
        },
        # A context point needs self-distance 0, which under FREL only the
        # generators a and b have: every axiom is instantiated at generators
        # only, and congruence does the rest. No 3-point contexts (such as
        # associativity): `free` would then enumerate |classes|^3 maps.
        "theories": {
            "CI": [
                judgment("C2", ("f", "x", "y"), ("f", "y", "x"), None, q),
                judgment("C1", ("f", "x", "x"), "x", None, q),
                judgment("C2", ("f", "x", "y"), "x", eps, q),
            ]
        },
        "algebras": {},
    }
    # Terms equal to a generator, so that f(s,t) often lands in the class of
    # f(a,b), the one class with a derived distance to the generators.
    generators = [
        t for t in universe({"f": 2}, "ab", 3) if isinstance(ground_ci_normal_form(t), str)
    ]
    depth4 = universe({"f": 2}, "ab", 4)
    queries = []
    for k in range(8):
        s, t = rng.choice(generators), rng.choice(generators)
        lhs = ("f", s, t)
        rhs = (s, t, ("f", t, s), rng.choice(depth4))[k % 4]
        queries.append(Query(
            f"distance{k}", "distance", "ws",
            ["distance", "--theory", "CI", "--target", "T",
             "--lhs", render(lhs), "--rhs", render(rhs)],
            {"lhs": lhs, "rhs": rhs},
        ))
    for k in range(3):
        queries.append(Query(f"free{k}", "free", "ws", ["free", "--theory", "CI", "--space", "T"]))
    return Workload("equational", seed, {"ws": ws}, queries)


# --- models: finite model checking at the default grid ------------------------

MODELS_Q = 24  # the CLI default grid; the workspaces omit "grid"


def random_term(rng: random.Random, variables, max_depth: int):
    if max_depth == 1 or rng.random() < 0.3:
        return rng.choice(variables)
    if rng.random() < 0.4:
        return ("u", random_term(rng, variables, max_depth - 1))
    return ("f", random_term(rng, variables, max_depth - 1),
            random_term(rng, variables, max_depth - 1))


def random_algebra(rng: random.Random, rows: list[list[int]], ops: dict[str, int]):
    """(dist_rows, tables) over points 0..n-1: the points of ``rows`` relabelled
    at random, and arbitrary tables."""
    n = len(rows)
    perm = rng.sample(range(n), n)
    rows = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    tables = {
        op: {args: rng.randrange(n) for args in itertools.product(range(n), repeat=arity)}
        for op, arity in ops.items()
    }
    return rows, tables


def algebra_json(algebra, ops: dict[str, int]) -> dict:
    rows, tables = algebra
    pts = [f"p{i}" for i in range(len(rows))]
    return {
        "space": space(pts, rows, MODELS_Q),
        "ops": {
            op: {",".join(pts[a] for a in args): pts[v] for args, v in tables[op].items()}
            for op in ops
        },
    }


def _models(rng: random.Random, seed: int) -> Workload:
    q = MODELS_Q
    uf = {"u": 1, "f": 2}
    # How many maps from the context are nonexpansive, and how many pair
    # checks enumerate_nonexpansive makes, depend on the distances. So the
    # context and the catalog's distance tables are fixed, and the seed only
    # relabels each algebra's points: that keeps both counts, and the cost.
    fixed = random.Random("models/distances")
    ctx = random_metric(fixed, 5, q // 2, q)
    catalog = [random_algebra(rng, random_metric(fixed, 6, q // 2, q), uf) for _ in range(6)]
    xs = [f"x{i}" for i in range(1, 6)]
    maps = [nonexpansive_maps(ctx, rows) for rows, _ in catalog]

    def worst(lhs, rhs) -> int:
        """The least epsilon that every catalog algebra satisfies."""
        return max(
            max(side_distances(alg, m, xs, lhs, rhs)) for alg, m in zip(catalog, maps)
        )

    judgments = []
    for _ in range(13):
        lhs, rhs = random_term(rng, xs, 3), random_term(rng, xs, 3)
        judgments.append(judgment("C5", lhs, rhs, worst(lhs, rhs), q))
    ws_uf = {
        "signature": {"ops": uf},
        "spec": {"preset": "MET"},
        "budgets": _budgets(3),
        "spaces": {"C5": space(xs, ctx, q)},
        "theories": {"M": judgments[:12]},
        "algebras": {f"A{i}": algebra_json(alg, uf) for i, alg in enumerate(catalog)},
    }

    # {u/1}: ump targets are the catalog algebras cut down to u; em-check runs
    # on 2-point algebras, where every operation is nonexpansive.
    u_algebras = {f"U{i}": (rows, {"u": t["u"]}) for i, (rows, t) in enumerate(catalog)}
    for k in range(2):
        u_algebras[f"E{k}"] = random_algebra(rng, random_metric(rng, 2, q // 2, q), {"u": 1})
    eps_u = max(
        rows[t["u"][(p,)]][p] for rows, t in u_algebras.values() for p in range(len(rows))
    )
    # a positive epsilon keeps the free algebra on G at 6 classes, no merges
    eps_u = max(eps_u, q // 2)
    dg = rng.randint(q // 2, q)
    ws_u = {
        "signature": {"ops": {"u": 1}},
        "spec": {"preset": "MET"},
        "budgets": _budgets(3),
        "spaces": {
            "G": space("ab", [[0, dg], [dg, 0]], q),
            "C1": space("x", [[0]], q),
        },
        "theories": {"U": [judgment("C1", ("u", "x"), "x", eps_u, q)]},
        "algebras": {name: algebra_json(alg, {"u": 1}) for name, alg in u_algebras.items()},
    }

    queries = []
    # Every catalog algebra, so that the cost does not depend on which ones
    # the seed would pick. Six check-model queries also put verdict_p50_s and
    # verdict_tail_s inside the check-model times, not on the boundary between
    # two query kinds, where they would jump with every swing of the host.
    for k in range(6):
        queries.append(Query(
            f"check-model{k}", "check-model", "ws_uf",
            ["check-model", "--algebra", f"A{k}", "--theory", "M"],
        ))
    queries.append(Query(
        "entail", "entail", "ws_uf",
        ["entail", "--theory", "M", "--judgment", json.dumps(judgments[12], sort_keys=True),
         "--catalog", ",".join(f"A{i}" for i in range(6))],
    ))
    for k, i in enumerate(rng.sample(range(6), 2)):
        rows = catalog[i][0]
        ga, gb = rng.randrange(6), rng.randrange(6)
        if rows[ga][gb] > dg:
            gb = ga
        queries.append(Query(
            f"ump{k}", "ump", "ws_u",
            ["ump", "--theory", "U", "--space", "G", "--algebra", f"U{i}",
             "--map", json.dumps({"a": f"p{ga}", "b": f"p{gb}"}, sort_keys=True)],
        ))
    for k in range(2):
        queries.append(Query(
            f"em-check{k}", "em-check", "ws_u",
            ["em-check", "--theory", "U", "--algebra", f"E{k}"],
        ))
    return Workload("models", seed, {"ws_uf": ws_uf, "ws_u": ws_u}, queries)


def build(name: str, seed: int) -> Workload:
    """The workload's workspaces and query list for this seed."""
    rng = random.Random(f"{name}/{seed}")
    return {"metric": _metric, "equational": _equational, "models": _models}[name](rng, seed)
