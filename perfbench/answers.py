"""Known answers for every query, computed from outside the program.

- ``metric``: distances and ``derive`` verdicts come from the brute-force
  ``OracleDB`` in ``tests/oracle.py``, run on the same inputs; every monad law
  must report no failure.
- ``equational``: distances, classes, operation tables and the model check
  of ``free`` come from ``reference.frel_ci_distances``.
- ``models``: verdicts come from the brute-force evaluator in ``reference``.

``checks`` maps each query id to a function of (exit code, parsed report)
that returns a description of the first disagreement, or None.
"""
from __future__ import annotations

import importlib.util
import itertools
import json
from fractions import Fraction

import reference as ref
from workloads import MODELS_Q, Workload


def _exact(code: int, report: dict):
    def check(got_code, got):
        if got_code != code or got != report:
            return f"expected exit {code} and {report}, got exit {got_code} and {got}"
        return None
    return check


def _verdict(code: int, key: str, value):
    def check(got_code, got):
        if got_code != code or got.get(key) != value:
            return f"expected exit {code} and {key}={value}, got exit {got_code} and {got}"
        return None
    return check


def _laws_pass(extra: dict | None = None):
    def check(got_code, got):
        laws = got.get("laws") or []
        bad = [law for law in laws if law["failed"] or law["first_failure"] is not None]
        if got_code != 0 or not laws or bad:
            return f"expected every law to pass with exit 0, got exit {got_code}: {bad or laws}"
        for key, value in (extra or {}).items():
            if got.get(key) != value:
                return f"expected {key}={value}, got {got.get(key)}"
        return None
    return check


def _grid_value(text: str, q: int) -> int:
    scaled = Fraction(text) * q
    if scaled.denominator != 1:
        raise ValueError(f"{text} is not on the grid 1/{q}")
    return int(scaled)


def _rows(space: dict, q: int) -> list[list[int]]:
    return [[_grid_value(v, q) for v in row] for row in space["dist"]]


# --- metric ------------------------------------------------------------------

def _load_oracle(root):
    spec = importlib.util.spec_from_file_location("oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.OracleDB


def _metric(wl: Workload, root) -> dict:
    # The program's parser builds the oracle's input objects; the oracle's
    # saturation is its own.
    from qeqlog.cli import Workspace
    from qeqlog.terms import parse_term

    ws = Workspace.from_json(wl.workspaces["ws_f"])
    target = ws.spaces["T"]
    oracle = _load_oracle(root)(ws.sig, ws.theories["TH"], ws.spec, target, ws.depth)
    q = ws.grid.q

    out = {}
    for query in wl.queries:
        meta = query.meta
        base = {"depth": ws.depth, "grid": q, "skipped_overflow": 0}
        if query.kind in ("distance", "derive"):
            d = oracle.distance(*(parse_term(ref.render(meta[k]), ws.sig, target.carrier)
                                  for k in ("lhs", "rhs")))
        if query.kind == "distance":
            out[query.qid] = _exact(0, {**base, "distance": ref.fraction(d, q)})
        elif query.kind == "derive":
            out[query.qid] = _derive_check(base, d, meta, q)
        else:
            out[query.qid] = _laws_pass()
    return out


def _derive_check(base: dict, d: int, meta: dict, q: int):
    derivable = d <= meta["eps"]
    lhs, rhs = ref.render(meta["lhs"]), ref.render(meta["rhs"])
    conclusion = f"{lhs} ={ref.fraction(meta['eps'], q)} {rhs}"

    def check(got_code, got):
        trace = got.get("trace")
        got = {k: v for k, v in got.items() if k != "trace"}
        want = {**base, "derivable": derivable, "distance": ref.fraction(d, q)}
        if got_code != (0 if derivable else 1) or got != want:
            code = 0 if derivable else 1
            return f"expected exit {code} and {want}, got exit {got_code} and {got}"
        # the workload never merges classes, so the root names the queried terms
        if derivable and (not trace or trace[0]["conclusion"] != conclusion):
            return f"expected a trace concluding {conclusion!r}"
        return None
    return check


# --- equational --------------------------------------------------------------

def _equational(wl: Workload, root) -> dict:
    ws = wl.workspaces["ws"]
    q, bound = ws["grid"], ws["budgets"]["depth"]
    target = _rows(ws["spaces"]["T"], q)
    axioms = ws["theories"]["CI"]
    eps = _grid_value(axioms[2]["eps"], q)
    classes, dist = ref.frel_ci_distances(target, "ab", eps, bound, q)
    nf = ref.ground_ci_normal_form
    out = {}
    for query in wl.queries:
        if query.kind == "distance":
            d = dist.get((nf(query.meta["lhs"]), nf(query.meta["rhs"])), q)
            out[query.qid] = _exact(0, {"depth": bound, "distance": ref.fraction(d, q),
                                        "grid": q, "skipped_overflow": 0})
        else:
            out[query.qid] = _free_check(ws, classes, dist, bound, q)
    return out


def _free_check(ws: dict, classes, dist, bound: int, q: int):
    nf = ref.ground_ci_normal_form
    axioms = [
        (ws["spaces"][ax["context"]], ref.parse(ax["lhs"]), ref.parse(ax["rhs"]))
        for ax in ws["theories"]["CI"]
    ]

    def check(got_code, got):
        names = got.get("classes", [])
        reps = [ref.parse(name) for name in names]
        nfs = [nf(rep) for rep in reps]
        if sorted(nfs, key=ref.render) != sorted(classes, key=ref.render):
            return f"expected {len(classes)} classes, got {len(names)}: {names}"
        name_of = dict(zip(nfs, names))
        delta = [[ref.fraction(dist.get((c1, c2), q), q) for c2 in nfs] for c1 in nfs]
        if got.get("delta") != delta:
            return "distance table of the free algebra differs"
        table, overflow = {}, 0
        for (n1, r1), (n2, r2) in itertools.product(zip(names, reps), repeat=2):
            t = ("f", r1, r2)
            if ref.depth(t) > bound:
                table[f"{n1},{n2}"] = "overflow"
                overflow += 1
            else:
                table[f"{n1},{n2}"] = name_of[nf(t)]
        if got.get("ops") != {"f": table} or got.get("skipped_overflow") != overflow:
            return "operation table of the free algebra differs"
        if got.get("unit") != {a: name_of[a] for a in "ab"}:
            return f"unit differs: {got.get('unit')}"
        checked = skipped = 0
        # interpretations that are nonexpansive into the free algebra's space
        for ctx_space, lhs, rhs in axioms:
            points, ctx = ctx_space["carrier"], _rows(ctx_space, q)
            pairs = list(itertools.product(range(len(points)), repeat=2))
            for images in itertools.product(range(len(reps)), repeat=len(points)):
                if any(dist.get((nfs[images[i]], nfs[images[j]]), q) > ctx[i][j] for i, j in pairs):
                    continue
                sigma = {x: reps[c] for x, c in zip(points, images)}
                left, right = ref.substitute(lhs, sigma), ref.substitute(rhs, sigma)
                if max(ref.depth(left), ref.depth(right)) > bound:
                    skipped += 1
                else:
                    checked += 1
        want = {"checked": checked, "skipped_overflow": skipped, "failed": 0}
        if got_code != 0 or got.get("model_check") != want:
            return (f"expected exit 0 and model_check {want}, "
                    f"got exit {got_code} and {got.get('model_check')}")
        for key, value in (("depth", bound), ("grid", q)):
            if got.get(key) != value:
                return f"expected {key}={value}, got {got.get(key)}"
        return None
    return check


# --- models ------------------------------------------------------------------

def _algebra(obj: dict, q: int):
    """(dist_rows, tables) over point indices, as reference evaluates them."""
    index = {name: i for i, name in enumerate(obj["space"]["carrier"])}
    tables = {
        op: {tuple(index[a] for a in key.split(",")): index[v] for key, v in raw.items()}
        for op, raw in obj["ops"].items()
    }
    return _rows(obj["space"], q), tables


def _models(wl: Workload, root) -> dict:
    q = MODELS_Q
    ws = wl.workspaces["ws_uf"]
    ctx_space = ws["spaces"]["C5"]
    ctx, xs = _rows(ctx_space, q), ctx_space["carrier"]
    algebras = {name: _algebra(obj, q) for name, obj in ws["algebras"].items()}
    maps = {name: ref.nonexpansive_maps(ctx, alg[0]) for name, alg in algebras.items()}

    def holds(name, judgment) -> bool:
        lhs, rhs = ref.parse(judgment["lhs"]), ref.parse(judgment["rhs"])
        eps = _grid_value(judgment["eps"], q)
        return max(ref.side_distances(algebras[name], maps[name], xs, lhs, rhs)) <= eps

    theory = ws["theories"]["M"]
    is_model = {name: all(holds(name, j) for j in theory) for name in algebras}
    base = {"depth": ws["budgets"]["depth"], "grid": q, "skipped_overflow": 0}

    ws_u = wl.workspaces["ws_u"]
    gen_terms = ref.universe({"u": 1}, ws_u["spaces"]["G"]["carrier"], ws_u["budgets"]["depth"])
    out = {}
    for query in wl.queries:
        args = dict(zip(query.args[1::2], query.args[2::2]))
        if query.kind == "check-model":
            if is_model[args["--algebra"]]:
                out[query.qid] = _exact(0, {**base, "model": True})
            else:
                out[query.qid] = _verdict(1, "model", False)
        elif query.kind == "entail":
            j = json.loads(args["--judgment"])
            names = args["--catalog"].split(",")
            entailed = all(not is_model[n] or holds(n, j) for n in names)
            out[query.qid] = _exact(0 if entailed else 1,
                                    {**base, "catalog_size": len(names), "entailed": entailed})
        elif query.kind == "ump":
            # a positive epsilon merges nothing: one class per term of the universe
            target = ws_u["algebras"][args["--algebra"]]
            candidates = len(target["space"]["carrier"]) ** len(gen_terms)
            out[query.qid] = _exact(0, {**base, "candidates": candidates,
                                        "exists": True, "unique": True})
        else:
            out[query.qid] = _laws_pass({"round_trip": True})
    return out


def checks(wl: Workload, root) -> dict:
    """Query id -> check(exit_code, report) returning a mismatch or None."""
    return {"metric": _metric, "equational": _equational, "models": _models}[wl.name](wl, root)
