"""Command-line entry point: load a JSON workspace, dispatch, print JSON.

Exit codes: 0 = the queried property holds (derivable / model / laws pass),
1 = it does not, 2 = error (unresolved names, grid mismatches, budget).
Output is deterministic byte-for-byte for identical inputs: keys are sorted
and every numeric is an exact fraction string.
"""
from __future__ import annotations

import argparse
import json
import sys

from ._record import Record
from .deduce import derives, distance, saturate, trace
from .errors import QeqlogError
from .free import OVERFLOW, build_free, check_free_is_model, check_ump
from .gmet import EpsGrid, FuzzySpace, GMetSpec
from .monad import MonadInstance, check_monad_laws, em_from_model, model_from_em
from .qalg import Judgment, QuantAlgebra, Theory, entails_catalog, first_failure
from .terms import Signature, check_carrier, parse_term, whole


class Workspace(Record):
    grid: EpsGrid
    sig: Signature
    spec: GMetSpec
    spaces: dict[str, FuzzySpace]
    theories: dict[str, Theory]
    algebras: dict[str, QuantAlgebra]
    depth: int = 3
    budget_interps: int | None = None
    budget_instances: int | None = None

    @classmethod
    def from_json(cls, obj) -> "Workspace":
        grid = EpsGrid(whole(obj.get("grid", 24), "grid"))
        sig = Signature.from_json(obj.get("signature", {"ops": {}}))
        spec = GMetSpec.from_json(obj.get("spec", {"preset": "MET"}))
        spaces = {str(k): FuzzySpace.from_json(v, grid) for k, v in obj.get("spaces", {}).items()}
        for space in spaces.values():
            check_carrier(sig, space.carrier)
        theories = {
            str(name): Theory(str(name), tuple(Judgment.from_json(j, sig, grid, spaces) for j in js))
            for name, js in obj.get("theories", {}).items()
        }
        algebras = {
            str(k): QuantAlgebra.from_json(v, sig, grid)
            for k, v in obj.get("algebras", {}).items()
        }
        budgets = obj.get("budgets", {})
        return cls(
            grid, sig, spec, spaces, theories, algebras,
            depth=whole(budgets.get("depth", 3), "budget 'depth'"),
            budget_interps=whole(budgets.get("interpretations"), "budget 'interpretations'"),
            budget_instances=whole(budgets.get("instances"), "budget 'instances'"),
        )


def load_workspace(path: str, overrides: argparse.Namespace) -> Workspace:
    """The workspace in a JSON file; JSON of the wrong shape is a QeqlogError."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        if overrides.grid is not None:
            obj["grid"] = overrides.grid
        budgets = obj.setdefault("budgets", {})
        for key, value in (("depth", overrides.depth),
                           ("interpretations", overrides.budget_interps),
                           ("instances", overrides.budget_instances)):
            if value is not None:
                budgets[key] = value
        return Workspace.from_json(obj)
    except (TypeError, AttributeError) as exc:
        raise QeqlogError(f"malformed workspace: {exc}") from None


def _named(kind: str, table: dict, name: str):
    if name not in table:
        raise QeqlogError(f"unknown {kind} {name!r}")
    return table[name]


def _judgment(ws: Workspace, raw: str) -> Judgment:
    """A judgment given inline as JSON or as the path of a JSON file."""
    if raw.lstrip().startswith("{"):
        obj = json.loads(raw)
    else:
        with open(raw, encoding="utf-8") as fh:
            obj = json.load(fh)
    try:
        return Judgment.from_json(obj, ws.sig, ws.grid, ws.spaces)
    except (TypeError, AttributeError) as exc:
        raise QeqlogError(f"malformed judgment: {exc}") from None


def _emit(report: dict, code: int) -> int:
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


def _base_report(ws: Workspace, **extra) -> dict:
    out = {"grid": ws.grid.q, "depth": ws.depth, "skipped_overflow": 0}
    out.update(extra)
    return out


def _laws_report(ws: Workspace, reports, **extra) -> dict:
    out = _base_report(ws, laws=[r.to_json() for r in reports], **extra)
    out["skipped_overflow"] = sum(r.skipped_overflow for r in reports)
    return out


def cmd_check_model(ws: Workspace, args) -> int:
    alg = _named("algebra", ws.algebras, args.algebra)
    theory = _named("theory", ws.theories, args.theory)
    failure = first_failure(alg, ws.spec, theory, ws.budget_interps)
    if failure is not None:
        j, tau = failure
        report = _base_report(
            ws, model=False,
            counterexample={"judgment": j.describe(), "interpretation": tau},
        )
        return _emit(report, 1)
    return _emit(_base_report(ws, model=True), 0)


def cmd_derive(ws: Workspace, args) -> int:
    theory = _named("theory", ws.theories, args.theory)
    target = _named("space", ws.spaces, args.target)
    j = _judgment(ws, args.judgment)
    db = saturate(ws.sig, theory, ws.spec, target, ws.depth, ws.budget_instances)
    ok = derives(db, j)
    report = _base_report(
        ws,
        derivable=ok,
        distance=str(distance(db, j.lhs, j.rhs)),
    )
    if args.trace and ok:
        report["trace"] = [trace(db, j).to_json()]
    return _emit(report, 0 if ok else 1)


def cmd_distance(ws: Workspace, args) -> int:
    theory = _named("theory", ws.theories, args.theory)
    target = _named("space", ws.spaces, args.target)
    lhs = parse_term(args.lhs, ws.sig, target.carrier)
    rhs = parse_term(args.rhs, ws.sig, target.carrier)
    db = saturate(ws.sig, theory, ws.spec, target, ws.depth, ws.budget_instances)
    report = _base_report(ws, distance=str(distance(db, lhs, rhs)))
    return _emit(report, 0)


def cmd_free(ws: Workspace, args) -> int:
    theory = _named("theory", ws.theories, args.theory)
    space = _named("space", ws.spaces, args.space)
    fa = build_free(ws.sig, theory, ws.spec, space, ws.depth, ws.budget_instances)
    names = fa.space.carrier
    ops = {}
    overflow_count = 0
    for op, table in sorted(fa.optable.items()):
        entry = {}
        for argtuple, res in sorted(table.items()):
            key = ",".join([names[a] for a in argtuple])
            if res is OVERFLOW:
                entry[key] = "overflow"
                overflow_count += 1
            else:
                entry[key] = names[res]
        ops[op] = entry
    model_report = check_free_is_model(fa, theory, ws.spec, ws.budget_interps)
    labels = [ws.grid.format(v) for v in ws.grid.values()]
    report = _base_report(
        ws,
        classes=list(names),
        delta=[[labels[v] for v in row] for row in fa.delta],
        ops=ops,
        unit={a: names[c] for a, c in sorted(fa.unit.items())},
        model_check={
            "checked": model_report.checked,
            "skipped_overflow": model_report.skipped_overflow,
            "failed": model_report.failed,
        },
    )
    report["skipped_overflow"] = overflow_count
    return _emit(report, 0 if model_report.failed == 0 else 1)


def cmd_entail(ws: Workspace, args) -> int:
    theory = _named("theory", ws.theories, args.theory)
    j = _judgment(ws, args.judgment)
    catalog = [_named("algebra", ws.algebras, name) for name in args.catalog.split(",") if name]
    ok = entails_catalog(catalog, ws.spec, theory, j, ws.budget_interps)
    report = _base_report(ws, entailed=ok, catalog_size=len(catalog))
    return _emit(report, 0 if ok else 1)


def cmd_monad_laws(ws: Workspace, args) -> int:
    theory = _named("theory", ws.theories, args.theory)
    space = _named("space", ws.spaces, args.space)
    mi = MonadInstance(ws.sig, theory, ws.spec, ws.depth, ws.budget_instances)
    reports = check_monad_laws(mi, space)
    ok = all(r.failed == 0 for r in reports)
    return _emit(_laws_report(ws, reports), 0 if ok else 1)


def cmd_ump(ws: Workspace, args) -> int:
    theory = _named("theory", ws.theories, args.theory)
    space = _named("space", ws.spaces, args.space)
    alg = _named("algebra", ws.algebras, args.algebra)
    gen_map = json.loads(args.map)
    fa = build_free(ws.sig, theory, ws.spec, space, ws.depth, ws.budget_instances)
    res = check_ump(fa, alg, gen_map, ws.budget_interps)
    report = _base_report(
        ws, exists=res.exists, unique=res.unique, candidates=res.candidates
    )
    return _emit(report, 0 if res.exists and res.unique else 1)


def cmd_em_check(ws: Workspace, args) -> int:
    theory = _named("theory", ws.theories, args.theory)
    alg = _named("algebra", ws.algebras, args.algebra)
    mi = MonadInstance(ws.sig, theory, ws.spec, ws.depth, ws.budget_instances)
    rebuilt, reports = model_from_em(mi, em_from_model(mi, alg))
    round_trip = rebuilt.ops == alg.ops
    ok = round_trip and all(r.failed == 0 for r in reports)
    return _emit(_laws_report(ws, reports, round_trip=round_trip), 0 if ok else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeqlog",
        description="Deduction, model checking and free algebras for "
        "quantitative equational theories over generalized metric spaces.",
    )
    parser.add_argument("--workspace", required=True, help="workspace JSON file")
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--budget-interps", type=int, default=None, dest="budget_interps")
    parser.add_argument("--budget-instances", type=int, default=None, dest="budget_instances")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-model", help="does an algebra model a theory")
    p.add_argument("--algebra", required=True)
    p.add_argument("--theory", required=True)
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("derive", help="is a judgment derivable at this depth")
    p.add_argument("--theory", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--judgment", required=True, help="inline JSON or a file path")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("distance", help="minimal derived distance of two terms")
    p.add_argument("--theory", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("free", help="build the free algebra over a space")
    p.add_argument("--theory", required=True)
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("entail", help="catalog-restricted entailment check")
    p.add_argument("--theory", required=True)
    p.add_argument("--judgment", required=True)
    p.add_argument("--catalog", required=True, help="comma-separated algebra names")
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("monad-laws", help="check unit and associativity laws")
    p.add_argument("--theory", required=True)
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_monad_laws)

    p = sub.add_parser("ump", help="existence/uniqueness of the extension")
    p.add_argument("--theory", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--map", required=True, help="generator map as JSON")
    p.set_defaults(func=cmd_ump)

    p = sub.add_parser("em-check", help="structure-map laws and round trip")
    p.add_argument("--theory", required=True)
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_em_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ws = load_workspace(args.workspace, args)
        return args.func(ws, args)
    except (QeqlogError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
