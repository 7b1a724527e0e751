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
    obj = _read_json(path, "workspace", inline=False)
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


def _read_json(source: str, what: str, inline: bool):
    """The JSON value of ``source``, the text itself if ``inline``, else the
    file at that path. JSON nested past the decoder's recursion limit is a
    QeqlogError, not a traceback."""
    try:
        if inline:
            return json.loads(source)
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise QeqlogError(f"{what} JSON is nested too deeply") from None


def _named(kind: str, table: dict, name: str):
    if name not in table:
        raise QeqlogError(f"unknown {kind} {name!r}")
    return table[name]


def _judgment(ws: Workspace, raw: str) -> Judgment:
    """A judgment given inline as JSON or as the path of a JSON file."""
    obj = _read_json(raw, "judgment", inline=raw.lstrip().startswith("{"))
    try:
        return Judgment.from_json(obj, ws.sig, ws.grid, ws.spaces)
    except (TypeError, AttributeError) as exc:
        raise QeqlogError(f"malformed judgment: {exc}") from None


def _report(ws: Workspace, laws=(), **fields) -> dict:
    """The shared fields, the law reports with their overflow skips summed, then ``fields``."""
    out = {"grid": ws.grid.q, "depth": ws.depth,
           "skipped_overflow": sum(r.skipped_overflow for r in laws)}
    if laws:
        out["laws"] = [r.to_json() for r in laws]
    out.update(fields)
    return out


def cmd_check_model(ws: Workspace, args) -> tuple[dict, bool]:
    failure = first_failure(args.algebra, ws.spec, args.theory, ws.budget_interps)
    if failure is None:
        return _report(ws, model=True), True
    j, tau = failure
    return _report(ws, model=False,
                   counterexample={"judgment": j.describe(), "interpretation": tau}), False


def cmd_derive(ws: Workspace, args) -> tuple[dict, bool]:
    j = _judgment(ws, args.judgment)
    db = saturate(ws.sig, args.theory, ws.spec, args.target, ws.depth, ws.budget_instances)
    ok = derives(db, j)
    report = _report(ws, derivable=ok, distance=str(distance(db, j.lhs, j.rhs)))
    if args.trace and ok:
        report["trace"] = [trace(db, j).to_json()]
    return report, ok


def cmd_distance(ws: Workspace, args) -> tuple[dict, bool]:
    lhs = parse_term(args.lhs, ws.sig, args.target.carrier)
    rhs = parse_term(args.rhs, ws.sig, args.target.carrier)
    db = saturate(ws.sig, args.theory, ws.spec, args.target, ws.depth, ws.budget_instances)
    return _report(ws, distance=str(distance(db, lhs, rhs))), True


def cmd_free(ws: Workspace, args) -> tuple[dict, bool]:
    fa = build_free(ws.sig, args.theory, ws.spec, args.space, ws.depth, ws.budget_instances)
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
    model_report = check_free_is_model(fa, args.theory, ws.spec, ws.budget_interps)
    labels = [ws.grid.format(v) for v in ws.grid.values()]
    report = _report(
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
        skipped_overflow=overflow_count,
    )
    return report, model_report.failed == 0


def cmd_entail(ws: Workspace, args) -> tuple[dict, bool]:
    j = _judgment(ws, args.judgment)
    catalog = [_named("algebra", ws.algebras, name) for name in args.catalog.split(",") if name]
    ok = entails_catalog(catalog, ws.spec, args.theory, j, ws.budget_interps)
    return _report(ws, entailed=ok, catalog_size=len(catalog)), ok


def cmd_monad_laws(ws: Workspace, args) -> tuple[dict, bool]:
    mi = MonadInstance(ws.sig, args.theory, ws.spec, ws.depth, ws.budget_instances)
    reports = check_monad_laws(mi, args.space)
    return _report(ws, reports), all(r.failed == 0 for r in reports)


def cmd_ump(ws: Workspace, args) -> tuple[dict, bool]:
    gen_map = _read_json(args.map, "generator map", inline=True)
    fa = build_free(ws.sig, args.theory, ws.spec, args.space, ws.depth, ws.budget_instances)
    res = check_ump(fa, args.algebra, gen_map, ws.budget_interps)
    report = _report(ws, exists=res.exists, unique=res.unique, candidates=res.candidates)
    return report, res.exists and res.unique


def cmd_em_check(ws: Workspace, args) -> tuple[dict, bool]:
    mi = MonadInstance(ws.sig, args.theory, ws.spec, ws.depth, ws.budget_instances)
    rebuilt, reports = model_from_em(mi, em_from_model(mi, args.algebra))
    round_trip = rebuilt.ops == args.algebra.ops
    ok = round_trip and all(r.failed == 0 for r in reports)
    return _report(ws, reports, round_trip=round_trip), ok


# Each subcommand: its name, handler, help line and options. The options that
# name a workspace entry are looked up in the order listed, and the first
# unknown name is the error; the handler gets the entries in their place and
# returns (report, whether the queried property holds).
COMMANDS = (
    ("check-model", cmd_check_model, "does an algebra model a theory", "algebra theory"),
    ("derive", cmd_derive, "is a judgment derivable at this depth", "theory target judgment trace"),
    ("distance", cmd_distance, "minimal derived distance of two terms", "theory target lhs rhs"),
    ("free", cmd_free, "build the free algebra over a space", "theory space"),
    ("entail", cmd_entail, "catalog-restricted entailment check", "theory judgment catalog"),
    ("monad-laws", cmd_monad_laws, "check unit and associativity laws", "theory space"),
    ("ump", cmd_ump, "existence/uniqueness of the extension", "theory space algebra map"),
    ("em-check", cmd_em_check, "structure-map laws and round trip", "theory algebra"),
)

# option -> (the workspace table it names an entry of, the kind of entry)
NAMED = {"theory": ("theories", "theory"), "target": ("spaces", "space"),
         "space": ("spaces", "space"), "algebra": ("algebras", "algebra")}
# --trace is the one switch; every other option is required
HELP = {"judgment": "inline JSON or a file path", "catalog": "comma-separated algebra names",
        "map": "generator map as JSON"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeqlog",
        description="Deduction, model checking and free algebras for "
        "quantitative equational theories over generalized metric spaces.",
    )
    parser.add_argument("--workspace", required=True, help="workspace JSON file")
    for flag in ("--depth", "--grid", "--budget-interps", "--budget-instances"):
        parser.add_argument(flag, type=int)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_line, options in COMMANDS:
        p = sub.add_parser(name, help=help_line)
        for option in options.split():
            if option == "trace":
                p.add_argument("--trace", action="store_true")
            else:
                p.add_argument(f"--{option}", required=True, help=HELP.get(option))
        p.set_defaults(func=handler, named=[o for o in options.split() if o in NAMED])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ws = load_workspace(args.workspace, args)
        for option in args.named:
            table, kind = NAMED[option]
            setattr(args, option, _named(kind, getattr(ws, table), getattr(args, option)))
        report, holds = args.func(ws, args)
        print(json.dumps(report, sort_keys=True, indent=2))
    except (QeqlogError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
