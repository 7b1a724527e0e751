"""Command-line entry point: load a JSON workspace, dispatch, print JSON.

Exit codes: 0 = the queried property holds (derivable / model / laws pass),
1 = it does not, 2 = error (unresolved names, grid mismatches, budget).
Output is deterministic byte-for-byte for identical inputs: keys are sorted
and every numeric is an exact fraction string.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import sys
from types import SimpleNamespace

from ._record import Record
from .deduce import BUDGET_INSTANCES, derives, saturate, trace
from .errors import QeqlogError
from .free import OVERFLOW, build_free, check_free_is_model, check_ump
from .gmet import BUDGET_INTERPS, EpsGrid, FuzzySpace, GMetSpec
from .monad import MonadInstance, check_monad_laws, em_from_model, model_from_em
from .qalg import Judgment, QuantAlgebra, Theory, entails_catalog, first_failure
from .terms import Signature, check_carrier, clipped, number_text, parse_term, quoted, whole


class Workspace(Record):
    grid: EpsGrid
    sig: Signature
    spec: GMetSpec
    spaces: dict[str, FuzzySpace]
    theories: dict[str, Theory]
    algebras: dict[str, QuantAlgebra]
    depth: int = 3
    budget_interps: int = BUDGET_INTERPS
    budget_instances: int = BUDGET_INSTANCES
    # each key of a workspace's "budgets" -> the field it sets
    BUDGETS = {"depth": "depth", "interpretations": "budget_interps",
               "instances": "budget_instances"}

    @classmethod
    def from_json(cls, obj) -> "Workspace":
        def get(key: str, default):
            """``obj[key]``, or ``default`` where it is missing; null is refused,
            and so is a value other than an object where ``default`` is one."""
            if (value := obj.get(key, default)) is None:
                raise QeqlogError(f"malformed workspace: {quoted(key)} is null")
            if isinstance(default, dict) and not isinstance(value, dict):
                raise QeqlogError(f"malformed workspace: {quoted(key)} is not an object: {quoted(value)}")
            return value

        def read(kind: str, entries, build=lambda name, value: value) -> dict:
            """``build(name, value)`` of each (name, value) of ``entries``, by name,
            refusing an entry that is null or lacks a key by ``kind`` and name."""
            table = {}
            for name, value in entries:
                where = f"malformed workspace: {kind} {quoted(name)}"
                if value is None:
                    raise QeqlogError(f"{where} is null")
                try:
                    table[str(name)] = build(str(name), value)
                except KeyError as exc:
                    raise QeqlogError(f"{where}: {exc} is missing") from None
            return table

        grid = EpsGrid(whole(get("grid", 24), "grid"))
        sig = Signature.from_json(read("signature:", get("signature", {"ops": {}}).items()))
        spec = GMetSpec.from_json(read("spec:", get("spec", {"preset": "MET"}).items()))
        spaces = read("space", get("spaces", {}).items(), lambda name, v: FuzzySpace.from_json(
            read(f"space {quoted(name)}:", v.items()), grid))
        for space in spaces.values():
            check_carrier(sig, space.carrier)
        theories = read("theory", get("theories", {}).items(), lambda name, js: Theory(name, tuple(
            read(f"theory {quoted(name)}: judgment", enumerate(js),
                 lambda k, j: Judgment.from_json(j, sig, grid, spaces)).values())))
        algebras = read("algebra", get("algebras", {}).items(), lambda name, v: QuantAlgebra.from_json(
            read(f"algebra {quoted(name)}:", v.items()), sig, grid))
        # a budget that is missing or null takes its field's default
        budgets = get("budgets", {})
        given = {field: whole(budgets[key], f"budget {quoted(key)}")
                 for key, field in cls.BUDGETS.items() if budgets.get(key) is not None}
        return cls(grid, sig, spec, spaces, theories, algebras, **given)


def load_workspace(path: str, overrides) -> Workspace:
    """The workspace in a JSON file, with the ``grid`` and each budget field
    of ``overrides`` put in its place where they are not None (only into a
    ``budgets`` object); JSON of the wrong shape is a QeqlogError."""
    def build(obj) -> Workspace:
        if overrides.grid is not None:
            obj["grid"] = overrides.grid
        budgets = obj.setdefault("budgets", {})
        for key, field in Workspace.BUDGETS.items():
            if getattr(overrides, field) is not None and isinstance(budgets, dict):
                budgets[key] = getattr(overrides, field)
        return Workspace.from_json(obj)

    return _read_json(path, "workspace", inline=False, build=build)


def _read_json(source: str, what: str, inline: bool, build):
    """``build`` of the JSON value of ``source``: the text itself if
    ``inline``, else the file at that path. JSON nested too deeply, a number
    too long to read, and a TypeError, AttributeError or KeyError of
    ``build`` on a wrong shape or a missing key are each a QeqlogError."""
    def parse_int(text: str) -> int:
        return int(number_text(text, f"a number in the {what} JSON"))

    try:
        if inline:
            obj = json.loads(source, parse_int=parse_int)
        else:
            with open(source, encoding="utf-8") as fh:
                obj = json.load(fh, parse_int=parse_int)
    except RecursionError:
        raise QeqlogError(f"{what} JSON is nested too deeply") from None
    try:
        return build(obj)
    except (TypeError, AttributeError, KeyError) as exc:
        raise QeqlogError(f"malformed {what}: {exc}") from None


def _named(kind: str, table: dict, name: str):
    if name not in table:
        raise QeqlogError(f"unknown {kind} {quoted(name)}")
    return table[name]


def _judgment(ws: Workspace, raw: str) -> Judgment:
    """A judgment given inline as JSON or as the path of a JSON file."""
    return _read_json(raw, "judgment", inline=raw.lstrip().startswith("{"),
                      build=lambda obj: Judgment.from_json(obj, ws.sig, ws.grid, ws.spaces))


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
    report = _report(ws, derivable=ok, distance=_distance(db, j.lhs, j.rhs))
    if args.trace and ok:
        report["trace"] = [trace(db, j).to_json()]
    return report, ok


def cmd_distance(ws: Workspace, args) -> tuple[dict, bool]:
    lhs = parse_term(args.lhs, ws.sig, args.target.carrier)
    rhs = parse_term(args.rhs, ws.sig, args.target.carrier)
    db = saturate(ws.sig, args.theory, ws.spec, args.target, ws.depth, ws.budget_instances)
    return _report(ws, distance=_distance(db, lhs, rhs)), True


def _distance(db, s, t) -> str:
    """What ``str(distance(db, s, t))`` prints, read off the grid without ``Fraction``."""
    return db.grid.format(db.class_distance(db.index_of(s), db.index_of(t)))


def cmd_free(ws: Workspace, args) -> tuple[dict, bool]:
    fa = build_free(ws.sig, args.theory, ws.spec, args.space, ws.depth, ws.budget_instances)
    model_report = check_free_is_model(fa, args.theory, ws.spec, ws.budget_interps)
    names, optable, delta, unit = fa.space.carrier, fa.optable, fa.delta, fa.unit
    del fa  # the rest reads only these tables: the saturation is let go first
    # each table's values in product order, under keys built in that order;
    # the encoder sorts the keys
    label = dict(enumerate(names))
    label[OVERFLOW] = "overflow"
    ops = {}
    overflow_count = 0
    for op, table in optable.items():
        keys = map(",".join, itertools.product(names, repeat=table.arity))
        ops[op] = dict(zip(keys, map(label.__getitem__, table.values())))
        overflow_count += table.values().count(OVERFLOW)
    # only the values the table holds: the grid may have millions
    labels = {v: ws.grid.format(v) for v in set().union(*delta)}
    report = _report(
        ws,
        classes=list(names),
        delta=[[labels[v] for v in row] for row in delta],
        ops=ops,
        unit={a: names[c] for a, c in sorted(unit.items())},
        model_check={k: getattr(model_report, k) for k in ("checked", "skipped_overflow", "failed")},
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
    gen_map = _read_json(args.map, "generator map", inline=True, build=lambda obj: obj)
    fa = build_free(ws.sig, args.theory, ws.spec, args.space, ws.depth, ws.budget_instances)
    res = check_ump(fa, args.algebra, gen_map, ws.budget_interps)
    report = _report(ws, exists=res.exists, unique=res.unique, candidates=res.candidates)
    return report, res.exists and res.unique


def cmd_em_check(ws: Workspace, args) -> tuple[dict, bool]:
    mi = MonadInstance(ws.sig, args.theory, ws.spec, ws.depth, ws.budget_instances)
    rebuilt, reports = model_from_em(mi, em_from_model(mi, args.algebra, ws.budget_interps))
    round_trip = rebuilt.ops == args.algebra.ops
    # model_from_em has raised on any failed law
    return _report(ws, reports, round_trip=round_trip), round_trip


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
HELP = {"workspace": "workspace JSON file", "judgment": "inline JSON or a file path",
        "catalog": "comma-separated algebra names", "map": "generator map as JSON"}
# the options before the subcommand, each with how its value is read
GLOBALS = {"workspace": str, "depth": int, "grid": int, "budget-interps": int,
           "budget-instances": int}
DESCRIPTION = ("Deduction, model checking and free algebras for quantitative equational"
               " theories over generalized metric spaces.")
_COMMANDS = {command[0]: command for command in COMMANDS}
# compiled on first use: most command lines hold no token it is tried on
_NEGATIVE = r"-\d+$|-\d*\.\d+$"


class _Level:
    """The options before the subcommand, or those of one subcommand. Each
    option maps to how its value is read: ``str`` is required, ``int`` is
    optional, and None is a switch."""

    def __init__(self, prog: str, kinds: dict, about: str, commands: tuple = ()):
        self.prog, self.kinds, self.about, self.commands = prog, kinds, about, commands

    def usage(self) -> str:
        flags = [_flag(name, kind) if kind is str else f"[{_flag(name, kind)}]"
                 for name, kind in self.kinds.items()]
        tail = ["COMMAND ..."] if self.commands else []
        return " ".join([f"usage: {self.prog} [-h]", *flags, *tail])

    def help(self) -> str:
        options = [("-h, --help", "show this help and exit"),
                   *((_flag(name, kind), HELP.get(name, "")) for name, kind in self.kinds.items())]
        width = max(len(left) for left, _ in (*self.commands, *options)) + 2
        lines = [self.usage(), "", self.about]
        for title, rows in (("commands", self.commands), ("options", options)):
            if rows:
                lines += ["", f"{title}:", *(f"  {left:<{width}}{right}".rstrip()
                                             for left, right in rows)]
        return "\n".join(lines)

    def fail(self, message: str):
        print(self.usage(), f"{self.prog}: error: {clipped(message)}", sep="\n", file=sys.stderr)
        raise SystemExit(2)

    def options(self, token: str) -> list[str]:
        """The options a token that starts with "-" names: ``--name``,
        ``--name=value`` or a prefix of a name, and ``-h`` with anything
        after it. More than one is an ambiguous prefix."""
        names = ["help", *self.kinds]
        if token[1:2] != "-":
            return names[:1] if token[:2] == "-h" else []
        key = token[2:].partition("=")[0]
        return [key] if key in names else [name for name in names if name.startswith(key)]

    def is_value(self, token: str) -> bool:
        """Whether a token is a value, not an option: it does not start with
        "-", or it is "-", or it names no option and is a negative number or
        holds a space."""
        return token[:1] != "-" or token == "-" or not self.options(token) and (
            " " in token or re.match(_NEGATIVE, token) is not None)

    def read(self, argv: list[str], i: int) -> tuple[dict, int]:
        """The options in ``argv`` from index ``i`` up to the first value that
        no option takes (None where not given, False for a switch), and that
        value's index (``len(argv)`` if none).
        ``--name value`` and ``--name=value`` both give a value, a unique
        prefix names its option, and the last of repeated options wins.
        ``-h``/``--help`` prints this level's help and exits 0."""
        values = {name: False if kind is None else None for name, kind in self.kinds.items()}
        while i < len(argv) and not self.is_value(argv[i]):
            token = argv[i]
            i += 1
            hits = self.options(token)
            if len(hits) != 1:
                self.fail(f"ambiguous option {quoted(token)} could match --" + ", --".join(hits)
                          if hits else f"unrecognized option {quoted(token)}")
            name = hits[0]
            # what follows "=", or what follows -h
            _, eq, value = token.partition("=") if token[1] == "-" else ("", token[2:], "")
            kind = self.kinds.get(name)
            if kind is None:
                if eq:
                    self.fail(f"option --{name} takes no value")
                if name == "help":
                    print(self.help(), flush=True)
                    raise SystemExit(0)
                values[name] = True
                continue
            if not eq:
                if i == len(argv) or not self.is_value(argv[i]):
                    self.fail(f"option --{name} needs a value")
                value = argv[i]
                i += 1
            try:
                values[name] = kind(number_text(value, f"option --{name}") if kind is int else value)
            except ValueError:
                self.fail(f"option --{name} needs an integer, not {quoted(value)}")
        return values, i

    def require(self, values: dict):
        missing = [f"--{name}" for name, kind in self.kinds.items()
                   if kind is str and values[name] is None]
        if missing:
            self.fail("missing required option " + ", ".join(missing))


def _flag(name: str, kind) -> str:
    return f"--{name}" if kind is None else f"--{name} {'N' if kind is int else name.upper()}"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The global options, the subcommand and the subcommand's options of a
    command line, with ``func``, the subcommand's handler, and ``named``, its
    options that name a workspace entry. Global options come before the
    subcommand. A command line that cannot be read prints a usage line and
    an error to stderr and exits 2."""
    top = _Level("qeqlog", GLOBALS, DESCRIPTION,
                 tuple((name, about) for name, _, about, _ in COMMANDS))
    top_values, i = top.read(argv, 0)
    if i == len(argv):
        top.require(top_values)
        top.fail("missing subcommand, one of " + ", ".join(_COMMANDS))
    name = argv[i]
    if name not in _COMMANDS:
        top.fail(f"unknown subcommand {quoted(name)}, not one of " + ", ".join(_COMMANDS))
    _, handler, about, options = _COMMANDS[name]
    # --trace is the one switch; every other option is required
    sub = _Level(f"qeqlog {name}", {o: None if o == "trace" else str for o in options.split()},
                 about)
    sub_values, j = sub.read(argv, i + 1)
    if j < len(argv):
        sub.fail(f"unrecognized argument {quoted(argv[j])}")
    sub.require(sub_values)
    top.require(top_values)
    fields = {option.replace("-", "_"): value
              for option, value in {**top_values, **sub_values}.items()}
    return SimpleNamespace(**fields, command=name, func=handler,
                           named=[o for o in options.split() if o in NAMED])


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        ws = load_workspace(args.workspace, args)
        for option in args.named:
            table, kind = NAMED[option]
            setattr(args, option, _named(kind, getattr(ws, table), getattr(args, option)))
        report, holds = args.func(ws, args)
        # what print(json.dumps(report, sort_keys=True, indent=2)) prints, never
        # joined whole: 512 chunks a write, as an unbuffered write is a system call
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
        while batch := "".join(itertools.islice(chunks, 512)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
        # a report that cannot be written whole is an error here, not at exit
        sys.stdout.flush()
    except (QeqlogError, OSError, ValueError, KeyError) as exc:
        # stderr may be the stream that failed
        with contextlib.suppress(OSError):
            print(f"error: {clipped(str(exc))}", file=sys.stderr)
        return 2
    return 0 if holds else 1


def run() -> None:
    """The process entry point: ``main()`` on ``sys.argv``, then an exit
    with its code that skips the interpreter's teardown, once both streams
    are flushed; nothing in the package needs teardown. A flush that fails
    here repeats a failed write that ``main`` has already reported as exit
    2, so the exit code stays ``main``'s. ``--help`` and a usage error that
    are written, and an uncaught exception, leave through the normal exit."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
