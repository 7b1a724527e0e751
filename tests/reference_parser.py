"""The command line read by ``argparse``, kept as the reference for ``cli.parse_args``.

``build_parser`` is the parser that ``qeqlog.cli`` used before it read argv
itself, unchanged. It builds one ``argparse`` sub-parser per entry of the
same ``COMMANDS``, ``NAMED`` and ``HELP`` tables, so a difference between the
two on one argv is a difference of the reading, not of the tables.
"""
from __future__ import annotations

import argparse

from qeqlog.cli import COMMANDS, HELP, NAMED


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
