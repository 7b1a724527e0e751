#!/usr/bin/env python3
"""Digests of the engine's saturations over seeded random draws.

Usage, from the repository root:

    PYTHONPATH=src python tests/saturation_digest.py --seeds 3000 \\
        [--first 0] [--save FILE] [--against FILE]

Draw ``s`` is ``random.Random(s)`` put through the generators of
``test_horn_delta``: a spec, a signature, a grid, a target space and up to
two axioms, kept to universes of at most 300 terms. Each draw is saturated at
an instance budget of 50, of 500 and of ``BUDGET_INSTANCES``. The script
prints two sha256 digests over all of them: one of each outcome (the events,
``dmin`` and union-find, or the error's type and message) and one of each
instance count. A change that keeps every derivation keeps the first; the
second moves when a change counts instances differently.

``--save`` writes each saturation's outcome digest and instance count to a
JSON file, and ``--against`` lists the saturations whose outcome or count
differs from such a file, so that two source trees can be compared draw by
draw. The script is not collected by pytest and needs only the standard
library and the modules of ``tests/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import sys

from qeqlog.deduce import BUDGET_INSTANCES, saturate
from qeqlog.errors import QeqlogError
from qeqlog.gmet import EpsGrid

# the script's own directory is first on sys.path, so the test modules import
from test_deduce import _universe_size
from test_horn_delta import NAMED, SIGS, _naive_cost, _near, _space, _theory

BUDGETS = (50, 500, BUDGET_INSTANCES)


def draw(seed: int) -> tuple:
    """The arguments of ``saturate`` for draw ``seed``: parameters are drawn
    until the universe has at most 300 terms and the naive loop's cost per
    round is at most 30,000 tuples, as in ``test_horn_delta``."""
    rng = random.Random(seed)
    while True:
        spec_name = rng.choice(sorted(NAMED) + ["near"])
        sig, q = rng.choice(SIGS), rng.randint(2, 4)
        size, depth, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        spec = _near(min(k, q), q) if spec_name == "near" else NAMED[spec_name]
        if _universe_size(sig, size, depth) <= 300 and _naive_cost(spec, sig, size, depth) <= 30_000:
            break
    grid = EpsGrid(q)
    target = _space(rng, grid, size, spec)
    return sig, _theory(rng, sig, grid, spec, points=3), spec, target, depth


def outcome(args: tuple, budget: int) -> tuple[str, int | None]:
    """The sha256 of a saturation's events, ``dmin`` and union-find, or of
    its error, and its instance count (None for an error)."""
    try:
        db = saturate(*args, budget=budget)
    except QeqlogError as exc:
        text, instances = repr((type(exc).__name__, str(exc))), None
    else:
        text, instances = repr((db.events, sorted(db.dmin.items()), db._parent)), db.instances
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), instances


def run(seeds) -> dict[str, list]:
    """Per saturation, keyed ``seed:budget``, its outcome digest and count."""
    return {f"{seed}:{budget}": list(outcome(args, budget))
            for seed in seeds for args in (draw(seed),) for budget in BUDGETS}


def digests(results: dict[str, list]) -> tuple[str, str]:
    """The digest of every outcome and the digest of every count, in order."""
    outcomes, counts = hashlib.sha256(), hashlib.sha256()
    for key, (digest, instances) in results.items():
        outcomes.update(f"{key} {digest}\n".encode())
        counts.update(f"{key} {instances}\n".encode())
    return outcomes.hexdigest(), counts.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="how many draws (default 100)")
    parser.add_argument("--first", type=int, default=0, help="the first seed (default 0)")
    parser.add_argument("--save", help="write each saturation's digest and count to this file")
    parser.add_argument("--against", help="list the saturations that differ from this file")
    args = parser.parse_args(argv)
    results = run(range(args.first, args.first + args.seeds))
    outcomes, counts = digests(results)
    print(f"{args.seeds} draws, {len(results)} saturations")
    print(f"outcomes  {outcomes}")
    print(f"instances {counts}")
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(results, indent=0) + "\n", encoding="utf-8")
    if args.against:
        saved = json.loads(pathlib.Path(args.against).read_text(encoding="utf-8"))
        for key, (digest, instances) in results.items():
            if key not in saved:
                print(f"{key}: not in {args.against}")
            elif saved[key] != [digest, instances]:
                old_digest, old_instances = saved[key]
                what = " and ".join(name for name, differs in (("outcome", old_digest != digest),
                                                              ("instances", old_instances != instances))
                                    if differs)
                print(f"{key}: differs in {what}, instances {old_instances} -> {instances}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
