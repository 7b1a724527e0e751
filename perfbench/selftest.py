#!/usr/bin/env python3
"""Self-test of the tracing: counters repeat and span times add up.

Usage, from the repository root: python3 perfbench/selftest.py

Runs a tiny workload (every CLI subcommand on a 2-point space at depth 2,
under a second each) once untraced and twice traced. It fails, with exit
code 1, when a report differs between the three passes, when a counter
differs between the two traced passes, or when a query's per-layer self
times plus its start-up time do not add up to its traced wall time (the
check in ``run.account``, which every traced run also makes).
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

import run
from workloads import Query, Workload

PQ = {"carrier": ["p", "q"], "dist": [["0", "1/2"], ["1/2", "0"]]}
TINY = {
    "grid": 4,
    "signature": {"ops": {"u": 1}},
    "spec": {"preset": "MET"},
    "budgets": {"depth": 2, "interpretations": 100000, "instances": 1000000},
    "spaces": {
        "AB": {"carrier": ["a", "b"], "dist": [["0", "1/2"], ["1/2", "0"]]},
        "X0": {"carrier": ["x"], "dist": [["0"]]},
    },
    "theories": {"QUARTER": [{"context": "X0", "lhs": "u(x)", "rhs": "x", "eps": "1/4"}]},
    "algebras": {
        "stay": {"space": PQ, "ops": {"u": {"p": "p", "q": "q"}}},
        "swap": {"space": PQ, "ops": {"u": {"p": "q", "q": "p"}}},
    },
}
QUARTER = ["--theory", "QUARTER"]
JUDGMENT = json.dumps({"context": "AB", "lhs": "u(a)", "rhs": "b", "eps": "3/4"})
QUERIES = [
    ["distance", *QUARTER, "--target", "AB", "--lhs", "u(a)", "--rhs", "b"],
    ["derive", *QUARTER, "--target", "AB", "--judgment", JUDGMENT, "--trace"],
    ["free", *QUARTER, "--space", "AB"],
    ["check-model", *QUARTER, "--algebra", "stay"],
    ["entail", *QUARTER, "--judgment", JUDGMENT, "--catalog", "stay,swap"],
    ["ump", *QUARTER, "--space", "AB", "--algebra", "stay", "--map", '{"a": "p", "b": "q"}'],
    ["em-check", *QUARTER, "--algebra", "stay"],
    ["monad-laws", *QUARTER, "--space", "AB"],
]


def no_error(code: int, report: dict) -> str | None:
    return None if code in (0, 1) else f"exit {code}"


def main() -> int:
    if not run.in_checkout():
        return 2
    wl = Workload("selftest", 0, {"tiny": TINY},
                  [Query(args[0], args[0], "tiny", args) for args in QUERIES])
    workdir = run.OUT / "selftest"
    wl.write(workdir)
    launcher = run.Launcher()
    try:
        bench = run.Bench(wl, workdir, {q.qid: no_error for q in wl.queries}, launcher,
                          perf_counter())
        passes = [bench.run_pass(traced=False), bench.run_pass(True), bench.run_pass(True)]
        for p in passes:
            bench.check_pass(p)
    finally:
        launcher.close()
    problems = [f"{r.qid}: {r.error}" for p in passes for r in p.results if r.error]
    if not problems:
        first, second = (run.layer_metrics(p)[1] for p in passes[1:])
        problems += [f"counter {k}: {first[k]} then {second[k]}"
                     for k in first if first[k] != second[k]]
    for problem in problems:
        print(f"FAILED {problem}")
    print("self-test", "failed" if problems else "passed", f"({len(QUERIES)} queries, 3 passes)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
