#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the qeqlog CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload {metric,equational,models} \\
        --seed N --seconds S --trace {0,1}

One client in a closed loop: each query of the workload runs as a fresh
``python -m qeqlog.cli`` child, one at a time, because every CLI call pays
its own imports and cache fills. A pass runs the workload's fixed query list
once; a run makes ceil(S / 10) passes, at least 2. Every report is
checked against a known answer computed outside the program (``answers.py``)
and must be byte-identical across passes and across runs of the same seed and
source tree.

Every time the benchmark reports is scaled to a host of fixed speed: just
before and after each child, ``launcher.py`` times a fixed loop, and the
child's times are multiplied by ``REFERENCE_CAL_S`` over the loops' mean
time. Wall times are scaled by the loops' wall times, CPU times by their CPU
times. The raw times are printed too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one untraced
pass, then as many passes under ``tracer.py`` as an untraced run makes, and
prints the per-layer metrics; their counters must repeat exactly. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. The exit code is 0
when every report matched its known answer, 1 when one did not, and 2 when the
benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import answers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 11
# The calibration loop's time on a 2-vCPU x86-64 VM in a quiet spell: scaled
# times read as seconds on a host that runs the loop in exactly this time.
REFERENCE_CAL_S = 0.025
# A pass of each workload takes 9-17 s on a 2-core x86-64 VM at the commit
# that introduced the benchmark. A run makes ceil(S / PASS_S) passes, at
# least 2, so that every commit gets the same number of samples.
PASS_S = 10.0
QUERY_TIMEOUT_S = 30.0  # about 6x the slowest query
DEADLINE_S = 150.0  # after this, queries not yet started count as failed

SETUP_CODE = (
    "import argparse, sys\n"
    "from qeqlog.cli import load_workspace\n"
    "ns = argparse.Namespace(grid=None, depth=None, budget_interps=None, budget_instances=None)\n"
    "for path in sys.argv[1:]:\n"
    "    load_workspace(path, ns)\n"
)

# Per-layer metrics in the final JSON line. Times of layers that some
# workload never enters (and that would read 0 there) are printed above it.
LAYER_METRICS = {
    "cli.startup_s": "s",
    "cli.load_workspace.s": "s",
    "cli.self_s": "s",
    "deduce.saturate.self_s": "s",
    "terms.enumerate_universe.s": "s",
    "gmet.check_space.s": "s",
    "free.build_free.self_s": "s",
    "trace.run_s": "s",
    "deduce.instances": "count",
    "deduce.events": "count",
    "deduce.fired_ratio": "ratio",
    "deduce.universe_terms": "count",
    "deduce.classes": "count",
    "terms.universe_terms": "count",
    "gmet.check_space.calls": "count",
    "gmet.check_space.instances": "count",
    "gmet.enumerate_nonexpansive.candidates": "count",
    "gmet.enumerate_nonexpansive.maps": "count",
    "gmet.enumerate_nonexpansive.hit_ratio": "ratio",
    "qalg.satisfies.calls": "count",
    "free.build_free.optable_entries": "count",
    "free.build_free.overflow_entries": "count",
    "free.check_free_is_model.checked": "count",
    "free.check_free_is_model.skipped_overflow": "count",
    "free.check_ump.candidates": "count",
    "monad.free_builds": "count",
    "monad.law_checked": "count",
    "monad.law_skipped_overflow": "count",
}
PRINTED_LAYER_TIMES = (
    "deduce.trace.s",
    "gmet.enumerate_nonexpansive.s",
    "qalg.satisfies.self_s",
    "qalg.entails_catalog.self_s",
    "free.check_free_is_model.self_s",
    "free.check_ump.self_s",
    "monad.check_monad_laws.self_s",
    "monad.em_from_model.self_s",
    "monad.check_em_laws.self_s",
    "monad.model_from_em.self_s",
)


@dataclass
class Result:
    qid: str
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    cal_wall: float = 0.0  # the calibration loops run next to this query
    cal_cpu: float = 0.0
    stdout: bytes = b""
    code: int | None = None
    error: str | None = None
    spans_path: Path | None = None  # set for a traced query
    trace: dict | None = None  # the spans file's contents, once checked

    @property
    def scale(self) -> float:
        """Factor that brings this query's wall times to the reference host (1 if not run)."""
        return REFERENCE_CAL_S / self.cal_wall if self.cal_wall else 1.0

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale

    @property
    def scaled_cpu(self) -> float:
        return self.cpu * REFERENCE_CAL_S / self.cal_cpu if self.cal_cpu else self.cpu


@dataclass
class Pass:
    traced: bool
    results: list[Result] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Raw wall time of the pass's queries."""
        return sum(r.wall for r in self.results)

    @property
    def scaled_wall(self) -> float:
        return sum(r.scaled_wall for r in self.results)


def child_env() -> dict:
    env = dict(os.environ)
    # Children cache their bytecode, as an installed package does, whatever
    # the caller's setting: the first set-up run writes src/**/__pycache__.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs each child through launcher.py, which says why it exists."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(LAUNCHER)], cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv: list[str], stdout_path: Path, timeout: float) -> dict:
        """The launcher's reply: wall, cpu, rss_kb, code, cal_wall, cal_cpu."""
        request = {
            "argv": argv,
            "stdout": str(stdout_path),
            "stderr": str(stdout_path.with_suffix(".err")),
            "cwd": str(ROOT),
            "env": child_env(),
            "timeout": timeout,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Bench:
    def __init__(self, wl: workloads.Workload, workdir: Path, checks: dict, launcher: Launcher,
                 t0: float):
        self.wl = wl
        self.launcher = launcher
        self.workdir = workdir
        self.checks = checks
        self.t0 = t0
        self.first_stdout: dict[str, bytes] = {}
        self.traced_queries = 0

    def setup_time(self) -> tuple[float, float]:
        """Wall time of one set-up run, raw and scaled."""
        paths = [str(self.workdir / f"{name}.json") for name in self.wl.workspaces]
        reply = self.launcher.run([sys.executable, "-c", SETUP_CODE, *paths],
                                  self.workdir / "setup.out", QUERY_TIMEOUT_S)
        if reply["code"] != 0:
            raise RuntimeError("loading the workspaces failed: "
                               + (self.workdir / "setup.err").read_text())
        return reply["wall"], reply["wall"] * REFERENCE_CAL_S / reply["cal_wall"]

    def run_pass(self, traced: bool) -> Pass:
        """Run every query once, one child at a time; checking comes later."""
        p = Pass(traced)
        for query in self.wl.queries:
            p.results.append(self.run_query(query, traced))
        return p

    def run_query(self, query: workloads.Query, traced: bool) -> Result:
        res = Result(query.qid)
        left = DEADLINE_S - (perf_counter() - self.t0)
        if left <= 0:
            res.error = "not started: the run passed its deadline"
            return res
        cli_args = ["--workspace", str(self.workdir / f"{query.ws}.json"), *query.args]
        if traced:
            self.traced_queries += 1
            res.spans_path = self.workdir / f"{query.qid}.{self.traced_queries}.spans.json"
            argv = [sys.executable, str(TRACER), str(res.spans_path), query.qid, "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "qeqlog.cli", *cli_args]
        stdout_path = self.workdir / f"{query.qid}.out"
        timeout = min(QUERY_TIMEOUT_S, left)
        reply = self.launcher.run(argv, stdout_path, timeout)
        res.wall, res.cpu, res.rss_kb, res.code = (reply[k] for k in ("wall", "cpu", "rss_kb", "code"))
        res.cal_wall, res.cal_cpu = reply["cal_wall"], reply["cal_cpu"]
        res.stdout = stdout_path.read_bytes()
        if res.code is None:
            res.error = f"timed out after {timeout:.0f} s"
        elif res.code == 2 or not res.stdout:
            err = stdout_path.with_suffix(".err").read_text(errors="replace")
            res.error = f"exit {res.code}; stderr: {err.strip()[:300]}"
        return res

    def check_pass(self, p: Pass) -> None:
        """Set each result's error: known answer, byte-identity, span accounting."""
        for res in p.results:
            if res.error is None:
                res.error = self.check(res)

    def check(self, res: Result) -> str | None:
        try:
            report = json.loads(res.stdout)
        except ValueError:
            return f"exit {res.code}, no JSON report"
        error = self.checks[res.qid](res.code, report)
        if error:
            return error
        if self.first_stdout.setdefault(res.qid, res.stdout) != res.stdout:
            return "report differs from the first run of this query"
        if res.spans_path is not None:
            res.trace = json.loads(res.spans_path.read_text())
            return account(res)
        return None


def self_times(spans: list) -> dict[str, float]:
    """Span name -> summed self time: duration minus the children's durations.

    Spans nest (the CLI is single-threaded), so children never overlap.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        out[name] = out.get(name, 0.0) + t
    return out


def account(res: Result) -> str | None:
    """Self times plus start-up must add up to the query's wall time."""
    spans = res.trace["spans"]
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or roots[0][0] != "cli.main":
        return "trace does not have cli.main as its single root span"
    own = self_times(spans)
    startup = res.wall - (roots[0][2] - roots[0][1])
    total = sum(own.values()) + startup
    if min(own.values()) < -1e-6 or startup < 0 or abs(total - res.wall) > 1e-6:
        return f"span times do not add up: self {own}, start-up {startup}, wall {res.wall}"
    return None


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and which one.

    With fewer than 11 samples there is none; the maximum stands in."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def layer_metrics(p: Pass) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer times (scaled) and counters of one traced pass, summed over its queries."""
    times: dict[str, float] = {"cli.startup_s": 0.0, "trace.run_s": p.scaled_wall}
    counters: dict[str, float] = {k: 0 for k, unit in LAYER_METRICS.items() if unit == "count"}
    for res in p.results:
        spans = res.trace["spans"]
        root = next(s for s in spans if s[3] < 0)
        times["cli.startup_s"] += (res.wall - (root[2] - root[1])) * res.scale
        for name, t in self_times(spans).items():
            times[f"{name}.self_s"] = times.get(f"{name}.self_s", 0.0) + t * res.scale
        for name, value in res.trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    for name in ("cli.load_workspace", "terms.enumerate_universe", "deduce.trace",
                 "gmet.check_space", "gmet.enumerate_nonexpansive"):
        # leaves: self time is the whole span
        times[f"{name}.s"] = times.pop(f"{name}.self_s", 0.0)
    times["cli.self_s"] = times.pop("cli.main.self_s", 0.0)
    counters["deduce.fired_ratio"] = (
        counters["deduce.events"] / max(1, counters["deduce.instances"])
    )
    counters["gmet.enumerate_nonexpansive.hit_ratio"] = (
        counters["gmet.enumerate_nonexpansive.maps"]
        / max(1, counters["gmet.enumerate_nonexpansive.candidates"])
    )
    return times, counters


def inputs_digest(wl: workloads.Workload) -> str:
    """Digest of the program's source and of the workload's CLI inputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qeqlog").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    h.update(json.dumps([wl.workspaces, [q.args for q in wl.queries]], sort_keys=True).encode())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(wl: workloads.Workload, workdir: Path, stdout: dict[str, bytes],
                              ok: bool) -> str | None:
    """Reports must match those of earlier runs on the same source and inputs."""
    path = workdir / f"reports-{inputs_digest(wl)}.json"
    digests = {qid: hashlib.sha256(out).hexdigest() for qid, out in stdout.items()}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != digests:
            return f"reports differ from an earlier run of this seed ({path.name})"
    elif ok:
        path.write_text(json.dumps(digests, indent=1, sort_keys=True))
    return None


def in_checkout() -> bool:
    """Whether the program and its test oracle are here; says what is missing."""
    for needed in (SRC / "qeqlog" / "cli.py", ROOT / "tests" / "oracle.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a qeqlog source checkout",
                  file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t0 = perf_counter()
    if not in_checkout():
        return 2
    sys.path.insert(0, str(SRC))
    launcher = Launcher()  # before this process grows: see launcher.py
    try:
        return measure(args, launcher, t0)
    finally:
        launcher.close()


def measure(args, launcher: Launcher, t0: float) -> int:
    wl = workloads.build(args.workload, args.seed)
    workdir = OUT / f"{wl.name}-{wl.seed}"
    wl.write(workdir)
    checks = answers.checks(wl, ROOT)
    bench = Bench(wl, workdir, checks, launcher, t0)
    setups = [bench.setup_time() for _ in range(SETUP_REPS if not args.trace else 1)]

    passes = [bench.run_pass(traced=False)] if args.trace else []
    for _ in range(max(2, math.ceil(args.seconds / PASS_S))):
        passes.append(bench.run_pass(traced=bool(args.trace)))
    for p in passes:
        bench.check_pass(p)

    results = [r for p in passes for r in p.results]
    failures = [r for r in results if r.error]
    for r in failures:
        print(f"FAILED {r.qid}: {r.error}")
    problem = compare_with_earlier_runs(wl, workdir, bench.first_stdout, not failures)

    metrics: dict[str, dict] = {}
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    print(f"workload {wl.name}, seed {wl.seed}: {len(wl.queries)} queries per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print("pass wall times (s), raw/scaled:",
          " ".join(f"{p.wall:.3f}/{p.scaled_wall:.3f}{' traced' if p.traced else ''}"
                   for p in passes))
    print(f"set-up (s), raw/scaled: {statistics.median(raw for raw, _ in setups):.4f}/"
          f"{statistics.median(scaled for _, scaled in setups):.4f}")
    if not args.trace:
        walls = [r.scaled_wall for r in results]
        tail_value, tail_pct = tail(walls)
        values = {
            "run_s": (statistics.median(p.scaled_wall for p in passes), "s"),
            "cpu_s": (statistics.median(sum(r.scaled_cpu for r in p.results)
                                        for p in passes), "s"),
            "verdict_p50_s": (statistics.median(walls), "s"),
            "verdict_tail_s": (tail_value, "s"),
            "peak_rss_mb": (max(r.rss_kb for r in results) / 1024, "MB"),
            "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        print(f"verdict_tail_s is the p{tail_pct:.0f} of {len(walls)} samples")
        print(f"failed_frac {len(failures) / len(results):.4f} ({len(failures)} of {len(results)})")
    elif not failures:
        per_pass = [layer_metrics(p) for p in traced]
        counters = per_pass[0][1]
        if any(c != counters for _, c in per_pass[1:]):
            problem = problem or "counters differ between traced passes"
        values = {name: statistics.median(t.get(name, 0.0) for t, _ in per_pass)
                  for name in (*LAYER_METRICS, *PRINTED_LAYER_TIMES) if name not in counters}
        values.update(counters)
        untraced_s = untraced[0].scaled_wall
        overhead = values["trace.run_s"] / untraced_s - 1
        for name in PRINTED_LAYER_TIMES:
            print(f"{name} {values[name]:.6f} s")
        print(f"tracing overhead {100 * overhead:+.1f}% of run_s "
              f"({values['trace.run_s']:.3f} s traced, {untraced_s:.3f} s untraced, scaled)")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    if problem:
        print(f"FAILED: {problem}")
    correct = not failures and problem is None
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures) or int(problem is not None),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
