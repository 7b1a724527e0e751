"""Run one qeqlog CLI query with spans around each layer's public functions.

Usage: python perfbench/tracer.py SPANS_JSON QUERY_ID -- <qeqlog CLI arguments>

The functions below are wrapped at every module attribute that refers to
them, which is where their callers look them up (``qeqlog.free.saturate``,
``qeqlog.qalg.enumerate_nonexpansive``, ...). Then ``qeqlog.cli.main`` runs
as the root span. Spans and counters stay in memory and are written to
SPANS_JSON at exit; the CLI's own output and exit code are unchanged.

Counters are read from the public results of the wrapped calls, after the
span closes, so their cost lands in the caller's self time. Per-term helpers
such as ``eval_term`` or ``find`` are not wrapped: a wrapper would dominate
their cost.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter


def _universe(c, args, result):
    c["terms.universe_terms"] += len(result)


def _saturate(c, args, db):
    c["deduce.instances"] += db.instances
    c["deduce.events"] += len(db.events)
    c["deduce.universe_terms"] += len(db.universe)
    c["deduce.classes"] += len(db.roots())


def _check_space(c, args, result):
    spec, sp = args[0], args[1]
    c["gmet.check_space.calls"] += 1
    c["gmet.check_space.instances"] += sum(
        (sp.grid.q + 1) ** len(clause.param_names()) * len(sp.carrier) ** len(clause.vars)
        for clause in spec.clauses
    )


def _nonexpansive(c, args, result):
    src, dst = args[0], args[1]
    c["gmet.enumerate_nonexpansive.candidates"] += len(dst.carrier) ** len(src.carrier)
    c["gmet.enumerate_nonexpansive.maps"] += len(result)


def _satisfies(c, args, result):
    c["qalg.satisfies.calls"] += 1


def _build_free(c, args, fa):
    from qeqlog.free import OVERFLOW

    for table in fa.optable.values():
        c["free.build_free.optable_entries"] += len(table)
        c["free.build_free.overflow_entries"] += sum(v is OVERFLOW for v in table.values())


def _monad_build_free(c, args, fa):
    c["monad.free_builds"] += 1
    _build_free(c, args, fa)


def _free_is_model(c, args, report):
    c["free.check_free_is_model.checked"] += report.checked
    c["free.check_free_is_model.skipped_overflow"] += report.skipped_overflow


def _ump(c, args, result):
    c["free.check_ump.candidates"] += result.candidates


def _monad_laws(c, args, reports):
    c["monad.law_checked"] += sum(r.checked for r in reports)
    c["monad.law_skipped_overflow"] += sum(r.skipped_overflow for r in reports)


# (module, function, counter hook); the span is named "<module>.<function>"
LAYERS = (
    ("cli", "load_workspace", None),
    ("terms", "enumerate_universe", _universe),
    ("deduce", "saturate", _saturate),
    ("deduce", "trace", None),
    ("gmet", "check_space", _check_space),
    ("gmet", "enumerate_nonexpansive", _nonexpansive),
    ("qalg", "satisfies", _satisfies),
    ("qalg", "entails_catalog", None),
    ("free", "build_free", _build_free),
    ("free", "check_free_is_model", _free_is_model),
    ("free", "check_ump", _ump),
    ("monad", "check_monad_laws", _monad_laws),
    ("monad", "em_from_model", None),
    ("monad", "check_em_laws", None),
    ("monad", "model_from_em", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        import qeqlog.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sys.modules.items() if n == "qeqlog" or n.startswith("qeqlog.")]
        build_free = sys.modules["qeqlog.free"].build_free
        for module, attr, hook in LAYERS:
            original = getattr(sys.modules[f"qeqlog.{module}"], attr)
            traced = self.wrap(f"{module}.{attr}", original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        # MonadInstance.free looks build_free up in qeqlog.monad: count those builds
        sys.modules["qeqlog.monad"].build_free = self.wrap(
            "free.build_free", build_free, _monad_build_free
        )


def main(argv: list[str]) -> int:
    spans_path, query_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON QUERY_ID -- <qeqlog CLI arguments>")
    tracer = Tracer()
    tracer.install()
    import qeqlog.cli

    try:
        code = tracer.wrap("cli.main", qeqlog.cli.main, None)(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"query": query_id, "spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
