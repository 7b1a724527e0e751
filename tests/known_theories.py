"""Quantitative theories whose free models are known in closed form, from
Mardare, Panangaden & Plotkin, "Quantitative Algebraic Reasoning" (LICS
2016), each over {f/2} and encoded for MET.

MET refuses two distinct context points at 0, so an axiom whose premise
puts two points at 0 identifies them; an axiom that concludes at 1 states
nothing and is left out.
"""
from __future__ import annotations

import itertools

from qeqlog.gmet import EpsGrid, FuzzySpace
from qeqlog.qalg import Judgment, Theory
from qeqlog.terms import App, Signature, Term, Var

SIG = Signature.of({"f": 2})


def f(s: Term, t: Term) -> Term:
    return App("f", (s, t))


def context(grid: EpsGrid, names: str, close: dict[str, int] | None = None) -> FuzzySpace:
    """The points ``names``, each pair at 1 but those that ``close`` maps,
    as their two names, to a numerator."""
    close = close or {}

    def d(a: str, b: str) -> int:
        return 0 if a == b else close.get(a + b, close.get(b + a, grid.q))
    return FuzzySpace(grid, tuple(names), tuple(tuple(d(a, b) for b in names) for a in names))


def semilattice(grid: EpsGrid) -> Theory:
    """Quantitative semilattices: f is idempotent, commutative and
    associative, and ``x =e1 y, z =e2 w ⊢ f(x,z) =max(e1,e2) f(y,w)`` for
    each grid pair with max(e1, e2) < 1. The free model over a space is its
    finite nonempty subsets under the Hausdorff distance."""
    x, y, z, w = map(Var, "xyzw")
    axioms = [Judgment(context(grid, "x"), f(x, x), x),
              Judgment(context(grid, "xy"), f(x, y), f(y, x)),
              Judgment(context(grid, "xyz"), f(f(x, y), z), f(x, f(y, z)))]
    for e1, e2 in itertools.product(range(grid.q), repeat=2):
        # a pair at 0 is one point: y is x, or w is z
        names = "x" + "y" * (e1 > 0) + "z" + "w" * (e2 > 0)
        close = {"xy": e1, "zw": e2}
        axioms.append(Judgment(context(grid, names, close), f(x, z),
                               f(y if e1 else x, w if e2 else z), max(e1, e2)))
    return Theory("semilattice", tuple(axioms))
