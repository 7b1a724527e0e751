"""The benchmark's own semantics, independent of the program under test.

Terms are a variable or constant name (``str``) or a tuple ``(op, arg, ...)``.
Distances are integer numerators over the grid denominator ``q``.

- ``ground_ci_normal_form`` and ``frel_ci_distances``: the classes and
  minimal distances that saturation must reach on the ``equational`` workload.
- ``nonexpansive_maps`` and ``side_distances``: a brute-force satisfaction
  evaluator for the ``models`` workload.
"""
from __future__ import annotations

import itertools
import re
from fractions import Fraction


def render(t) -> str:
    if isinstance(t, str):
        return t
    return f"{t[0]}({','.join(render(a) for a in t[1:])})"


def depth(t) -> int:
    if isinstance(t, str):
        return 1
    return 1 + max((depth(a) for a in t[1:]), default=0)


def universe(ops: dict[str, int], carrier, max_depth: int) -> list:
    """All terms of depth <= max_depth, sorted by depth then rendering."""
    terms = set(carrier)
    for _ in range(max_depth - 1):
        layer = list(terms)
        for op, arity in ops.items():
            terms.update((op, *args) for args in itertools.product(layer, repeat=arity))
    return sorted(terms, key=lambda t: (depth(t), render(t)))


_TOKEN = re.compile(r"\s*([A-Za-z0-9_']+|[(),])")


def parse(text: str):
    """Inverse of ``render`` for names made of identifier characters."""
    tokens = _TOKEN.findall(text)

    def term(i: int):
        name = tokens[i]
        if i + 1 < len(tokens) and tokens[i + 1] == "(":
            args, i = [], i + 2
            while True:
                arg, i = term(i)
                args.append(arg)
                if tokens[i] == ")":
                    return (name, *args), i + 1
                i += 1
        return name, i + 1

    t, end = term(0)
    if end != len(tokens) or "".join(tokens) != text.replace(" ", ""):
        raise ValueError(f"cannot parse term {text!r}")
    return t


def fraction(num: int, q: int) -> str:
    return str(Fraction(num, q))


def substitute(t, sigma: dict):
    if isinstance(t, str):
        return sigma[t]
    return (t[0], *(substitute(a, sigma) for a in t[1:]))


# --- ground commutativity and idempotency over FREL ---------------------------

def ground_ci_normal_form(t):
    """Normal form modulo f(a,b) = f(b,a), f(a,a) = a and f(b,b) = b.

    These are the instances of commutativity and idempotency at the
    generators a and b; congruence closes them over the whole universe.
    """
    if isinstance(t, str):
        return t
    x, y = ground_ci_normal_form(t[1]), ground_ci_normal_form(t[2])
    if isinstance(x, str) and isinstance(y, str):
        if x == y:
            return x
        return ("f", *sorted((x, y)))
    return ("f", x, y)


def frel_ci_distances(target: list[list[int]], carrier, eps: int, max_depth: int, q: int):
    """Classes and minimal derived distances for the ``equational`` theory.

    The theory is f(x,y) = f(y,x), f(x,x) = x and f(x,y) =eps x, with contexts
    at self-distance 0. Under FREL only the generators have self-distance 0,
    so the axioms apply at generators only. FREL has no Horn clauses, so a
    class pair's distance is the least of the target distance (between
    generator classes) and eps (from an instance f(x,y) to x).

    Returns (classes, dist): classes sorted by depth, then rendering, and dist
    a dict keyed by normal-form pairs; absent pairs are at distance q.
    """
    classes = sorted(
        {ground_ci_normal_form(t) for t in universe({"f": 2}, carrier, max_depth)},
        key=lambda t: (depth(t), render(t)),
    )
    dist = {}
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            dist[(a, b)] = target[i][j]
    for x in carrier:
        for y in carrier:
            c = ground_ci_normal_form(("f", x, y))
            dist[(c, x)] = min(dist.get((c, x), q), eps)
    return classes, dist


# --- brute-force satisfaction over finite algebras ----------------------------

def nonexpansive_maps(ctx: list[list[int]], dst: list[list[int]]) -> list[tuple[int, ...]]:
    """Every map from the context's points to dst's points that does not
    increase any distance, as a tuple of images."""
    n = len(ctx)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return [
        images for images in itertools.product(range(len(dst)), repeat=n)
        if all(dst[images[i]][images[j]] <= ctx[i][j] for i, j in pairs)
    ]


def evaluate(t, tau: dict, ops: dict):
    """Value of a term; ``ops[op]`` maps argument tuples of points to a point."""
    if isinstance(t, str):
        return tau[t]
    return ops[t[0]][tuple(evaluate(a, tau, ops) for a in t[1:])]


def side_distances(algebra, maps, ctx_names, lhs, rhs):
    """Distance between the two sides under each interpretation in ``maps``.

    ``algebra`` is ``(dist_rows, ops)`` over points ``0..n-1``.
    """
    rows, ops = algebra
    for images in maps:
        tau = dict(zip(ctx_names, images))
        yield rows[evaluate(lhs, tau, ops)][evaluate(rhs, tau, ops)]
