"""Finite quantitative algebras and model checking.

An algebra is a fuzzy-relation space plus a total operation table per symbol;
operations are arbitrary set functions, deliberately not required to be
nonexpansive. A judgment quantifies over all nonexpansive interpretations of
its context space, so satisfaction is decided by enumerating them.
Interpretations are image tuples of carrier indices, searched once per context
for all the judgments that one call checks, and each side of a judgment is
compiled once into a function of such a tuple over the index tables (the
compiler that substitution runs over the saturated hashcons).
"""
from __future__ import annotations

import itertools
from functools import cached_property
from typing import Mapping, Sequence

from ._record import Record
from .errors import GridMismatch, UnknownVariable
from .gmet import (
    EpsGrid,
    FuzzySpace,
    GMetSpec,
    is_nonexpansive,
    nonexpansive_images,
    require_space,
)
from .terms import (Signature, Term, Var, check_carrier, compile_term, parse_term, term_to_str,
                    term_vars)


class QuantAlgebra(Record):
    """Space + operation tables. Tables map argument tuples to carrier elements."""

    space: FuzzySpace
    sig: Signature
    ops: Mapping[str, Mapping[tuple[str, ...], str]]

    def __post_init__(self):
        carrier = set(self.space.carrier)
        for name, arity in self.sig.ops:
            table = self.ops.get(name)
            if table is None:
                raise ValueError(f"missing table for operation {name!r}")
            expected = len(carrier) ** arity
            if len(table) != expected:
                raise ValueError(f"table for {name!r} is not total")
            for args, val in table.items():
                if len(args) != arity or not set(args) <= carrier or val not in carrier:
                    raise ValueError(f"bad table entry for {name!r}: {args!r} -> {val!r}")
        if set(self.ops) != set(self.sig.symbols):
            raise ValueError("operation tables do not match the signature")

    @classmethod
    def from_json(cls, obj, sig: Signature, grid: EpsGrid) -> "QuantAlgebra":
        space = FuzzySpace.from_json(obj["space"], grid)
        ops: dict[str, dict[tuple[str, ...], str]] = {}
        for name, arity in sig.ops:
            raw = obj["ops"].get(name)
            if raw is None:
                raise ValueError(f"missing table for operation {name!r}")
            if arity == 0:
                ops[name] = {(): str(raw)}
            else:
                ops[name] = {
                    tuple(str(k).split(",")): str(v) for k, v in raw.items()
                }
        stray = sorted(set(obj["ops"]) - set(sig.symbols))
        if stray:
            raise ValueError(f"table for operation {stray[0]!r}, which the signature lacks")
        return cls(space, sig, ops)

    def apply(self, op: str, args: tuple[str, ...]) -> str:
        return self.ops[op][args]

    @cached_property
    def index_tables(self) -> dict[str, dict[tuple[int, ...], int]]:
        """The operation tables over carrier indices, built on first use."""
        index = self.space.index
        return {
            name: {tuple(map(index, args)): index(val) for args, val in table.items()}
            for name, table in self.ops.items()
        }


class Judgment(Record):
    """Context space plus a pair of terms; eps present means a quantitative equation."""

    context: FuzzySpace
    lhs: Term
    rhs: Term
    eps: int | None = None

    def __post_init__(self):
        if self.eps is not None and not (0 <= self.eps <= self.context.grid.q):
            raise GridMismatch(f"eps numerator {self.eps} off the grid")
        carrier = set(self.context.carrier)
        stray = (term_vars(self.lhs) | term_vars(self.rhs)) - carrier
        if stray:
            raise ValueError(f"variables {sorted(stray)} not in the context carrier")

    @classmethod
    def from_json(cls, obj, sig: Signature, grid: EpsGrid,
                  spaces: Mapping[str, FuzzySpace]) -> "Judgment":
        raw_ctx = obj["context"]
        if isinstance(raw_ctx, str):
            if raw_ctx not in spaces:
                raise ValueError(f"unknown space name {raw_ctx!r}")
            ctx = spaces[raw_ctx]
        else:
            ctx = FuzzySpace.from_json(raw_ctx, grid)
            check_carrier(sig, ctx.carrier)
        lhs = parse_term(str(obj["lhs"]), sig, ctx.carrier)
        rhs = parse_term(str(obj["rhs"]), sig, ctx.carrier)
        eps = None if obj.get("eps") is None else grid.value(obj["eps"])
        return cls(ctx, lhs, rhs, eps)

    def describe(self) -> str:
        rel = "=" if self.eps is None else f"={self.context.grid.format(self.eps)}"
        return f"{term_to_str(self.lhs)} {rel} {term_to_str(self.rhs)}"


class Theory(Record):
    name: str
    judgments: tuple[Judgment, ...]


def eval_term(alg: QuantAlgebra, tau: Mapping[str, str], t: Term) -> str:
    """Evaluate a term under a variable assignment, via the operation tables."""
    if isinstance(t, Var):
        try:
            return tau[t.name]
        except KeyError:
            raise UnknownVariable(t.name) from None
    return alg.apply(t.op, tuple(eval_term(alg, tau, a) for a in t.args))


class SatisfactionResult(Record):
    holds: bool
    counterexample: dict[str, str] | None = None


def satisfies(
    alg: QuantAlgebra,
    spec: GMetSpec,
    j: Judgment,
    budget: int | None = None,
    *,
    _maps: dict | None = None,
) -> SatisfactionResult:
    """Check one judgment against all nonexpansive interpretations of its context.

    The interpretations are image tuples from one search per context, which
    the judgments of one ``first_failure`` or ``entails_catalog`` call share
    through ``_maps``; the budget still counts |B|^|X| for every judgment.
    The counterexample, when present, is the first failing interpretation in
    enumeration order, which is fixed by the carrier orders.
    """
    require_space(spec, alg.space, "algebra space")
    require_space(spec, j.context, "judgment context")
    if alg.space.grid != j.context.grid:
        raise GridMismatch("algebra and judgment use different grids")
    maps = {} if _maps is None else _maps
    if j.context not in maps:
        maps[j.context] = list(nonexpansive_images(j.context, alg.space, budget))
    left, right = (compile_term(side, j.context.carrier, alg.index_tables) for side in (j.lhs, j.rhs))
    dist, eps = alg.space.dist, j.eps
    for tau in maps[j.context]:
        a, b = left(tau), right(tau)
        if a != b if eps is None else dist[a][b] > eps:
            named = (alg.space.carrier[c] for c in tau)
            return SatisfactionResult(False, dict(zip(j.context.carrier, named)))
    return SatisfactionResult(True, None)


def first_failure(
    alg: QuantAlgebra,
    spec: GMetSpec,
    theory: Theory,
    budget: int | None = None,
) -> tuple[Judgment, dict[str, str]] | None:
    """The first judgment of the theory that fails in the algebra, with its
    first failing interpretation, or None when the algebra is a model."""
    maps: dict = {}
    for j in theory.judgments:
        res = satisfies(alg, spec, j, budget, _maps=maps)
        if not res.holds:
            return j, res.counterexample
    return None


def is_model(
    alg: QuantAlgebra,
    spec: GMetSpec,
    theory: Theory,
    budget: int | None = None,
) -> bool:
    return first_failure(alg, spec, theory, budget) is None


def is_homomorphism(f: Mapping[str, str], a: QuantAlgebra, b: QuantAlgebra) -> bool:
    """Nonexpansive map commuting with every operation table."""
    if a.sig != b.sig:
        raise ValueError("algebras have different signatures")
    if not is_nonexpansive(f, a.space, b.space):
        return False
    for name, arity in a.sig.ops:
        for args in itertools.product(a.space.carrier, repeat=arity):
            if f[a.apply(name, args)] != b.apply(name, tuple(f[x] for x in args)):
                return False
    return True


def entails_catalog(
    catalog: Sequence[QuantAlgebra],
    spec: GMetSpec,
    theory: Theory,
    j: Judgment,
    budget: int | None = None,
) -> bool:
    """Necessary condition for semantic entailment, over a finite catalog.

    Only catalog members are inspected, so a True answer means no listed model
    of the theory refutes the judgment; the full entailment relation quantifies
    over all models and may still reject it.
    """
    for alg in catalog:
        require_space(spec, alg.space, "catalog algebra space")
        maps: dict = {}
        if all(satisfies(alg, spec, k, budget, _maps=maps).holds for k in theory.judgments) \
                and not satisfies(alg, spec, j, budget, _maps=maps).holds:
            return False
    return True
