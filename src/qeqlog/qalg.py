"""Finite quantitative algebras and model checking.

An algebra is a fuzzy-relation space plus a total operation table per symbol;
operations are arbitrary set functions, deliberately not required to be
nonexpansive. A judgment quantifies over all nonexpansive interpretations of
its context space, so satisfaction is decided by enumerating them.
Interpretations are image tuples of carrier indices, and one loop,
:func:`verdicts`, decides every model check: here over the index tables, and
for the free algebra over the saturated hashcons.
"""
from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterator, Mapping, Sequence
from functools import cached_property, partial

from ._record import Record
from .errors import GridMismatch
from .gmet import (
    BUDGET_INTERPS,
    EpsGrid,
    FuzzySpace,
    GMetSpec,
    is_nonexpansive,
    nonexpansive_images,
    require_space,
)
from .terms import (Signature, Term, check_carrier, compile_term, fold_term, lookup, parse_term,
                    number_text, power, quoted, term_to_str, term_vars)


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
                raise ValueError(f"missing table for operation {quoted(name)}")
            if len(table) != power(len(carrier), arity):
                raise ValueError(f"table for {quoted(name)} is not total")
            for args, val in table.items():
                if len(args) != arity or not set(args) <= carrier or val not in carrier:
                    raise ValueError(f"bad table entry for {quoted(name)}: {quoted(args)} -> {quoted(val)}")
        if set(self.ops) != set(self.sig.symbols):
            raise ValueError("operation tables do not match the signature")

    @classmethod
    def from_json(cls, obj, sig: Signature, grid: EpsGrid) -> "QuantAlgebra":
        space = FuzzySpace.from_json(obj["space"], grid)
        ops = {name: {(): str(raw)} if arity == 0 else
               {tuple(str(k).split(",")): str(v) for k, v in raw.items()}
               for name, arity in sig.ops if (raw := obj["ops"].get(name)) is not None}
        stray = sorted(set(obj["ops"]) - set(sig.symbols))
        if stray:
            raise ValueError(f"table for operation {quoted(stray[0])}, which the signature lacks")
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
        stray = (term_vars(self.lhs) | term_vars(self.rhs)).difference(self.context.carrier)
        if stray:
            raise ValueError(f"variables {sorted(stray)} not in the context carrier")

    @classmethod
    def from_json(cls, obj, sig: Signature, grid: EpsGrid,
                  spaces: Mapping[str, FuzzySpace]) -> "Judgment":
        raw_ctx = obj["context"]
        if isinstance(raw_ctx, str):
            if raw_ctx not in spaces:
                raise ValueError(f"unknown space name {quoted(raw_ctx)}")
            ctx = spaces[raw_ctx]
        else:
            ctx = FuzzySpace.from_json(raw_ctx, grid)
            check_carrier(sig, ctx.carrier)
        lhs = parse_term(str(obj["lhs"]), sig, ctx.carrier)
        rhs = parse_term(str(obj["rhs"]), sig, ctx.carrier)
        eps = obj.get("eps")
        if eps is not None:
            eps = grid.value(number_text(eps, "eps"))
        return cls(ctx, lhs, rhs, eps)

    def describe(self) -> str:
        rel = "=" if self.eps is None else f"={self.context.grid.format(self.eps)}"
        return f"{term_to_str(self.lhs)} {rel} {term_to_str(self.rhs)}"


class Theory(Record):
    name: str
    judgments: tuple[Judgment, ...]


def eval_term(alg: QuantAlgebra, tau: Mapping[str, str], t: Term) -> str:
    """Evaluate a term under a variable assignment, via the operation tables."""
    return fold_term(t, partial(lookup, tau), alg.apply)


class SatisfactionResult(Record):
    holds: bool
    counterexample: dict[str, str] | None = None


def verdicts(space: FuzzySpace, spec: GMetSpec, judgments: Sequence[Judgment], compile_side: Callable,
             budget: int = BUDGET_INTERPS
             ) -> Iterator[tuple[int, tuple[int, ...], bool | None]]:
    """(judgment index, image tuple, verdict) for each nonexpansive
    interpretation into ``space`` of each judgment's context in turn, the
    verdict None where a side is None. A context is checked against the spec
    and grid once, as its one search begins and the budget is charged, when
    its first judgment is reached, and listed only if two judgments share it.
    A side is ``compile_side(term, carrier)``, a function of the image tuple
    into the space's indices, compiled at the judgment's first interpretation."""
    shared, listed, dist = Counter(j.context for j in judgments), {}, space.dist
    for k, j in enumerate(judgments):
        ctx, eps = j.context, j.eps
        if ctx not in listed:
            require_space(spec, ctx, "judgment context")
            if space.grid != ctx.grid:
                raise GridMismatch("algebra and judgment use different grids")
            search = nonexpansive_images(ctx, space, budget)
            listed[ctx] = list(search) if shared[ctx] > 1 else search
        left = None
        for tau in listed[ctx]:
            if left is None:
                left, right = (compile_side(side, ctx.carrier) for side in (j.lhs, j.rhs))
            a, b = left(tau), right(tau)
            yield k, tau, None if a is None or b is None else (
                a == b if eps is None else dist[a][b] <= eps)


def _first_failure(alg: QuantAlgebra, spec: GMetSpec, judgments: Sequence[Judgment], budget: int,
                   what: str = "algebra space") -> tuple[int, dict[str, str]] | None:
    """The index of the first judgment that fails in the algebra, whose space,
    named ``what``, is checked first if there is one, and its first failing interpretation."""
    if judgments:
        require_space(spec, alg.space, what)
    for k, tau, holds in verdicts(alg.space, spec, judgments,
                                  partial(compile_term, tables=alg.index_tables), budget):
        if not holds:
            return k, dict(zip(judgments[k].context.carrier, map(alg.space.carrier.__getitem__, tau)))
    return None


def satisfies(alg: QuantAlgebra, spec: GMetSpec, j: Judgment,
              budget: int = BUDGET_INTERPS) -> SatisfactionResult:
    """Check one judgment against all nonexpansive interpretations of its
    context; the counterexample is the first that fails, in carrier order."""
    failure = _first_failure(alg, spec, (j,), budget)
    return SatisfactionResult(True) if failure is None else SatisfactionResult(False, failure[1])


def first_failure(alg: QuantAlgebra, spec: GMetSpec, theory: Theory, budget: int = BUDGET_INTERPS
                  ) -> tuple[Judgment, dict[str, str]] | None:
    """The first judgment of the theory that fails in the algebra, with its
    first failing interpretation, or None when the algebra is a model."""
    failure = _first_failure(alg, spec, theory.judgments, budget)
    return None if failure is None else (theory.judgments[failure[0]], failure[1])


def is_model(alg: QuantAlgebra, spec: GMetSpec, theory: Theory, budget: int = BUDGET_INTERPS) -> bool:
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


def entails_catalog(catalog: Sequence[QuantAlgebra], spec: GMetSpec, theory: Theory, j: Judgment,
                    budget: int = BUDGET_INTERPS) -> bool:
    """Necessary condition for semantic entailment, over a finite catalog.

    Only catalog members are inspected, so a True answer means no listed model
    of the theory refutes the judgment; the full entailment relation quantifies
    over all models and may still reject it.
    """
    for alg in catalog:
        # a theory judgment that fails first: alg is no model of the theory
        failure = _first_failure(alg, spec, (*theory.judgments, j), budget, "catalog algebra space")
        if failure is not None and failure[0] == len(theory.judgments):
            return False
    return True
