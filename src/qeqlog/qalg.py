"""Finite quantitative algebras and model checking.

An algebra is a fuzzy-relation space plus a total operation table per symbol;
operations are arbitrary set functions, deliberately not required to be
nonexpansive. A judgment quantifies over all nonexpansive interpretations of
its context space, so satisfaction is decided by exhaustive enumeration.
"""
from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from ._record import Record
from .errors import GridMismatch, UnknownVariable
from .gmet import (
    EpsGrid,
    FuzzySpace,
    GMetSpec,
    enumerate_nonexpansive,
    is_nonexpansive,
    require_space,
)
from .terms import Signature, Term, Var, parse_term, term_to_str, term_vars


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
        return cls(space, sig, ops)

    def to_json(self) -> dict:
        out_ops = {}
        for name, arity in self.sig.ops:
            table = self.ops[name]
            if arity == 0:
                out_ops[name] = table[()]
            else:
                out_ops[name] = {
                    ",".join(args): val for args, val in sorted(table.items())
                }
        return {"space": self.space.to_json(), "ops": out_ops}

    def apply(self, op: str, args: tuple[str, ...]) -> str:
        return self.ops[op][args]


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
                  spaces: Mapping[str, FuzzySpace] | None = None) -> "Judgment":
        raw_ctx = obj["context"]
        if isinstance(raw_ctx, str):
            if spaces is None or raw_ctx not in spaces:
                raise ValueError(f"unknown space name {raw_ctx!r}")
            ctx = spaces[raw_ctx]
        else:
            ctx = FuzzySpace.from_json(raw_ctx, grid)
        lhs = parse_term(str(obj["lhs"]), sig, ctx.carrier)
        rhs = parse_term(str(obj["rhs"]), sig, ctx.carrier)
        eps = None if obj.get("eps") is None else grid.value(obj["eps"])
        return cls(ctx, lhs, rhs, eps)

    def to_json(self) -> dict:
        out = {
            "context": self.context.to_json(),
            "lhs": term_to_str(self.lhs),
            "rhs": term_to_str(self.rhs),
        }
        out["eps"] = None if self.eps is None else self.context.grid.format(self.eps)
        return out

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
) -> SatisfactionResult:
    """Check one judgment against all nonexpansive interpretations of its context.

    The counterexample, when present, is the first failing interpretation in
    enumeration order, which is fixed by the carrier orders.
    """
    require_space(spec, alg.space, "algebra space")
    require_space(spec, j.context, "judgment context")
    if alg.space.grid != j.context.grid:
        raise GridMismatch("algebra and judgment use different grids")
    for tau in enumerate_nonexpansive(j.context, alg.space, budget):
        left = eval_term(alg, tau, j.lhs)
        right = eval_term(alg, tau, j.rhs)
        if j.eps is None:
            ok = left == right
        else:
            ok = alg.space.d(left, right) <= j.eps
        if not ok:
            return SatisfactionResult(False, tau)
    return SatisfactionResult(True, None)


def is_model(
    alg: QuantAlgebra,
    spec: GMetSpec,
    theory: Theory,
    budget: int | None = None,
) -> bool:
    return all(satisfies(alg, spec, j, budget).holds for j in theory.judgments)


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
        if is_model(alg, spec, theory, budget) and not satisfies(alg, spec, j, budget).holds:
            return False
    return True
