"""Depth-truncated free quantitative algebra over a theory.

Classes are the saturated equality classes with their minimal canonical-order
representative; the induced distance table is the saturated minimal-distance
matrix read off on representatives. Operation tables are partial: entries
whose canonical application exceeds the depth bound hold the ``OVERFLOW``
sentinel, and every check over the algebra reports how many instances were
skipped for that reason.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import BudgetExceeded, NotAModel, NotNonexpansive, QeqlogError
from .deduce import DerivationDB, saturate
from .gmet import FuzzySpace, GMetSpec, enumerate_nonexpansive, is_nonexpansive
from .qalg import QuantAlgebra, Theory, eval_term, is_model
from .terms import Signature, Term, Var, apply_subst, term_depth, term_label, term_to_str


class _Overflow:
    """Sentinel for operation results beyond the depth bound."""

    def __repr__(self):
        return "overflow"


OVERFLOW = _Overflow()


@dataclass(frozen=True)
class LawReport:
    """Instances of one law (or of a theory's axioms): checked, skipped
    because an intermediate overflowed, and failed, with the first failure."""

    law: str
    checked: int
    skipped_overflow: int
    failed: int
    first_failure: str | None = None

    @property
    def coverage(self) -> float:
        total = self.checked + self.skipped_overflow
        return 1.0 if total == 0 else self.checked / total

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "checked": self.checked,
            "skipped_overflow": self.skipped_overflow,
            "failed": self.failed,
            "first_failure": self.first_failure,
        }


class FreeAlgebra:
    """Quotiented-term algebra generated by a space, truncated at a depth."""

    def __init__(self, base: DerivationDB):
        self.base = base
        roots = base.roots()
        self.classes: tuple[Term, ...] = tuple(base.universe[r] for r in roots)
        self._root_to_class = {r: c for c, r in enumerate(roots)}
        self.delta: tuple[tuple[int, ...], ...] = tuple(
            tuple(base.dmin[r1][r2] for r2 in roots) for r1 in roots
        )
        self.optable: dict[str, dict[tuple[int, ...], int | _Overflow]] = {}
        for op, arity in base.sig.ops:
            table: dict[tuple[int, ...], int | _Overflow] = {}
            for args in itertools.product(range(len(roots)), repeat=arity):
                i = base.app_index(op, tuple(roots[a] for a in args))
                table[args] = OVERFLOW if i is None else self._root_to_class[base.find(i)]
            self.optable[op] = table
        self.unit: dict[str, int] = {
            a: self.class_of(Var(a)) for a in base.target.carrier
        }
        symbols = frozenset(base.sig.symbols)
        self.space = FuzzySpace(
            base.grid,
            tuple(term_label(t, symbols) for t in self.classes),
            self.delta,
        )

    def class_of(self, t: Term) -> int:
        return self._root_to_class[self.base.find(self.base.index_of(t))]

    def class_name(self, c: int) -> str:
        return self.space.carrier[c]

    def class_by_name(self, name: str) -> int:
        return self.space.index(name)

    def class_images(self, image: Callable[[Term], object], mismatch: str) -> list:
        """``image`` of each class representative, audited on every member:
        all members of a class must have the image of its representative."""
        out = [image(rep) for rep in self.classes]
        for t in self.base.universe:
            if image(t) != out[self.class_of(t)]:
                raise QeqlogError(f"{mismatch} on class members: {term_to_str(t)}")
        return out


def build_free(sig: Signature, theory: Theory, spec: GMetSpec, space: FuzzySpace,
               depth: int, budget: int | None = None) -> FreeAlgebra:
    """Saturate and package the quotient: classes, delta, op tables, unit."""
    return FreeAlgebra(saturate(sig, theory, spec, space, depth, budget))


def free_eval(f: FreeAlgebra, tau: Mapping[str, int], t: Term):
    """Class of the term obtained by substituting canonical representatives.

    Returns OVERFLOW when the substituted term exceeds the depth bound.
    """
    substituted = apply_subst({x: f.classes[c] for x, c in tau.items()}, t)
    if term_depth(substituted) > f.base.depth:
        return OVERFLOW
    return f.class_of(substituted)


def check_free_is_model(f: FreeAlgebra, theory: Theory, spec: GMetSpec,
                        budget: int | None = None) -> LawReport:
    """Every axiom must hold in the quotient under every nonexpansive
    interpretation whose two sides stay within the depth bound."""
    checked = skipped = failed = 0
    first = None
    for j in theory.judgments:
        for tau_names in enumerate_nonexpansive(j.context, f.space, budget):
            tau = {x: f.class_by_name(v) for x, v in tau_names.items()}
            left = free_eval(f, tau, j.lhs)
            right = free_eval(f, tau, j.rhs)
            if left is OVERFLOW or right is OVERFLOW:
                skipped += 1
                continue
            checked += 1
            if j.eps is None:
                ok = left == right
            else:
                ok = f.delta[left][right] <= j.eps
            if not ok:
                failed += 1
                first = first or f"{j.describe()} under {tau_names}"
    return LawReport(theory.name, checked, skipped, failed, first)


def extend_hom(f: FreeAlgebra, alg: QuantAlgebra, gen_map: Mapping[str, str],
               budget: int | None = None) -> dict[int, str]:
    """The homomorphic extension: class of s maps to the evaluation of s.

    Requires the target to model the theory and the generator map to be
    nonexpansive; the result then extends the generator map through the unit.
    """
    if not is_model(alg, f.base.spec, f.base.theory, budget):
        raise NotAModel(f"target algebra does not model {f.base.theory.name}")
    if not is_nonexpansive(gen_map, f.base.target, alg.space):
        raise NotNonexpansive("generator map is not nonexpansive")
    images = f.class_images(lambda t: eval_term(alg, gen_map, t), "extension disagrees")
    return dict(enumerate(images))


def _is_quotient_hom(f: FreeAlgebra, alg: QuantAlgebra, g: Mapping[int, str]) -> bool:
    """Nonexpansive + commutes with every non-Overflow op-table entry."""
    for c1 in range(len(f.classes)):
        for c2 in range(len(f.classes)):
            if alg.space.d(g[c1], g[c2]) > f.delta[c1][c2]:
                return False
    for op, table in f.optable.items():
        for args, res in table.items():
            if res is OVERFLOW:
                continue
            if g[res] != alg.apply(op, tuple(g[a] for a in args)):
                return False
    return True


@dataclass(frozen=True)
class UmpResult:
    exists: bool
    unique: bool
    candidates: int


def check_ump(f: FreeAlgebra, alg: QuantAlgebra, gen_map: Mapping[str, str],
              budget: int | None = None) -> UmpResult:
    """Existence and uniqueness of the extension, by exhausting all maps.

    Uniqueness quantifies over every function from classes to the target
    carrier, keeping those that are nonexpansive homomorphisms on non-Overflow
    entries and extend the generator map.
    """
    ext = extend_hom(f, alg, gen_map, budget)
    exists = _is_quotient_hom(f, alg, ext) and all(
        ext[f.unit[a]] == gen_map[a] for a in f.base.target.carrier
    )
    n = len(f.classes)
    total = len(alg.space.carrier) ** n
    if budget is not None and total > budget:
        raise BudgetExceeded(f"{total} candidate maps exceed budget {budget}")
    matching = 0
    for images in itertools.product(alg.space.carrier, repeat=n):
        g = dict(enumerate(images))
        if all(g[f.unit[a]] == gen_map[a] for a in f.base.target.carrier) and \
                _is_quotient_hom(f, alg, g):
            matching += 1
    return UmpResult(exists, matching == 1, total)
