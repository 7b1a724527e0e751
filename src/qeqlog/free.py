"""Depth-truncated free quantitative algebra over a theory.

Classes are the saturated equality classes with their minimal canonical-order
representative; the induced distance table is the saturated minimal-distance
matrix read off on representatives. Below the API a term is its universe id
in the saturated database: substitution walks ids through its hashcons, and a
value per term comes from one bottom-up pass over the ids. Operation tables
are partial: entries whose canonical application exceeds the depth bound hold
the ``OVERFLOW`` sentinel, and every check over the algebra reports how many
instances were skipped for that reason.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from ._record import Record
from .errors import BudgetExceeded, NotAModel, NotNonexpansive, OutOfUniverse, QeqlogError
from .deduce import DerivationDB, saturate
from .gmet import FuzzySpace, GMetSpec, enumerate_nonexpansive, is_nonexpansive
from .qalg import QuantAlgebra, Theory, is_model
from .terms import Signature, Term, term_label, term_to_str


class _Overflow:
    """Sentinel for operation results beyond the depth bound."""

    def __repr__(self):
        return "overflow"


OVERFLOW = _Overflow()


class LawReport(Record):
    """Instances of one law (or of a theory's axioms): checked, skipped
    because an intermediate overflowed, and failed, with the first failure."""

    law: str
    checked: int
    skipped_overflow: int
    failed: int
    first_failure: str | None = None

    @classmethod
    def tally(cls, law: str, outcomes: Iterable[bool | str | None]) -> "LawReport":
        """Count one outcome per instance: None when it was skipped because
        an intermediate overflowed, True when it holds, else the failure."""
        outcomes = list(outcomes)
        checked = [o for o in outcomes if o is not None]
        failures = [o for o in checked if o is not True]
        return cls(law, len(checked), len(outcomes) - len(checked), len(failures),
                   failures[0] if failures else None)

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
        self.rep_ids = roots = tuple(base.roots())
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
                table[args] = OVERFLOW if i is None else self.class_at(i)
            self.optable[op] = table
        self.unit: dict[str, int] = {a: self.class_at(base.var_ids[a]) for a in base.target.carrier}
        symbols = frozenset(base.sig.symbols)
        self.space = FuzzySpace(
            base.grid,
            tuple(term_label(t, symbols) for t in self.classes),
            self.delta,
        )

    def class_at(self, i: int) -> int:
        """Class of the term with universe id ``i``."""
        return self._root_to_class[self.base.find(i)]

    def class_of(self, t: Term) -> int:
        return self.class_at(self.base.index_of(t))

    def class_name(self, c: int) -> str:
        return self.space.carrier[c]

    def renamed(self, names: Mapping[str, str]):
        """Class of a term with each variable x renamed to the generator
        ``names[x]``, as a function of the term. A name that is no generator
        puts the term outside the universe, which raises OutOfUniverse."""
        sigma = {x: self.base.var_ids.get(v) for x, v in names.items()}

        def class_of_renamed(t: Term) -> int:
            i = self.base.subst_index(sigma, t)
            if i is None:
                raise OutOfUniverse(f"renaming {term_to_str(t)} leaves the depth-{self.base.depth} universe")
            return self.class_at(i)

        return class_of_renamed

    def class_images(self, values: list, mismatch: str) -> list:
        """The value of each class, given one value per universe id (as
        :meth:`DerivationDB.fold` computes them), audited on every member:
        all members of a class must have the value of its representative."""
        out = [values[r] for r in self.rep_ids]
        for i, v in enumerate(values):
            if v != out[self.class_at(i)]:
                raise QeqlogError(f"{mismatch} on class members: {term_to_str(self.base.universe[i])}")
        return out


def build_free(sig: Signature, theory: Theory, spec: GMetSpec, space: FuzzySpace,
               depth: int, budget: int | None = None) -> FreeAlgebra:
    """Saturate and package the quotient: classes, delta, op tables, unit."""
    return FreeAlgebra(saturate(sig, theory, spec, space, depth, budget))


def free_eval(f: FreeAlgebra, tau: Mapping[str, int], t: Term):
    """Class of ``t`` with each variable x replaced by the representative of
    the class ``tau[x]``, or OVERFLOW when that term exceeds the depth bound.
    """
    i = f.base.subst_index({x: f.rep_ids[c] for x, c in tau.items()}, t)
    return OVERFLOW if i is None else f.class_at(i)


def check_free_is_model(f: FreeAlgebra, theory: Theory, spec: GMetSpec,
                        budget: int | None = None) -> LawReport:
    """Every axiom must hold in the quotient under every nonexpansive
    interpretation whose two sides stay within the depth bound."""
    def outcomes():
        for j in theory.judgments:
            for tau_names in enumerate_nonexpansive(j.context, f.space, budget):
                tau = {x: f.space.index(v) for x, v in tau_names.items()}
                left, right = free_eval(f, tau, j.lhs), free_eval(f, tau, j.rhs)
                if left is OVERFLOW or right is OVERFLOW:
                    yield None
                    continue
                ok = left == right if j.eps is None else f.delta[left][right] <= j.eps
                yield ok or f"{j.describe()} under {tau_names}"

    return LawReport.tally(theory.name, outcomes())


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
    images = f.class_images(f.base.fold(gen_map.__getitem__, alg.apply), "extension disagrees")
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


class UmpResult(Record):
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
