"""Depth-truncated free quantitative algebra over a theory.

Classes are the saturated equality classes with their minimal canonical-order
representative; the induced distance table is the saturated minimal-distance
matrix read off on representatives. Below the API a term is its universe id
in the saturated database, which builds no tree: substitution runs a term
compiled over its hashcons, and a value per term comes from one bottom-up
pass over the ids. Only ``classes`` builds trees: the representatives' own.
Operation tables are partial: entries whose canonical application exceeds
the depth bound hold the ``OVERFLOW`` sentinel, and every check over the
algebra reports how many instances were skipped for that reason.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from ._record import Record
from .errors import (BudgetExceeded, NotAModel, NotNonexpansive, PreconditionViolation,
                     QeqlogError)
from .deduce import DerivationDB, saturate
from .gmet import FuzzySpace, GMetSpec, is_nonexpansive, nonexpansive_images
from .qalg import QuantAlgebra, Theory, is_model
from .terms import Signature, Term, term_label, term_to_str


class _Overflow:
    """Sentinel for operation results beyond the depth bound."""

    def __repr__(self):
        return "overflow"


OVERFLOW = _Overflow()

# the most cells of the dense class distance table: a larger quotient is
# refused before any table is built
MAX_CELLS = 2**28


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
        if len(roots) ** 2 > MAX_CELLS:
            raise BudgetExceeded(f"free algebra over {len(roots)} classes: its distance table of"
                                 f" {len(roots) ** 2} cells passes the limit of {MAX_CELLS}")
        # |classes|^arity entries per operation, bounded by the saturation's budget
        entries = 0
        for op, arity in base.sig.ops:
            entries += len(roots) ** arity
            if base.budget is not None and entries > base.budget:
                raise BudgetExceeded(f"free algebra over {len(roots)} classes: the tables up to"
                                     f" {op} hold {entries} entries, more than the budget of {base.budget}")
        self.classes: tuple[Term, ...] = tuple(base.terms(roots))
        self._root_to_class = root_to_class = {r: c for c, r in enumerate(roots)}
        # the cells below q, read as DerivationDB.cell reads them; saturate
        # leaves every union-find entry on its root
        cell, n, q, parent = base.dmin.get, base._n, base.grid.q, base._parent
        self.delta: tuple[tuple[int, ...], ...] = tuple(
            tuple([cell(r1 * n + r2, q) for r2 in roots]) for r1 in roots
        )
        self.optable: dict[str, dict[tuple[int, ...], int | _Overflow]] = {}
        for op, arity in base.sig.ops:
            table: dict[tuple[int, ...], int | _Overflow] = {}
            app = base._hashcons[op].get
            for args in itertools.product(range(len(roots)), repeat=arity):
                i = app(tuple([roots[a] for a in args]))
                table[args] = OVERFLOW if i is None else root_to_class[parent[i]]
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

    def class_images(self, values: list, mismatch: str) -> list:
        """The value of each class, given one value per universe id (as
        :meth:`DerivationDB.fold` computes them), audited on every member:
        all members of a class must have the value of its representative."""
        out = [values[r] for r in self.rep_ids]
        for i, v in enumerate(values):
            if v != out[self.class_at(i)]:
                raise QeqlogError(f"{mismatch} on class members: {term_to_str(self.base.terms((i,))[0])}")
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
            for images in nonexpansive_images(j.context, f.space, budget):
                tau = dict(zip(j.context.carrier, images))
                left, right = free_eval(f, tau, j.lhs), free_eval(f, tau, j.rhs)
                if left is OVERFLOW or right is OVERFLOW:
                    yield None
                    continue
                ok = left == right if j.eps is None else f.delta[left][right] <= j.eps
                yield ok or f"{j.describe()} under {dict(zip(j.context.carrier, map(f.class_name, images)))}"

    return LawReport.tally(theory.name, outcomes())


def extend_hom(f: FreeAlgebra, alg: QuantAlgebra, gen_map: Mapping[str, str],
               budget: int | None = None) -> dict[int, str]:
    """The homomorphic extension: class of s maps to the evaluation of s.

    Requires a generator map from exactly the generators into the target's
    points that is nonexpansive, and a target that models the theory; the
    result then extends the generator map through the unit.
    """
    _check_gen_map(f, alg, gen_map)
    if not is_model(alg, f.base.spec, f.base.theory, budget):
        raise NotAModel(f"target algebra does not model {f.base.theory.name}")
    if not is_nonexpansive(gen_map, f.base.target, alg.space):
        raise NotNonexpansive("generator map is not nonexpansive")
    images = f.class_images(f.base.fold(gen_map.__getitem__, alg.apply), "extension disagrees")
    return dict(enumerate(images))


def _check_gen_map(f: FreeAlgebra, alg: QuantAlgebra, gen_map) -> None:
    if not isinstance(gen_map, Mapping):
        raise PreconditionViolation(
            f"generator map must be a JSON object, not {type(gen_map).__name__}")
    generators = f.base.target.carrier
    for a, b in gen_map.items():
        if a not in generators:
            raise PreconditionViolation(
                f"generator map has a key {a!r} that is not a point of the space")
        if b not in alg.space.carrier:
            raise PreconditionViolation(
                f"generator map sends {a!r} to {b!r}, which is not a point of the algebra")
    for a in generators:
        if a not in gen_map:
            raise PreconditionViolation(f"generator map has no image for {a!r}")


class UmpResult(Record):
    exists: bool
    unique: bool
    candidates: int


def check_ump(f: FreeAlgebra, alg: QuantAlgebra, gen_map: Mapping[str, str],
              budget: int | None = None) -> UmpResult:
    """Existence and uniqueness of the extension among the maps from classes
    to the target carrier that are nonexpansive, agree with every non-Overflow
    table entry and extend the generator map, for ``f`` as :func:`build_free`
    returns it.

    No search is needed: the least term of a class is a generator, which the
    unit pins, or op(t1..tn), a constant when n is 0. Then op over the least
    terms of the ti's classes is no deeper, so it lies in the universe, and
    the class is op's entry at those classes: not Overflow, and at argument
    classes of lower index. By induction on the class index the extension is
    the only map that extends the generator map and agrees with the tables,
    so it exists, and is unique, exactly when it is nonexpansive.
    ``candidates`` and the budget still count all |B|^n maps.
    """
    ext = extend_hom(f, alg, gen_map, budget)
    total = len(alg.space.carrier) ** len(f.classes)
    if budget is not None and total > budget:
        raise BudgetExceeded(f"{total} candidate maps exceed budget {budget}")
    ok = is_nonexpansive(dict(zip(f.space.carrier, ext.values())), f.space, alg.space)
    return UmpResult(ok, ok, total)
