"""Depth-truncated free quantitative algebra over a theory.

Classes are the saturated equality classes with their minimal canonical-order
representative; the induced distance table is the saturated minimal-distance
matrix read off on representatives. Below the API a term is its universe id
in the saturated database, which builds no tree: substitution runs a term
compiled over its hashcons, and a value per term comes from one bottom-up
pass over the ids. Only ``classes`` builds trees: the representatives' own.
Operation tables are partial: an entry whose canonical application exceeds
the depth bound holds ``OVERFLOW``, which is None, as every term outside the
universe is below the API, and every check over the algebra reports how many
instances were skipped for that reason. Each table is an :class:`OpTable`, a
read-only mapping from a tuple of class indices to a class index or None,
over one flat tuple of its values in product order: 8 B an entry.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping

from ._record import Record
from .errors import (BudgetExceeded, NotAModel, NotNonexpansive, PreconditionViolation,
                     QeqlogError)
from .deduce import BUDGET_INSTANCES, DerivationDB, saturate
from .gmet import BUDGET_INTERPS, FuzzySpace, GMetSpec, charge_candidates, is_nonexpansive
from .qalg import QuantAlgebra, Theory, is_model, verdicts
from .terms import Signature, Term, exceeds, power, quoted, term_label, term_to_str, total


# an operation result beyond the depth bound: the hashcons' term outside the universe
OVERFLOW = None

# the most cells of the dense class distance table, refused before any table
# is built: about 0.1 GB at the 20 B of max RSS a cell that the CLI's free
# takes ({u/1, v/1} over one point at depth 11, 8 B of it in the table)
MAX_CELLS = 2**22


class OpTable(Mapping):
    """One operation's table over ``size`` classes, read-only: each tuple of
    ``arity`` class indices to its class index, or None (``OVERFLOW``) past
    the depth bound; any other key raises ``KeyError``. It holds only the
    values, one flat tuple in product order, iterated in that order."""

    __slots__ = ("size", "arity", "_values")

    def __init__(self, size: int, arity: int, values: tuple):
        self.size, self.arity, self._values = size, arity, values

    def __getitem__(self, args):
        size, k = self.size, 0
        if isinstance(args, tuple) and len(args) == self.arity:
            for a in args:
                if not (isinstance(a, int) and 0 <= a < size):
                    break
                k = k * size + a
            else:
                return self._values[k]
        raise KeyError(args)

    def __iter__(self):
        return itertools.product(range(self.size), repeat=self.arity)

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> tuple:
        """The values in product order: the flat tuple itself."""
        return self._values


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
        return {name: getattr(self, name) for name in self._fields}


class FreeAlgebra:
    """Quotiented-term algebra generated by a space, truncated at a depth.

    ``optable`` maps each operation to its :class:`OpTable`, and ``delta``
    is the dense class distance table, one tuple per class."""

    def __init__(self, base: DerivationDB):
        self.base = base
        self.rep_ids = roots = tuple(base.roots())
        if len(roots) ** 2 > MAX_CELLS:
            raise BudgetExceeded(f"free algebra over {len(roots)} classes: its distance table of"
                                 f" {len(roots) ** 2} cells passes the limit of {MAX_CELLS}")
        # |classes|^arity entries per operation, bounded by the saturation's budget
        counts = []
        for op, arity in base.sig.ops:
            counts.append(power(len(roots), arity))
            entries = total(counts)
            if exceeds(entries, base.budget):
                raise BudgetExceeded(f"free algebra over {len(roots)} classes: the tables up to"
                                     f" {op} hold {entries} entries, more than the budget of {base.budget}")
        self.classes: tuple[Term, ...] = tuple(base.terms(roots))
        root_to_class = {r: c for c, r in enumerate(roots)}
        self._class_of = [root_to_class[r] for r in base.roots_by_id()]
        self.delta: tuple[tuple[int, ...], ...] = base.cell_table(roots)
        # an application outside the universe reads as the id past the last
        outside = len(self._class_of)
        entry = (self._class_of + [OVERFLOW]).__getitem__
        self.optable: dict[str, OpTable] = {
            op: OpTable(len(roots), arity, tuple(map(entry, base.app_ids(
                op, itertools.product(roots, repeat=arity), outside))))
            for op, arity in base.sig.ops
        }
        self.unit: dict[str, int] = {a: self.class_at(base.var_ids[a]) for a in base.target.carrier}
        symbols = frozenset(base.sig.symbols)
        self.space = FuzzySpace(
            base.grid,
            tuple(term_label(t, symbols) for t in self.classes),
            self.delta,
        )

    def class_at(self, i: int) -> int:
        """Class of the term with universe id ``i``."""
        return self._class_of[i]

    def class_of(self, t: Term) -> int:
        return self.class_at(self.base.index_of(t))

    def compiled(self, t: Term, names: tuple[str, ...]):
        """``t`` as a function of one class per name: the class of ``t`` with
        ``names[k]`` replaced by the representative of the k-th class, or
        OVERFLOW when that term exceeds the depth bound."""
        ids_of, rep_ids, class_at = self.base.compiled(t, names), self.rep_ids, self.class_at

        def value(classes) -> int | None:
            i = ids_of([rep_ids[c] for c in classes])
            return OVERFLOW if i is None else class_at(i)
        return value

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
               depth: int, budget: int = BUDGET_INSTANCES) -> FreeAlgebra:
    """Saturate and package the quotient: classes, delta, op tables, unit."""
    return FreeAlgebra(saturate(sig, theory, spec, space, depth, budget))


def free_eval(f: FreeAlgebra, tau: Mapping[str, int], t: Term):
    """Class of ``t`` under ``tau``, as :meth:`FreeAlgebra.compiled` reads it."""
    return f.compiled(t, tuple(tau))(tuple(tau.values()))


def check_free_is_model(f: FreeAlgebra, theory: Theory, spec: GMetSpec,
                        budget: int = BUDGET_INTERPS) -> LawReport:
    """Every axiom must hold in the quotient under every nonexpansive
    interpretation whose two sides stay within the depth bound: the
    verdicts of :func:`~qeqlog.qalg.verdicts` over :meth:`FreeAlgebra.compiled`
    and the algebra's own ``delta``."""
    judgments = theory.judgments
    return LawReport.tally(theory.name, (
        holds if holds is not False else f"{judgments[k].describe()} under"
        f" {dict(zip(judgments[k].context.carrier, map(f.class_name, images)))}"
        for k, images, holds in verdicts(f.space, spec, judgments, f.compiled, budget)))


def extend_hom(f: FreeAlgebra, alg: QuantAlgebra, gen_map: Mapping[str, str],
               budget: int = BUDGET_INTERPS) -> dict[int, str]:
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
                f"generator map has a key {quoted(a)} that is not a point of the space")
        if b not in alg.space.carrier:
            raise PreconditionViolation(
                f"generator map sends {quoted(a)} to {quoted(b)}, which is not a point of the algebra")
    for a in generators:
        if a not in gen_map:
            raise PreconditionViolation(f"generator map has no image for {quoted(a)}")


class UmpResult(Record):
    exists: bool
    unique: bool
    candidates: int


def check_ump(f: FreeAlgebra, alg: QuantAlgebra, gen_map: Mapping[str, str],
              budget: int = BUDGET_INTERPS) -> UmpResult:
    """Existence and uniqueness of the extension among the maps from classes
    to the target carrier that are nonexpansive, agree with every non-OVERFLOW
    table entry and extend the generator map, for ``f`` as :func:`build_free`
    returns it.

    No search is needed: the least term of a class is a generator, which the
    unit pins, or op(t1..tn), a constant when n is 0. Then op over the least
    terms of the ti's classes is no deeper, so it lies in the universe, and
    the class is op's entry at those classes: not OVERFLOW, and at argument
    classes of lower index. By induction on the class index the extension is
    the only map that extends the generator map and agrees with the tables,
    so it exists, and is unique, exactly when it is nonexpansive.
    ``candidates`` and the budget still count all |B|^n maps.
    """
    ext = extend_hom(f, alg, gen_map, budget)
    total = charge_candidates(len(alg.space.carrier), len(f.classes), budget, "maps")
    ok = is_nonexpansive(dict(zip(f.space.carrier, ext.values())), f.space, alg.space)
    return UmpResult(ok, ok, total)
