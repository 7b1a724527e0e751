"""The quotiented-term monad induced by the free construction, truncated.

Object action, unit and flattening multiplication all operate on the carrier
*names* of the quotient spaces (one name per class, the printed canonical
representative). Below that, a term is its universe id: the map action,
flattening and the law checks' renamings each fold one free algebra's ids
into another's applications, with None for a term outside the universe.
Flattening can leave the depth bound, so the multiplication is a partial map
whose value there is ``OVERFLOW``, that same None; every law check reports how
many instances were skipped because an intermediate overflowed.
"""
from __future__ import annotations

import itertools
from collections.abc import Mapping

from ._record import Record
from .errors import (
    EMLawViolation,
    NotAModel,
    NotNonexpansive,
    OutOfUniverse,
    PreconditionViolation,
    QeqlogError,
)
from .deduce import BUDGET_INSTANCES
from .free import FreeAlgebra, LawReport, OVERFLOW, build_free
from .gmet import BUDGET_INTERPS, FuzzySpace, GMetSpec, is_nonexpansive
from .qalg import QuantAlgebra, Theory, is_homomorphism, is_model
from .terms import Signature


class MonadInstance:
    """Free-construction cache for one theory, spec and depth.

    Lookups in the cached algebras change nothing, because saturation ends
    with every union-find entry pointing at its root; filling the cache is
    not synchronised.
    """

    def __init__(self, sig: Signature, theory: Theory, spec: GMetSpec,
                 depth: int, budget: int = BUDGET_INSTANCES):
        self.sig = sig
        self.theory = theory
        self.spec = spec
        self.depth = depth
        self.budget = budget
        self._cache: dict[FuzzySpace, FreeAlgebra] = {}

    def free(self, sp: FuzzySpace) -> FreeAlgebra:
        if sp not in self._cache:
            self._cache[sp] = build_free(
                self.sig, self.theory, self.spec, sp, self.depth, self.budget
            )
        return self._cache[sp]


def _renamed(src: FreeAlgebra, dst: FreeAlgebra, leaf) -> list[int | None]:
    """Per class of ``src``, the class of ``dst`` holding its representative
    with each generator x replaced by the term of id ``leaf(x)`` in ``dst``;
    None when that term, or a leaf of it, is outside ``dst``'s universe."""
    ids = src.base.fold(leaf, dst.base.app_index)
    return [None if ids[r] is None else dst.class_at(ids[r]) for r in src.rep_ids]


def m_object(mi: MonadInstance, sp: FuzzySpace) -> FuzzySpace:
    """Quotient space of the free algebra on sp."""
    return mi.free(sp).space


def m_map(mi: MonadInstance, f: Mapping[str, str], src: FuzzySpace,
          dst: FuzzySpace) -> dict[str, str]:
    """Homomorphic extension of a nonexpansive map, on class names.

    Renaming variables preserves term depth, so with equal depth bounds on
    both sides this never overflows.
    """
    if not is_nonexpansive(f, src, dst):
        raise NotNonexpansive("m_map requires a nonexpansive map")
    fa_src, fa_dst = mi.free(src), mi.free(dst)
    ids = fa_src.base.fold(lambda a: fa_dst.base.var_ids[f[a]], fa_dst.base.app_index)
    images = fa_src.class_images([fa_dst.class_at(i) for i in ids], "mapped classes disagree")
    return {fa_src.class_name(c): fa_dst.class_name(d) for c, d in enumerate(images)}


def m_unit(mi: MonadInstance, sp: FuzzySpace) -> dict[str, str]:
    """Carrier element to the name of its variable's class."""
    fa = mi.free(sp)
    return {a: fa.class_name(c) for a, c in fa.unit.items()}


def m_mult(mi: MonadInstance, sp: FuzzySpace):
    """Flattening: map each class over class-names to a class over sp.

    Substitutes the canonical representative for each named inner class;
    entries whose flattened term exceeds the depth bound map to OVERFLOW.
    """
    fa = mi.free(sp)
    outer = mi.free(fa.space)
    flat = _renamed(outer, fa, lambda name: fa.rep_ids[fa.space.index(name)])
    return {outer.class_name(c): OVERFLOW if d is None else fa.class_name(d)
            for c, d in enumerate(flat)}


def check_monad_laws(mi: MonadInstance, sp: FuzzySpace) -> list[LawReport]:
    """Unit laws and associativity, pointwise on classes, with overflow skips."""
    sp1 = m_object(mi, sp)
    unit = m_unit(mi, sp)
    mult = m_mult(mi, sp)
    fa = mi.free(sp)
    outer = mi.free(sp1)

    # mult . unit_M = id  (unit of M(sp), then flatten)
    unit_m = m_unit(mi, sp1)
    reports = [LawReport.tally("mult.unit_M=id", (
        mult[unit_m[n]] == n or f"mult(unit_M({n})) = {mult[unit_m[n]]}" for n in sp1.carrier))]

    # mult . M(unit) = id  (rename generators to their unit classes, flatten)
    flat = [mult[outer.class_name(d)] for d in _renamed(fa, outer, lambda a: outer.base.var_ids[unit[a]])]
    reports.append(LawReport.tally("mult.M(unit)=id", (
        res == name or f"mult(M(unit)({name})) = {res}" for name, res in zip(fa.space.carrier, flat))))

    # mult . M(mult) = mult . mult_M  on classes of M^3
    f3 = mi.free(m_object(mi, sp1))
    mult1 = m_mult(mi, sp1)
    # a generator whose flattening overflows takes every term above it along
    pushed = _renamed(f3, outer, lambda name: None if mult[name] is OVERFLOW
                      else outer.base.var_ids[mult[name]])

    def associativity():
        for c3, d in enumerate(pushed):
            name3 = f3.class_name(c3)
            # path A: flatten the outer level first
            mid_a = mult1[name3]
            res_a = OVERFLOW if mid_a is OVERFLOW else mult[mid_a]
            # path B: push the inner flattening through, then flatten
            res_b = OVERFLOW if d is None else mult[outer.class_name(d)]
            if res_a is OVERFLOW or res_b is OVERFLOW:
                yield None
            else:
                yield res_a == res_b or f"{name3}: {res_a} != {res_b}"

    reports.append(LawReport.tally("mult.M(mult)=mult.mult_M", associativity()))
    return reports


class EMCandidate(Record):
    """A space with a candidate structure map from its quotient classes."""

    space: FuzzySpace
    h: Mapping[str, str]


def em_from_model(mi: MonadInstance, alg: QuantAlgebra, budget: int = BUDGET_INTERPS) -> EMCandidate:
    """Structure map of a model: evaluate each class representative in it.

    ``budget`` bounds the interpretations of the model check, as in
    :func:`is_model`; ``mi.budget`` bounds only the saturation. Once
    ``class_images`` has found every class member equal to its
    representative, the map is lawful by construction, so no law is run.
    """
    if not is_model(alg, mi.spec, mi.theory, budget):
        raise NotAModel(f"algebra does not model {mi.theory.name}")
    fa = mi.free(alg.space)
    images = fa.class_images(fa.base.fold(lambda a: a, alg.apply), "structure map disagrees")
    h = {fa.class_name(c): v for c, v in enumerate(images)}
    if not is_nonexpansive(h, fa.space, alg.space):
        raise NotNonexpansive("structure map is not nonexpansive")
    return EMCandidate(alg.space, h)


def check_em_laws(mi: MonadInstance, cand: EMCandidate) -> list[LawReport]:
    """Unit law h(unit(a)) = a and multiplication law h.M(h) = h.mult."""
    fa = mi.free(cand.space)
    unit = m_unit(mi, cand.space)
    mult = m_mult(mi, cand.space)
    outer = mi.free(fa.space)
    h = cand.h
    # an image that is no generator puts the renamed class outside the universe
    renamed = _renamed(outer, fa, lambda x: fa.base.var_ids.get(h[x]))

    def m_h_then_h():
        for c2, d in enumerate(renamed):
            name2 = outer.class_name(c2)
            if d is None:
                raise OutOfUniverse(f"renaming {name2} leaves the depth-{mi.depth} universe")
            lhs = h[fa.class_name(d)]
            mid = mult[name2]
            if mid is OVERFLOW:
                yield None
            else:
                yield lhs == h[mid] or f"{name2}: {lhs} != {h[mid]}"

    return [
        LawReport.tally("h.unit=id", (
            h[unit[a]] == a or f"h(unit({a})) = {h[unit[a]]}" for a in cand.space.carrier)),
        LawReport.tally("h.M(h)=h.mult", m_h_then_h()),
    ]


def model_from_em(mi: MonadInstance, cand: EMCandidate) -> tuple[QuantAlgebra, list[LawReport]]:
    """Check the EM laws on any candidate, then read operation tables off it.

    op(a1..an) is h of the free algebra's ``optable[op]`` entry at the unit
    classes of a1..an. Needs depth >= 2, where that entry is no OVERFLOW.
    """
    if mi.depth < 2 and any(ar > 0 for _, ar in mi.sig.ops):
        raise QeqlogError("reading op tables off a structure map needs depth >= 2")
    reports = check_em_laws(mi, cand)
    if any(r.failed for r in reports):
        raise EMLawViolation(
            "; ".join(f"{r.law}: {r.first_failure}" for r in reports if r.failed)
        )
    fa = mi.free(cand.space)
    ops = {op: {args: cand.h[fa.class_name(fa.optable[op][tuple(fa.unit[a] for a in args)])]
                for args in itertools.product(cand.space.carrier, repeat=arity)}
           for op, arity in mi.sig.ops}
    return QuantAlgebra(cand.space, mi.sig, ops), reports


def check_hom_image_model(alg_a: QuantAlgebra, alg_b: QuantAlgebra, f: Mapping[str, str],
                          g: Mapping[str, str], theory: Theory, spec: GMetSpec,
                          budget: int = BUDGET_INTERPS) -> bool:
    """Homomorphic image along a map with a nonexpansive right inverse models
    everything the domain models; checks the hypotheses, then the conclusion."""
    if not is_homomorphism(f, alg_a, alg_b):
        raise PreconditionViolation("f is not a homomorphism")
    if not is_nonexpansive(g, alg_b.space, alg_a.space):
        raise PreconditionViolation("g is not nonexpansive")
    if any(f[g[b]] != b for b in alg_b.space.carrier):
        raise PreconditionViolation("f∘g is not the identity")
    if not is_model(alg_a, spec, theory, budget):
        raise PreconditionViolation("the domain algebra is not a model")
    return is_model(alg_b, spec, theory, budget)
