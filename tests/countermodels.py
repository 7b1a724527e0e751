"""Every two-point algebra of a spec's class, for soundness checks.

A finite algebra whose space is in the class and which satisfies every axiom
of a theory is a model of it, and by the soundness theorem a judgment that
saturation derives over a target holds in it under every nonexpansive
interpretation of the target. Operations need not be nonexpansive, so every
table is a candidate. The listing is brute force and reads nothing of the
engine but ``check_space``, which keeps the spaces of the class.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from qeqlog.gmet import EpsGrid, FuzzySpace, GMetSpec, check_space
from qeqlog.qalg import QuantAlgebra
from qeqlog.terms import Signature

CARRIER = ("p", "q")


@functools.cache
def two_point_spaces(grid: EpsGrid, spec: GMetSpec) -> tuple[FuzzySpace, ...]:
    """Each space over ``CARRIER`` that ``check_space`` passes, its four
    cells in product order."""
    spaces = (FuzzySpace(grid, CARRIER, (d[:2], d[2:]))
              for d in itertools.product(grid.values(), repeat=4))
    return tuple(space for space in spaces if not check_space(spec, space))


class TwoPointAlgebras(Sequence):
    """Each algebra over a space of :func:`two_point_spaces` with every
    choice of every operation's table, spaces outermost, built when read:
    a sequence, so that ``random.sample`` draws from it."""

    def __init__(self, sig: Signature, grid: EpsGrid, spec: GMetSpec):
        self.sig, self.spaces = sig, two_point_spaces(grid, spec)
        args = {op: list(itertools.product(CARRIER, repeat=arity)) for op, arity in sig.ops}
        self.tables = [dict(zip(sig.symbols, choice)) for choice in itertools.product(*(
            [dict(zip(args[op], values)) for values in itertools.product(CARRIER, repeat=len(args[op]))]
            for op in sig.symbols))]

    def __len__(self) -> int:
        return len(self.spaces) * len(self.tables)

    def __getitem__(self, k: int) -> QuantAlgebra:
        if not 0 <= k < len(self):
            raise IndexError(k)
        space, tables = divmod(k, len(self.tables))
        return QuantAlgebra(self.spaces[space], self.sig, self.tables[tables])
