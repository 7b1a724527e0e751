"""Finite fuzzy-relation spaces and Horn-definable classes of them.

All distances live on a finite grid {0, 1/q, ..., 1} and are stored as integer
numerators over q, so every comparison, sum and infimum is exact. A class of
spaces (FREL, PMET, MET, or user-defined) is a finite list of Horn clauses over
atoms ``x = y`` and ``d(x, y) <= expr``.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache

from ._record import Record
from .errors import BudgetExceeded, GridMismatch, SpecViolation, UnsupportedPreset
from .terms import MAX_COMPILED_DEPTH, exceeds, number_text, power, quoted


class EpsGrid(Record):
    """The value set {0, 1/q, ..., 1}; members are handled as numerators over q.

    The int 0 or 1, and an ASCII string "n" or "n/d" of digits alone, are
    read with integer arithmetic when they lie on the grid. Every other
    form (a Fraction, a float, a sign, spaces, a decimal point, an exponent,
    "_", non-ASCII digits) and every value off the grid is read through
    ``Fraction``, which is imported only then.
    """

    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("grid denominator must be >= 1")

    def value(self, x) -> int:
        """Parse a math value (Fraction, exact string, int, decimal float) to a numerator."""
        if type(x) is int and 0 <= x <= 1:
            return x * self.q
        if type(x) is str and x.isascii():
            top, slash, bottom = x.partition("/")
            if top.isdigit() and (bottom.isdigit() or not slash):
                try:
                    n, d = int(top), int(bottom or 1)
                except ValueError:  # more digits than int() reads
                    pass
                else:
                    if 0 < d and n <= d:
                        num, rem = divmod(n * self.q, d)
                        if not rem:
                            return num
        return self._parse_fraction(x)

    def _parse_fraction(self, x) -> int:
        from fractions import Fraction

        if isinstance(x, bool):
            raise GridMismatch(f"not a distance: {quoted(x)}")
        if isinstance(x, (int, Fraction)):
            f = Fraction(x)
        elif isinstance(x, float):
            f = Fraction(str(x))
        elif isinstance(x, str):
            try:
                f = Fraction(x)
            except ZeroDivisionError:
                raise GridMismatch(f"zero denominator in {quoted(x)}") from None
        else:
            raise GridMismatch(f"cannot read grid value from {quoted(x)}")
        scaled = f * self.q
        if scaled.denominator != 1 or not (0 <= scaled <= self.q):
            raise GridMismatch(f"{f} is not on the grid with denominator {self.q}")
        return int(scaled)

    def fraction(self, num: int) -> Fraction:
        from fractions import Fraction

        return Fraction(num, self.q)

    def format(self, num: int) -> str:
        """``str(Fraction(num, q))``: "n/d" in lowest terms, or "n" when d is 1."""
        g = math.gcd(num, self.q)
        return str(num // g) if g == self.q else f"{num // g}/{self.q // g}"

    def values(self) -> range:
        return range(self.q + 1)


class FuzzySpace(Record):
    """Finite carrier with a total grid-valued distance table."""

    grid: EpsGrid
    carrier: tuple[str, ...]
    dist: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("duplicate carrier element")
        if any(not name for name in self.carrier):
            raise ValueError("empty carrier element name")
        n = len(self.carrier)
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise ValueError("distance table shape does not match carrier")
        # the distinct types and values at C speed; the loop names the first bad cell
        if not all(issubclass(t, int) for t in set().union(*(map(type, row) for row in self.dist))) \
                or not all(0 <= v <= self.grid.q for v in set().union(*self.dist)):
            for v in itertools.chain.from_iterable(self.dist):
                if not isinstance(v, int) or not (0 <= v <= self.grid.q):
                    raise GridMismatch(f"distance {quoted(v)} off the grid (q={self.grid.q})")
        object.__setattr__(self, "_idx", {a: i for i, a in enumerate(self.carrier)})

    @classmethod
    def of(cls, grid: EpsGrid, carrier: Iterable[str], dist_rows) -> "FuzzySpace":
        """Build from any grid-parseable entries (fractions, strings, floats)."""
        carrier = tuple(carrier)
        rows = tuple(tuple(grid.value(number_text(v, "distance")) for v in row) for row in dist_rows)
        return cls(grid, carrier, rows)

    @classmethod
    def from_json(cls, obj, grid: EpsGrid) -> "FuzzySpace":
        carrier, rows = obj["carrier"], obj["dist"]
        # a JSON string would otherwise be read as a list of its characters
        if not (isinstance(carrier, list) and isinstance(rows, list)
                and all(isinstance(row, list) for row in rows)):
            raise TypeError(f"space carrier, dist and its rows must be JSON lists: {quoted(obj)}")
        return cls.of(grid, [str(a) for a in carrier], rows)

    def index(self, name: str) -> int:
        return self._idx[name]

    def d(self, a: str, b: str) -> int:
        return self.dist[self._idx[a]][self._idx[b]]


# --- epsilon expression language: constants, parameters, +, min(.,1) ---

class EpsExpr:
    """``eval(env, q)`` is the expression's numerator over q, its parameters
    read from ``env``; ``params()`` is the frozenset of their names."""

    __slots__ = ()


class EpsConst(EpsExpr, Record):
    # an int or a Fraction: the presets hold the int 0, equal to Fraction(0)
    value: int | Fraction

    def eval(self, env, q):
        scaled = self.value * q
        if scaled.denominator != 1:
            raise GridMismatch(f"clause constant {self.value} off the grid (q={q})")
        return int(scaled)

    def params(self):
        return frozenset()


class EpsParam(EpsExpr, Record):
    name: str

    def eval(self, env, q):
        return env[self.name]

    def params(self):
        return frozenset((self.name,))


class EpsPlus(EpsExpr, Record):
    terms: tuple[EpsExpr, ...]

    def eval(self, env, q):
        return sum(t.eval(env, q) for t in self.terms)

    def params(self):
        return frozenset().union(*(t.params() for t in self.terms))


class EpsMin1(EpsExpr, Record):
    inner: EpsExpr

    def eval(self, env, q):
        return min(q, self.inner.eval(env, q))

    def params(self):
        return self.inner.params()


def eps_expr_from_json(obj, room: int = MAX_COMPILED_DEPTH) -> EpsExpr:
    """The expression of a JSON value; ``min1`` and ``plus`` nested more than
    ``room`` levels deep are an error, as hashing such a record would exhaust
    the recursion limit."""
    if isinstance(obj, str) and obj.isidentifier():
        # no identifier parses as a Fraction, so a parameter name needs no import
        return EpsParam(obj)
    from fractions import Fraction

    if isinstance(obj, str):
        try:
            return EpsConst(Fraction(number_text(obj, "clause constant")))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad epsilon expression: {quoted(obj)}") from None
    if isinstance(obj, (int, float)):
        return EpsConst(Fraction(str(obj)))
    if isinstance(obj, dict):
        if not room:
            raise ValueError(f"an epsilon expression nested more than {MAX_COMPILED_DEPTH}"
                             " levels deep")
        if "plus" in obj:
            return EpsPlus(tuple(eps_expr_from_json(t, room - 1) for t in obj["plus"]))
        if "min1" in obj:
            return EpsMin1(eps_expr_from_json(obj["min1"], room - 1))
    raise ValueError(f"bad epsilon expression: {quoted(obj)}")


class EqAtom(Record):
    x: str
    y: str


class DistAtom(Record):
    x: str
    y: str
    eps: EpsExpr


Atom = EqAtom | DistAtom


class HornClause(Record):
    name: str
    vars: tuple[str, ...]
    premises: tuple[Atom, ...]
    conclusion: Atom

    def __post_init__(self):
        declared = set(self.vars)
        for atom in (*self.premises, self.conclusion):
            if atom.x not in declared or atom.y not in declared:
                raise ValueError(f"clause {quoted(self.name)} uses an undeclared variable")

    def param_names(self) -> tuple[str, ...]:
        return tuple(sorted(frozenset().union(*(atom.eps.params() for atom in (
            *self.premises, self.conclusion) if isinstance(atom, DistAtom)))))


def _atom_from_json(obj, clause: str) -> Atom:
    """The atom ``{"eq": [x, y]}`` or ``{"dist": [x, y, eps]}``; a list of
    another length is a TypeError that names the atom and its clause."""
    for kind, size in (("eq", 2), ("dist", 3)):
        if kind in obj:
            if not (isinstance(obj[kind], list) and len(obj[kind]) == size):
                raise TypeError(f"atom {quoted(obj)} of clause {quoted(clause)} needs {size} entries")
            x, y, *eps = obj[kind]
            return DistAtom(str(x), str(y), eps_expr_from_json(eps[0])) if eps else EqAtom(str(x), str(y))
    raise ValueError(f"bad atom: {quoted(obj)}")


class GMetSpec(Record):
    """A Horn-definable class of fuzzy-relation spaces."""

    name: str
    clauses: tuple[HornClause, ...]

    @classmethod
    def from_json(cls, obj) -> "GMetSpec":
        if "preset" in obj:
            try:
                return PRESETS[obj["preset"]]
            except KeyError:
                raise ValueError(f"unknown preset {quoted(obj['preset'])}") from None
        clauses = []
        for i, c in enumerate(obj["clauses"]):
            name, names = str(c.get("name", f"clause{i}")), tuple(str(v) for v in c["vars"])
            atoms = [_atom_from_json(a, name) for a in (*c.get("premises", []), c["conclusion"])]
            clauses.append(HornClause(name, names, tuple(atoms[:-1]), atoms[-1]))
        return cls(str(obj.get("name", "user")), tuple(clauses))


_REFL = HornClause("refl", ("x",), (), DistAtom("x", "x", EpsConst(0)))
_SYMM = HornClause(
    "symm", ("x", "y"), (DistAtom("x", "y", EpsParam("e")),), DistAtom("y", "x", EpsParam("e"))
)
_TRIANGLE = HornClause(
    "triangle",
    ("x", "y", "z"),
    (DistAtom("x", "y", EpsParam("e1")), DistAtom("y", "z", EpsParam("e2"))),
    DistAtom("x", "z", EpsMin1(EpsPlus((EpsParam("e1"), EpsParam("e2"))))),
)
_ZERO_IMPLIES_EQ = HornClause(
    "zero_implies_eq", ("x", "y"), (DistAtom("x", "y", EpsConst(0)),), EqAtom("x", "y")
)
_EQ_IMPLIES_ZERO = HornClause(
    "eq_implies_zero", ("x", "y"), (EqAtom("x", "y"),), DistAtom("x", "y", EpsConst(0))
)

FREL = GMetSpec("FREL", ())
PMET = GMetSpec("PMET", (_REFL, _SYMM, _TRIANGLE))
MET = GMetSpec("MET", (_REFL, _SYMM, _TRIANGLE, _ZERO_IMPLIES_EQ, _EQ_IMPLIES_ZERO))
PRESETS = {"FREL": FREL, "PMET": PMET, "MET": MET}


class Violation(Record):
    clause: str
    assignment: tuple[tuple[str, str], ...]
    params: tuple[tuple[str, int], ...]

    def describe(self, grid: EpsGrid) -> str:
        assign = ", ".join(f"{v}={a}" for v, a in self.assignment)
        params = ", ".join(f"{p}={grid.format(n)}" for p, n in self.params)
        extra = f" [{params}]" if params else ""
        return f"{self.clause}: {assign}{extra}"


class _Bounds(dict):
    """min(q, eps) per parameter vector, each evaluated on its first lookup.

    Lazy on purpose: an off-grid clause constant raises GridMismatch only
    when an instance reaches it.
    """

    def __init__(self, eps: EpsExpr, params: tuple[str, ...], q: int):
        super().__init__()
        self.eps, self.params, self.q = eps, params, q

    def __missing__(self, pvec: tuple[int, ...]) -> int:
        value = self[pvec] = min(self.q, self.eps.eval(dict(zip(self.params, pvec)), self.q))
        return value


# the most grid vectors a clause with a compound parameterised premise is
# tried at, refused before they are listed: about 0.1 GB of tuples
MAX_GRID_VECTORS = 2**20


def compile_clause(clause: HornClause, q: int):
    """(params, vectors, prems, cx, cy, conc_bounds) for one clause.

    Positions index the clause's variables; a premise is (x position, y
    position, solved parameter index or -1, bounds), and equality atoms have
    no bounds. Bare-parameter premises are solved from the one zero vector:
    the least parameter is the max of their distances. A compound
    parameterised premise cannot be solved, so then every grid vector is tried;
    more than ``MAX_GRID_VECTORS`` of them are refused before any is built.
    """
    params = clause.param_names()
    solve = not any(
        isinstance(p, DistAtom) and p.eps.params() and not isinstance(p.eps, EpsParam)
        for p in clause.premises
    )
    if solve:
        vectors = [(0,) * len(params)]
    else:
        count = power(q + 1, len(params))
        if exceeds(count, MAX_GRID_VECTORS):
            raise BudgetExceeded(f"clause {quoted(clause.name)}: {count} grid vectors, "
                                 f"more than the limit of {MAX_GRID_VECTORS}")
        vectors = list(itertools.product(range(q + 1), repeat=len(params)))
    pos = {v: k for k, v in enumerate(clause.vars)}
    prems = [
        (pos[p.x], pos[p.y], -1, None) if isinstance(p, EqAtom) else (
            pos[p.x], pos[p.y],
            params.index(p.eps.name) if solve and isinstance(p.eps, EpsParam) else -1,
            _Bounds(p.eps, params, q),
        )
        for p in clause.premises
    ]
    conc = clause.conclusion
    conc_bounds = None if isinstance(conc, EqAtom) else _Bounds(conc.eps, params, q)
    return params, vectors, prems, pos[conc.x], pos[conc.y], conc_bounds


def clause_failures(compiled, cells: dict[int, int], q: int, n: int, tuples: Iterable,
                    find: Callable | None = None):
    """The instances of a clause compiled by :func:`compile_clause` over
    ``tuples`` of table positions (read through ``find`` when given) whose
    premises hold and whose conclusion the table violates, lazily, as (tuple,
    positions read, parameter vector, parameter values). The distance of
    positions i and j is ``cells.get(i * n + j, q)``, read when an instance
    reaches it: a write between two yields is seen by the later instances."""
    _, vectors, prems, cx, cy, conc_bounds = compiled
    get = cells.get
    for a in tuples:
        reps = a if find is None else [find(r) for r in a]
        for pvec in vectors:
            vals = list(pvec)
            for xp, yp, si, bounds in prems:
                if bounds is None:
                    if reps[xp] != reps[yp]:
                        break
                elif si >= 0:
                    d = get(reps[xp] * n + reps[yp], q)
                    if d > vals[si]:
                        vals[si] = d
                elif get(reps[xp] * n + reps[yp], q) > bounds[pvec]:
                    break
            else:
                x, y = reps[cx], reps[cy]
                if x != y if conc_bounds is None else get(x * n + y, q) > conc_bounds[tuple(vals)]:
                    yield a, reps, pvec, vals


# the most assignments of one clause that check_space walks, refused before
# the walk: 719 times the 5,832 of the largest check that a test or benchmark
# query makes (MET's triangle over 18 points), and about 3 s
MAX_ASSIGNMENTS = 2**22


def check_space(spec: GMetSpec, sp: FuzzySpace) -> list[Violation]:
    """Instantiate every clause over the carrier; list the instances that fail.

    A clause whose parameters are solved lists each failing assignment once,
    at its least parameter vector (every violating vector lies above it);
    any other clause lists every failing grid vector. Either way the first
    entry is that of the exhaustive reference loop in ``tests/oracle.py``.
    A clause of more than ``MAX_ASSIGNMENTS`` assignments is refused before
    any is walked.
    """
    m, q = len(sp.carrier), sp.grid.q
    cells = _cells(sp)
    out: list[Violation] = []
    for clause in spec.clauses:
        k = len(clause.vars)
        if exceeds(power(m, k), MAX_ASSIGNMENTS):
            raise BudgetExceeded(f"clause {quoted(clause.name)} over {m} points: {m}**{k} assignments,"
                                 f" more than the limit of {MAX_ASSIGNMENTS}")
        compiled = compile_clause(clause, q)
        tuples = itertools.product(range(m), repeat=k)
        for a, _, _, vals in clause_failures(compiled, cells, q, m, tuples):
            names = tuple(zip(clause.vars, (sp.carrier[i] for i in a)))
            out.append(Violation(clause.name, names, tuple(zip(compiled[0], vals))))
    return out


@lru_cache(maxsize=1024)
def first_violation(spec: GMetSpec, sp: FuzzySpace) -> Violation | None:
    return next(iter(check_space(spec, sp)), None)


def require_space(spec: GMetSpec, sp: FuzzySpace, what: str = "space") -> None:
    if (first := first_violation(spec, sp)) is not None:
        raise SpecViolation(f"{what} violates {spec.name}: {first.describe(sp.grid)}")


def is_nonexpansive(f: Mapping[str, str], src: FuzzySpace, dst: FuzzySpace) -> bool:
    """True iff dst-distance of images never exceeds the src-distance."""
    return all(
        dst.d(f[a], f[b]) <= src.d(a, b)
        for a in src.carrier
        for b in src.carrier
    )


def _cells(sp: FuzzySpace) -> dict[int, int]:
    """The distances of ``sp`` below 1 under ``i * m + j``, as saturation stores its own."""
    m, q = len(sp.carrier), sp.grid.q
    return {i * m + j: v for i, row in enumerate(sp.dist) for j, v in enumerate(row) if v < q}


def images_within(sd, cells: dict[int, int], q: int, n: int, choices: Sequence[Sequence[int]],
                  find: Callable | None = None) -> Iterator[tuple[int, ...]]:
    """The tuples of candidates, one from ``choices[i]`` per source point i,
    under which no distance exceeds the source's ``sd``, lazily, in product
    order; the distance from b to c is ``cells.get(find(b) * n + find(c), q)``,
    with no ``find`` the identity.

    A depth-first search: a prefix is extended only by a candidate that leaves
    every pair within ``sd``. Cells and ``find`` are read when the search
    reaches them, so later tuples see a change made between two; the prefix
    taken is not rechecked.
    """
    get, size = cells.get, len(sd)
    taken: list[int] = []  # the index in its choices of each candidate in images
    images: list[int] = []  # the candidates of source points 0 .. len(images) - 1
    reads: list[int] = []  # each of them through find
    b = 0  # the index of the next candidate to try for source point len(images)
    while True:
        k = len(images)
        if k == size:
            yield tuple(images)
        else:
            pool, sk, m = choices[k], sd[k], len(choices[k])
            while b < m:
                c = pool[b]
                r = c if find is None else find(c)
                if get(r * n + r, q) <= sk[k]:
                    for i, s in enumerate(reads):
                        if get(r * n + s, q) > sk[i] or get(s * n + r, q) > sd[i][k]:
                            break
                    else:
                        break
                b += 1
            if b < m:
                taken.append(b)
                images.append(c)
                reads.append(r)
                b = 0
                continue
        if not images:
            return
        b = taken.pop() + 1
        images.pop()
        reads.pop()


# the interpretation budget of a check that sets none: over ten times the most
# that any test or benchmark query counts, 46,656 maps (the `models` `ump`)
BUDGET_INTERPS = 1_000_000


def charge_candidates(base: int, exponent: int, budget: int, kind: str) -> int:
    """The ``base**exponent`` candidate ``kind`` that a check counts, refused
    with ``BudgetExceeded`` above the budget. The message prints the count as
    :func:`~qeqlog.terms.power` gives it."""
    count = power(base, exponent)
    if exceeds(count, budget):
        raise BudgetExceeded(f"{count} candidate {kind} exceed budget {budget}")
    return count


def nonexpansive_images(src: FuzzySpace, dst: FuzzySpace,
                        budget: int = BUDGET_INTERPS) -> Iterator[tuple[int, ...]]:
    """The total nonexpansive maps src -> dst as image tuples (entry i is the
    dst index of src point i), from :func:`images_within` over dst's points.
    The budget counts all |dst|^|src| candidates, when iteration begins."""
    m = len(dst.carrier)
    charge_candidates(m, len(src.carrier), budget, "interpretations")
    yield from images_within(src.dist, _cells(dst), dst.grid.q, m, [range(m)] * len(src.carrier))


def enumerate_nonexpansive(src: FuzzySpace, dst: FuzzySpace,
                           budget: int = BUDGET_INTERPS) -> list[dict[str, str]]:
    """All total nonexpansive maps src -> dst, in carrier-product order: the
    maps of :func:`nonexpansive_images`, by name."""
    named = dst.carrier.__getitem__
    return [dict(zip(src.carrier, map(named, images))) for images in nonexpansive_images(src, dst, budget)]


def tuple_name(names: Iterable[str]) -> str:
    return "(" + ",".join(names) + ")"


def discrete_lift(spec: GMetSpec, sp: FuzzySpace, n: int) -> FuzzySpace:
    """The discrete lifting of the n-ary product for a preset class: 1
    between distinct tuples, and on the diagonal 1 for FREL and 0 for MET
    and PMET. Any set-function out of the lifted power into a space of the
    class is then automatically nonexpansive.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec not in (FREL, PMET, MET):
        raise UnsupportedPreset(f"no discrete lifting is defined for spec {quoted(spec.name)}")
    q = sp.grid.q
    diagonal = q if spec == FREL else 0
    tuples = list(itertools.product(sp.carrier, repeat=n))
    rows = tuple(tuple(diagonal if t1 == t2 else q for t2 in tuples) for t1 in tuples)
    return FuzzySpace(sp.grid, tuple(tuple_name(t) for t in tuples), rows)
