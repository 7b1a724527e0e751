"""Signatures, terms, substitution and the bounded term universe.

Terms use carrier-element names directly as variables; there is no separate
variable sort. The canonical order (depth first, then symbol, then arguments)
makes universe enumeration and quotient representatives deterministic. The
universe is enumerated in that order as ids (:func:`universe_nodes`): a
term's position (its universe id) names it below the API boundary, and an
application is its operation over the ids of its arguments. Trees are for
parsing, printing and results.
"""
from __future__ import annotations

import itertools
import re
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from ._record import Record
from .errors import QeqlogError, TrivialPair, UnknownVariable

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def whole(value, what: str) -> int | None:
    """A whole number read from an int, an integral float or a string of
    digits; None stays None. Anything else is an error that names ``what``."""
    if isinstance(value, float) and value.is_integer() or \
            isinstance(value, str) and value.strip().isdecimal():
        value = int(value)
    elif value is not None and type(value) is not int:
        raise QeqlogError(f"{what} is not an integer: {value!r}")
    if value is not None and value < 0:
        raise QeqlogError(f"{what} is negative: {value!r}")
    return value


class Signature(Record):
    """Finite set of operation symbols with arities. Arity-0 symbols are constants."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.ops]
        if len(set(names)) != len(names):
            raise ValueError("duplicate operation symbol")
        for name, arity in self.ops:
            if not _IDENT_RE.match(name):
                raise ValueError(f"operation symbol {name!r} is not an identifier")
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")

    @classmethod
    def of(cls, ops: Mapping[str, int]) -> "Signature":
        return cls(tuple(sorted(ops.items())))

    @classmethod
    def from_json(cls, obj) -> "Signature":
        return cls.of({str(k): whole(v, f"arity of {k!r}") for k, v in obj["ops"].items()})

    def arity(self, op: str) -> int:
        for name, arity in self.ops:
            if name == op:
                return arity
        raise KeyError(op)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    def has_constant(self) -> bool:
        return any(arity == 0 for _, arity in self.ops)


class Term:
    """Either a variable (carrier element) or an operation applied to terms."""

    __slots__ = ()


class Var(Term, Record):
    name: str


class App(Term, Record):
    op: str
    args: tuple[Term, ...]


# Walks over a tree keep their own stack, so that a term nested past the
# interpreter's recursion limit is still parsed, printed and measured.

def _preorder(t: Term):
    """The subterms of ``t``, each before its arguments, left to right."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, App):
            stack += reversed(t.args)


def term_depth(t: Term) -> int:
    depth, stack = 0, [(t, 1)]
    while stack:
        t, d = stack.pop()
        depth = max(depth, d)
        if isinstance(t, App):
            stack += [(a, d + 1) for a in t.args]
    return depth


def term_key(t: Term):
    """Sort key realizing the canonical order: depth, then symbol, then arguments.

    Variables sort before an identically-named constant at the same depth.
    """
    if isinstance(t, Var):
        return (1, t.name, 0, ())
    return (term_depth(t), t.op, 1, tuple(term_key(a) for a in t.args))


def canonical_cmp(t1: Term, t2: Term) -> int:
    """-1, 0 or 1 according to the canonical total order."""
    k1, k2 = term_key(t1), term_key(t2)
    return -1 if k1 < k2 else (0 if k1 == k2 else 1)


def _render(t: Term, var: Callable[[str], str]) -> str:
    """Prefix syntax, with ``var(name)`` for each variable."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(var(t.name))
        elif not t.args:
            out.append(t.op)
        else:
            out.append(f"{t.op}(")
            stack.append(")")
            for k in range(len(t.args) - 1, 0, -1):
                stack += (t.args[k], ",")
            stack.append(t.args[0])
    return "".join(out)


def term_to_str(t: Term) -> str:
    return _render(t, str)


def term_label(t: Term, symbols: frozenset[str]) -> str:
    """Injective rendering of a term, for use as a quotient-class name.

    Identical to term_to_str except that a variable is bracketed when its name
    is not a plain identifier or shadows an operation symbol. Iterated
    quotients (carrier names that are themselves labels) therefore stay
    collision-free: ``[u(a)]`` names the generator, ``u([a])`` an application.
    """
    return _render(t, lambda name: name if _IDENT_RE.match(name) and name not in symbols
                   else f"[{name}]")


_TOKEN = re.compile(r"\s*([A-Za-z0-9_'.\-]+|\(|\)|,)")


def parse_term(text: str, sig: Signature, carrier: Iterable[str]) -> Term:
    """Parse prefix syntax like ``u(u(a))`` or ``c``.

    Names are resolved against the carrier first, then against the signature's
    constants; carrier names must therefore not collide with symbols.
    """
    carrier = set(carrier)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize term at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    def token(i: int) -> str:
        if i >= len(tokens):
            raise ValueError(f"unexpected end of term in {text!r}")
        return tokens[i]

    # the applications still open, innermost last, with their arguments so far
    open_apps: list[tuple[str, list[Term]]] = []
    i = 0
    while True:
        name = token(i)
        if name in ("(", ")", ","):
            raise ValueError(f"unexpected {name!r} in {text!r}")
        if tokens[i + 1:i + 2] == ["("]:
            i += 2
            if token(i) != ")":
                open_apps.append((name, []))
                continue
            term, i = App(name, ()), i + 1
        elif name in carrier:
            term, i = Var(name), i + 1
        elif name in sig.symbols and sig.arity(name) == 0:
            term, i = App(name, ()), i + 1
        else:
            raise ValueError(f"unknown name {name!r} in {text!r}")
        # the term just read is an argument: close each application it ends
        while open_apps:
            open_apps[-1][1].append(term)
            if token(i) == ",":
                i += 1
                break
            if token(i) != ")":
                raise ValueError(f"expected ',' or ')' in {text!r}")
            op, args = open_apps.pop()
            term, i = App(op, tuple(args)), i + 1
        else:
            break
    if i != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    for t in _preorder(term):
        if isinstance(t, App):
            if t.op not in sig.symbols:
                raise ValueError(f"unknown operation {t.op!r}")
            if sig.arity(t.op) != len(t.args):
                raise ValueError(f"arity mismatch for {t.op!r}")
    return term


def term_vars(t: Term) -> frozenset[str]:
    return frozenset(s.name for s in _preorder(t) if isinstance(s, Var))


def check_carrier(sig: Signature, carrier: Iterable[str]) -> None:
    """Refuse a carrier element named like an operation symbol: terms read it as a variable."""
    for name in carrier:
        if name in sig.symbols:
            raise ValueError(f"carrier element {name!r} collides with an operation symbol")


def check_nontrivial(sig: Signature, carrier: Iterable[str]) -> bool:
    """True iff terms exist: nonempty carrier or at least one constant."""
    return bool(tuple(carrier)) or sig.has_constant()


def apply_subst(subst: Mapping[str, Term], t: Term) -> Term:
    """Simultaneously replace every variable of ``t`` via ``subst``."""
    if isinstance(t, Var):
        try:
            return subst[t.name]
        except KeyError:
            raise UnknownVariable(t.name) from None
    return App(t.op, tuple(apply_subst(subst, a) for a in t.args))


# the deepest term compile_term compiles: compiling and evaluating a term take
# about two frames per level, within the default recursion limit of 1,000
MAX_COMPILED_DEPTH = 200


def compile_term(t: Term, names: Sequence[str], tables: Mapping[str, Mapping]) -> Callable:
    """``t`` as a function of one value per name (entry i is the value of
    ``names[i]``): an application looks its argument values up in
    ``tables[op]``. A missing entry gives None, and so does every
    application above it, as no key holds None. A variable not in ``names``
    raises :class:`UnknownVariable` at once, and a term nested more than
    ``MAX_COMPILED_DEPTH`` levels deep a :class:`QeqlogError`."""
    return _compile(t, names, tables, MAX_COMPILED_DEPTH)


def _compile(t: Term, names: Sequence[str], tables: Mapping[str, Mapping], room: int) -> Callable:
    if not room:
        raise QeqlogError(f"a term nested more than {MAX_COMPILED_DEPTH} levels deep"
                          " cannot be evaluated")
    if isinstance(t, Var):
        try:
            return itemgetter(names.index(t.name))
        except ValueError:
            raise UnknownVariable(t.name) from None
    # an operation without a table has no entries
    get = tables.get(t.op, {}).get
    args = tuple(_compile(a, names, tables, room - 1) for a in t.args)
    # most of a model check is spent here: spare unary and binary
    # operations the argument list
    if len(args) == 1:
        (arg,) = args
        return lambda tau: get((arg(tau),))
    if len(args) == 2:
        first, second = args
        return lambda tau: get((first(tau), second(tau)))
    return lambda tau: get(tuple([arg(tau) for arg in args]))


def universe_size(sig: Signature, carrier: Iterable[str], depth: int) -> int:
    """``len(enumerate_universe(sig, carrier, depth))``, without building it:
    each layer holds the leaves and every operation over the layer below."""
    leaves = len(dict.fromkeys(carrier)) + sum(1 for _, ar in sig.ops if ar == 0)
    size = leaves
    for _ in range(depth - 1):
        size = leaves + sum(size ** ar for _, ar in sig.ops if ar > 0)
    return size


def universe_nodes(sig: Signature, carrier: Iterable[str], depth: int) -> list[tuple]:
    """The terms of depth <= depth over the carrier as ids, in canonical
    order: entry i is ``(name, None)`` for a variable and ``(op, argument
    ids)`` for an application, every argument id below i.

    Layer by layer: the leaves by name, a variable first; then each operation
    in name order over argument ids in lexicographic order, keeping the
    tuples that reach into the previous layer. That is the canonical order.
    """
    carrier = tuple(dict.fromkeys(carrier))
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not check_nontrivial(sig, carrier):
        raise TrivialPair("empty carrier and no constants")
    leaves = sorted([(a, False) for a in carrier] + [(op, True) for op, ar in sig.ops if ar == 0])
    nodes: list = [(name, () if is_op else None) for name, is_op in leaves]
    start = 0
    for _ in range(depth - 1):
        end = len(nodes)
        for name, arity in sorted(sig.ops):
            if arity:
                nodes += [(name, args) for args in itertools.product(range(end), repeat=arity)
                          if max(args) >= start]
        start = end
    return nodes


def fold_nodes(nodes, leaf: Callable, node: Callable) -> list:
    """One value per entry of :func:`universe_nodes`, bottom up: ``leaf(name)``
    for a variable, ``node(op, argument values)`` for an application."""
    out: list = []
    for name, args in nodes:
        out.append(leaf(name) if args is None else node(name, tuple([out[k] for k in args])))
    return out


def enumerate_universe(sig: Signature, carrier: Iterable[str], depth: int) -> list[Term]:
    """All terms of depth <= depth over the carrier, in canonical order: the
    trees of :func:`universe_nodes`."""
    return fold_nodes(universe_nodes(sig, carrier, depth), Var, App)
