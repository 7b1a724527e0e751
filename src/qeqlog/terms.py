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
import math
import re
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import partial
from operator import itemgetter

from ._record import Record
from .errors import QeqlogError, TrivialPair, UnknownVariable

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


# the longest text of a number that is read: int() converts 4,300 digits by default
MAX_DIGITS = 4_300


def number_text(value, what: str):
    """``value``, a number or its text, refused with an error that names
    ``what`` when it is text longer than ``MAX_DIGITS``."""
    if isinstance(value, str) and len(value) > MAX_DIGITS:
        raise QeqlogError(f"{what} is {len(value)} characters long, more than the limit of"
                          f" {MAX_DIGITS}")
    return value


# the most characters of a message that an error line prints
MAX_MESSAGE = 2000


def clipped(message: str) -> str:
    """``message`` whole up to MAX_MESSAGE characters, else its head and its length."""
    head = message[:MAX_MESSAGE]
    return head if head == message else f"{head}… ({len(message)} characters)"


def quoted(value) -> str:
    """``repr(value)`` of an input that an error names, each string, tuple,
    list and dict in it cut to its first MAX_MESSAGE characters or items
    before repr is taken: :func:`clipped` prints no more of it. The cut is
    iterative, as JSON nests deeper than a frame per level allows."""
    def cut(v):
        if isinstance(v, dict):
            return {cut(k): x for k, x in itertools.islice(v.items(), MAX_MESSAGE)}
        if isinstance(v, tuple):
            return tuple(map(cut, v[:MAX_MESSAGE]))
        return v[:MAX_MESSAGE] if isinstance(v, (str, list)) else v
    root = [value]
    todo = [root]
    while todo:
        container = todo.pop()
        for k in range(len(container)) if isinstance(container, list) else list(container):
            container[k] = cut(container[k])
            if isinstance(container[k], (list, dict)):
                todo.append(container[k])
    return repr(root[0])


def whole(value, what: str) -> int:
    """A whole number read from an int, an integral float or a string of
    digits. Anything else, None too, is an error that names ``what``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, str) and value.strip().isdecimal():
        value = int(number_text(value.strip(), what))
    elif type(value) is not int:
        raise QeqlogError(f"{what} is not an integer: {quoted(value)}")
    if value < 0:
        raise QeqlogError(f"{what} is negative: {quoted(value)}")
    return value


class Signature(Record):
    """Finite set of operation symbols with arities, looked up in one
    table by symbol. Arity-0 symbols are constants."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        arities = dict(self.ops)
        if len(arities) != len(self.ops):
            raise ValueError("duplicate operation symbol")
        for name, arity in self.ops:
            if not _IDENT_RE.match(name):
                raise ValueError(f"operation symbol {quoted(name)} is not an identifier")
            if arity < 0:
                raise ValueError(f"negative arity for {quoted(name)}")
        object.__setattr__(self, "_arity", arities)

    @classmethod
    def of(cls, ops: Mapping[str, int]) -> "Signature":
        return cls(tuple(sorted(ops.items())))

    @classmethod
    def from_json(cls, obj) -> "Signature":
        return cls.of({str(k): whole(v, f"arity of {quoted(k)}") for k, v in obj["ops"].items()})

    def arity(self, op: str) -> int:
        return self._arity[op]

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)


class Term:
    """Either a variable (carrier element) or an operation applied to terms."""

    __slots__ = ()


class Var(Term, Record):
    name: str


class App(Term, Record):
    op: str
    args: tuple[Term, ...]


def fold_tree(root, expand: Callable, combine: Callable):
    """``combine(head, child values)`` of ``root``, where ``expand(node)``
    gives ``(head, children)``, bottom up and children left to right, on one
    explicit stack, so no fold stops at the interpreter's recursion limit."""
    out, stack, heads, folded = [], [root], [], object()
    while stack:
        node = stack.pop()
        if node is folded:  # the innermost head's children are folded from out[k] on
            head, k = heads.pop()
            out[k:] = [combine(head, tuple(out[k:]))]
        else:
            head, children = expand(node)
            heads.append((head, len(out)))
            stack += (folded, *reversed(children))
    return out[0]


def fold_term(t: Term, leaf: Callable, node: Callable):
    """:func:`fold_tree` with ``leaf(name)`` per variable and ``node(op, argument values)``."""
    return fold_tree(t, lambda t: (t, ()) if isinstance(t, Var) else (t.op, t.args),
                     lambda head, values: leaf(head.name) if isinstance(head, Var) else node(head, values))


def lookup(values: Mapping[str, object], name: str):
    """``values[name]``: the value of a variable, or :class:`UnknownVariable`."""
    try:
        return values[name]
    except KeyError:
        raise UnknownVariable(name) from None


def term_depth(t: Term) -> int:
    return fold_term(t, lambda name: 1, lambda op, depths: 1 + max(depths, default=0))


def term_key(t: Term) -> tuple:
    """Sort key realizing the canonical order: depth, then symbol, then
    arguments. It is flat, so keys compare without recursion: the (depth,
    symbol, kind) entry of each subterm in preorder, an application's
    arguments closed by ``()``, which sorts first. A variable (kind 0) sorts
    before an identically-named constant (kind 1) at the same depth."""
    return fold_term(t, lambda name: ((1, name, 0),), lambda op, keys: (
        (1 + max((key[0][0] for key in keys), default=0), op, 1),
        *itertools.chain.from_iterable(keys), ()))


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
    carrier, arities = set(carrier), sig._arity
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize term at {quoted(text[pos:])}")
        tokens.append(m.group(1))
        pos = m.end()

    def token(i: int) -> str:
        if i >= len(tokens):
            raise ValueError(f"unexpected end of term in {quoted(text)}")
        return tokens[i]

    # the applications still open, innermost last, with their arguments so far
    open_apps: list[tuple[str, list[Term]]] = []
    i = 0
    while True:
        name = token(i)
        if name in ("(", ")", ","):
            raise ValueError(f"unexpected {quoted(name)} in {quoted(text)}")
        if tokens[i + 1:i + 2] == ["("]:
            i += 2
            if token(i) != ")":
                open_apps.append((name, []))
                continue
            term, i = App(name, ()), i + 1
        elif name in carrier:
            term, i = Var(name), i + 1
        elif arities.get(name) == 0:
            term, i = App(name, ()), i + 1
        else:
            raise ValueError(f"unknown name {quoted(name)} in {quoted(text)}")
        # the term just read is an argument: close each application it ends
        while open_apps:
            open_apps[-1][1].append(term)
            if token(i) == ",":
                i += 1
                break
            if token(i) != ")":
                raise ValueError(f"expected ',' or ')' in {quoted(text)}")
            op, args = open_apps.pop()
            term, i = App(op, tuple(args)), i + 1
        else:
            break
    if i != len(tokens):
        raise ValueError(f"trailing tokens in {quoted(text)}")
    # the first application in preorder with an unknown symbol or another arity
    error = fold_term(term, lambda name: None, lambda op, errors: (
        f"unknown operation {quoted(op)}" if op not in arities else
        f"arity mismatch for {quoted(op)}" if arities[op] != len(errors) else
        next(filter(None, errors), None)))
    if error:
        raise ValueError(error)
    return term


def term_vars(t: Term) -> frozenset[str]:
    return fold_term(t, lambda name: frozenset((name,)), lambda op, args: frozenset().union(*args))


def check_carrier(sig: Signature, carrier: Iterable[str]) -> None:
    """Refuse a carrier element named like an operation symbol: terms read it as a variable."""
    for name in carrier:
        if name in sig._arity:
            raise ValueError(f"carrier element {quoted(name)} collides with an operation symbol")


def check_nontrivial(sig: Signature, carrier: Iterable[str]) -> bool:
    """True iff terms exist: nonempty carrier or at least one constant."""
    return bool(tuple(carrier)) or 0 in sig._arity.values()


def apply_subst(subst: Mapping[str, Term], t: Term) -> Term:
    """Simultaneously replace every variable of ``t`` via ``subst``."""
    return fold_term(t, partial(lookup, subst), App)


# the deepest term compile_term compiles: evaluating a compiled term takes
# up to two frames per level, within the default recursion limit of 1,000
MAX_COMPILED_DEPTH = 200


def compile_term(t: Term, names: Sequence[str], tables: Mapping[str, Mapping]) -> Callable:
    """``t`` as a function of one value per name (entry i is the value of
    ``names[i]``): an application looks its argument values up in
    ``tables[op]``. A missing entry gives None, and so does every
    application above it, as no key holds None. A variable not in ``names``
    raises :class:`UnknownVariable` at once, and a term nested more than
    ``MAX_COMPILED_DEPTH`` levels deep a :class:`QeqlogError`."""
    if term_depth(t) > MAX_COMPILED_DEPTH:
        raise QeqlogError(f"a term nested more than {MAX_COMPILED_DEPTH} levels deep"
                          " cannot be evaluated")
    positions = {name: names.index(name) for name in names}

    def node(op: str, args: tuple) -> Callable:
        # an operation without a table has no entries
        get = tables.get(op, {}).get
        # most of a model check is spent here: spare unary and binary
        # operations the argument list
        if len(args) == 1:
            (arg,) = args
            return lambda tau: get((arg(tau),))
        if len(args) == 2:
            first, second = args
            return lambda tau: get((first(tau), second(tau)))
        return lambda tau: get(tuple([arg(tau) for arg in args]))

    return fold_term(t, lambda name: itemgetter(lookup(positions, name)), node)


# the most bits of a count that is computed: 2**14_000 has 4,215 digits, which
# str prints; a larger count is past every limit, and is named as a power
MAX_COUNT_BITS = 14_000


def power(base: int, exponent: int) -> int | str:
    """``base ** exponent``, or the text ``"base**exponent"`` when it has more
    than ``MAX_COUNT_BITS`` bits, which is decided before it is computed."""
    if base > 1 and exponent * math.log2(base) > MAX_COUNT_BITS:
        return f"{base}**{exponent}"
    return base ** exponent


def total(counts: Iterable[int | str]) -> int | str:
    """The sum of counts that :func:`power` gives: a number, or text when
    one of them is text, the sum of the numbers then each text joined by
    " + "."""
    counts = list(counts)
    texts = [c for c in counts if isinstance(c, str)]
    number = sum(c for c in counts if not isinstance(c, str))
    return " + ".join(([str(number)] if number else []) + texts) if texts else number


def exceeds(count: int | str, limit: int) -> bool:
    """Whether a count from :func:`power` or :func:`total` is more than
    ``limit``: text always is."""
    return isinstance(count, str) or count > limit


def layer_sizes(sig: Signature, carrier: Iterable[str]) -> Iterator[int | str]:
    """``len(enumerate_universe(sig, carrier, d))`` for d = 1, 2, ..., lazily
    and without building it: each layer holds the leaves and every operation
    over the layer below. After the first count that is text (:func:`total`),
    every layer is "over" it."""
    leaves = len(dict.fromkeys(carrier)) + sum(1 for _, ar in sig.ops if ar == 0)
    size = leaves
    while True:
        yield size
        if isinstance(size, str):
            yield from itertools.repeat(f"over {size}")
        size = total([leaves, *(power(size, ar) for _, ar in sig.ops if ar > 0)])


def universe_size(sig: Signature, carrier: Iterable[str], depth: int) -> int | str:
    """``len(enumerate_universe(sig, carrier, depth))`` (:func:`layer_sizes`)."""
    return next(itertools.islice(layer_sizes(sig, carrier), max(depth, 1) - 1, None))


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
