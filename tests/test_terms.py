from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qeqlog.errors import QeqlogError, TrivialPair, UnknownVariable
from qeqlog.gmet import EpsGrid, FuzzySpace
from qeqlog.qalg import QuantAlgebra, eval_term
from qeqlog.terms import (
    MAX_COMPILED_DEPTH,
    App,
    Signature,
    Var,
    apply_subst,
    canonical_cmp,
    check_nontrivial,
    compile_term,
    enumerate_universe,
    exceeds,
    fold_tree,
    parse_term,
    power,
    term_depth,
    term_key,
    term_to_str,
    term_vars,
    total,
    universe_nodes,
    universe_size,
)


SIG_UC = Signature.of({"u": 1, "c": 0})


def terms_strategy(sig=SIG_UC, carrier=("a", "b")):
    leaves = st.sampled_from(
        [Var(a) for a in carrier]
        + [App(name, ()) for name, ar in sig.ops if ar == 0]
    )

    def extend(children):
        apps = [
            st.builds(
                lambda *args, op=name: App(op, tuple(args)),
                *([children] * arity),
            )
            for name, arity in sig.ops
            if arity > 0
        ]
        return st.one_of(apps) if apps else children

    return st.recursive(leaves, extend, max_leaves=6)


class TestNontrivial:
    def test_no_constants_empty_carrier(self):
        assert check_nontrivial(Signature.of({"u": 1}), []) is False

    def test_constant_rescues_empty_carrier(self):
        assert check_nontrivial(Signature.of({"c": 0}), []) is True

    def test_nonempty_carrier(self):
        assert check_nontrivial(Signature.of({}), ["a"]) is True


class TestApplySubst:
    def test_direct_replacement(self):
        t = apply_subst({"x": Var("a")}, App("u", (Var("x"),)))
        assert t == App("u", (Var("a"),))

    def test_nested_replacement(self):
        t = apply_subst({"x": App("u", (Var("a"),))}, App("u", (Var("x"),)))
        assert t == App("u", (App("u", (Var("a"),)),))

    def test_variable_case(self):
        assert apply_subst({"x": Var("a"), "y": Var("b")}, Var("x")) == Var("a")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            apply_subst({"x": Var("a")}, Var("y"))

    @given(terms_strategy())
    def test_distributes_over_application(self, t):
        sigma = {"a": App("u", (Var("b"),)), "b": Var("a")}
        if isinstance(t, App) and t.args:
            lhs = apply_subst(sigma, t)
            rhs = App(t.op, tuple(apply_subst(sigma, a) for a in t.args))
            assert lhs == rhs


class TestCompileTerm:
    # g encodes its three arguments as base-3 digits, u adds one below 2
    TABLES = {
        "g": {args: 9 * args[0] + 3 * args[1] + args[2]
              for args in itertools.product(range(3), repeat=3)},
        "u": {(0,): 1, (1,): 2},
        "c": {(): 2},
    }

    def test_each_arity_reads_its_arguments_in_order(self):
        t = App("g", (Var("y"), App("u", (Var("x"),)), App("c", ())))
        f = compile_term(t, ("x", "y"), self.TABLES)
        for x, y in itertools.product(range(2), range(3)):
            assert f((x, y)) == 9 * y + 3 * (x + 1) + 2

    def test_missing_entry_gives_none_at_the_root(self):
        t = App("g", (Var("x"), Var("x"), App("u", (Var("x"),))))
        f = compile_term(t, ("x",), self.TABLES)
        assert f((1,)) == 9 + 3 + 2
        assert f((2,)) is None

    def test_unknown_variable_is_refused_when_compiled(self):
        with pytest.raises(UnknownVariable):
            compile_term(App("u", (Var("y"),)), ("x",), self.TABLES)

    def test_depth_limit(self):
        def nested(levels):
            t = Var("x")
            for _ in range(levels - 1):
                t = App("u", (t,))
            return t
        tables = {"u": {(0,): 0}}
        assert compile_term(nested(MAX_COMPILED_DEPTH), ("x",), tables)((0,)) == 0
        with pytest.raises(QeqlogError, match=f"more than {MAX_COMPILED_DEPTH} levels deep"):
            compile_term(nested(MAX_COMPILED_DEPTH + 1), ("x",), tables)


class TestEnumerateUniverse:
    def test_unary_depth_two(self):
        got = enumerate_universe(Signature.of({"u": 1}), ["a", "b"], 2)
        want = [Var("a"), Var("b"), App("u", (Var("a"),)), App("u", (Var("b"),))]
        assert got == want

    def test_lone_constant(self):
        assert enumerate_universe(Signature.of({"c": 0}), [], 1) == [App("c", ())]

    def test_mixed_signature_matches_brute_force(self):
        # reference: filter all syntax trees up to the bound, then sort
        got = enumerate_universe(SIG_UC, ["a"], 2)
        leaves = [Var("a"), App("c", ())]
        reference = set(leaves) | {App("u", (l,)) for l in leaves}
        assert got == sorted(reference, key=term_key)
        assert [term_to_str(t) for t in got] == ["a", "c", "u(a)", "u(c)"]

    def test_trivial_pair_raises(self):
        with pytest.raises(TrivialPair):
            enumerate_universe(Signature.of({"u": 1}), [], 2)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_nesting_and_count_recurrence(self, depth):
        sig = Signature.of({"u": 1, "b": 2, "c": 0})
        carrier = ["a"]
        smaller = enumerate_universe(sig, carrier, depth)
        larger = enumerate_universe(sig, carrier, depth + 1)
        assert set(smaller) <= set(larger)
        m = len(smaller)
        expected = len(carrier) + sum(
            m ** ar if ar else 1 for _, ar in sig.ops
        )
        assert len(larger) == expected

    def test_exact_depth_bound(self):
        for t in enumerate_universe(SIG_UC, ["a"], 3):
            assert term_depth(t) <= 3


def _sorted_set_universe(sig, carrier, depth):
    """Every tree up to the depth bound, collected in a set and sorted by
    ``term_key``: the construction the enumerator has to agree with."""
    universe = {Var(a) for a in carrier} | {App(name, ()) for name, ar in sig.ops if ar == 0}
    for _ in range(depth - 1):
        layer = list(universe)
        for name, arity in sig.ops:
            if arity:
                universe |= {App(name, args) for args in itertools.product(layer, repeat=arity)}
    return sorted(universe, key=term_key)


def _universe_cases(test):
    """Draw (ops, n_carrier, depth) for a universe of at most 300 terms.

    Op names include carrier point names, so a constant can share a name
    with a variable; the signature tuple is left in drawn order.
    """
    test = example(ops=[("u", 1), ("a", 0), ("f", 2)], n_carrier=2, depth=2)(test)
    test = given(
        st.lists(
            st.tuples(st.sampled_from(("f", "a", "u", "b", "c", "g")), st.sampled_from((0, 1, 2))),
            max_size=4,
            unique_by=lambda op: op[0],
        ),
        st.integers(0, 3),
        st.integers(1, 3),
    )(test)
    return settings(deadline=None)(test)


def _universe_case(ops, n_carrier, depth):
    sig = Signature(tuple(ops))
    carrier = ("b", "a", "c")[:n_carrier]
    assume(check_nontrivial(sig, carrier))
    size = leaves = n_carrier + sum(ar == 0 for _, ar in ops)
    for _ in range(depth - 1):
        size = leaves + sum(size ** ar for _, ar in ops if ar)
    assume(size <= 300)
    return sig, carrier, depth


class TestUniverseOrder:
    @_universe_cases
    def test_matches_sorted_set(self, ops, n_carrier, depth):
        sig, carrier, depth = _universe_case(ops, n_carrier, depth)
        assert enumerate_universe(sig, carrier, depth) == _sorted_set_universe(sig, carrier, depth)

    @_universe_cases
    def test_arguments_are_earlier_members(self, ops, n_carrier, depth):
        # DerivationDB reads the ids off universe_nodes and builds no tree:
        # entry i must be the tree at position i, over earlier argument ids
        case = _universe_case(ops, n_carrier, depth)
        universe = enumerate_universe(*case)
        nodes = universe_nodes(*case)
        assert len(nodes) == len(universe)
        for i, ((name, args), t) in enumerate(zip(nodes, universe)):
            if args is None:
                assert t == Var(name)
            else:
                assert all(k < i for k in args)
                assert t == App(name, tuple(universe[k] for k in args))


class TestUniverseSize:
    @_universe_cases
    def test_matches_enumeration(self, ops, n_carrier, depth):
        sig, carrier, depth = _universe_case(ops, n_carrier, depth)
        assert universe_size(sig, carrier, depth) == len(enumerate_universe(sig, carrier, depth)) \
            == len(universe_nodes(sig, carrier, depth))

    def test_repeated_carrier_name_counts_once(self):
        assert universe_size(SIG_UC, ["a", "a"], 2) == len(enumerate_universe(SIG_UC, ["a", "a"], 2)) == 4


class TestCanonicalOrder:
    def test_depth_first(self):
        assert canonical_cmp(Var("a"), App("u", (Var("a"),))) == -1

    def test_equal(self):
        assert canonical_cmp(Var("a"), Var("a")) == 0

    def test_lexicographic_arguments(self):
        assert canonical_cmp(App("u", (Var("a"),)), App("u", (Var("b"),))) == -1

    @given(terms_strategy(), terms_strategy(), terms_strategy())
    def test_strict_total_order(self, t1, t2, t3):
        # antisymmetric and total
        c12, c21 = canonical_cmp(t1, t2), canonical_cmp(t2, t1)
        assert c12 == -c21
        assert (c12 == 0) == (t1 == t2)
        # transitive
        if canonical_cmp(t1, t2) <= 0 and canonical_cmp(t2, t3) <= 0:
            assert canonical_cmp(t1, t3) <= 0

    def test_deterministic_across_shuffles(self):
        universe = enumerate_universe(SIG_UC, ["a", "b"], 3)
        rng = random.Random(7)
        shuffled = universe[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled, key=term_key) == universe


class TestParseAndPrint:
    @pytest.mark.parametrize("text", ["a", "c", "u(a)", "u(u(c))"])
    def test_roundtrip(self, text):
        t = parse_term(text, SIG_UC, ["a", "b"])
        assert term_to_str(t) == text

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            parse_term("u(a,b)", SIG_UC, ["a", "b"])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            parse_term("w(a)", SIG_UC, ["a"])

    @pytest.mark.parametrize("text", ["f(a", "f(a,b", "f(a,", "c(", "f(u(a),u(b"])
    def test_truncated_input(self, text):
        sig = Signature.of({"f": 2, "u": 1, "c": 0})
        with pytest.raises(ValueError, match=r"^unexpected end of term in "):
            parse_term(text, sig, ["a", "b"])

    # a constant may be written with an empty argument list
    def test_constant_with_parentheses(self):
        assert parse_term("u(c())", SIG_UC, ["a"]) == App("u", (App("c", ()),))

    def test_binary(self):
        sig = Signature.of({"f": 2})
        t = parse_term("f(a,f(b,a))", sig, ["a", "b"])
        assert t == App("f", (Var("a"), App("f", (Var("b"), Var("a")))))

    @pytest.mark.parametrize("levels", [500, 5000])
    def test_deep_terms(self, levels):
        # past the interpreter's recursion limit: each walk keeps its own stack
        sig = Signature.of({"f": 2, "u": 1, "c": 0})
        text = "f(u(" * levels + "a" + "),c)" * levels
        t = parse_term(text, sig, ["a"])
        assert term_to_str(t) == text
        assert term_depth(t) == 2 * levels + 1
        with pytest.raises(ValueError, match="^arity mismatch for 'u'$"):
            parse_term(text.replace("a", "a,a"), sig, ["a"])


def test_deep_term_api_keeps_its_own_stack():
    # u(...u(a)...) 3,000 levels deep, past the default recursion limit:
    # each function folds the tree with its own stack, and only compile_term
    # refuses a term, past MAX_COMPILED_DEPTH
    assert sys.getrecursionlimit() == 1000
    sig, levels = Signature.of({"u": 1}), 3000
    text = "u(" * levels + "a" + ")" * levels
    t = parse_term(text, sig, ["a", "b"])
    assert term_to_str(t) == text
    assert term_depth(t) == levels + 1
    assert term_vars(t) == {"a"}
    s = apply_subst({"a": App("u", (Var("b"),))}, t)
    assert term_to_str(s) == "u(" * (levels + 1) + "b" + ")" * (levels + 1)
    assert (term_depth(s), term_vars(s)) == (levels + 2, {"b"})
    with pytest.raises(UnknownVariable, match="^a$"):
        apply_subst({"b": Var("a")}, t)
    b = apply_subst({"a": Var("b")}, t)
    assert (canonical_cmp(t, b), canonical_cmp(b, t), canonical_cmp(t, t)) == (-1, 1, 0)
    assert canonical_cmp(t, parse_term(text, sig, ["a"])) == 0
    assert (canonical_cmp(t, s), canonical_cmp(s, t)) == (-1, 1)
    point = QuantAlgebra(FuzzySpace(EpsGrid(2), ("p",), ((0,),)), sig, {"u": {("p",): "p"}})
    assert eval_term(point, {"a": "p"}, t) == "p"
    with pytest.raises(UnknownVariable, match="^a$"):
        eval_term(point, {"b": "p"}, t)
    tables = {"u": {(0,): 0}}
    assert compile_term(parse_term("u(" * 199 + "a" + ")" * 199, sig, ["a"]), ("a",), tables)((0,)) == 0
    for deep in (parse_term("u(" * 200 + "a" + ")" * 200, sig, ["a"]), t):
        with pytest.raises(QeqlogError, match="^a term nested more than 200 levels deep cannot be evaluated$"):
            compile_term(deep, ("a",), tables)


class TestFoldTree:
    """fold_tree folds any tree bottom up on one explicit stack, its
    children left to right, at the default recursion limit."""

    def test_a_chain_folds_bottom_up(self):
        assert sys.getrecursionlimit() == 1000
        levels, order = 5000, []

        def expand(k):  # node k has the one child k + 1, and the last node none
            return k, (k + 1,) if k < levels - 1 else ()

        def combine(k, below):
            order.append(k)
            return 1 + sum(below)

        assert fold_tree(0, expand, combine) == levels
        assert order == list(range(levels - 1, -1, -1))

    def test_children_fold_left_to_right(self):
        order = []

        def combine(head, values):
            order.append(head)
            return head + "".join(values)

        tree = ("r", [("a", []), ("b", [("c", []), ("d", [])]), ("e", [])])
        assert fold_tree(tree, lambda node: node, combine) == "rabcde"
        assert order == ["a", "c", "d", "b", "e", "r"]
        wide = ("w", [(f"{k:05d}", []) for k in range(10_000)])
        assert fold_tree(wide, lambda node: node, lambda head, values: (head, values)) == (
            "w", tuple((f"{k:05d}", ()) for k in range(10_000)))


class TestSignature:
    def test_duplicate_symbol_rejected(self):
        with pytest.raises(ValueError):
            Signature((("u", 1), ("u", 2)))

    def test_symbol_that_is_not_an_identifier_rejected(self):
        with pytest.raises(ValueError) as exc:
            Signature.of({"1u": 1})
        assert str(exc.value) == "operation symbol '1u' is not an identifier"

    def test_negative_arity_rejected(self):
        with pytest.raises(ValueError):
            Signature.of({"u": -1})

    def test_arity_of_an_unknown_symbol_is_a_key_error(self):
        with pytest.raises(KeyError) as exc:
            Signature.of({"u": 1}).arity("v")
        assert repr(exc.value) == "KeyError('v')"

    def test_json_roundtrip(self):
        assert Signature.from_json({"ops": {"u": 1, "c": 0}}) == SIG_UC


class TestCounts:
    def test_power_past_its_bits_is_named_not_computed(self):
        # 3**8000 has 12,680 bits and 3,818 digits; 127**2047 has 4,307 digits
        assert power(3, 8000) == 3 ** 8000
        assert power(127, 2047) == "127**2047"
        assert power(3, 10**100) == f"3**{10**100}"
        assert (power(0, 10**100), power(1, 10**100), power(5, 0)) == (0, 1, 1)

    def test_total_keeps_the_text(self):
        assert total([3, 4]) == 7
        assert total([3, "3**100000", 2]) == "5 + 3**100000"
        assert total([0, "3**100000"]) == "3**100000"
        assert exceeds("3**100000", 10**18) and exceeds(11, 10) and not exceeds(10, 10)

    def test_layer_past_its_bits_is_the_last(self):
        sig = Signature.of({"f": 10**8, "c": 0})
        assert universe_size(sig, ["a", "b"], 1) == 3
        assert universe_size(sig, ["a", "b"], 2) == "3 + 3**100000000"
        assert universe_size(sig, ["a", "b"], 5) == "over 3 + 3**100000000"
