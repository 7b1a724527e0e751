"""``EpsGrid`` reads and prints grid values without ``Fraction`` where it can.

``EpsGrid.value`` reads the int 0 or 1 and the ASCII strings "n" and "n/d"
with integer arithmetic, and ``EpsGrid.format`` prints with ``math.gcd``.
Both are checked against ``Fraction``: ``oracle`` below is the grid reader
that parsed every value through ``Fraction``, and ``format`` must print what
``str(Fraction(n, q))`` prints.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qeqlog.deduce import distance, saturate
from qeqlog.errors import GridMismatch
from qeqlog.gmet import MET, PMET, EpsGrid, GMetSpec
from qeqlog.qalg import Theory
from qeqlog.terms import Var


def oracle(q: int, x) -> int:
    """The numerator over q of x, every form read through ``Fraction``."""
    if isinstance(x, Fraction):
        f = x
    elif isinstance(x, bool):
        raise GridMismatch(f"not a distance: {x!r}")
    elif isinstance(x, int):
        f = Fraction(x)
    elif isinstance(x, float):
        f = Fraction(str(x))
    elif isinstance(x, str):
        f = Fraction(x)
    else:
        raise GridMismatch(f"cannot read grid value from {x!r}")
    scaled = f * q
    if scaled.denominator != 1 or not (0 <= scaled <= q):
        raise GridMismatch(f"{f} is not on the grid with denominator {q}")
    return int(scaled)


def outcome(read, *args):
    """The value of ``read(*args)``, or the type and message of what it raised."""
    try:
        return read(*args)
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        return type(exc), str(exc)


# the characters of Fraction's literals and their neighbours: signs, spaces,
# a decimal point, exponents, digit separators and non-ASCII digits
CHARS = "0123456789012/ +-.eE_\t１２٣"
SHORT = st.text(CHARS, max_size=8)
# past CPython's limit of 4,300 digits for int() of a string
LONG = st.builds(lambda n, d: d * n, st.integers(4290, 4310), st.sampled_from("0123456789"))
STRINGS = st.one_of(
    SHORT,
    st.builds(lambda n, d: f"{n}/{d}", st.integers(0, 130), st.integers(0, 130)),
    st.builds(lambda a, b: f"{a}/{b}", st.one_of(SHORT, LONG), st.one_of(SHORT, LONG)),
    LONG,
)
VALUES = st.one_of(STRINGS, st.integers(-3, 3), st.integers(), st.booleans(), st.floats(),
                   st.fractions(max_denominator=130))


@settings(max_examples=600, deadline=None)
@given(q=st.integers(1, 60), x=VALUES)
@example(q=4, x="1/2")
@example(q=4, x="１/２")
@example(q=4, x="2/4")
@example(q=4, x=" 1/2")
@example(q=4, x="1_0/20")
@example(q=4, x="01/02")
@example(q=4, x="1/0")
@example(q=4, x="0/0")
@example(q=4, x="1" * 4301)
@example(q=4, x="1/" + "2" * 4301)
@example(q=3, x=True)
def test_value_agrees_with_fraction(q, x):
    want = outcome(oracle, q, x)
    # a zero denominator is a grid error now, not a ZeroDivisionError
    if isinstance(want, tuple) and want[0] is ZeroDivisionError:
        want = (GridMismatch, f"zero denominator in {x!r}")
    grid = EpsGrid(q)
    # the second read of a str or int is the remembered one
    assert outcome(grid.value, x) == want
    assert outcome(grid.value, x) == want


def test_format_prints_what_fraction_prints():
    for q in range(1, 101):
        grid = EpsGrid(q)
        assert [grid.format(n) for n in grid.values()] == [str(Fraction(n, q))
                                                          for n in range(q + 1)]


def test_fraction_results_stay_fractions(ab_half, sig_u):
    assert type(ab_half.grid.fraction(2)) is Fraction
    db = saturate(sig_u, Theory("T", ()), MET, ab_half, 2)
    d = distance(db, Var("a"), Var("b"))
    assert type(d) is Fraction and d == Fraction(1, 2)


_PMET_CLAUSES = [
    {"name": "refl", "vars": ["x"], "conclusion": {"dist": ["x", "x", "0"]}},
    {"name": "symm", "vars": ["x", "y"], "premises": [{"dist": ["x", "y", "e"]}],
     "conclusion": {"dist": ["y", "x", "e"]}},
    {"name": "triangle", "vars": ["x", "y", "z"],
     "premises": [{"dist": ["x", "y", "e1"]}, {"dist": ["y", "z", "e2"]}],
     "conclusion": {"dist": ["x", "z", {"min1": {"plus": ["e1", "e2"]}}]}},
]
_MET_CLAUSES = _PMET_CLAUSES + [
    {"name": "zero_implies_eq", "vars": ["x", "y"], "premises": [{"dist": ["x", "y", "0"]}],
     "conclusion": {"eq": ["x", "y"]}},
    {"name": "eq_implies_zero", "vars": ["x", "y"], "premises": [{"eq": ["x", "y"]}],
     "conclusion": {"dist": ["x", "y", "0"]}},
]


# the presets hold the int 0; read from JSON, a constant is a Fraction
@pytest.mark.parametrize("spec, clauses", [(PMET, _PMET_CLAUSES), (MET, _MET_CLAUSES)],
                         ids=["PMET", "MET"])
def test_preset_clauses_equal_their_json_reading(spec, clauses):
    read = GMetSpec.from_json({"clauses": clauses})
    assert {type(c.conclusion.eps.value) for c in read.clauses if c.name == "refl"} == {Fraction}
    assert read.clauses == spec.clauses and hash(read.clauses) == hash(spec.clauses)
