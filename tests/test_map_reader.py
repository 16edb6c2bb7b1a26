"""The one-scan map reader of `parsing` against the recursive-descent evaluator.

`parsing._read_map` reads sums of signed products straight into the
coefficient dicts and declines every other text, which `_parse_all`
then decides.  Drawn sums are never declined and give the evaluator's
dicts.  On the mutated texts of `test_parser_oracle.py` and on mutated
bracket and affine texts, `parse_map` gives the same map, or the same
error type, message and position, with the reader as without it.  The
texts the program prints (`affine_str`) and the bracket texts of the
benchmark's analyze jobs never reach the evaluator.
"""

import random
import time

import pytest
from hypothesis import assume, given, strategies as st

import arithdyn as ad
from arithdyn import parsing
from arithdyn.errors import ArithDynError

from conftest import random_map
from test_parser_oracle import FIELDS, affine, bracket, inputs, mutate, outcome

F2T = ad.function_field(2)
F3T = ad.function_field(3)
BLANKS = ["", "", " ", "  ", "\t"]


def read(field, s):
    """The reader's value for the stripped text `s`, or None if it declines."""
    brackets = s.startswith("[")
    symbols = parsing._FORM_SYMBOLS if brackets else parsing._AFFINE_SYMBOLS
    try:
        return parsing._read_map(field, symbols, s, brackets)
    except (parsing._Decline, ad.BudgetExceededError):
        return None


def evaluate(field, s):
    """The evaluator's value for the stripped text `s`."""
    brackets = s.startswith("[")
    symbols = parsing._FORM_SYMBOLS if brackets else parsing._AFFINE_SYMBOLS
    return parsing._parse_all(s, parsing._FractionAlgebra(field, symbols, brackets), brackets)


@st.composite
def sums(draw, field, variables):
    """A sum of signed products with random blanks: integers, (-n), `**`
    and `^` powers, repeated and zero monomials, and t-coefficients."""

    def pick(options):
        return draw(st.sampled_from(options))

    def coefficient():
        kind = draw(st.integers(0, 1 if field.is_rationals else 3))
        if kind == 0:
            return str(draw(st.integers(0, 40)))
        if kind == 1:
            return f"(-{draw(st.integers(1, 9))})"
        if kind == 2:
            return pick(["t", "t^0", "t^2", "t**3"])
        monomials = draw(st.lists(st.sampled_from(["t", "2*t^2", "t**3", "1", "2"]), min_size=1, max_size=3))
        return "(" + pick(["", "-"]) + "".join(m if i == 0 else pick("+-") + m for i, m in enumerate(monomials)) + ")"

    def factor():
        if draw(st.booleans()):
            return coefficient()
        power = pick(["", "^", "**", " ^ "])
        return pick(variables) + (f"{power}{draw(st.integers(0, 5))}" if power else "")

    text = ""
    for k in range(draw(st.integers(1, 6))):
        product = f"{pick(BLANKS)}*{pick(BLANKS)}".join(factor() for _ in range(draw(st.integers(1, 4))))
        text += f"{pick(BLANKS)}{pick(['', '-'] if k == 0 else ['+', '-'])}{pick(BLANKS)}{product}"
    return text


@st.composite
def map_texts(draw):
    field = draw(st.sampled_from(FIELDS))
    shape = draw(st.sampled_from(["bracket", "sum", "fraction"]))
    if shape == "bracket":
        f, g = draw(sums(field, ["X", "Y"])), draw(sums(field, ["X", "Y"]))
        return field, f"[{f}{draw(st.sampled_from(BLANKS))}:{g} ]"
    if shape == "sum":
        return field, draw(sums(field, ["z"])).strip()
    num, den = draw(sums(field, ["z"])), draw(sums(field, ["z"]))
    return field, f"({num}){draw(st.sampled_from(BLANKS))}/ ({den})"


@given(map_texts())
def test_drawn_sums_are_read_as_the_evaluator_reads_them(drawn):
    field, s = drawn
    try:
        want = evaluate(field, s)
    except ad.MapParseError as exc:
        assert str(exc) == "division by zero", s
        assume(False)
    assert read(field, s) == want, s


def test_zero_denominator_is_declined():
    assert read(ad.QQ, "(z)/(z-z)") is None
    assert read(ad.QQ, "[X : 3 - 3]") == (({(1, 0): 1}, {(0, 0): 1}), ({}, {(0, 0): 1}))


def parse_either_way(monkeypatch, field, s):
    """parse_map's outcome with the reader, and with every text declined."""
    with_reader = outcome(ad.parse_map, s, field)
    with monkeypatch.context() as m:
        m.setattr(parsing, "_read_map", declining)
        return with_reader, outcome(ad.parse_map, s, field)


def declining(*args):
    raise parsing._Decline


def bracket_text(fco, gco, coeff_text):
    """The bracket text of the benchmark's analyze jobs: (c)*X^i*Y^(d-i) terms."""
    def form(co):
        d = len(co) - 1
        return " + ".join(f"({coeff_text(c)})*X^{i}*Y^{d - i}" for i, c in enumerate(co) if c)
    return f"[{form(fco)} : {form(gco)}]"


def printed_texts(field, rng, count):
    """affine_str and bracket texts of random maps, with the maps."""
    out = []
    for _ in range(count):
        phi = random_map(field, rng, max_degree=rng.randint(1, 6))
        out.append((phi.affine_str(), phi))
        out.append((bracket_text(phi.fco, phi.gco, field.ring.to_str), phi))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mutated_texts_get_one_answer(monkeypatch, field):
    rng = random.Random(3900 + field.char)
    texts = inputs(rng, affine, field, 300) + inputs(rng, bracket, field, 300)
    texts += [mutate(rng, s) for s, _ in printed_texts(field, rng, 400)]
    kinds = {}
    for s in texts:
        got, want = parse_either_way(monkeypatch, field, s)
        assert got == want, s
        kind = "declined" if read(field, s.strip()) is None else "read"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["read"] >= 100 and kinds["declined"] >= 300, kinds


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_printed_texts_never_reach_the_evaluator(monkeypatch, field):
    def evaluator(*args, **kwargs):
        raise AssertionError("the reader declined a text it should take")

    rng = random.Random(4000 + field.char)
    texts = printed_texts(field, rng, 60)
    texts.append(("[X^2+Y^2 : X*Y]", ad.make_map(field, (1, 0, 1), (0, 1, 0))))
    texts.append(("[X**2 - 7*X*Y : Y ^ 2]", ad.make_map(field, (0, -7, 1), (1, 0, 0))))
    monkeypatch.setattr(parsing, "_parse_all", evaluator)
    for s, want in texts:
        assert ad.parse_map(s, field) == want, s


@pytest.mark.parametrize(
    "s",
    [
        "[+X : Y]",  # the grammar has no unary plus
        "[X*-Y : Y^2]",
        "[2X : Y]",
        "[(X) : Y]",
        "[X^2^3 : Y]",
        "[(1+(1))*X : Y]",
        "(z)/(z)/(z)",
        "z/(z+1)",
        f"[X^{parsing.MAX_DEGREE + 1} : Y]",
        "[" + "9" * 4301 + "*X : Y]",
    ],
)
def test_declined_texts(s):
    assert read(ad.QQ, s) is None


def test_values_past_the_limits_are_declined():
    # a literal of MAX_BOUND_DIGITS digits passes the bit limit on its own
    # over Q; over F_2(t), t^20000 is the longest value, t^20001 is not
    big = "9" * parsing.MAX_BOUND_DIGITS
    assert read(ad.QQ, f"[{big}*X : Y]") is None
    assert read(ad.QQ, f"[{big[:-1]}*X : Y]") is not None
    assert read(F2T, "[t^20000*X : Y]") is not None
    assert read(F2T, "[t^20001*X : Y]") is None
    assert read(F3T, "[(t^10000+1)*(t^10001)*X : Y]") is None
    for s in (f"[{big}*X : Y]", "[t^20001*X : Y]"):
        with pytest.raises(ArithDynError):
            ad.parse_map(s, F2T if "t" in s else ad.QQ)


def test_blank_runs_are_read_in_linear_time():
    # a run of blanks before a character no factor takes: a pattern with
    # two adjacent blank runs backtracked over it quadratically
    blanks = " " * 50_000
    start = time.perf_counter()
    for s in (f"[X{blanks}$ : Y]", f"[X*{blanks}$ : Y]", f"[(-{blanks}$) : Y]", f"({blanks}z)/(z"):
        assert read(ad.QQ, s) is None
    # and so does the evaluator's tokenizer, which a search for the next
    # token made quadratic: 12 s at 20,000 blanks
    with pytest.raises(ad.MapParseError, match="position 50002"):
        ad.parse_map(f"[X{blanks}$ : Y]", ad.QQ)
    assert time.perf_counter() - start < 1.0
