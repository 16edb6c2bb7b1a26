"""The parser on fractions over the integral ring against the parser over K.

`reference.reference_parse_map` / `reference_parse_element` evaluate in K
(forms over K, num/den pairs over K, an lcm of denominators before
make_map).  On random affine maps, bracket pairs and constants over Q,
F_2(t) and F_3(t) (rational and t coefficients, 1/t, nested quotients and
powers, and mutated, malformed strings) both parsers give the same map or
element, or the same error: type, message and position.

`reference.reference_parse_point` splits a bracket point at ':' and
normalizes two parsed elements; `parse_point` reads it with the bracket
grammar of the maps.  Both give the same point, or an error of the same
type; the positions differ by design (they index the whole input now).

`reference.reference_tokenize` is the package's former tokenizer, one
regex `match` per token; `parsing._tokenize` scans once with `finditer`.
On random and mutated strings both give the same (kind, text, pos) list,
or the same error: type, message and position.
"""

import random

import pytest

import arithdyn as ad
from arithdyn.errors import ArithDynError, MapParseError
from arithdyn.fields import MAX_BOUND_DIGITS
from arithdyn.parsing import MAX_DEGREE, _tokenize

from reference import (
    reference_parse_element,
    reference_parse_map,
    reference_parse_point,
    reference_tokenize,
)

F2T = ad.function_field(2)
F3T = ad.function_field(3)
FIELDS = [ad.QQ, F2T, F3T]
MUTATION_CHARS = "()+-*/^:[]zXYt0123 w$"


def outcome(parse, *args):
    """The parsed value, or (error type, message, position)."""
    try:
        return parse(*args)
    except ArithDynError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def leaf(rng, field):
    """An integer, or over F_p(t) often t, 1/t, t+1 or t^2; t is rare over
    Q, where it is an error."""
    if not field.is_rationals and rng.random() < 0.4:
        return rng.choice(["t", "1/t", "(t+1)", "t^2"])
    if field.is_rationals and rng.random() < 0.01:
        return "t"
    return str(rng.choice([0, 1, 1, 2, 3, 4, 5, 7, 9, 12, 16, 25]))


def divisor(rng, field):
    """Usually a nonzero constant."""
    if rng.random() < 0.1:
        return constant(rng, field, 1)
    if field.is_rationals:
        return rng.choice(["2", "3", "(5/7)", "-4", "(1+1)"])
    return rng.choice(["t", "(t+1)", "t^2", "(t^2+t+1)", "(t-1/t)", str(field.char + 1)])


def constant(rng, field, depth=2):
    """Sums, products, quotients and powers of leaves."""
    r = rng.random()
    if depth == 0 or r < 0.35:
        return leaf(rng, field)
    if r < 0.45:
        return f"({constant(rng, field, depth - 1)})^{rng.randint(0, 3)}"
    if r < 0.5:
        return f"-{constant(rng, field, depth - 1)}"
    if r < 0.65:
        return f"({constant(rng, field, depth - 1)}/{divisor(rng, field)})"
    op = rng.choice("+-*")
    return f"({constant(rng, field, depth - 1)}{op}{constant(rng, field, depth - 1)})"


def affine(rng, field, depth=3):
    """A rational expression in z with constant coefficients."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return "z" if rng.random() < 0.6 else constant(rng, field, 1)
    if r < 0.45:
        return f"({affine(rng, field, depth - 1)})^{rng.randint(0, 3)}"
    if r < 0.5:
        return f"-{affine(rng, field, depth - 1)}"
    op = rng.choice("++-**/")
    return f"({affine(rng, field, depth - 1)}{op}{affine(rng, field, depth - 1)})"


def form(rng, field, k):
    """A form of degree k, usually homogeneous, sometimes divided by a
    constant; rarely inhomogeneous or divided by a non-constant."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, k)
        if rng.random() < 0.3 and i:
            mono = f"({constant(rng, field, 1)}*X+{constant(rng, field, 1)}*Y)^{i}*Y^{k - i}"
        else:
            mono = f"X^{i}*Y^{k - i}"
        if rng.random() < 0.05:
            mono += "*X"
        terms.append(f"{constant(rng, field)}*{mono}")
    out = "+".join(terms)
    r = rng.random()
    if r < 0.3:
        out = f"({out})/{divisor(rng, field)}"
    elif r < 0.35:
        out = f"({out})/(X+Y)"
    return out


def bracket(rng, field):
    k = rng.randint(1, 3)
    return f"[{form(rng, field, k)} : {form(rng, field, k)}]"


def mutate(rng, s: str) -> str:
    """Delete, insert or replace one character."""
    i = rng.randrange(len(s) + 1)
    c = rng.choice(MUTATION_CHARS)
    kind = rng.choice(["delete", "insert", "replace"])
    if kind == "delete" and i < len(s):
        return s[:i] + s[i + 1 :]
    if kind == "replace" and i < len(s):
        return s[:i] + c + s[i + 1 :]
    return s[:i] + c + s[i:]


def inputs(rng, make, field, count):
    out = []
    for _ in range(count):
        s = make(rng, field)
        out.append(mutate(rng, s) if rng.random() < 0.25 else s)
    return out


def tally(results) -> dict:
    kinds = {}
    for r in results:
        key = r[0] if isinstance(r, tuple) else "value"
        kinds[key] = kinds.get(key, 0) + 1
    return kinds


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_maps_equal_the_reference(field):
    rng = random.Random(1500 + field.char)
    exprs = inputs(rng, affine, field, 350) + inputs(rng, bracket, field, 300)
    results = []
    for s in exprs:
        got = outcome(ad.parse_map, s, field)
        assert got == outcome(reference_parse_map, s, field), s
        results.append(got)
    kinds = tally(results)
    assert kinds["value"] >= 200 and kinds["MapParseError"] >= 100, kinds
    assert kinds.get("DegenerateMapError", 0) >= 5, kinds


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_elements_equal_the_reference(field):
    rng = random.Random(1510 + field.char)
    exprs = inputs(rng, lambda rng, field: constant(rng, field, 3), field, 250)
    exprs += inputs(rng, affine, field, 20)  # z is refused here
    results = []
    for s in exprs:
        got = outcome(ad.parse_element, field, s)
        assert got == outcome(reference_parse_element, field, s), s
        results.append(got)
    kinds = tally(results)
    assert kinds["value"] >= 100 and kinds["MapParseError"] >= 50, kinds


def test_degree_refusals_equal_the_reference():
    half = MAX_DEGREE // 2 + 1
    exprs = [
        f"1/(z^{half}+1) + 1/(z^{half}-1)",
        f"(z^{half}+1) * (z^{half}-1)",
        f"(z^{half}+1) / (z^{half}-1) + 1",
        f"((z+1)^{half})^2",
        f"z^{MAX_DEGREE} + 1/(z+1)",
        f"z^{MAX_DEGREE} + 1/2",
        f"[X^{half} * (X^{half} + Y^{half}) : Y]",
        f"[(X+Y)^{MAX_DEGREE}/3 : Y^{MAX_DEGREE}/5 + X^{MAX_DEGREE}]",
    ]
    for field in FIELDS:
        for s in exprs:
            want = outcome(reference_parse_map, s, field)
            assert outcome(ad.parse_map, s, field) == want, (s, field)
    assert outcome(ad.parse_map, exprs[0], ad.QQ)[0] == "BudgetExceededError"


def pad(rng) -> str:
    return rng.choice(["", "", " ", "  ", "\t"])


def point(rng, field):
    """An affine constant, a bracket pair of constants, or infinity, with
    random whitespace around the parts."""
    r = rng.random()
    if r < 0.05:
        return pad(rng) + rng.choice(["inf", "oo"]) + pad(rng)
    if r < 0.35:
        return pad(rng) + constant(rng, field) + pad(rng)
    x, y = constant(rng, field), constant(rng, field)
    return f"{pad(rng)}[{pad(rng)}{x}{pad(rng)}:{pad(rng)}{y}{pad(rng)}]{pad(rng)}"


def error_type(result):
    return result[0] if isinstance(result, tuple) else result


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_points_equal_the_reference(field):
    rng = random.Random(1800 + field.char)
    results = []
    for s in inputs(rng, point, field, 400):
        got = outcome(ad.parse_point, field, s)
        assert error_type(got) == error_type(outcome(reference_parse_point, field, s)), s
        results.append(got)
    kinds = tally(results)
    assert kinds["value"] >= 250 and kinds["MapParseError"] >= 50, kinds


@pytest.mark.parametrize(
    "s, message, position",
    [
        ("[1 : 2x]", "expected ']'", 6),
        ("[1:2x]", "expected ']'", 4),
        ("[ : 1]", "expected a value", 2),
        ("[1:2:3]", "expected ']'", 4),
        ("  7x", "trailing input", 3),
    ],
)
def test_point_errors_index_the_whole_input(s, message, position):
    with pytest.raises(MapParseError, match=message) as info:
        ad.parse_point(ad.QQ, s)
    assert info.value.position == position


# whitespace runs, tabs, newlines, a no-break space, `**`, non-ASCII
# letters and digits (z², é, €, the Arabic-Indic three), and junk
TOKEN_PIECES = [
    "z", "X", "Y", "t", "inf", "7", "42", "0", "+", "-", "*", "**", "/", "^", "(", ")",
    "[", "]", ":", " ", "   ", "\t", "\n", " \t\n ", "\u00a0", "²", "z²", "é", "€",
    "\u0663", "$", "w", ".", "_",
]


def tokens_or_error(tokenize, s):
    """(kind, text, pos) of each token, or (error type, message, position)."""
    try:
        return [(tok.kind, tok.text, tok.pos) for tok in tokenize(s)]
    except ArithDynError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def token_inputs(rng):
    out = []
    for _ in range(600):
        s = "".join(rng.choice(TOKEN_PIECES) for _ in range(rng.randint(0, 12)))
        out.append(s + rng.choice(["", " ", "  \t", "\n"]))
    for field in FIELDS:
        for make in (affine, bracket):
            for _ in range(100):
                s = make(rng, field)
                for _ in range(rng.randint(1, 3)):
                    s = mutate(rng, s)
                out.append(s.replace("^", rng.choice(["^", "**", " ^ "])))
    for n in (MAX_BOUND_DIGITS, MAX_BOUND_DIGITS + 1):
        literal = "9" * n
        out += [
            literal,
            f"z^2 + {literal}",
            f"\t{literal}  ",
            f"{literal} €",  # the long literal comes first
            f"€ {literal}",  # the character comes first
            f"(z + {literal})/z²",
        ]
    return out


def test_tokens_equal_the_reference():
    rng = random.Random(3400)
    results = []
    for s in token_inputs(rng):
        got = tokens_or_error(_tokenize, s)
        assert got == tokens_or_error(reference_tokenize, s), repr(s)
        results.append(got)
    kinds = tally(results)
    assert kinds["value"] >= 300 and kinds["MapParseError"] >= 300, kinds
    assert kinds["BudgetExceededError"] == 5, kinds
