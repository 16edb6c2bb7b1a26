"""Parsers for elements, points and maps.

Maps come in two surface forms: an affine rational expression in z (over
F_p(t) the symbol t denotes the coefficient-field generator), or an
explicit homogeneous pair "[F(X,Y) : G(X,Y)]".  Parsing is a small
recursive-descent evaluator with one value type for every form: a
fraction num/den of polynomials in the variables whose coefficients are
raw values of the integral ring Z or F_p[t], never elements of K, so no
operation takes a gcd.  The affine form is the map [num : den]; the
bracket form [F/a : G/b] must divide only by constants a and b and is
the map [b*F : a*G]; make_map strips the content once.  Powers are taken
by square-and-multiply, and a product or power whose degree would pass
MAX_DEGREE is refused before it is expanded.  So is one whose coefficients
would pass the ring's size rule (`fields.check_length`: bits over Z,
coefficients over F_p[t]) by the lower bounds len(a) + len(b) - 1 and
e*(len(a) - 1) + 1 for a*b and a^e, exact over F_p[t], and a literal of
more than MAX_BOUND_DIGITS digits before it is read.  A value admitted on
these bounds is at most one bit per product, or a factor len(a)/(len(a) - 1)
per power, past the limit, and every parsed value is checked once more at
the end, so each of them prints.  Syntax errors carry the character
position.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from .errors import BudgetExceededError, MapParseError
from .fields import MAX_BOUND_DIGITS, BaseField, GlobalFieldElement, check_length
from .fppoly import power
from .projective import ProjPoint, infinity, point_from_raw
from .ratmap import RationalMap, make_map

# Largest degree of any value built while parsing, checked before a
# product or power is expanded: a dense (z+1)^256 takes about half a
# second, and dense forms over Q with one-digit coefficients pass
# ratmap.RESULTANT_BUDGET only up to degree ~310 (1.7 s at the edge).
MAX_DEGREE = 256

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z]+)|(?P<op>\*\*|[+\-*/^()\[\]:]))"
)


class _Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(s: str) -> list[_Token]:
    """The tokens of `s` from one scan; a match that does not start where
    the last one ended stops it, and what is left is an error unless it is
    blank."""
    tokens = []
    end = 0
    for m in _TOKEN_RE.finditer(s):
        if m.start() != end:
            break
        kind = m.lastgroup
        text = m[kind]
        if kind == "int" and len(text) > MAX_BOUND_DIGITS:
            raise BudgetExceededError(
                f"a literal of {len(text)} digits passes the limit {MAX_BOUND_DIGITS}"
            )
        tokens.append(_Token(kind, "^" if text == "**" else text, m.start(kind)))
        end = m.end()
    rest = s[end:].lstrip()
    if rest:
        bad_at = len(s) - len(rest)
        raise MapParseError(f"unexpected character {s[bad_at]!r}", bad_at)
    tokens.append(_Token("end", "", len(s)))
    return tokens


class _Parser:
    """Shared expression parser; `algebra` supplies the value semantics."""

    def __init__(self, tokens: list[_Token], algebra):
        self.tokens = tokens
        self.i = 0
        self.algebra = algebra

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise MapParseError(f"expected {op!r}", tok.pos)

    def parse_expr(self):
        value = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.parse_term()
            value = self.algebra.add(value, rhs) if op == "+" else self.algebra.sub(value, rhs)
        return value

    def parse_term(self):
        value = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            rhs = self.parse_unary()
            value = self.algebra.mul(value, rhs) if op == "*" else self.algebra.div(value, rhs)
        return value

    def parse_unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            return self.algebra.neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            pos = self.take().pos
            tok = self.take()
            if tok.kind != "int":
                raise MapParseError("exponent must be a nonnegative integer", pos)
            return self.algebra.pow(base, int(tok.text))
        return base

    def parse_atom(self):
        tok = self.take()
        if tok.kind == "int":
            return self.algebra.const(int(tok.text))
        if tok.kind == "ident":
            return self.algebra.variable(tok.text, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            value = self.parse_expr()
            self.expect_op(")")
            return value
        raise MapParseError("expected a value", tok.pos)


def _check_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise BudgetExceededError(
            f"expression of degree {d} exceeds the parser limit {MAX_DEGREE}"
        )


def _degree(a) -> int:
    return max((i + j for i, j in a), default=0)


def _longest(ring, a) -> int:
    """The largest ring.length among the coefficients of a (0 for none)."""
    return max(map(ring.length, a.values()), default=0)


# the variables of each surface form, with the exponent key of each
_FORM_SYMBOLS = {"X": (1, 0), "Y": (0, 1)}
_AFFINE_SYMBOLS = {"z": (1, 0)}


class _FractionAlgebra:
    """Values are fractions (num, den) of dicts {(i, j): c} for c*X^i*Y^j
    (c*z^i in the affine form), each c a nonzero value of the integral ring
    (int or coefficient tuple) and den != {}.

    `symbols` maps the allowed variables to their keys, and t is the ring
    value (0, 1).  Nothing is reduced on the way: make_map strips the
    content of the finished forms once.  With `forms` set (the bracket
    form) a divisor must be constant, so den stays a constant.
    """

    def __init__(self, field: BaseField, symbols: dict, forms: bool = False):
        self.field = field
        self.ring = field.ring
        self.symbols = symbols
        self.forms = forms
        self.one = {(0, 0): self.ring.one}

    # polynomials: dicts {(i, j): c}

    def _collect(self, terms):
        """The dict of a sum of (key, c) terms, c != 0; zero sums drop out."""
        out = {}
        add = self.ring.add
        for key, c in terms:
            s = add(out[key], c) if key in out else c
            if s:
                out[key] = s
            else:
                del out[key]
        return out

    def _padd(self, a, b):
        return self._collect(itertools.chain(a.items(), b.items()))

    def _pmul(self, a, b):
        _check_degree(_degree(a) + _degree(b))
        check_length(self.ring, _longest(self.ring, a) + _longest(self.ring, b) - 1)
        mul = self.ring.mul
        return self._collect(
            ((i1 + i2, j1 + j2), mul(c1, c2))
            for (i1, j1), c1 in a.items()
            for (i2, j2), c2 in b.items()
        )

    def _ppow(self, a, e: int):
        """a^e by square-and-multiply; a monomial c*X^i*Y^j in one step."""
        _check_degree(_degree(a) * e)
        if len(a) == 1:
            ((i, j), c), = a.items()
            check_length(self.ring, e * (self.ring.length(c) - 1) + 1)
            return {(i * e, j * e): self.ring.pow(c, e)}
        return power(self._pmul, a, e, self.one)

    # fractions (num, den)

    def const(self, n: int):
        c = self.ring.coerce(n)
        return ({(0, 0): c} if c else {}), self.one

    def variable(self, name: str, pos: int):
        if name in self.symbols:
            return {self.symbols[name]: self.ring.one}, self.one
        if name == "t":
            if self.field.is_rationals:
                raise MapParseError("t is only defined over F_p(t)", pos)
            return {(0, 0): (0, 1)}, self.one
        if name == "z" and not self.symbols:
            raise MapParseError("the variable z is not allowed here", pos)
        hint = " (use X and Y)" if self.forms else ""
        raise MapParseError(f"unknown symbol {name!r}{hint}", pos)

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if d1 == d2 == self.one:
            return self._padd(n1, n2), self.one
        mul = self._pmul
        return self._padd(mul(n1, d2), mul(n2, d1)), mul(d1, d2)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        n, d = a
        return {k: self.ring.neg(c) for k, c in n.items()}, d

    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        # most factors have the denominator one; skip its product and check
        return self._pmul(n1, n2), (d1 if d2 == self.one else self._pmul(d1, d2))

    def div(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if self.forms and set(n2) - {(0, 0)}:
            raise MapParseError("can only divide forms by constants")
        if not n2:
            raise MapParseError("division by zero")
        return self._pmul(n1, d2), self._pmul(d1, n2)

    def pow(self, a, e: int):
        n, d = a
        return self._ppow(n, e), self._ppow(d, e)


def _parse_all(s: str, algebra: _FractionAlgebra, brackets: bool = False):
    """The fraction of `s`, or the two fractions of '[F : G]', each of
    whose coefficients passes `check_length`."""
    parser = _Parser(_tokenize(s), algebra)
    if brackets:
        parser.expect_op("[")
        f = parser.parse_expr()
        parser.expect_op(":")
        value = f, parser.parse_expr()
        parser.expect_op("]")
    else:
        value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise MapParseError("trailing input", tok.pos)
    ring = algebra.ring
    for num, den in value if brackets else (value,):
        check_length(ring, max(_longest(ring, num), _longest(ring, den)))
    return value


def _product(ring, a, b):
    """a*b, refused on a lower bound for its length before it is built."""
    check_length(ring, ring.length(a) + ring.length(b) - 1)
    return ring.mul(a, b)


# ---------------------------------------------------------------------------
# public entry points


def parse_element(field: BaseField, s: str) -> GlobalFieldElement:
    """Parse a constant expression, e.g. '-3/4' or '(t^2+1)/t'."""
    num, den = _parse_all(s, _FractionAlgebra(field, {}))
    # without variables every value is a constant {(0, 0): c} or zero {}
    return field.element(num.get((0, 0), field.ring.zero), den[(0, 0)])


def parse_point(field: BaseField, s: str) -> ProjPoint:
    """Parse '[a : b]' (the bracket grammar of the maps) or an affine value
    a, the point [a : 1]; 'inf' is the point at infinity."""
    if s.strip() in ("inf", "oo"):
        return infinity(field)
    algebra = _FractionAlgebra(field, {})
    if s.strip().startswith("["):
        (a, c), (b, e) = _parse_all(s, algebra, brackets=True)
    else:
        (a, c), (b, e) = _parse_all(s, algebra), algebra.const(1)
    # [a/c : b/e] = [a*e : b*c], every value a constant {(0, 0): v} or zero {}
    ring = field.ring
    a, b = a.get((0, 0), ring.zero), b.get((0, 0), ring.zero)
    return point_from_raw(field, _product(ring, a, e[(0, 0)]), _product(ring, b, c[(0, 0)]))


def parse_map(expr: str, field: BaseField) -> RationalMap:
    """Parse an affine expression in z or a homogeneous pair in X, Y."""
    stripped = expr.strip()
    if stripped.startswith("["):
        return _parse_map_pair(field, stripped)
    num, den = _parse_all(stripped, _FractionAlgebra(field, _AFFINE_SYMBOLS))
    if not num:
        raise MapParseError("the zero map is not a self-map of P^1")
    d = max(_degree(num), _degree(den))
    if d < 1:
        raise MapParseError("constant expressions do not define a map")
    zero = field.ring.zero
    fco = [num.get((i, 0), zero) for i in range(d + 1)]
    gco = [den.get((i, 0), zero) for i in range(d + 1)]
    return make_map(field, fco, gco)


def _parse_map_pair(field: BaseField, s: str) -> RationalMap:
    """[F/a : G/b] is the map [b*F : a*G]; a and b are constants."""
    algebra = _FractionAlgebra(field, _FORM_SYMBOLS, forms=True)
    (f, a), (g, b) = _parse_all(s, algebra, brackets=True)
    if not f or not g:
        raise MapParseError("both forms must be nonzero")
    degrees = {i + j for form in (f, g) for (i, j) in form}
    if len(degrees) != 1:
        raise MapParseError("forms must be homogeneous of one common degree")
    d = degrees.pop()
    if d < 1:
        raise MapParseError("degree must be at least 1")
    ring = field.ring
    a, b = a[(0, 0)], b[(0, 0)]
    fco = [_product(ring, b, f.get((i, d - i), ring.zero)) for i in range(d + 1)]
    gco = [_product(ring, a, g.get((i, d - i), ring.zero)) for i in range(d + 1)]
    return make_map(field, fco, gco)
