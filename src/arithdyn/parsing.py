"""Parsers for elements, points and maps.

Maps come in two surface forms: an affine rational expression in z (over
F_p(t) the symbol t denotes the coefficient-field generator), or an
explicit homogeneous pair "[F(X,Y) : G(X,Y)]".  Parsing is a small
recursive-descent evaluator over exact field arithmetic; the affine form
is evaluated in K(z) as a numerator/denominator pair, the bracket form in
K[X,Y] with a homogeneity check.  Powers are taken by square-and-multiply,
and a product or power whose degree would pass MAX_DEGREE is refused
before it is expanded.  Syntax errors carry the character position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BudgetExceededError, MapParseError
from .fields import BaseField, GlobalFieldElement
from .fppoly import power
from .projective import ProjPoint, from_affine, infinity, normalize
from .ratmap import RationalMap, make_map

# Largest degree of any value built while parsing, checked before a
# product or power is expanded: a dense (z+1)^256 takes about half a
# second, and dense forms over Q with one-digit coefficients pass
# ratmap.RESULTANT_BUDGET only up to degree ~310 (1.7 s at the edge).
MAX_DEGREE = 256

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z]+)|(?P<op>\*\*|[+\-*/^()\[\]:]))"
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(s: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m or m.end() == pos:
            stripped = s[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(s) - len(stripped)
            raise MapParseError(f"unexpected character {s[bad_at]!r}", bad_at)
        if m.group("int"):
            tokens.append(_Token("int", m.group("int"), m.start("int")))
        elif m.group("ident"):
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            op = m.group("op")
            tokens.append(_Token("op", "^" if op == "**" else op, m.start("op")))
        pos = m.end()
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


class _BivariateAlgebra:
    """Values are dicts {(i, j): coeff} for X^i Y^j over K."""

    def __init__(self, field: BaseField):
        self.field = field
        self.zero = field.zero()

    def const(self, n: int):
        e = self.field.element(n)
        return {} if e.is_zero else {(0, 0): e}

    def variable(self, name: str, pos: int):
        if name == "X":
            return {(1, 0): self.field.one()}
        if name == "Y":
            return {(0, 1): self.field.one()}
        if name == "t":
            if self.field.is_rationals:
                raise MapParseError("t is only defined over F_p(t)", pos)
            return {(0, 0): self.field.gen()}
        raise MapParseError(f"unknown symbol {name!r} (use X and Y)", pos)

    def add(self, a, b):
        out = dict(a)
        for key, c in b.items():
            s = out.get(key, self.zero) + c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return {k: -c for k, c in a.items()}

    @staticmethod
    def degree(a) -> int:
        return max((i + j for i, j in a), default=0)

    def mul(self, a, b):
        _check_degree(self.degree(a) + self.degree(b))
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, self.zero) + c1 * c2
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return out

    def div(self, a, b):
        if set(b) - {(0, 0)}:
            raise MapParseError("can only divide forms by constants")
        if not b:
            raise MapParseError("division by zero")
        c = b[(0, 0)]
        return {k: v / c for k, v in a.items()}

    def pow(self, a, e: int):
        """a^e by square-and-multiply; a monomial c*X^i*Y^j in one step."""
        _check_degree(self.degree(a) * e)
        if len(a) == 1:
            ((i, j), c), = a.items()
            return {(i * e, j * e): c**e}
        return power(self.mul, a, e, self.const(1))


class _RatFuncAlgebra:
    """Values are pairs (num, den) of polynomials in z over K, each a
    _BivariateAlgebra dict {(i, 0): c} for c*z^i."""

    def __init__(self, field: BaseField, allow_z: bool = True):
        self.field = field
        self.allow_z = allow_z
        self.poly = _BivariateAlgebra(field)

    def const(self, n: int):
        return self.poly.const(n), self.poly.const(1)

    def variable(self, name: str, pos: int):
        if name == "z":
            if not self.allow_z:
                raise MapParseError("the variable z is not allowed here", pos)
            return self.poly.variable("X", pos), self.poly.const(1)
        if name == "t":
            return self.poly.variable("t", pos), self.poly.const(1)
        raise MapParseError(f"unknown symbol {name!r}", pos)

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        mul = self.poly.mul
        return self.poly.add(mul(n1, d2), mul(n2, d1)), mul(d1, d2)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        n, d = a
        return self.poly.neg(n), d

    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        return self.poly.mul(n1, n2), self.poly.mul(d1, d2)

    def div(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if not n2:
            raise MapParseError("division by zero")
        return self.poly.mul(n1, d2), self.poly.mul(d1, n2)

    def pow(self, a, e: int):
        n, d = a
        return self.poly.pow(n, e), self.poly.pow(d, e)


# ---------------------------------------------------------------------------
# integral clearing


def _clear_denominators(field: BaseField, coeffs: list[GlobalFieldElement]):
    """Scale a list of K-elements by the lcm of their denominators."""
    ring = field.ring
    mult = ring.one
    for c in coeffs:
        mult = ring.mul(mult, ring.exactdiv(c.den, ring.gcd(mult, c.den)))
    return [ring.mul(c.num, ring.exactdiv(mult, c.den)) for c in coeffs]


# ---------------------------------------------------------------------------
# public entry points


def parse_element(field: BaseField, s: str) -> GlobalFieldElement:
    """Parse a constant expression, e.g. '-3/4' or '(t^2+1)/t'."""
    parser = _Parser(_tokenize(s), _RatFuncAlgebra(field, allow_z=False))
    num, den = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise MapParseError("trailing input", tok.pos)
    # without z every value is a constant {(0, 0): c} or zero {}
    return num.get((0, 0), field.zero()) / den[(0, 0)]


def parse_point(field: BaseField, s: str) -> ProjPoint:
    """Parse '[a : b]' or an affine value; 'inf' is the point at infinity."""
    stripped = s.strip()
    if stripped in ("inf", "oo"):
        return infinity(field)
    if stripped.startswith("["):
        inner = stripped[1:-1] if stripped.endswith("]") else None
        if inner is None:
            raise MapParseError("unterminated '['", len(stripped) - 1)
        parts = inner.split(":")
        if len(parts) != 2:
            raise MapParseError("a point needs exactly one ':'")
        x = parse_element(field, parts[0])
        y = parse_element(field, parts[1])
        return normalize(x, y)
    return from_affine(parse_element(field, stripped))


def parse_map(expr: str, field: BaseField) -> RationalMap:
    """Parse an affine expression in z or a homogeneous pair in X, Y."""
    stripped = expr.strip()
    if stripped.startswith("["):
        return _parse_map_pair(field, stripped)
    parser = _Parser(_tokenize(stripped), _RatFuncAlgebra(field))
    num, den = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise MapParseError("trailing input", tok.pos)
    if not den:
        raise MapParseError("zero denominator")
    if not num:
        raise MapParseError("the zero map is not a self-map of P^1")
    d = max(_BivariateAlgebra.degree(num), _BivariateAlgebra.degree(den))
    if d < 1:
        raise MapParseError("constant expressions do not define a map")
    zero = field.zero()
    fk = [num.get((i, 0), zero) for i in range(d + 1)]
    gk = [den.get((i, 0), zero) for i in range(d + 1)]
    cleared = _clear_denominators(field, fk + gk)
    return make_map(field, cleared[: d + 1], cleared[d + 1 :])


def _parse_map_pair(field: BaseField, s: str) -> RationalMap:
    tokens = _tokenize(s)
    algebra = _BivariateAlgebra(field)
    parser = _Parser(tokens, algebra)
    parser.expect_op("[")
    f_poly = parser.parse_expr()
    parser.expect_op(":")
    g_poly = parser.parse_expr()
    parser.expect_op("]")
    tok = parser.peek()
    if tok.kind != "end":
        raise MapParseError("trailing input", tok.pos)
    if not f_poly or not g_poly:
        raise MapParseError("both forms must be nonzero")
    degrees = {i + j for poly in (f_poly, g_poly) for (i, j) in poly}
    if len(degrees) != 1:
        raise MapParseError("forms must be homogeneous of one common degree")
    d = degrees.pop()
    if d < 1:
        raise MapParseError("degree must be at least 1")
    zero = field.zero()
    fk = [f_poly.get((i, d - i), zero) for i in range(d + 1)]
    gk = [g_poly.get((i, d - i), zero) for i in range(d + 1)]
    cleared = _clear_denominators(field, fk + gk)
    return make_map(field, cleared[: d + 1], cleared[d + 1 :])
