"""Finite residue fields k(p) with integer-coded elements.

Elements of a residue field of size q are the integers 0..q-1.  For a
prime field the code is the element itself; for F_p[u]/(pi) the code is
the base-p encoding of the residue polynomial.  Integer codes keep
reduced points hashable and make functional-graph nodes plain array
indices.

An extension field small enough for a functional graph gets exp/log
and Zech tables of a primitive element, built once and kept in a
bounded cache; its products and inverses are then table lookups.
Larger extensions use polynomial arithmetic mod pi.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

from . import fppoly
from .errors import DomainError, UnsupportedPlaceError
from .fields import Place
from .fields import factor_int, integer_root, is_prime_int
from .fppoly import Coeffs

# Largest P^1(F_q) a functional graph walks by default; extension fields
# with q + 1 within it get exp/log tables.
DEFAULT_NODE_BUDGET = 100_000


@dataclass(frozen=True, slots=True)
class FieldTables:
    """exp/log and Zech tables of F_q^* = <g> on element codes, with n = q - 1.

    exp[i] is the code of g^i for 0 <= i < 2n (doubled, so a sum of two
    logs needs no reduction); log[a] is the exponent of a nonzero code a,
    and log[0] = -1.  zech[i] = log(1 + g^i), or -1 where 1 + g^i = 0, so
    g^a + g^c = g^(a + zech[(c - a) mod n]).
    """

    n: int
    exp: array
    log: array
    zech: array


@dataclass(frozen=True, slots=True)
class ResidueField:
    """F_q presented as F_p (modulus None) or F_p[u]/(modulus).

    Its one, add, sub, neg, mul and scale match those of the integral
    rings (fields.Z, fields.polynomial_ring), so ratmap evaluates forms and
    cycle multipliers over residue fields by the same code.
    """

    p: int
    modulus: Coeffs | None = None

    def __post_init__(self):
        if self.modulus is not None and fppoly.pdeg(self.modulus) < 2:
            # degree-1 moduli are just F_p in disguise; normalize them away
            object.__setattr__(self, "modulus", None)

    @property
    def deg(self) -> int:
        return 1 if self.modulus is None else fppoly.pdeg(self.modulus)

    @property
    def q(self) -> int:
        return self.p**self.deg

    def elements(self):
        return range(self.q)

    def tables(self) -> FieldTables | None:
        """The exp/log tables of an extension field with q < DEFAULT_NODE_BUDGET."""
        if self.modulus is None or self.q >= DEFAULT_NODE_BUDGET:
            return None
        return _field_tables(self)

    # -- arithmetic on int codes ------------------------------------------

    one = 1

    def add(self, a: int, b: int) -> int:
        if self.modulus is None:
            return (a + b) % self.p
        return fppoly.pcode(
            self.p,
            fppoly.padd(self.p, fppoly.pfromcode(self.p, a), fppoly.pfromcode(self.p, b)),
        )

    def neg(self, a: int) -> int:
        if self.modulus is None:
            return (-a) % self.p
        return fppoly.pcode(self.p, fppoly.pneg(self.p, fppoly.pfromcode(self.p, a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.modulus is None:
            return (a * b) % self.p
        t = self.tables()
        if t is not None:
            return t.exp[t.log[a] + t.log[b]] if a and b else 0
        prod = fppoly.pmul(self.p, fppoly.pfromcode(self.p, a), fppoly.pfromcode(self.p, b))
        return fppoly.pcode(self.p, fppoly.pmod(self.p, prod, self.modulus))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a residue field")
        if self.modulus is None:
            return pow(a, -1, self.p)
        t = self.tables()
        if t is not None:
            return t.exp[t.n - t.log[a]]
        g, u, _ = fppoly.pxgcd(self.p, fppoly.pfromcode(self.p, a), self.modulus)
        if g != fppoly.ONE:
            raise DomainError(f"{self.element_str(a)} is not invertible in {self}")
        return fppoly.pcode(self.p, fppoly.pmod(self.p, u, self.modulus))

    def scale(self, a: int, n: int) -> int:
        """a times the integer n (n mod p is the code of its image)."""
        return self.mul(a, n % self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        return fppoly.power(self.mul, self.inv(a) if e < 0 else a, abs(e), 1)

    def node(self, x: int, y: int) -> int:
        """The node of [x : y] in P^1(F_q): the code of x/y, or q for [x : 0]."""
        if y:
            return self.div(x, y)
        if x:
            return self.q
        raise DomainError("(0, 0) is not a point of P^1")

    def pair(self, node: int) -> tuple[int, int]:
        """The coordinates of a node, the inverse of `node`: (x, 1) for a
        code x < q, (1, 0) for node q (infinity)."""
        return (node, 1) if node < self.q else (1, 0)

    def multiplicative_order(self, a: int) -> int:
        """Order of a nonzero element in the unit group of size q-1."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        order = self.q - 1
        t = self.tables()
        if t is not None:
            return order // math.gcd(order, t.log[a])
        for ell in factor_int(order):
            while order % ell == 0 and self.pow(a, order // ell) == 1:
                order //= ell
        return order

    def element_str(self, a: int) -> str:
        if self.modulus is None:
            return str(a)
        return fppoly.poly_str(fppoly.pfromcode(self.p, a), var="u")

    def __str__(self) -> str:
        if self.modulus is None:
            return f"F{self.p}"
        return f"F{self.p}[u]/({fppoly.poly_str(self.modulus, var='u')})"


@lru_cache(maxsize=16)
def _field_tables(rf: ResidueField) -> FieldTables | None:
    """exp/log and Zech tables of F_p[u]/(pi) in O(q) integer steps.

    None when the modulus is reducible (the ring is not a field).  The
    powers of the primitive element g come from a table of c -> g*c on all
    codes c, filled from g*(c - 1) + g or u*(g*(c/p)).  Inside that pass an
    element is "spread" into one b-bit slot per coefficient, so that a sum
    is a few integer operations: adding the bias 2^(b-1) - p to each slot
    sets the slot's top bit exactly where the coefficient sum reached p.
    """
    p = rf.p
    modulus = fppoly.pmonic(p, rf.modulus)
    if not fppoly.is_irreducible(p, modulus):
        return None
    k = len(modulus) - 1
    q = p**k
    n = q - 1
    b = p.bit_length() + 1

    def spread(code: int) -> int:
        x = shift = 0
        while code:
            code, c = divmod(code, p)
            x |= c << shift
            shift += b
        return x

    ones = sum(1 << (b * i) for i in range(k))
    top_bits = ones << (b - 1)
    bias = ones * ((1 << (b - 1)) - p)
    mask = (1 << (b * k)) - 1

    def add(x: int, y: int) -> int:
        s = x + y
        return s - (((s + bias) & top_bits) >> (b - 1)) * p

    # t * u^k = -t * (pi - u^k), spread, for each top coefficient t
    reduce_top = [spread(fppoly.pcode(p, fppoly.pscale(p, modulus[:k], -t))) for t in range(p)]
    g = spread(_primitive_code(p, modulus, n))
    times_g = [0] * q
    for c in range(1, q):
        if c % p:
            times_g[c] = add(times_g[c - 1], g)
        else:
            x = times_g[c // p] << b
            times_g[c] = add(x & mask, reduce_top[x >> (b * k)])
    # back from spread to code, half of the coefficients at a time
    half = (k + 1) // 2
    code_of_half = {spread(c): c for c in range(p**half)}
    half_shift, half_mask, half_q = b * half, (1 << (b * half)) - 1, p**half
    exp = array("i", [0]) * (2 * n)
    log = array("i", [-1]) * q
    c = 1
    for i in range(n):
        exp[i] = exp[i + n] = c
        log[c] = i
        x = times_g[c]
        c = code_of_half[x & half_mask] + half_q * code_of_half[x >> half_shift]
    # 1 + g^i raises the constant coefficient of g^i by one (mod p)
    zech = array("i", (log[e + 1 if e % p != p - 1 else e + 1 - p] for e in exp[:n]))
    return FieldTables(n, exp, log, zech)


def _primitive_code(p: int, modulus: Coeffs, n: int) -> int:
    """The smallest code of a generator of the unit group of order n.

    u itself need not generate it: u^4+u^3+u^2+u+1 over F_2 makes u a
    fifth root of unity in F_16.
    """
    ells = factor_int(n)
    for code in range(p, n + 1):
        g = fppoly.pfromcode(p, code)
        if all(fppoly.ppow_mod(p, g, n // ell, modulus) != fppoly.ONE for ell in ells):
            return code


def residue_field(place: Place) -> ResidueField:
    """The residue field at a non-archimedean place: F_p[u]/(pi) over
    F_p(t), where pi None, the infinite place, gives F_p; Z/q over Q."""
    if place.is_archimedean:
        raise UnsupportedPlaceError("the archimedean place has no residue field")
    if place.field.char:
        return ResidueField(place.field.char, place.payload)
    return ResidueField(place.payload)


def reduce_values(place: Place, values) -> tuple[int, ...]:
    """Residue codes of integral values at a non-archimedean place.

    At a finite place each value is reduced modulo the prime element.  At
    the infinite place of F_p(t) the values are first rescaled jointly by
    t^-m, m their largest degree, so the code of a value is its t^m
    coefficient.
    """
    if place.payload is None:
        m = max(fppoly.pdeg(v) for v in values)
        return tuple(v[m] if fppoly.pdeg(v) == m else 0 for v in values)
    residue = place.field.ring.residue
    return tuple(residue(v, place.payload) for v in values)


def field_of_size(q: int) -> ResidueField:
    """A deterministic F_q: q = p^k with p prime, first irreducible modulus.
    q is a prime power exactly when its exact k-th root of largest k is prime."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    k = next(k for k in range(q.bit_length(), 0, -1) if integer_root(q, k) ** k == q)
    p = integer_root(q, k)
    if not is_prime_int(p):
        raise ValueError(f"{q} is not a prime power")
    if k == 1:
        return ResidueField(p)
    # about one monic in k is irreducible, so the scan stops early
    modulus = next(f for f in fppoly.monic_of_degree(p, k) if fppoly.is_irreducible(p, f))
    return ResidueField(p, modulus)
