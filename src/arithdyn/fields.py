"""Base fields Q and F_p(t), their integral rings, elements, places and
valuations.

Elements are kept in a canonical form that makes equality and hashing
structural: lowest terms with positive denominator over Q, lowest terms
with monic denominator over F_p(t).  Places are the finite primes plus the
archimedean place of Q, and the monic irreducibles plus the degree
valuation at infinity of F_p(t).  Every non-archimedean place carries the
normalized valuation with value group Z; the infinite place of F_p(t) is
an ordinary non-archimedean place with uniformizer 1/t.

Factorization in both integral rings is trial division with an explicit
budget, and primality is deterministic Miller-Rabin below an explicit
bound: a budget overflow raises BudgetExceededError, it never produces a
wrong answer.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache

from . import fppoly
from .errors import (
    BudgetExceededError,
    DomainError,
    UnsupportedPlaceError,
)
from .fppoly import Coeffs, FpPoly

# kinds of places; see Place
KIND_PRIME = "prime"
KIND_IRREDUCIBLE = "irreducible"
KIND_INF = "inf"
KIND_ARCH = "arch"

# ---------------------------------------------------------------------------
# integral rings
#
# Z and F_p[t] are both principal ideal domains, and everything that works
# on integral values (canonical forms, contents, valuations, evaluation of
# forms) goes through one of the two ring objects below.  They also own the
# finite places: `factor` splits a value into prime elements under a budget,
# `primes` yields the prime elements in scan order, `residue` gives the
# residue-field code of a value modulo a prime element, and `units` lists
# the unit group (as ints, constants of the ring).  They act on the raw
# values stored everywhere else, ints and coefficient tuples, and call
# fppoly through the module at each call.


class IntegerRing:
    """Z on ints: units +-1, canonical associates positive, size |a|."""

    zero = 0
    one = 1
    units = (1, -1)
    place_kind = KIND_PRIME
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    scale = staticmethod(operator.mul)  # by a unit from unit_inverse
    gcd = staticmethod(math.gcd)
    exactdiv = staticmethod(operator.floordiv)
    size = staticmethod(abs)
    to_str = staticmethod(str)
    serialize = staticmethod(str)

    @staticmethod
    def is_unit(a: int) -> bool:
        return a == 1 or a == -1

    @staticmethod
    def unit_inverse(a: int) -> int:
        """The unit u making u*a canonical: the sign of a."""
        return -1 if a < 0 else 1

    @staticmethod
    def ord(a: int, pi: int) -> int:
        """Exact power of the prime pi dividing a != 0."""
        e = 0
        while a % pi == 0:
            a //= pi
            e += 1
        return e

    @staticmethod
    def coerce(v) -> int:
        if isinstance(v, int):
            return v
        raise DomainError(f"cannot coerce {v!r} into Z")

    @staticmethod
    def factor(a: int, budget: int = 10**6) -> dict[int, int]:
        return factor_int(a, budget)

    @staticmethod
    def primes():
        return iter_primes()

    @staticmethod
    def residue(a: int, pi: int) -> int:
        return a % pi


Z = IntegerRing()


class PolynomialRing:
    """F_p[t] on coefficient tuples: units the nonzero constants,
    canonical associates monic, size the degree (-1 for zero)."""

    zero = fppoly.ZERO
    one = fppoly.ONE
    place_kind = KIND_IRREDUCIBLE

    def __init__(self, p: int):
        self.p = p
        self.units = range(1, p)

    def add(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return fppoly.padd(self.p, a, b)

    def sub(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return fppoly.psub(self.p, a, b)

    def neg(self, a: Coeffs) -> Coeffs:
        return fppoly.pneg(self.p, a)

    def mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return fppoly.pmul(self.p, a, b)

    def scale(self, a: Coeffs, u: int) -> Coeffs:
        """a times the constant unit u from unit_inverse."""
        return fppoly.pscale(self.p, a, u)

    def gcd(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return fppoly.pgcd(self.p, a, b)

    def exactdiv(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return fppoly.pexactdiv(self.p, a, b)

    @staticmethod
    def size(a: Coeffs) -> int:
        return len(a) - 1

    @staticmethod
    def is_unit(a: Coeffs) -> bool:
        return len(a) == 1

    def unit_inverse(self, a: Coeffs) -> int:
        """The unit u making u*a monic: the inverse of the leading coefficient."""
        return pow(a[-1], -1, self.p)

    def ord(self, a: Coeffs, pi: Coeffs) -> int:
        """Exact power of the irreducible pi dividing a != 0."""
        e = 0
        while True:
            q, r = fppoly.pdivmod(self.p, a, pi)
            if r:
                return e
            a = q
            e += 1

    def coerce(self, v) -> Coeffs:
        if isinstance(v, FpPoly):
            return v.coeffs
        if isinstance(v, (tuple, list)):
            return fppoly.ptrim([c % self.p for c in v])
        if isinstance(v, int):
            return fppoly.pconst(self.p, v)
        raise DomainError(f"cannot coerce {v!r} into F_{self.p}[t]")

    @staticmethod
    def to_str(a: Coeffs) -> str:
        return fppoly.poly_str(a)

    @staticmethod
    def serialize(a: Coeffs) -> str:
        return fppoly.coeff_string(a)

    def factor(self, a: Coeffs, budget: int = 10**6) -> dict[Coeffs, int]:
        return fppoly.factor_poly(self.p, a, budget)

    def primes(self):
        return fppoly.iter_monic_irreducibles(self.p)

    def residue(self, a: Coeffs, pi: Coeffs) -> int:
        return fppoly.pcode(self.p, fppoly.pmod(self.p, a, pi))


@lru_cache(maxsize=None)
def polynomial_ring(p: int) -> PolynomialRing:
    return PolynomialRing(p)


def canon_pair(ring, x, y, g):
    """[x : y] divided by g, scaled by the unit that makes y canonical.

    g must divide x and y; g = gcd(x, y) gives the canonical coprime pair.
    When y is zero the unit is taken from x instead.
    """
    if not ring.is_unit(g):
        x, y = ring.exactdiv(x, g), ring.exactdiv(y, g)
    u = ring.unit_inverse(y if y else x)
    if u != 1:
        x, y = ring.scale(x, u), ring.scale(y, u)
    return x, y


# ---------------------------------------------------------------------------
# base fields


@dataclass(frozen=True, slots=True)
class BaseField:
    """Q (char == 0) or F_p(t) (char == p prime).

    Computations always happen over the prime global field itself; the
    extension degree D appears only as a parameter of bound formulas.
    `ring` is the integral ring, Z or F_p[t].  The methods from_int, add,
    sub, mul and div on elements match ResidueField's, so the multiplier
    kernel runs on either kind of field.
    """

    char: int
    ring: IntegerRing | PolynomialRing = dataclass_field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.char:
            fppoly._check_prime(self.char)
        object.__setattr__(self, "ring", polynomial_ring(self.char) if self.char else Z)

    @property
    def is_rationals(self) -> bool:
        return self.char == 0

    @property
    def is_function_field(self) -> bool:
        return self.char != 0

    def element(self, num, den=1) -> "GlobalFieldElement":
        return make_element(self, num, den)

    def zero(self) -> "GlobalFieldElement":
        return self.element(0)

    def one(self) -> "GlobalFieldElement":
        return self.element(1)

    def gen(self) -> "GlobalFieldElement":
        """The element t of F_p(t)."""
        if self.is_rationals:
            raise DomainError("the rationals have no generator t")
        return GlobalFieldElement(self, (0, 1), fppoly.ONE)

    def from_int(self, n: int) -> "GlobalFieldElement":
        return self.element(n)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    def __str__(self) -> str:
        return "Q" if self.is_rationals else f"F{self.char}(t)"


QQ = BaseField(0)


@lru_cache(maxsize=None)
def function_field(p: int) -> BaseField:
    return BaseField(p)


# ---------------------------------------------------------------------------
# elements


def _quotient(field: BaseField, num, den) -> "GlobalFieldElement":
    """num/den in lowest terms with a canonical denominator."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    ring = field.ring
    if not num:
        return GlobalFieldElement(field, ring.zero, ring.one)
    return GlobalFieldElement(field, *canon_pair(ring, num, den, ring.gcd(num, den)))


@dataclass(frozen=True, slots=True)
class GlobalFieldElement:
    """An exact element of Q or F_p(t), always in canonical lowest terms."""

    field: BaseField
    num: int | Coeffs
    den: int | Coeffs

    # construction goes through make_element / BaseField.element

    @property
    def is_zero(self) -> bool:
        return not self.num

    def _check(self, other: "GlobalFieldElement") -> None:
        if self.field != other.field:
            raise DomainError("elements of different base fields")

    def as_fraction(self) -> Fraction:
        if not self.field.is_rationals:
            raise DomainError("not a rational number")
        return Fraction(self.num, self.den)

    def num_poly(self) -> FpPoly:
        return FpPoly(self.field.char, self.num)

    def den_poly(self) -> FpPoly:
        return FpPoly(self.field.char, self.den)

    def __add__(self, other):
        self._check(other)
        r = self.field.ring
        return _quotient(
            self.field,
            r.add(r.mul(self.num, other.den), r.mul(other.num, self.den)),
            r.mul(self.den, other.den),
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GlobalFieldElement(self.field, self.field.ring.neg(self.num), self.den)

    def __mul__(self, other):
        self._check(other)
        r = self.field.ring
        return _quotient(self.field, r.mul(self.num, other.num), r.mul(self.den, other.den))

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero element")
        r = self.field.ring
        return _quotient(self.field, r.mul(self.num, other.den), r.mul(self.den, other.num))

    def __pow__(self, e: int):
        if e < 0:
            return self.field.one() / self**(-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self) -> str:
        to_str = self.field.ring.to_str
        num = to_str(self.num)
        if self.den == self.field.ring.one:
            return num
        den = to_str(self.den)
        # a denominator other than 1 over F_p(t) has positive degree
        return f"{num}/{den}" if den.isdigit() else f"({num})/({den})"

    def __repr__(self) -> str:
        return f"<{self} in {self.field}>"


def _as_quotient(ring, v):
    if isinstance(v, GlobalFieldElement):
        if v.field.ring is not ring:
            raise DomainError("element of a different base field")
        return v.num, v.den
    if isinstance(v, numbers.Rational):
        return ring.coerce(v.numerator), ring.coerce(v.denominator)
    return ring.coerce(v), ring.one


def make_element(field: BaseField, num, den=1) -> GlobalFieldElement:
    """Build a canonical element num/den from ints, Fractions, elements,
    FpPoly or coefficient tuples."""
    ring = field.ring
    n, d = _as_quotient(ring, num)
    if den != 1:
        n2, d2 = _as_quotient(ring, den)
        n, d = ring.mul(n, d2), ring.mul(d, n2)
    return _quotient(field, n, d)


# ---------------------------------------------------------------------------
# integer utilities (Miller-Rabin and trial division, with budgets)


def iter_primes():
    """2, 3, 5, ... by incremental trial division."""
    found: list[int] = []
    for n in itertools.count(2):
        if all(n % q for q in found if q * q <= n):
            found.append(n)
            yield n


# Miller-Rabin with these bases is exact below MR_EXACT_BOUND
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime_int(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.

    Multiples of the bases are decided at any size; any other n at or
    above MR_EXACT_BOUND raises BudgetExceededError.
    """
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    if n >= MR_EXACT_BOUND:
        raise BudgetExceededError(f"primality of {n} is beyond the exact Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_int(n: int, budget: int = 10**6) -> dict[int, int]:
    """Factor |n| (n != 0) by trial division up to `budget`.

    Raises BudgetExceededError if a composite cofactor cannot be certified
    within the budget.
    """
    if n == 0:
        raise DomainError("cannot factor zero")
    n = abs(n)
    factors: dict[int, int] = {}
    for d in itertools.chain((2,), itertools.count(3, 2)):
        if d > budget or d * d > n:
            break
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    if n > 1:
        if math.isqrt(n) > budget:
            raise BudgetExceededError(
                f"factorization cofactor {n} exceeds trial-division budget"
            )
        factors[n] = factors.get(n, 0) + 1
    return factors


# ---------------------------------------------------------------------------
# places

# token prefix of a finite place, as in 'p:7' and 'pi:1,1,1'
PLACE_PREFIX = {KIND_PRIME: "p", KIND_IRREDUCIBLE: "pi"}


@dataclass(frozen=True, slots=True)
class Place:
    """A place of the base field.

    kind/payload combinations:
      prime        rational prime q >= 2          (field Q)
      arch         None                           (field Q)
      irreducible  monic irreducible coefficients (field F_p(t))
      inf          None                           (field F_p(t))
    """

    field: BaseField
    kind: str
    payload: int | Coeffs | None = None

    @property
    def is_archimedean(self) -> bool:
        return self.kind == KIND_ARCH

    @property
    def degree(self) -> int:
        """Residue degree over the prime subfield (infinity counts as 1)."""
        if self.kind == KIND_IRREDUCIBLE:
            return fppoly.pdeg(self.payload)
        return 1

    def residue_size(self) -> int:
        if self.kind == KIND_PRIME:
            return self.payload
        if self.kind == KIND_IRREDUCIBLE:
            return self.field.char ** fppoly.pdeg(self.payload)
        if self.kind == KIND_INF:
            return self.field.char
        raise UnsupportedPlaceError("the archimedean place has no residue field")

    def sort_key(self):
        if self.kind == KIND_ARCH:
            return (0, 0, 0)
        if self.kind == KIND_PRIME:
            return (1, self.payload, 0)
        if self.kind == KIND_INF:
            return (0, 0, 0)
        return (1, fppoly.pdeg(self.payload), fppoly.pcode(self.field.char, self.payload))

    def serialize(self) -> str:
        if self.payload is None:
            return "inf"
        return f"{PLACE_PREFIX[self.kind]}:{self.field.ring.serialize(self.payload)}"

    def __str__(self) -> str:
        if self.payload is None:
            return "inf"
        return f"({self.field.ring.to_str(self.payload)})"


def prime_place(q: int) -> Place:
    if not is_prime_int(q):
        raise DomainError(f"{q} is not prime")
    return Place(QQ, KIND_PRIME, q)


def archimedean_place() -> Place:
    return Place(QQ, KIND_ARCH, None)


def irreducible_place(field: BaseField, poly) -> Place:
    if field.is_rationals:
        raise DomainError("irreducible places live over F_p(t)")
    coeffs = poly.coeffs if isinstance(poly, FpPoly) else fppoly.ptrim(list(poly))
    if fppoly.plead(coeffs) != 1:
        raise DomainError("place polynomial must be monic")
    if not fppoly.is_irreducible(field.char, coeffs):
        raise DomainError(f"{fppoly.poly_str(coeffs)} is not irreducible over F_{field.char}")
    return Place(field, KIND_IRREDUCIBLE, coeffs)


def infinite_place(field: BaseField) -> Place:
    if field.is_rationals:
        return archimedean_place()
    return Place(field, KIND_INF, None)


def parse_place(field: BaseField, token: str) -> Place:
    """Parse 'p:7', 'pi:1,1,1' or 'inf'."""
    token = token.strip()
    if token == "inf":
        return infinite_place(field)
    if token.startswith("p:"):
        if not field.is_rationals:
            raise DomainError("'p:' places live over Q")
        return prime_place(int(token[2:]))
    if token.startswith("pi:"):
        return irreducible_place(
            field, fppoly.parse_coeff_string(field.char, token[3:])
        )
    raise DomainError(f"cannot parse place token {token!r}")


@dataclass(frozen=True, slots=True)
class PlaceSet:
    """A finite, duplicate-free set of places of one base field.

    Over Q the archimedean place must be present; over F_p(t) the set must
    simply be non-empty.
    """

    field: BaseField
    places: tuple[Place, ...]

    @property
    def size(self) -> int:
        return len(self.places)

    def __contains__(self, place: Place) -> bool:
        return place in self.places

    def __iter__(self):
        return iter(self.places)

    def finite_places(self) -> tuple[Place, ...]:
        return tuple(p for p in self.places if p.payload is not None)

    def contains_infinite(self) -> bool:
        return any(p.payload is None for p in self.places)

    def serialize(self) -> str:
        return ";".join(p.serialize() for p in self.places)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.places) + "}"


def place_set(field: BaseField, places) -> PlaceSet:
    places = list(places)
    for pl in places:
        if pl.field != field:
            raise DomainError("place of a different base field")
    if len(set(places)) != len(places):
        raise DomainError("duplicate places")
    if not places:
        raise DomainError("a place set must be non-empty")
    if field.is_rationals and not any(pl.kind == KIND_ARCH for pl in places):
        raise DomainError("over Q the set must contain the archimedean place")
    return PlaceSet(field, tuple(sorted(places, key=Place.sort_key)))


def parse_place_set(field: BaseField, s: str) -> PlaceSet:
    """Parse a ';'-separated list of place tokens."""
    return place_set(field, [parse_place(field, tok) for tok in s.split(";") if tok.strip()])


# ---------------------------------------------------------------------------
# valuations


def ord_at(ring, a, place: Place) -> int:
    """Valuation of a nonzero integral value at a non-archimedean place."""
    if place.kind == KIND_INF:
        return -ring.size(a)
    return ring.ord(a, place.payload)


def valuation(x: GlobalFieldElement, place: Place) -> int:
    """Normalized valuation of a nonzero element at a non-archimedean place."""
    if x.is_zero:
        raise DomainError("valuation of zero undefined; callers test for zero first")
    if place.kind == KIND_ARCH:
        raise UnsupportedPlaceError("no normalized valuation at the archimedean place")
    if place.field != x.field:
        raise DomainError("place of a different base field")
    ring = x.field.ring
    return ord_at(ring, x.num, place) - ord_at(ring, x.den, place)


def residue_field_size(place: Place) -> int:
    """|k(p)| at a non-archimedean place."""
    return place.residue_size()


def support(x: GlobalFieldElement, budget: int = 10**6) -> dict[Place, int]:
    """All places with nonzero valuation, mapped to that valuation.

    Over Q the archimedean place is not included (no normalized valuation).
    """
    if x.is_zero:
        raise DomainError("support of zero undefined")
    ring = x.field.ring
    out: dict[Place, int] = {}
    for value, sign in ((x.num, 1), (x.den, -1)):
        # ring.factor only emits prime elements, so skip re-validation
        for pi, e in ring.factor(value, budget).items():
            pl = Place(x.field, ring.place_kind, pi)
            out[pl] = out.get(pl, 0) + sign * e
    inf = infinite_place(x.field)
    if not inf.is_archimedean:
        out[inf] = valuation(x, inf)
    return {pl: e for pl, e in out.items() if e}


def is_s_integer(x: GlobalFieldElement, S: PlaceSet) -> bool:
    """v(x) >= 0 at every place outside S (zero is an S-integer)."""
    if x.is_zero:
        return True
    return all(e >= 0 for pl, e in support(x).items() if pl not in S)


def is_s_unit(x: GlobalFieldElement, S: PlaceSet) -> bool:
    """v(x) == 0 at every place outside S; undefined for zero."""
    if x.is_zero:
        raise DomainError("zero is not an S-unit")
    return all(pl in S for pl in support(x))


# ---------------------------------------------------------------------------
# irreducible enumeration and the small-prime search

count_irreducibles = fppoly.count_irreducibles


def enumerate_monic_irreducibles(
    field_or_p, max_degree: int, budget: int = 10**7
) -> list[FpPoly]:
    """Monic irreducibles of degree <= max_degree in (degree, code) order."""
    p = field_or_p.char if isinstance(field_or_p, BaseField) else field_or_p
    return [
        FpPoly(p, cs)
        for cs in fppoly.enumerate_monic_irreducibles(p, max_degree, budget)
    ]


def iter_places_by_size(field: BaseField):
    """Non-archimedean places in the deterministic scan order.

    Q: primes ascending.  F_p(t): infinity first (smallest residue field,
    fixed tie-break), then monic irreducibles by (degree, code).
    """
    inf = infinite_place(field)
    if not inf.is_archimedean:
        yield inf
    ring = field.ring
    for pi in ring.primes():
        yield Place(field, ring.place_kind, pi)


def find_small_prime_outside(S: PlaceSet) -> Place:
    """The first place outside S in the scan order, minimizing |k(p)|."""
    for place in iter_places_by_size(S.field):
        if place not in S:
            return place
    raise AssertionError("unreachable: infinitely many places")
