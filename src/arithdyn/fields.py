"""Base fields Q and F_p(t), their integral rings, elements, places and
valuations.

Elements are kept in a canonical form that makes equality and hashing
structural: lowest terms with positive denominator over Q, lowest terms
with monic denominator over F_p(t).  Places are the finite primes plus the
archimedean place of Q, and the monic irreducibles plus the degree
valuation at infinity of F_p(t).  Every non-archimedean place carries the
normalized valuation with value group Z; the infinite place of F_p(t) is
an ordinary non-archimedean place with uniformizer 1/t.

Factorization over Z is trial division by small divisors, then Brent's
rho, under an explicit budget of work; over F_p[t] each squarefree part is
split by degree (`fppoly.factor_poly`), and only a product of irreducibles
of one degree is trial-divided under a budget.  Primality is deterministic
Miller-Rabin below an explicit bound: a budget overflow raises
BudgetExceededError, it never produces a wrong answer.
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
from .fppoly import Coeffs, poly_str

# kinds of places, derived by Place.kind
KIND_PRIME = "prime"
KIND_IRREDUCIBLE = "irreducible"
KIND_INF = "inf"
KIND_ARCH = "arch"

# ---------------------------------------------------------------------------
# integral rings
#
# Z and F_p[t] are both principal ideal domains, and everything that works
# on integral values (canonical forms, contents, powers, valuations, form
# values) goes through one of the two ring objects below.  They also own the
# finite places: `factor` splits a value into prime elements under a budget,
# `split` divides the exact power of one prime element out of a value
# (`fppoly.split`, O(log e) divisions; its exponent is the valuation),
# `primes` yields the prime elements in scan order and `key` sorts them in
# it, `check_prime` refuses a value that is not a canonical prime element,
# `residue` gives the residue-field code of a value modulo a prime element,
# `place_prefix` is the token prefix of a finite place ('p:7',
# 'pi:1,1,1') and `parse` reads the value after it (the inverse of
# `serialize`), and `units` lists the unit group (as ints, constants of
# the ring).  `form_height` bounds the
# coefficient size of a form (bits of its 2-norm over Z, largest t-degree
# over F_p[t]), and `height_unit` is the size that costs one unit of
# resultant work (ratmap.RESULTANT_BUDGET).  For heights, `upto`
# lists the coordinates of the points of height <= h, `count_points`
# counts those points without listing them, `pair_key` orders a point's
# coordinates and `height_cap` is the default orbit cap.
# `length` is the size rule on values, their digits in base 2 over Z (bits)
# and in base t over F_p[t] (coefficients, the t-degree plus one), and
# `max_length` the longest value built from input or printed
# (`check_length`).  They act on the raw values stored everywhere else,
# ints and coefficient tuples, and call fppoly's arithmetic through the
# module at each call.

# CPython's default limit on the digits of an int printed in decimal
MAX_BOUND_DIGITS = 4300

# The largest t-degree of a value built from input or printed.  Timed on
# dense operands (CPython 3.11, x86-64), a product at this degree takes
# 0.08 s over F_3 and 0.36 s over F_1000003.
MAX_T_DEGREE = 20_000


def check_length(ring, n: int) -> None:
    """Refuse a value of length n (`ring.length`) above ring.max_length;
    the parser calls it on a lower bound for n before it builds a value."""
    if n > ring.max_length:
        raise BudgetExceededError(
            f"a value of length {n} passes the limit {ring.max_length} "
            "(bits over Q, coefficients over F_p(t))"
        )


# The default work budget of `factor_int` and `IntegerRing.factor`: trial
# divisors plus rho steps.  A product of two primes near 2^45 spends it all
# and is refused in about 36 ms (CPython 3.11, x86-64), where trial
# division to 10^6 took 44 ms to refuse it.
FACTOR_BUDGET = 130_000


class IntegerRing:
    """Z on ints: units +-1, canonical associates positive, size |a|."""

    zero = 0
    one = 1
    units = (1, -1)
    place_prefix = "p"
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    scale = staticmethod(operator.mul)  # by an int, e.g. from unit_inverse
    gcd = staticmethod(math.gcd)
    exactdiv = staticmethod(operator.floordiv)
    size = staticmethod(abs)
    to_str = staticmethod(str)
    serialize = staticmethod(str)
    parse = staticmethod(fppoly.parse_int)
    key = staticmethod(operator.index)
    length = staticmethod(int.bit_length)
    # 2^max_length < 10^MAX_BOUND_DIGITS, so a value this long prints
    max_length = (10**MAX_BOUND_DIGITS).bit_length() - 1
    height_unit = 256
    height_cap = 10**40

    @staticmethod
    def pow(a: int, e: int) -> int:
        """a^e for e >= 0; a negative e raises ValueError, as over F_p[t]."""
        if e < 0:
            raise ValueError("negative exponent")
        return a**e

    @staticmethod
    def upto(h: int, budget: int) -> tuple[range, range]:
        """(-h..h, 1..h), refused when their (2h + 1)*h + 1 points pass the budget."""
        if (2 * h + 1) * h + 1 > budget:
            raise BudgetExceededError("point enumeration exceeds budget")
        return range(-h, h + 1), range(1, h + 1)

    @staticmethod
    @lru_cache(maxsize=256)
    def count_points(h: int) -> int:
        """The number of points of P^1(Q) of height <= h: infinity plus the
        coprime (x, y) with |x| <= h and 1 <= y <= h,
        1 + sum over d <= h of mu(d) * (h//d) * (2*(h//d) + 1) by Moebius
        inversion over the common divisor d of x and y."""
        return 1 + sum(
            fppoly.mobius(d) * (h // d) * (2 * (h // d) + 1) for d in range(1, h + 1)
        )

    @staticmethod
    def pair_key(x: int, y: int) -> tuple[int, int]:
        return x, y

    @staticmethod
    def is_unit(a: int) -> bool:
        return a == 1 or a == -1

    @staticmethod
    def form_height(co) -> int:
        """Bits of the 2-norm of a coefficient tuple, rounded up."""
        return (sum(c * c for c in co).bit_length() + 1) // 2

    @staticmethod
    def unit_inverse(a: int) -> int:
        """The unit u making u*a canonical: the sign of a."""
        return -1 if a < 0 else 1

    @staticmethod
    def split(a: int, pi: int) -> tuple[int, int]:
        """(e, a/pi^e) with pi^e the exact power of the prime pi dividing a != 0."""
        return fppoly.split(divmod, operator.mul, a, pi)

    @staticmethod
    def coerce(v) -> int:
        if isinstance(v, int):
            return v
        raise DomainError(f"cannot coerce {v!r} into Z")

    @staticmethod
    def factor(a: int, budget: int = FACTOR_BUDGET) -> dict[int, int]:
        return factor_int(a, budget)

    @staticmethod
    def primes():
        return iter_primes()

    @staticmethod
    def check_prime(q: int) -> None:
        if not is_prime_int(q):
            raise DomainError(f"{q} is not prime")

    @staticmethod
    def residue(a: int, pi: int) -> int:
        return a % pi


Z = IntegerRing()


class PolynomialRing:
    """F_p[t] on coefficient tuples: units the nonzero constants,
    canonical associates monic, size the degree (-1 for zero)."""

    zero = fppoly.ZERO
    one = fppoly.ONE
    place_prefix = "pi"
    to_str = staticmethod(poly_str)
    length = staticmethod(len)
    max_length = MAX_T_DEGREE + 1
    height_unit = 1
    height_cap = 200

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

    def pow(self, a: Coeffs, e: int) -> Coeffs:
        return fppoly.power(self.mul, a, e, fppoly.ONE)

    def scale(self, a: Coeffs, u: int) -> Coeffs:
        """a times the integer u, e.g. the unit from unit_inverse."""
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

    @staticmethod
    def form_height(co) -> int:
        """Largest t-degree in a coefficient tuple."""
        return max(map(len, co)) - 1

    def upto(self, h: int, budget: int) -> tuple[list[Coeffs], list[Coeffs]]:
        """(the codes below p^(h + 1), the monic codes [p^k, 2*p^k) for k <= h)
        as polynomials, refused when p^(2h + 2) passes the budget, and
        before any power once even 2^(2h + 2) does."""
        p = self.p
        if h >= budget.bit_length() or p ** (2 * h + 2) > budget:
            raise BudgetExceededError("point enumeration exceeds budget")
        xs = [fppoly.pfromcode(p, c) for c in range(p ** (h + 1))]
        return xs, [y for k in range(h + 1) for y in xs[p**k : 2 * p**k]]

    def count_points(self, h: int) -> int:
        """The number of points of P^1(F_p(t)) of height <= h: infinity, the
        p^(h+1) pairs (x, 1), and for each n = 1..h the (p-1)*p^(h+n) pairs
        of a monic y of degree n and an x of degree <= h prime to it (x mod y
        is prime to y for p^(2n) - p^(2n-1) pairs (x mod y, y), and each
        residue has p^(h+1-n) lifts); the sum is 1 + p^(2h+1)."""
        return 1 + self.p ** (2 * h + 1)

    def pair_key(self, x: Coeffs, y: Coeffs) -> tuple[int, int]:
        return self.key(y), self.key(x)

    def key(self, a: Coeffs) -> int:
        """The code of a; monic irreducibles by (degree, code) are in code order."""
        return fppoly.pcode(self.p, a)

    def unit_inverse(self, a: Coeffs) -> int:
        """The unit u making u*a monic: the inverse of the leading coefficient."""
        return pow(a[-1], -1, self.p)

    def split(self, a: Coeffs, pi: Coeffs) -> tuple[int, Coeffs]:
        """(e, a/pi^e) with pi^e the exact power of the irreducible pi dividing a != 0."""
        return fppoly.split(lambda b, c: fppoly.pdivmod(self.p, b, c), self.mul, a, pi)

    def coerce(self, v) -> Coeffs:
        if isinstance(v, (tuple, list)):
            return fppoly.ptrim([c % self.p for c in v])
        if isinstance(v, int):
            return fppoly.pconst(self.p, v)
        raise DomainError(f"cannot coerce {v!r} into F_{self.p}[t]")

    @staticmethod
    def serialize(a: Coeffs) -> str:
        return fppoly.coeff_string(a)

    def parse(self, s: str) -> Coeffs:
        """Inverse of serialize; a malformed string raises ValueError."""
        return fppoly.parse_coeff_string(self.p, s)

    def factor(self, a: Coeffs, budget: int = 10**6) -> dict[Coeffs, int]:
        return fppoly.factor_poly(self.p, a, budget)

    def primes(self):
        return fppoly.iter_monic_irreducibles(self.p)

    def check_prime(self, pi: Coeffs) -> None:
        if fppoly.plead(pi) != 1:
            raise DomainError("place polynomial must be monic")
        if not fppoly.is_irreducible(self.p, pi):
            raise DomainError(f"{poly_str(pi)} is not irreducible over F_{self.p}")

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
    `ring` is the integral ring, Z or F_p[t].
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

    def __str__(self) -> str:
        return "Q" if self.is_rationals else f"F{self.char}(t)"


QQ = BaseField(0)


@lru_cache(maxsize=None)
def function_field(p: int) -> BaseField:
    """F_p(t); DomainError unless p is a prime (0 included, which is Q's)."""
    fppoly._check_prime(p)
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
        # powers of a coprime pair with a canonical denominator are again one
        ring = self.field.ring
        num, den = ring.pow(self.num, abs(e)), ring.pow(self.den, abs(e))
        if e >= 0:
            return GlobalFieldElement(self.field, num, den)
        if not num:
            raise ZeroDivisionError("division by zero element")
        return GlobalFieldElement(self.field, *canon_pair(ring, den, num, ring.one))

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
    """Build a canonical element num/den from ints, Fractions, elements or
    coefficient tuples."""
    ring = field.ring
    n, d = _as_quotient(ring, num)
    if den != 1:
        n2, d2 = _as_quotient(ring, den)
        n, d = ring.mul(n, d2), ring.mul(d, n2)
    return _quotient(field, n, d)


# ---------------------------------------------------------------------------
# integer utilities (Miller-Rabin, trial division and rho, with budgets)


def iter_primes():
    """2, 3, 5, ...: the integers that `is_prime_int` accepts."""
    return filter(is_prime_int, itertools.count(2))


def integer_root(n: int, k: int) -> int:
    """The largest r >= 0 with r^k <= n, for n >= 0 and k >= 1.

    Newton's iteration starts from a float estimate.  One step from any
    r >= 1 lands at or above the root (the mean of k - 1 copies of r and
    n/r^(k-1) is at least their geometric mean), and from there the
    iteration falls to it.
    """
    if n < 2:
        return n

    def newton(r: int) -> int:
        return ((k - 1) * r + n // r ** (k - 1)) // k

    e = math.log2(n) / k
    shift = max(0, int(e) - 52)
    r = newton(max(1, int(2.0 ** (e - shift))) << shift)
    while (s := newton(r)) < r:
        r = s
    return r


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
    s, d = Z.split(n - 1, 2)
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


# factor_int trial-divides by 2 and the odd d below TRIAL_BOUND
TRIAL_BOUND = 2**10
# Brent's rho takes one gcd per this many steps
RHO_BATCH = 128


def factor_int(n: int, budget: int = FACTOR_BUDGET) -> dict[int, int]:
    """Factor |n| (n != 0) into primes within `budget` units of work.

    Trial division by 2 and the odd d < TRIAL_BOUND comes first, a unit per
    divisor.  Each cofactor c left is then prime when isqrt(c) is below the
    divisors tried, or when c < MR_EXACT_BOUND and Miller-Rabin says so.
    Otherwise c is taken to its root if it is a perfect power, or split by
    Brent's rho; a root test or a rho step costs a unit per started 128
    bits of c, near its time in trial divisions.  A prime found is divided
    out of every other cofactor, so the multiplicities are exact.

    Raises BudgetExceededError when the budget runs out, as it does for a
    prime cofactor at or above MR_EXACT_BOUND, which nothing here certifies.
    """
    if n == 0:
        raise DomainError("cannot factor zero")
    n = abs(n)
    factors: dict[int, int] = {}
    work = 0
    limit = TRIAL_BOUND - 1  # n has no prime factor up to limit
    for d in itertools.chain((2,), range(3, TRIAL_BOUND, 2)):
        if d * d > n or work >= budget:
            limit = d - 1
            break
        work += 1
        if n % d == 0:
            factors[d], n = Z.split(n, d)
    parts = [(n, 1)] if n > 1 else []  # cofactors and their multiplicities
    while parts:
        c, m = parts.pop()
        if math.isqrt(c) <= limit or (c < MR_EXACT_BOUND and is_prime_int(c)):
            rest = []
            for other, m_other in parts:
                e, other = Z.split(other, c)
                m += e * m_other
                if other > 1:
                    rest.append((other, m_other))
            factors[c], parts = m, rest
            continue
        cost = -(-c.bit_length() // 128)
        for k in iter_primes():
            work += cost
            r = integer_root(c, k)
            if r <= limit or r**k == c or work > budget:
                break
        if r**k == c:
            parts.append((r, m * k))
            continue
        d, steps = _rho_divisor(c, (budget - work) // cost)
        work += steps * cost
        if not d:
            raise BudgetExceededError(
                f"a factorization cofactor of {c.bit_length()} bits exceeds the budget "
                f"of {budget} units of work"
            )
        parts += [(d, m), (c // d, m)]
    return factors


def _rho_divisor(n: int, steps: int) -> tuple[int, int]:
    """(d, s): a divisor 1 < d < n of the composite n found by Brent's rho
    in s <= steps steps, or (0, s) when the steps run out first.

    The walk is x -> x^2 + a mod n from 0, for a = 1, 2, ... in turn while
    a walk closes its cycle mod n itself (Brent, "An improved Monte Carlo
    factorization algorithm", BIT 20, 1980).  The differences x - y are
    multiplied mod n and one gcd is taken per RHO_BATCH steps; a batch whose
    gcd is n is walked again one gcd per step.
    """
    taken = 0
    for a in itertools.count(1):
        x = y = ys = 0
        q = g = r = 1
        while g == 1:
            x = y
            if taken + r > steps:
                return 0, taken
            for _ in range(r):
                y = (y * y + a) % n
            taken += r
            j = 0
            while j < r and g == 1:
                ys, b = y, min(RHO_BATCH, r - j)
                if taken + b > steps:
                    return 0, taken
                for _ in range(b):
                    y = (y * y + a) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                taken, j = taken + b, j + b
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + a) % n
                g = math.gcd(x - ys, n)
        if g < n:
            return g, taken


# ---------------------------------------------------------------------------
# places

@dataclass(frozen=True, slots=True)
class Place:
    """A place of the base field: `payload` is a prime element of the ring
    (a rational prime q >= 2 over Q, a monic irreducible over F_p(t)), or
    None for the infinite place, which is archimedean over Q and the
    degree valuation over F_p(t).  `kind` names the four cases."""

    field: BaseField
    payload: int | Coeffs | None = None

    @property
    def kind(self) -> str:
        if self.field.is_rationals:
            finite, infinite = KIND_PRIME, KIND_ARCH
        else:
            finite, infinite = KIND_IRREDUCIBLE, KIND_INF
        return infinite if self.payload is None else finite

    @property
    def is_archimedean(self) -> bool:
        return self.kind == KIND_ARCH

    @property
    def degree(self) -> int:
        """Residue degree over the prime subfield (infinity counts as 1)."""
        return fppoly.pdeg(self.payload) if self.kind == KIND_IRREDUCIBLE else 1

    def sort_key(self):
        """The infinite place first, then the scan order of `ring.primes`."""
        if self.payload is None:
            return (0, 0)
        return (1, self.field.ring.key(self.payload))

    def serialize(self) -> str:
        if self.payload is None:
            return "inf"
        ring = self.field.ring
        return f"{ring.place_prefix}:{ring.serialize(self.payload)}"

    def __str__(self) -> str:
        if self.payload is None:
            return "inf"
        return f"({self.field.ring.to_str(self.payload)})"


def infinite_place(field: BaseField) -> Place:
    return Place(field, None)


def archimedean_place() -> Place:
    return infinite_place(QQ)


def finite_place(field: BaseField, pi) -> Place:
    """The place of a prime element of field.ring; DomainError otherwise."""
    field.ring.check_prime(pi)
    return Place(field, pi)


def prime_place(q: int) -> Place:
    return finite_place(QQ, q)


def irreducible_place(field: BaseField, poly) -> Place:
    if field.is_rationals:
        raise DomainError("irreducible places live over F_p(t)")
    return finite_place(field, field.ring.coerce(poly))


def parse_place(field: BaseField, token: str) -> Place:
    """Parse 'inf', or the ring's prefix and a prime element: 'p:7' over Q,
    'pi:1,1,1' over F_p(t).  The prefix is checked first: the other
    field's prefix is a DomainError whatever follows it, and a malformed
    value after the ring's own prefix raises ValueError."""
    token = token.strip()
    if token == "inf":
        return infinite_place(field)
    prefix, colon, body = token.partition(":")
    if not colon or prefix not in ("p", "pi"):
        raise DomainError(f"cannot parse place token {token!r}")
    ring = field.ring
    if prefix != ring.place_prefix:
        raise DomainError(f"'{prefix}:' places live over {'Q' if prefix == 'p' else 'F_p(t)'}")
    return finite_place(field, ring.parse(body))


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
    inf = infinite_place(field)
    if inf.is_archimedean and inf not in places:
        raise DomainError("over Q the set must contain the archimedean place")
    return PlaceSet(field, tuple(sorted(places, key=Place.sort_key)))


def parse_place_set(field: BaseField, s: str) -> PlaceSet:
    """Parse a ';'-separated list of place tokens."""
    return place_set(field, [parse_place(field, tok) for tok in s.split(";") if tok.strip()])


# ---------------------------------------------------------------------------
# valuations


def ord_at(ring, a, place: Place) -> int:
    """Valuation of a nonzero integral value at a non-archimedean place."""
    if place.payload is None:
        return -ring.size(a)
    return ring.split(a, place.payload)[0]


def valuation(x: GlobalFieldElement, place: Place) -> int:
    """Normalized valuation of a nonzero element at a non-archimedean place."""
    if x.is_zero:
        raise DomainError("valuation of zero undefined; callers test for zero first")
    if place.is_archimedean:
        raise UnsupportedPlaceError("no normalized valuation at the archimedean place")
    if place.field != x.field:
        raise DomainError("place of a different base field")
    ring = x.field.ring
    return ord_at(ring, x.num, place) - ord_at(ring, x.den, place)


def support(x: GlobalFieldElement) -> dict[Place, int]:
    """All places with nonzero valuation, mapped to that valuation.

    Over Q the archimedean place is not included (no normalized valuation).
    """
    if x.is_zero:
        raise DomainError("support of zero undefined")
    ring = x.field.ring
    out: dict[Place, int] = {}
    for value, sign in ((x.num, 1), (x.den, -1)):
        # ring.factor only emits prime elements, so skip re-validation
        for pi, e in ring.factor(value).items():
            pl = Place(x.field, pi)
            out[pl] = out.get(pl, 0) + sign * e
    inf = infinite_place(x.field)
    if not inf.is_archimedean:
        out[inf] = valuation(x, inf)
    return {pl: e for pl, e in out.items() if e}


def strip_places(
    x: GlobalFieldElement, S: PlaceSet
) -> tuple[GlobalFieldElement, tuple[int, ...]]:
    """(rest, exponents), x = rest * prod pi^e over the finite places of S
    in order, by valuation and not by factoring; rest.num and rest.den are
    units exactly when v(x) = 0 at every finite place outside S."""
    # an exact quotient by a prime power keeps the pair canonical: no gcd;
    # num and den are coprime, so pi divides den only if it misses num
    if S.field != x.field:
        raise DomainError("place of a different base field")
    ring = x.field.ring
    num, den, exponents = x.num, x.den, []
    for pl in S.finite_places():
        e, num = ring.split(num, pl.payload)
        if not e:
            e, den = ring.split(den, pl.payload)
            e = -e
        exponents.append(e)
    return GlobalFieldElement(x.field, num, den), tuple(exponents)


def is_s_integer(x: GlobalFieldElement, S: PlaceSet) -> bool:
    """v(x) >= 0 at every place outside S (zero is an S-integer)."""
    if x.is_zero:
        return True
    rest, _ = strip_places(x, S)
    return x.field.ring.is_unit(rest.den) and (
        S.contains_infinite() or valuation(x, infinite_place(x.field)) >= 0
    )


def is_s_unit(x: GlobalFieldElement, S: PlaceSet) -> bool:
    """v(x) == 0 at every place outside S; undefined for zero."""
    if x.is_zero:
        raise DomainError("zero is not an S-unit")
    rest, _ = strip_places(x, S)
    is_unit = x.field.ring.is_unit
    return is_unit(rest.num) and is_unit(rest.den) and (
        S.contains_infinite() or valuation(x, infinite_place(x.field)) == 0
    )


# ---------------------------------------------------------------------------
# the place scan and the small-prime search


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
        yield Place(field, pi)


def find_small_prime_outside(S: PlaceSet) -> Place:
    """The first place outside S in the scan order, minimizing |k(p)|."""
    for place in iter_places_by_size(S.field):
        if place not in S:
            return place
    raise AssertionError("unreachable: infinitely many places")
