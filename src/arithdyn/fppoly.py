"""Polynomial arithmetic over the prime fields F_p.

Polynomials are represented as tuples of integer coefficients in
{0, ..., p-1}, constant term first, with no trailing zeros; the empty
tuple is the zero polynomial.  The low-level functions in this module
(`padd`, `pmul`, `pdivmod`, ...) operate directly on such tuples, the raw
values of the ring F_p[t] everywhere in the package.

`pmul` multiplies by Kronecker substitution once both operands have at
least KRONECKER_CUTOFF coefficients: each coefficient tuple is packed into
one Python int with a fixed slot width w, the two ints are multiplied
once (CPython switches to Karatsuba for large operands), and the product
is unpacked slot by slot and reduced mod p.  Slot i of the integer product
holds sum_{j+k=i} a_j * b_k exactly, with no carry into slot i+1, as long
as that sum stays below 2^w; every term is at most (p-1)^2 and a slot
collects at most min(len a, len b) terms, so
w >= (min(len a, len b) * (p-1)^2).bit_length() makes the substitution
exact.  The width is rounded up to whole bytes, so packing and unpacking
go through `array` and `int.from_bytes`/`int.to_bytes` instead of a Python
loop over shifts.  Below the cutoff the schoolbook loop, which skips zero
coefficients, is as fast or faster: timed on balanced random operands of
6-24 coefficients over F_2, F_3, F_5 and F_7 (CPython 3.11 on x86-64), the
Kronecker path is slower at 6, about even at 8-9 over F_2, and faster for
every p from 10 on.

Irreducible polynomials are enumerated in (degree, code) order, where the
code of (c_0, ..., c_n) is the base-p integer sum(c_i * p^i).  A product
sieve marks every monic reducible of a given degree, so the survivors are
exactly the monic irreducibles; counts are cross-checked elsewhere against
the Moebius-inversion formula I(n) = (1/n) * sum_{d|n} mu(n/d) p^d.  The
sieve builds all p^k monics of degree k, so it serves the place scans and
small degrees only.

One loop of Frobenius powers t^(p^k) mod f, k <= n/2 for f of degree n,
serves both irreducibility and factorization (`_degree_parts`):
gcd(t^(p^k) - t, f) collects the factors of degree dividing k.  Stopped
at the first gcd that is not 1, it is Ben-Or's variant of Rabin's test
(Ben-Or 1981; Rabin 1980); run to the end with each gcd divided out, it
is distinct-degree factorization.  Neither needs a list of candidate
divisors, so the cost grows with log p, not with p.  Only a product of
two or more irreducibles of one degree k is split further, by trial
division by the sieve's degree-k irreducibles.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from functools import lru_cache

from .errors import BudgetExceededError, DomainError

Coeffs = tuple[int, ...]

ZERO: Coeffs = ()
ONE: Coeffs = (1,)


def ptrim(cs: list[int]) -> Coeffs:
    """Drop trailing zeros and freeze."""
    n = len(cs)
    while n > 0 and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def pdeg(a: Coeffs) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(a) - 1


def plead(a: Coeffs) -> int:
    """Leading coefficient (0 for the zero polynomial)."""
    return a[-1] if a else 0


def pconst(p: int, c: int) -> Coeffs:
    c %= p
    return (c,) if c else ZERO


def padd(p: int, a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return ptrim(out)


def pneg(p: int, a: Coeffs) -> Coeffs:
    return tuple((-c) % p for c in a)


def psub(p: int, a: Coeffs, b: Coeffs) -> Coeffs:
    return padd(p, a, pneg(p, b))


# Kronecker substitution pays off once the shorter operand has this many
# coefficients (see the module docstring).
KRONECKER_CUTOFF = 10

# array typecode for each slot width in bytes; wider slots pack by hand
_SLOT_TYPECODES = {array(tc).itemsize: tc for tc in "QIHB"}


def _pack(a: Coeffs, nbytes: int) -> int:
    tc = _SLOT_TYPECODES.get(nbytes)
    if tc is None:
        return int.from_bytes(
            b"".join(c.to_bytes(nbytes, "little") for c in a), "little"
        )
    arr = array(tc, a)
    if sys.byteorder == "big":
        arr.byteswap()
    return int.from_bytes(arr.tobytes(), "little")


def _unpack(p: int, value: int, n: int, nbytes: int) -> list[int]:
    buf = value.to_bytes(n * nbytes, "little")
    tc = _SLOT_TYPECODES.get(nbytes)
    if tc is None:
        return [
            int.from_bytes(buf[i : i + nbytes], "little") % p
            for i in range(0, n * nbytes, nbytes)
        ]
    arr = array(tc, buf)
    if sys.byteorder == "big":
        arr.byteswap()
    return [c % p for c in arr]


def _pmul_kronecker(p: int, a: Coeffs, b: Coeffs) -> Coeffs:
    width = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()
    nbytes = (width + 7) // 8
    # widen to the next slot size `array` has, if there is one
    nbytes = next((k for k in sorted(_SLOT_TYPECODES) if k >= nbytes), nbytes)
    prod = _pack(a, nbytes) * _pack(b, nbytes)
    return ptrim(_unpack(p, prod, len(a) + len(b) - 1, nbytes))


def pmul(p: int, a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ZERO
    if len(a) >= KRONECKER_CUTOFF and len(b) >= KRONECKER_CUTOFF:
        return _pmul_kronecker(p, a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return ptrim(out)


def pscale(p: int, a: Coeffs, c: int) -> Coeffs:
    c %= p
    if c == 0:
        return ZERO
    return ptrim([ai * c % p for ai in a])


def pdivmod(p: int, a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder; b must be nonzero.

    Each step cancels the top coefficient of the remainder and touches
    only the nonzero lower coefficients of b, listed once, so a sparse
    divisor such as t^k + 1 costs one update a step, not k + 1.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(b) - 1
    if len(a) <= n:
        return ZERO, a
    inv_lead = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    lower = [(i, bi) for i, bi in enumerate(b[:n]) if bi]
    rem = list(a)
    q = [0] * (len(a) - n)
    for shift in range(len(a) - n - 1, -1, -1):
        top = rem[shift + n]
        if top:
            f = top * inv_lead % p
            q[shift] = f
            for i, bi in lower:
                rem[shift + i] = (rem[shift + i] - f * bi) % p
    return ptrim(q), ptrim(rem[:n])


def pmod(p: int, a: Coeffs, b: Coeffs) -> Coeffs:
    return pdivmod(p, a, b)[1]


def pexactdiv(p: int, a: Coeffs, b: Coeffs) -> Coeffs:
    q, r = pdivmod(p, a, b)
    if r:
        raise ArithmeticError("division is not exact")
    return q


def pmonic(p: int, a: Coeffs) -> Coeffs:
    """Scale a nonzero polynomial to leading coefficient 1."""
    lead = plead(a)
    if lead in (0, 1):
        return a
    return pscale(p, a, pow(lead, p - 2, p))


def pgcd(p: int, a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic gcd; gcd(0, 0) = 0."""
    while b:
        a, b = b, pmod(p, a, b)
    return pmonic(p, a)


def pxgcd(p: int, a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs, Coeffs]:
    """(g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    u0, u1 = ONE, ZERO
    v0, v1 = ZERO, ONE
    while r1:
        q, r = pdivmod(p, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, psub(p, u0, pmul(p, q, u1))
        v0, v1 = v1, psub(p, v0, pmul(p, q, v1))
    lead = plead(r0)
    if lead not in (0, 1):
        c = pow(lead, p - 2, p)
        r0, u0, v0 = pscale(p, r0, c), pscale(p, u0, c), pscale(p, v0, c)
    return r0, u0, v0


def pderiv(p: int, a: Coeffs) -> Coeffs:
    return ptrim([i * a[i] % p for i in range(1, len(a))])


def power(mul, a, e: int, one):
    """a^e for e >= 0 by square-and-multiply on `mul`: popcount(e) products
    and bit_length(e) - 1 squarings, so a size guard in `mul` never sees a
    value larger than a^e."""
    if e < 0:
        raise ValueError("negative exponent")
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def split(divmod, mul, a, pi) -> tuple[int, object]:
    """(e, a/pi^e) with pi^e the exact power of the prime pi dividing a != 0,
    on the ring's `divmod` and `mul`.  pi^2 is split off a/pi recursively,
    then pi at most once, so it takes O(log e) divisions, and one when pi
    does not divide a."""
    if not a:
        raise DomainError("the valuation of zero is infinite")
    q, r = divmod(a, pi)
    if r:
        return 0, a
    e, a = split(divmod, mul, q, mul(pi, pi))
    q, r = divmod(a, pi)
    return (2 * e + 1, a) if r else (2 * e + 2, q)


def ppow_mod(p: int, a: Coeffs, e: int, m: Coeffs) -> Coeffs:
    """a^e modulo m."""
    return power(lambda x, y: pmod(p, pmul(p, x, y), m), pmod(p, a, m), e, pmod(p, ONE, m))


def pcode(p: int, a: Coeffs) -> int:
    """Base-p integer code of the coefficient tuple."""
    acc = 0
    for c in reversed(a):
        acc = acc * p + c
    return acc


def pfromcode(p: int, code: int) -> Coeffs:
    cs = []
    while code:
        code, c = divmod(code, p)
        cs.append(c)
    return tuple(cs)


def _check_prime(p: int) -> None:
    from .fields import is_prime_int  # fields builds on this module

    if not is_prime_int(p):
        raise DomainError(f"{p} is not a prime")


@lru_cache(maxsize=None)
def _monic_irreducibles_of_degree(p: int, n: int) -> tuple[Coeffs, ...]:
    # Product sieve: every monic reducible of degree n is g*h with g monic
    # irreducible of degree <= n/2 and h monic of degree n - deg g.
    _check_prime(p)
    if n == 1:
        return tuple((c, 1) for c in range(p))
    composite: set[Coeffs] = set()
    for a in range(1, n // 2 + 1):
        for g in _monic_irreducibles_of_degree(p, a):
            for h in monic_of_degree(p, n - a):
                composite.add(pmul(p, g, h))
    return tuple(f for f in monic_of_degree(p, n) if f not in composite)


def monic_of_degree(p: int, n: int):
    """All monic polynomials of degree n, in code order."""
    for lower in itertools.product(range(p), repeat=n):
        # itertools.product varies the LAST element fastest; we want the
        # base-p code (constant term = least significant digit) ascending.
        yield tuple(reversed(lower)) + (1,)


# Largest work estimate deg(f)^3 * bit_length(p)^2 that `_degree_parts`
# accepts.  It makes up to deg(f)/2 Frobenius steps of about
# 1.5 * bit_length(p) products modulo f, and a product's coefficients grow
# with p.  Timed at the limit on the full loop (CPython 3.11, x86-64): 0.4 s
# at degree 232 over F_2, 0.9 s over F_3, 1.25 s at degree 177 over F_7,
# 0.6 s at degree 37 over F_(2^31-1) and 0.35 s at degree 23 over
# F_(2^61-1).  With bit_length(p) in place of its square, the cost of one
# unit grew 26-fold from F_2 to F_(2^61-1).
FROBENIUS_BUDGET = 5 * 10**7


def _degree_parts(p: int, f: Coeffs):
    """(k, g) pairs for a nonconstant f: g is the product of the monic
    irreducible factors of degree k of a monic squarefree f, in increasing k.

    The k-th step sets frob = t^(p^k) mod f, and gcd(frob - t, f) is the
    product of the factors whose degree divides k; those of smaller degree
    are already divided out.  Once 2k > deg f, what is left has no factor
    of degree below k, so it is irreducible (distinct-degree factorization,
    von zur Gathen & Gerhard, Modern Computer Algebra, 14.2).  The first
    pair is right for any f: (deg f, f) iff f is irreducible, which is
    Ben-Or's test (Ben-Or 1981).  Raises BudgetExceededError, before the
    first step, when the work estimate passes FROBENIUS_BUDGET.
    """
    if pdeg(f) ** 3 * p.bit_length() ** 2 > FROBENIUS_BUDGET:
        raise BudgetExceededError(f"degree {pdeg(f)} over F_{p} exceeds FROBENIUS_BUDGET")
    t = frob = (0, 1)
    k = 1
    while 2 * k <= pdeg(f):
        frob = ppow_mod(p, frob, p, f)
        g = pgcd(p, psub(p, frob, t), f)
        if g != ONE:
            yield k, g
            f = pexactdiv(p, f, g)
        k += 1
    if pdeg(f) >= 1:
        yield pdeg(f), f


# a place's modulus is tested when the place is made and again when its
# residue field builds its tables
@lru_cache(maxsize=4096)
def is_irreducible(p: int, a: Coeffs) -> bool:
    """Irreducibility of a nonconstant polynomial: the first pair of
    `_degree_parts` is (deg a, a), so a reducible a exits at the degree of
    its smallest factor."""
    return pdeg(a) >= 1 and next(_degree_parts(p, a))[0] == pdeg(a)


def mobius(n: int) -> int:
    """The Moebius function mu(n) for n >= 1, by trial division."""
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def count_irreducibles(p: int, n: int) -> int:
    """Number of monic irreducible polynomials of degree n over F_p."""
    _check_prime(p)
    if n < 1:
        raise DomainError("degree must be >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(n // d) * p**d
    assert total % n == 0
    return total // n


# Largest p^max_degree that enumerate_monic_irreducibles accepts.
IRREDUCIBLE_BUDGET = 10**7


def enumerate_monic_irreducibles(p: int, max_degree: int) -> list[Coeffs]:
    """Monic irreducibles of degree <= max_degree in (degree, code) order.

    The code order compares coefficient tuples from the constant term up.
    Raises BudgetExceededError when p**max_degree exceeds IRREDUCIBLE_BUDGET.
    """
    _check_prime(p)
    if max_degree < 1:
        raise DomainError("max_degree must be >= 1")
    if p**max_degree > IRREDUCIBLE_BUDGET:
        raise BudgetExceededError(
            f"enumeration of degree-{max_degree} polynomials over F_{p} "
            f"exceeds budget {IRREDUCIBLE_BUDGET}"
        )
    out: list[Coeffs] = []
    for n in range(1, max_degree + 1):
        out.extend(_monic_irreducibles_of_degree(p, n))
    return out


def iter_monic_irreducibles(p: int):
    """Endless iterator over monic irreducibles in (degree, code) order.

    The p linear ones are generated one at a time, so a scan that stops
    early costs nothing at a huge p.
    """
    yield from ((c, 1) for c in range(p))
    for n in itertools.count(2):
        yield from _monic_irreducibles_of_degree(p, n)


def _squarefree_parts(p: int, f: Coeffs, mult: int = 1):
    """(g, e) pairs with f = prod g^e, the g squarefree, monic and pairwise
    coprime, for monic f (Yun's algorithm in characteristic p).

    The factors whose multiplicity p divides stay in c after the loop;
    c is then a p-th power, and over F_p its p-th root is c[::p].
    """
    c = pgcd(p, f, pderiv(p, f))
    w = pexactdiv(p, f, c)
    i = 1
    while len(w) > 1:
        y = pgcd(p, w, c)
        g = pexactdiv(p, w, y)
        if len(g) > 1:
            yield g, i * mult
        w, c, i = y, pexactdiv(p, c, y), i + 1
    if len(c) > 1:
        yield from _squarefree_parts(p, c[::p], mult * p)


def factor_poly(p: int, a: Coeffs, budget: int = 10**6) -> dict[Coeffs, int]:
    """Factor a nonzero polynomial into monic irreducibles.

    Returns {irreducible: multiplicity}; the unit (leading coefficient) is
    discarded.  Each squarefree part is split by `_degree_parts`.  A
    degree-k part of degree k is one irreducible; a larger one, a product
    of degree-k irreducibles, is split by the monic irreducibles of degree
    k that divide it.  There are about p^k/k of them, so such a part is
    refused with BudgetExceededError when p^k > budget.
    """
    if not a:
        raise DomainError("cannot factor the zero polynomial")
    factors: dict[Coeffs, int] = {}
    for part, e in _squarefree_parts(p, pmonic(p, a)):
        for k, g in _degree_parts(p, part):
            if pdeg(g) == k:
                factors[g] = e
            elif p**k > budget:
                raise BudgetExceededError(f"degree-{k} trial divisors over F_{p} exceed {budget}")
            else:
                divisors = _monic_irreducibles_of_degree(p, k)
                factors.update((h, e) for h in divisors if not pmod(p, g, h))
    return factors


def poly_str(a, var: str = "t", to_str=str) -> str:
    """Human-readable form, highest power first, e.g. 't^3+2*t+1'.

    The coefficients are printed by `to_str`, so the same routine prints
    forms over Z ('-3*z^2+z-1') and over F_p[t] ('(t+1)*z^2+2'): a
    coefficient that prints as neither +-1 nor an integer is bracketed.
    """
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        term = to_str(c)
        if i:
            power = var if i == 1 else f"{var}^{i}"
            if term == "1" or term == "-1":
                term = term[:-1] + power
            elif term.lstrip("-").isdigit():
                term = f"{term}*{power}"
            else:  # a polynomial in t
                term = f"({term})*{power}"
        if terms and term[0] != "-":
            term = "+" + term
        terms.append(term)
    return "".join(terms) or "0"


def coeff_string(a: Coeffs) -> str:
    """Serialized form 'c0,c1,...,cn' (constant term first); '0' for zero."""
    if not a:
        return "0"
    return ",".join(str(c) for c in a)


def parse_int(token: str) -> int:
    """int(token) on ASCII text only: a token with any other character,
    such as a Unicode digit that int() reads, raises ValueError."""
    if not token.isascii():
        raise ValueError(f"non-ASCII character in {token!r}")
    return int(token)


def parse_coeff_string(p: int, s: str) -> Coeffs:
    """Inverse of coeff_string; a malformed string raises ValueError."""
    return ptrim([parse_int(part) % p for part in s.split(",")])
