"""The integral rings Z and F_p[t] against independent oracles.

Element arithmetic over Q is checked against `fractions.Fraction`, which
the element code does not use; over F_p(t) against cross-multiplication
with the schoolbook product.  `canon_pair` is checked against
`point_from_raw`, and `ord` against the divisibility rule it encodes,
with divisibility decided by schoolbook long division.
"""

import random
from fractions import Fraction

import pytest

import arithdyn as ad
from arithdyn.fields import Z, canon_pair, polynomial_ring
from oracles import schoolbook_pmul

FUNCTION_FIELDS = [ad.function_field(p) for p in (2, 3, 5)]


def random_poly(rng, p, max_deg=4):
    return trim(rng.randrange(p) for _ in range(rng.randint(0, max_deg + 1)))


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def oracle_add(p, a, b):
    n = max(len(a), len(b))
    return trim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n))


def oracle_divides(p, b, a) -> bool:
    """Whether b != 0 divides a over F_p, by schoolbook long division."""
    rem = list(a)
    inv = pow(b[-1], -1, p)
    for shift in range(len(rem) - len(b), -1, -1):
        f = rem[shift + len(b) - 1] * inv % p
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - f * c) % p
    return not any(rem)


def oracle_pow(p, a, e):
    out = (1,)
    for _ in range(e):
        out = schoolbook_pmul(p, out, a)
    return out


class TestRationalElements:
    def test_arithmetic_agrees_with_fraction(self):
        rng = random.Random(101)
        for _ in range(400):
            fa = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            fb = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            a = ad.QQ.element(fa.numerator, fa.denominator)
            b = ad.QQ.element(fb.numerator, fb.denominator)
            cases = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (-a, -fa)]
            if fb:
                cases.append((a / b, fa / fb))
            e = rng.randint(-3, 5)
            if fa or e >= 0:
                cases.append((a**e, fa**e))
            for got, want in cases:
                assert (got.num, got.den) == (want.numerator, want.denominator)

    def test_construction_from_fractions_and_elements(self):
        rng = random.Random(103)
        for _ in range(100):
            fa = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            fb = Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 99))
            x = ad.QQ.element(fa, ad.QQ.element(fb.numerator, fb.denominator))
            assert x.as_fraction() == fa / fb


@pytest.mark.parametrize("field", FUNCTION_FIELDS, ids=str)
class TestFunctionFieldElements:
    def test_arithmetic_agrees_with_cross_multiplication(self, field):
        p = field.char
        rng = random.Random(107 + p)
        mul = lambda a, b: schoolbook_pmul(p, a, b)  # noqa: E731
        for _ in range(200):
            na, nb = random_poly(rng, p), random_poly(rng, p)
            da, db = random_poly(rng, p) or (1,), random_poly(rng, p) or (1,)
            a, b = field.element(na, da), field.element(nb, db)
            neg_nb = tuple(-c % p for c in nb)
            cases = [
                (a + b, oracle_add(p, mul(na, db), mul(nb, da)), mul(da, db)),
                (a - b, oracle_add(p, mul(na, db), mul(neg_nb, da)), mul(da, db)),
                (a * b, mul(na, nb), mul(da, db)),
                (-a, tuple(-c % p for c in na), da),
            ]
            if nb:
                cases.append((a / b, mul(na, db), mul(da, nb)))
            for got, num, den in cases:
                assert got.den[-1] == 1  # monic
                assert mul(got.num, den) == mul(num, got.den)

    def test_powers(self, field):
        p = field.char
        rng = random.Random(109 + p)
        for _ in range(50):
            num, den = random_poly(rng, p, 3), random_poly(rng, p, 3) or (1,)
            x = field.element(num, den)
            e = rng.randint(0, 6)
            got = x**e
            assert schoolbook_pmul(p, got.num, oracle_pow(p, den, e)) == schoolbook_pmul(
                p, oracle_pow(p, num, e), got.den
            )


class TestCanonPair:
    def test_integers(self):
        rng = random.Random(113)
        for _ in range(300):
            x, y = rng.randint(-50, 50), rng.randint(-50, 50)
            if not (x or y):
                continue
            pt = ad.point_from_raw(ad.QQ, x, y)
            g = Z.gcd(x, y)
            assert canon_pair(Z, x, y, g) == (pt.x, pt.y)
            if g == 1:
                assert canon_pair(Z, x, y, Z.one) == (pt.x, pt.y)
            k = rng.choice([-3, -1, 2, 5])
            assert canon_pair(Z, k * pt.x, k * pt.y, abs(k)) == (pt.x, pt.y)

    @pytest.mark.parametrize("field", FUNCTION_FIELDS, ids=str)
    def test_polynomials(self, field):
        p = field.char
        ring = field.ring
        rng = random.Random(127 + p)
        for _ in range(300):
            x, y = random_poly(rng, p), random_poly(rng, p)
            if not (x or y):
                continue
            pt = ad.point_from_raw(field, x, y)
            g = ring.gcd(x, y)
            assert canon_pair(ring, x, y, g) == (pt.x, pt.y)
            if g == ring.one:
                assert canon_pair(ring, x, y, ring.one) == (pt.x, pt.y)
            # a common factor h: with g = the true gcd the point comes back
            h = random_poly(rng, p, 2) or (1,)
            hx, hy = schoolbook_pmul(p, pt.x, h), schoolbook_pmul(p, pt.y, h)
            assert canon_pair(ring, hx, hy, ring.gcd(hx, hy)) == (pt.x, pt.y)


class TestOrd:
    def test_integers(self):
        rng = random.Random(131)
        for _ in range(300):
            pi = rng.choice([2, 3, 5, 7, 11, 101])
            a = rng.choice([-1, 1]) * rng.randint(1, 10**6) * pi ** rng.randint(0, 6)
            e = Z.ord(a, pi)
            assert a % pi**e == 0 and a % pi ** (e + 1) != 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_polynomials(self, p):
        ring = polynomial_ring(p)
        rng = random.Random(137 + p)
        irreducibles = [pi.coeffs for pi in ad.enumerate_monic_irreducibles(p, 2)]
        for _ in range(200):
            pi = rng.choice(irreducibles)
            a = random_poly(rng, p) or (1,)
            a = schoolbook_pmul(p, a, oracle_pow(p, pi, rng.randint(0, 4)))
            e = ring.ord(a, pi)
            assert oracle_divides(p, oracle_pow(p, pi, e), a)
            assert not oracle_divides(p, oracle_pow(p, pi, e + 1), a)
