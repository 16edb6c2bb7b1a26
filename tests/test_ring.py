"""The integral rings Z and F_p[t] against independent oracles.

Element arithmetic over Q is checked against `fractions.Fraction`, which
the element code does not use; over F_p(t) against cross-multiplication
with the schoolbook product.  `canon_pair` is checked against
`point_from_raw`, and `ord` against the divisibility rule it encodes,
with divisibility decided by schoolbook long division; `split` and `ord`
against the loops that divide out one prime at a time.

The place API of the rings (`factor`, `primes`, `residue`) is checked
through its callers: `support` must rebuild the element from the places
it names, the place scan must match a sieve of Eratosthenes or the
all-pairs irreducible enumeration, and reduction at a place must match
schoolbook long division, or at infinity the reversed polynomial modulo
its variable.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import arithdyn as ad
from arithdyn.errors import BudgetExceededError, DegenerateMapError, DomainError
from arithdyn.fields import Z, canon_pair, iter_places_by_size, polynomial_ring
from arithdyn.residue import reduce_values
from conftest import enumerated_points
from reference import (
    brute_monic_irreducibles,
    reference_ord_int,
    reference_ord_poly,
    schoolbook_pmul,
    trial_division_is_prime,
)

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


def oracle_rem(p, a, b):
    """a modulo b != 0 over F_p, by schoolbook long division."""
    rem = list(a)
    inv = pow(b[-1], -1, p)
    for shift in range(len(rem) - len(b), -1, -1):
        f = rem[shift + len(b) - 1] * inv % p
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - f * c) % p
    return trim(rem)


def oracle_divides(p, b, a) -> bool:
    """Whether b != 0 divides a over F_p."""
    return not oracle_rem(p, a, b)


def oracle_code(p, cs) -> int:
    return sum(c * p**i for i, c in enumerate(cs))


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
        irreducibles = ad.enumerate_monic_irreducibles(p, 2)
        for _ in range(200):
            pi = rng.choice(irreducibles)
            a = random_poly(rng, p) or (1,)
            a = schoolbook_pmul(p, a, oracle_pow(p, pi, rng.randint(0, 4)))
            e = ring.ord(a, pi)
            assert oracle_divides(p, oracle_pow(p, pi, e), a)
            assert not oracle_divides(p, oracle_pow(p, pi, e + 1), a)


class TestSplit:
    """`ring.split` and `ring.ord` against the loops that divide out one
    prime at a time, on u * pi^e * b with b random."""

    EXPONENTS = (0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 255, 1023, 1024, 1999, 2000)

    @pytest.mark.parametrize("pi", [2, 3, 101, 2**61 - 1], ids=["2", "3", "101", "61-bit"])
    def test_integers(self, pi):
        rng = random.Random(pi % 1000)
        for e in self.EXPONENTS + tuple(rng.randint(0, 2000) for _ in range(10)):
            a = rng.choice([-1, 1]) * pi**e * rng.randint(1, 10**30)
            want = reference_ord_int(a, pi)
            assert Z.split(a, pi) == (want, a // pi**want)
            assert Z.ord(a, pi) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_polynomials(self, p):
        ring = polynomial_ring(p)
        rng = random.Random(139 + p)
        for pi in [g for g in ad.enumerate_monic_irreducibles(p, 3) if len(g) > 1]:
            for e in (0, 1, 2, 3, 7, 8, 9, rng.randint(10, 40)):
                a = schoolbook_pmul(p, oracle_pow(p, pi, e), random_poly(rng, p, 6) or (1,))
                a = ring.scale(a, rng.randrange(1, p))
                want = reference_ord_poly(p, a, pi)
                e_got, rest = ring.split(a, pi)
                assert (e_got, ring.ord(a, pi)) == (want, want)
                assert schoolbook_pmul(p, oracle_pow(p, pi, want), rest) == a
                assert not oracle_divides(p, pi, rest)

    @pytest.mark.parametrize("ring, pi", [(Z, 2), (polynomial_ring(3), (1, 1))], ids=["Z", "F3[t]"])
    def test_zero_refused(self, ring, pi):
        with pytest.raises(DomainError):
            ring.split(ring.zero, pi)
        with pytest.raises(DomainError):
            ring.ord(ring.zero, pi)


def sieve_primes(n):
    """The primes up to n by the sieve of Eratosthenes."""
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(range(i * i, n + 1, i))
    return [i for i, f in enumerate(flags) if f]


def oracle_monic(p, a):
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


# all monic irreducibles up to degree 4, for factors of random polynomials
IRREDUCIBLES = {
    p: set().union(*(brute_monic_irreducibles(p, n) for n in range(1, 5))) for p in (2, 3, 5)
}


class TestSupport:
    def test_rationals_rebuilt_from_primes(self):
        rng = random.Random(139)
        for _ in range(300):
            x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**5), rng.randint(1, 10**5))
            supp = ad.support(ad.QQ.element(x.numerator, x.denominator))
            rebuilt = Fraction(1)
            for pl, e in supp.items():
                assert pl.kind == "prime" and trial_division_is_prime(pl.payload) and e
                rebuilt *= Fraction(pl.payload) ** e
            assert rebuilt == abs(x)  # the unit is the sign

    @pytest.mark.parametrize("field", FUNCTION_FIELDS, ids=str)
    def test_function_field_rebuilt_from_irreducibles(self, field):
        p = field.char
        rng = random.Random(149 + p)
        inf = ad.infinite_place(field)
        for _ in range(200):
            # a random square or p-th power factor exercises the squarefree split
            square = oracle_pow(p, random_poly(rng, p, 2) or (1,), rng.randint(0, 3))
            num = schoolbook_pmul(p, random_poly(rng, p), square)
            den = random_poly(rng, p) or (1,)
            if not num:
                continue
            x = field.element(num, den)
            supp = ad.support(x)
            top = bottom = (1,)
            for pl, e in supp.items():
                assert e
                if pl == inf:
                    continue
                assert pl.payload in IRREDUCIBLES[p]
                if e > 0:
                    top = schoolbook_pmul(p, top, oracle_pow(p, pl.payload, e))
                else:
                    bottom = schoolbook_pmul(p, bottom, oracle_pow(p, pl.payload, -e))
            assert bottom == x.den
            assert top == oracle_monic(p, x.num)  # the unit is the leading coefficient
            assert supp.get(inf, 0) == (len(x.den) - 1) - (len(x.num) - 1)


class TestFactor:
    # sympy's own sort of the factors warns about comparing residues
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_agrees_with_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(151 + p)
        for _ in range(60):
            a = schoolbook_pmul(
                p,
                random_poly(rng, p, 8) or (1,),
                oracle_pow(p, random_poly(rng, p, 3) or (1,), rng.randint(0, p + 1)),
            )
            if len(a) < 2:
                continue
            _, pairs = sympy.factor_list(sympy.Poly(a[::-1], t, modulus=p))
            want = {}
            for f, e in pairs:
                g = oracle_monic(p, trim(int(c) % p for c in f.all_coeffs()[::-1]))
                want[g] = want.get(g, 0) + e
            assert polynomial_ring(p).factor(a) == want

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("p, degrees", [(2, (20, 33, 45)), (3, (20, 27, 40))])
    def test_large_irreducible_factor_agrees_with_sympy(self, p, degrees):
        # trial division alone would need divisors of degree up to half the
        # large factor, past the budget from degree 20 on over F_2 and F_3;
        # Ben-Or's test settles the cofactor once the small factors are out
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(331 + p)
        for degree in degrees:
            while True:
                big = (*(rng.randrange(p) for _ in range(degree)), 1)
                if sympy.Poly(big[::-1], t, modulus=p).is_irreducible:
                    break
            for _ in range(3):
                small = oracle_pow(p, random_poly(rng, p, 4) or (1,), rng.randint(1, 2))
                a = schoolbook_pmul(p, schoolbook_pmul(p, big, small), random_poly(rng, p, 5) or (1,))
                _, pairs = sympy.factor_list(sympy.Poly(a[::-1], t, modulus=p))
                want = {}
                for f, e in pairs:
                    g = oracle_monic(p, trim(int(c) % p for c in f.all_coeffs()[::-1]))
                    want[g] = want.get(g, 0) + e
                assert want[big] >= 1
                assert polynomial_ring(p).factor(a) == want

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("p, degrees", [(3, (14, 25)), (7, (17, 39))])
    def test_large_factors_of_distinct_degrees_agree_with_sympy(self, p, degrees):
        # trial division refused these: the smaller factor alone needs
        # divisors of its degree, past the budget of 10^6; splitting by
        # degree finds each factor with no trial divisor
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(2800 + p)
        a = (1,)
        for degree in degrees:
            while True:
                big = (*(rng.randrange(p) for _ in range(degree)), 1)
                if sympy.Poly(big[::-1], t, modulus=p).is_irreducible:
                    break
            a = schoolbook_pmul(p, a, big)
        a = schoolbook_pmul(p, a, oracle_pow(p, random_poly(rng, p, 3) or (1,), 2))
        _, pairs = sympy.factor_list(sympy.Poly(a[::-1], t, modulus=p))
        want = {}
        for f, e in pairs:
            g = oracle_monic(p, trim(int(c) % p for c in f.all_coeffs()[::-1]))
            want[g] = want.get(g, 0) + e
        assert sorted(len(g) - 1 for g in want)[-2:] == list(degrees)
        assert polynomial_ring(p).factor(a) == want

    def test_budget_rule_matches_the_integers(self):
        # Z spends the budget on trial divisors first, then on rho steps:
        # 40 units try the divisors up to 77, Miller-Rabin certifies 1009,
        # and 1009 * 1013 is refused with no units left for rho
        assert Z.factor(-1009, budget=40) == {1009: 1}
        with pytest.raises(BudgetExceededError):
            Z.factor(1009 * 1013, budget=40)
        # F_2[t] splits a squarefree part by degree without trial divisors;
        # only a product of irreducibles of one degree k is trial-divided,
        # by the irreducibles of degree k, and refused when 2^k > budget
        ring = polynomial_ring(2)
        cubic, other_cubic = (1, 1, 0, 1), (1, 0, 1, 1)
        assert ring.factor(cubic, budget=2) == {cubic: 1}
        assert ring.factor(cubic, budget=1) == {cubic: 1}
        sextic = schoolbook_pmul(2, cubic, other_cubic)
        with pytest.raises(BudgetExceededError):
            ring.factor(sextic, budget=7)
        assert ring.factor(sextic, budget=8) == {cubic: 1, other_cubic: 1}
        # factors of different multiplicities are split apart before any
        # trial division, so each cubic is a part of its own
        mixed = schoolbook_pmul(2, oracle_pow(2, cubic, 3), other_cubic)
        assert ring.factor(mixed, budget=2) == {cubic: 3, other_cubic: 1}

    def test_constants_and_units(self):
        assert polynomial_ring(3).factor((2,)) == {}
        assert Z.factor(-1) == {}
        assert Z.units == (1, -1)
        assert list(polynomial_ring(5).units) == [1, 2, 3, 4]


class TestPlaceScan:
    def test_rationals_match_a_sieve(self):
        scan = list(itertools.islice(iter_places_by_size(ad.QQ), 30))
        assert [pl.payload for pl in scan] == sieve_primes(200)[:30]
        assert {pl.kind for pl in scan} == {"prime"}

    @pytest.mark.parametrize("field,degree", zip(FUNCTION_FIELDS, (7, 4, 3)), ids=str)
    def test_function_fields_match_all_pairs_enumeration(self, field, degree):
        p = field.char
        scan = list(itertools.islice(iter_places_by_size(field), 30))
        assert scan[0] == ad.infinite_place(field)
        irreducibles = sorted(
            set().union(*(brute_monic_irreducibles(p, n) for n in range(1, degree + 1))),
            key=lambda cs: (len(cs), oracle_code(p, cs)),
        )
        assert [pl.payload for pl in scan[1:]] == irreducibles[:29]
        assert {pl.kind for pl in scan[1:]} == {"irreducible"}


class TestHeights:
    """`upto` lists the elements by size, and enumeration refuses a height
    by the ring's own count: (2h + 1)*h + 1 over Z, p^(2h + 2) over F_p[t]."""

    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("field", [ad.QQ] + FUNCTION_FIELDS, ids=str)
    def test_upto_lists_every_element_of_size_at_most_h(self, field, h):
        ring, p = field.ring, field.char
        xs, ys = (list(v) for v in ring.upto(h, 10**7))
        assert len(set(xs)) == len(xs) == (p ** (h + 1) if p else 2 * h + 1)
        assert all((len(x) - 1 if p else abs(x)) <= h for x in xs)
        if p:
            assert [oracle_code(p, x) for x in xs] == list(range(p ** (h + 1)))
            monics = [x for x in xs if x and x[-1] == 1]
            assert ys == sorted(monics, key=lambda y: oracle_code(p, y))
        else:
            assert ys == [x for x in xs if x > 0]

    @pytest.mark.parametrize(
        "p, h, admitted",
        [
            (0, 499, True), (0, 500, False), (2, 8, True), (2, 9, False),
            (3, 4, True), (3, 5, False), (11, 1, True), (11, 2, False),
            (23, 1, True), (29, 1, False),
            (0, 10**20, False), (2, 10**9, False), (1000000000000000003, 400000, False),
        ],
    )
    def test_refusal_boundary_at_the_default_budget(self, p, h, admitted):
        points = enumerated_points(ad.function_field(p) if p else ad.QQ, h)
        if admitted:
            assert next(points).is_infinity
        else:
            with pytest.raises(BudgetExceededError):
                next(points)

    def test_pair_key_orders_by_code(self):
        assert Z.pair_key(-3, 2) == (-3, 2)
        # y before x, each by its base-p code
        assert polynomial_ring(3).pair_key((1, 2), (0, 1)) == (3, 7)


def oracle_reduce(p, place, values):
    """Schoolbook residue codes: long division by the place polynomial; at
    infinity each value is rewritten in s = 1/t and scaled by s^m, m the
    largest degree, and the result is taken modulo s."""
    if place.kind == "inf":
        m = max(len(v) for v in values) - 1
        values = [tuple(reversed(v + (0,) * (m + 1 - len(v)))) for v in values]
        pi = (0, 1)
    else:
        pi = place.payload
    return tuple(oracle_code(p, oracle_rem(p, v, pi)) for v in values)


class TestReduceValues:
    def test_prime_places(self):
        rng = random.Random(157)
        for q in (2, 3, 7, 101):
            place = ad.prime_place(q)
            for _ in range(50):
                values = [rng.randint(-10**6, 10**6) for _ in range(4)]
                assert reduce_values(place, values) == tuple(
                    next(r for r in range(q) if (v - r) // q * q == v - r) for v in values
                )

    @pytest.mark.parametrize("field", FUNCTION_FIELDS, ids=str)
    def test_function_field_places(self, field):
        p = field.char
        rng = random.Random(163 + p)
        places = [ad.infinite_place(field)] + [
            ad.irreducible_place(field, pi) for pi in sorted(IRREDUCIBLES[p])[:6]
        ]
        for place in places:
            for _ in range(40):
                values = [random_poly(rng, p, 6) for _ in range(3)]
                if not any(values):
                    continue
                assert reduce_values(place, values) == oracle_reduce(p, place, values)

    @pytest.mark.parametrize("field", [ad.QQ] + FUNCTION_FIELDS, ids=str)
    def test_points_and_maps(self, field):
        rng = random.Random(167 + field.char)
        if field.char:
            p = field.char
            draw = lambda: random_poly(rng, p, 3)  # noqa: E731
            places = [ad.infinite_place(field)] + [
                ad.irreducible_place(field, pi) for pi in sorted(IRREDUCIBLES[p])[:4]
            ]
            oracle = lambda place, vs: oracle_reduce(p, place, vs)  # noqa: E731
        else:
            draw = lambda: rng.randint(-50, 50)  # noqa: E731
            places = [ad.prime_place(q) for q in (2, 3, 5, 7)]
            oracle = lambda place, vs: tuple(v % place.payload for v in vs)  # noqa: E731
        checked = 0
        for _ in range(150):
            x, y = draw(), draw()
            if x or y:
                pt = ad.point_from_raw(field, x, y)
                for place in places:
                    assert reduce_values(place, (pt.x, pt.y)) == oracle(place, (pt.x, pt.y))
            fco, gco = [draw() for _ in range(3)], [draw() for _ in range(3)]
            try:
                phi = ad.make_map(field, fco, gco)
            except DegenerateMapError:
                continue
            for place in places:
                if ad.has_good_reduction(phi, place):
                    psi = ad.reduce_map(phi, place)
                    assert psi.fco + psi.gco == oracle(place, phi.fco + phi.gco)
                    checked += 1
        assert checked > 100
