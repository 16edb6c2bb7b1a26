import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import arithdyn as ad
from arithdyn.errors import (
    BudgetExceededError,
    DomainError,
    UnsupportedPlaceError,
)
from arithdyn.fields import (
    FACTOR_BUDGET,
    MR_EXACT_BOUND,
    factor_int,
    integer_root,
    is_prime_int,
    iter_primes,
)
from reference import trial_division_is_prime

F2T = ad.function_field(2)
F3T = ad.function_field(3)
SRC = Path(__file__).resolve().parents[1] / "src"


class TestElements:
    def test_canonical_rationals(self):
        x = ad.QQ.element(4, -6)
        assert (x.num, x.den) == (-2, 3)
        assert ad.QQ.element(0, 5) == ad.QQ.zero()

    def test_canonical_function_field(self):
        # (t^2+t) / t  ->  t+1
        x = F2T.element((0, 1, 1), (0, 1))
        assert (x.num, x.den) == ((1, 1), (1,))
        # monic denominator: (1)/(2t) over F_3 -> (2)/(t)
        y = F3T.element((1,), (0, 2))
        assert (y.num, y.den) == ((2,), (0, 1))

    def test_arithmetic_mixed(self):
        a = ad.QQ.element(1, 2)
        b = ad.QQ.element(1, 3)
        assert (a + b).as_fraction() == ad.QQ.element(5, 6).as_fraction()
        t = F2T.gen()
        one = F2T.one()
        assert (t + one) * (t + one) == F2T.element((1, 0, 1))  # char 2
        assert (t / (t + one)) * ((t + one) / t) == one

    def test_pow_negative(self):
        t = F3T.gen()
        assert t**-2 == F3T.element(1) / (t * t)

    def test_str_roundtrip_via_parser(self):
        x = F2T.element((1, 1), (0, 0, 1))
        assert ad.parse_element(F2T, str(x)) == x
        y = ad.QQ.element(-7, 3)
        assert ad.parse_element(ad.QQ, str(y)) == y


class TestValuation:
    def test_worked_examples(self):
        assert ad.valuation(ad.QQ.element(12), ad.prime_place(2)) == 2
        x = F2T.element((1, 0, 1), (0, 0, 0, 1))  # (t^2+1)/t^3
        assert ad.valuation(x, ad.infinite_place(F2T)) == 1
        y = F2T.element((0, 0, 0, 1), (1, 1))  # t^3/(t+1)
        assert ad.valuation(y, ad.parse_place(F2T, "pi:0,1")) == 3

    def test_errors(self):
        with pytest.raises(DomainError):
            ad.valuation(ad.QQ.zero(), ad.prime_place(2))
        with pytest.raises(UnsupportedPlaceError):
            ad.valuation(ad.QQ.element(1), ad.archimedean_place())

    @given(
        st.fractions(min_value=-50, max_value=50),
        st.fractions(min_value=-50, max_value=50),
        st.sampled_from([2, 3, 5]),
    )
    def test_valuation_multiplicative_and_ultrametric(self, fa, fb, q):
        if fa == 0 or fb == 0:
            return
        a = ad.QQ.element(fa.numerator, fa.denominator)
        b = ad.QQ.element(fb.numerator, fb.denominator)
        pl = ad.prime_place(q)
        assert ad.valuation(a * b, pl) == ad.valuation(a, pl) + ad.valuation(b, pl)
        if not (a + b).is_zero:
            va, vb = ad.valuation(a, pl), ad.valuation(b, pl)
            vs = ad.valuation(a + b, pl)
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)

    @given(st.data())
    def test_product_formula_function_field(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        field = ad.function_field(p)
        num = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5)))
        den = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5)))
        if not any(num) or not any(den):
            return
        x = field.element(num, den)
        total = sum(pl.degree * v for pl, v in ad.support(x).items())
        assert total == 0


class TestPrimality:
    def test_matches_trial_division(self):
        assert all(is_prime_int(n) == trial_division_is_prime(n) for n in range(10**5))

    def test_strong_pseudoprimes(self):
        # strong pseudoprime to the bases 2, 3, 5 and 7
        assert 151 * 751 * 28351 == 3215031751
        assert not trial_division_is_prime(3215031751)
        assert not is_prime_int(3215031751)
        # strong pseudoprime to every prime base up to 31
        assert 149491 * 747451 * 34233211 == 3825123056546413051
        assert not is_prime_int(3825123056546413051)
        # ... up to 37: only the base 41 exposes it
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert not is_prime_int(318665857834031151167461)

    def test_large_primes(self):
        for n in (2**31 - 1, 2**61 - 1, 10**18 + 3, 2**64 - 59):
            assert is_prime_int(n)
        assert not is_prime_int((2**31 - 1) * (10**9 + 7))

    def test_prime_scan_is_the_sieve(self):
        # iter_primes filters the integers through is_prime_int
        n = 1224
        sieve = [True] * n
        for k in range(2, n):
            for m in range(2 * k, n, k):
                sieve[m] = False
        primes = [k for k in range(2, n) if sieve[k]]
        assert len(primes) == 200
        assert list(itertools.islice(iter_primes(), 200)) == primes

    def test_refuses_beyond_the_exact_range(self):
        with pytest.raises(BudgetExceededError):
            is_prime_int(2**89 - 1)
        # the bound is the least strong pseudoprime to all thirteen bases
        with pytest.raises(BudgetExceededError):
            is_prime_int(MR_EXACT_BOUND)
        # a multiple of a base is decided at any size
        assert not is_prime_int(3 * 2**89)

    @pytest.mark.parametrize("p", [0, 1, 4, -3])
    def test_function_field_refuses_a_non_prime(self, p):
        # 0 would otherwise give BaseField(0), which is Q
        with pytest.raises(DomainError, match="not a prime"):
            ad.function_field(p)


# the least prime above MR_EXACT_BOUND (checked against sympy below)
PRIME_ABOVE_MR_BOUND = MR_EXACT_BOUND + 142


def _random_prime(rng, bits):
    while True:
        q = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if is_prime_int(q):
            return q


def _drawn_factorizations(seed, count):
    """(n, {prime: multiplicity}) built from known primes: products of
    prime powers of 2-26 bits with at most one prime of up to 40 bits,
    perfect powers, squares of semiprimes, and products on both sides of
    MR_EXACT_BOUND.  Every one splits well within FACTOR_BUDGET."""
    rng = random.Random(seed)
    for i in range(count):
        shape = i % 4
        if shape == 0:
            primes = [_random_prime(rng, rng.randint(2, 26)) for _ in range(rng.randint(1, 5))]
            primes.append(_random_prime(rng, rng.randint(2, 40)))
            want = {}
            for q in primes:
                want[q] = want.get(q, 0) + rng.randint(1, 3)
        elif shape == 1:
            want = {_random_prime(rng, rng.randint(2, 40)): rng.randint(2, 7)}
        elif shape == 2:
            p, q = _random_prime(rng, rng.randint(11, 20)), _random_prime(rng, rng.randint(21, 40))
            want = {p: 2, q: 2}
        else:
            # a cofactor of 74-81 bits is certified by Miller-Rabin; times a
            # prime of 8-20 bits the value passes MR_EXACT_BOUND
            big = _random_prime(rng, rng.randint(74, 81))
            assert big < MR_EXACT_BOUND
            want = {big: 1, _random_prime(rng, rng.randint(8, 20)): 1}
        n = 1
        for q, e in want.items():
            n *= q**e
        yield n * rng.choice((1, -1)), want


class TestFactorInt:
    def test_known_factorizations(self):
        # independent of any oracle: the primes are drawn first, and the
        # answer multiplies back to n with certified primes
        for n, want in _drawn_factorizations(3203, 120):
            got = factor_int(n)
            assert got == want
            assert all(is_prime_int(q) for q in got)
            assert math.prod(q**e for q, e in got.items()) == abs(n)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        assert sympy.isprime(PRIME_ABOVE_MR_BOUND)
        assert sympy.prevprime(PRIME_ABOVE_MR_BOUND) < MR_EXACT_BOUND
        for n, _ in _drawn_factorizations(3204, 120):
            assert factor_int(n) == sympy.factorint(abs(n))
        rng = random.Random(3205)
        for _ in range(300):
            n = rng.getrandbits(rng.randint(1, 60)) + 1
            assert factor_int(n) == sympy.factorint(n)

    def test_small_and_unit_values(self):
        assert factor_int(1) == factor_int(-1) == {}
        assert factor_int(2**20 * 3**5) == {2: 20, 3: 5}
        assert factor_int(1021**2) == {1021: 2}  # below TRIAL_BOUND
        assert factor_int(1031**2) == {1031: 2}  # a root just past it
        # a budget of 3 tries 2, 3 and 5 only: 49 is not certified by the
        # divisors tried, but its square root is taken; 77 is refused
        assert factor_int(49, budget=3) == {7: 2}
        with pytest.raises(BudgetExceededError):
            factor_int(77, budget=3)
        with pytest.raises(DomainError):
            factor_int(0)

    def test_refusals(self):
        # a semiprime of two primes near 2^45, past the budget's rho steps;
        # the least prime above MR_EXACT_BOUND, which nothing certifies; the
        # strong pseudoprime to the bases up to 37 (two primes near 2^39)
        for n in (35184372088891 * 36283883716763, PRIME_ABOVE_MR_BOUND, 318665857834031151167461):
            start = time.perf_counter()
            with pytest.raises(BudgetExceededError):
                factor_int(n)
            assert time.perf_counter() - start < 1.0
        # (10^9 + 7) * (10^9 + 9) takes about 5*10^4 rho steps: it splits
        # within the default budget, and not within a tenth of it
        assert factor_int(1000000016000000063) == {1000000007: 1, 1000000009: 1}
        with pytest.raises(BudgetExceededError):
            factor_int(1000000016000000063, budget=FACTOR_BUDGET // 10)

    def test_integer_root(self):
        rng = random.Random(3206)
        for _ in range(2000):
            k = rng.randint(1, 70)
            n = rng.getrandbits(rng.randint(0, 600))
            if rng.random() < 0.4:
                n = max(0, rng.getrandbits(rng.randint(1, 40)) ** k + rng.choice((-1, 0, 1)))
            r = integer_root(n, k)
            assert r**k <= n < (r + 1) ** k
        # a root of a 13,700-bit value at a large exponent is found at once
        n = 13122**1000
        start = time.perf_counter()
        assert integer_root(n, 1000) == 13122 and integer_root(n - 1, 1000) == 13121
        assert time.perf_counter() - start < 0.5


class TestResidueSizes:
    def test_examples(self):
        assert ad.prime_place(7).residue_size() == 7
        assert ad.parse_place(F2T, "pi:1,1,1").residue_size() == 4
        assert ad.infinite_place(F3T).residue_size() == 3
        with pytest.raises(UnsupportedPlaceError):
            ad.archimedean_place().residue_size()


def _random_s_value(field, rng, places):
    """A product of powers of `places`, sometimes times one more small
    value, as an integral value of the ring."""
    ring = field.ring
    value = ring.one
    for pl in places:
        for _ in range(rng.randint(0, 2)):
            value = ring.mul(value, pl.payload)
    if rng.random() < 0.4:
        extra = rng.randint(1, 30) if field.is_rationals else (rng.randrange(1, field.char), 1, 1, 1)
        value = ring.mul(value, extra)
    return value


class TestSUnits:
    def test_examples(self):
        S = ad.place_set(
            ad.QQ, [ad.archimedean_place(), ad.prime_place(2), ad.prime_place(3)]
        )
        assert ad.is_s_unit(ad.QQ.element(6), S)
        assert not ad.is_s_unit(ad.QQ.element(10), S)
        S2 = ad.place_set(F2T, [ad.infinite_place(F2T), ad.parse_place(F2T, "pi:0,1")])
        assert ad.is_s_unit(F2T.element((0, 0, 1)), S2)  # t^2

    def test_s_integer(self):
        S = ad.place_set(ad.QQ, [ad.archimedean_place(), ad.prime_place(2)])
        assert ad.is_s_integer(ad.QQ.element(3, 4), S)
        assert not ad.is_s_integer(ad.QQ.element(1, 3), S)
        assert ad.is_s_integer(ad.QQ.zero(), S)

    @pytest.mark.parametrize("field", [ad.QQ, F2T, F3T], ids=str)
    def test_strip_matches_support(self, field):
        # stripping the places of S answers as the factored support does,
        # also for sets without the infinite place of F_p(t)
        rng = random.Random(143 + field.char)
        if field.is_rationals:
            finite = [ad.prime_place(q) for q in (2, 3, 5, 7)]
        else:
            finite = [ad.irreducible_place(field, f) for f in ad.enumerate_monic_irreducibles(field.char, 2)]
        inf = ad.infinite_place(field)
        outcomes = set()
        for _ in range(400):
            chosen = rng.sample(finite, rng.randint(0, 3))
            if field.is_rationals or rng.random() < 0.5 or not chosen:
                chosen.append(inf)
            S = ad.place_set(field, chosen)
            pool = S.finite_places() if rng.random() < 0.5 else finite
            x = field.element(_random_s_value(field, rng, pool), _random_s_value(field, rng, pool))
            supp = ad.support(x)
            unit = all(pl in S for pl in supp)
            integral = all(e >= 0 for pl, e in supp.items() if pl not in S)
            assert ad.is_s_unit(x, S) == unit, (x, S)
            assert ad.is_s_integer(x, S) == integral, (x, S)
            rest, exponents = ad.fields.strip_places(x, S)
            assert exponents == tuple(supp.get(pl, 0) for pl in S.finite_places())
            outcomes.add((inf in S, unit, integral))
        want = {(True, True, True), (True, False, True), (True, False, False)}
        if not field.is_rationals:
            want |= {(False, True, True), (False, False, True), (False, False, False)}
        assert outcomes == want

    def test_s_unit_of_zero(self):
        S = ad.place_set(ad.QQ, [ad.archimedean_place()])
        with pytest.raises(DomainError):
            ad.is_s_unit(ad.QQ.zero(), S)


class TestPlaceSets:
    def test_validation(self):
        with pytest.raises(DomainError):
            ad.place_set(ad.QQ, [])
        with pytest.raises(DomainError):
            ad.place_set(ad.QQ, [ad.prime_place(2)])  # missing archimedean
        with pytest.raises(DomainError):
            ad.place_set(ad.QQ, [ad.archimedean_place(), ad.prime_place(2), ad.prime_place(2)])
        S = ad.place_set(F2T, [ad.infinite_place(F2T)])
        assert S.size == 1

    def test_serialization_roundtrip(self):
        S = ad.parse_place_set(F2T, "inf;pi:1,1,1;pi:0,1")
        assert S.size == 3
        assert ad.parse_place_set(F2T, S.serialize()) == S
        S2 = ad.parse_place_set(ad.QQ, "inf;p:2;p:5")
        assert ad.parse_place_set(ad.QQ, S2.serialize()) == S2

    def test_place_validation(self):
        with pytest.raises(DomainError):
            ad.prime_place(6)
        with pytest.raises(DomainError):
            ad.parse_place(F2T, "pi:1,0,1")  # (t+1)^2 is not irreducible

    def test_place_coefficients_are_reduced_mod_p(self):
        # t - 1 and t + 2 are one place of F_3(t), and 4*t is the monic t
        minus, plus = ad.irreducible_place(F3T, (-1, 1)), ad.irreducible_place(F3T, (2, 1))
        assert minus == plus and hash(minus) == hash(plus)
        assert minus.serialize() == "pi:2,1" and str(minus) == "(t+2)"
        with pytest.raises(DomainError, match="duplicate"):
            ad.place_set(F3T, [ad.infinite_place(F3T), minus, plus])
        assert ad.irreducible_place(F3T, (0, 4)).serialize() == "pi:0,1"
        assert ad.irreducible_place(F3T, [0, 4]) == ad.parse_place(F3T, "pi:0,4")
        with pytest.raises(DomainError, match="monic"):
            ad.irreducible_place(F3T, (0, 2))


class TestSmallPrimeOutside:
    def test_worked_examples(self):
        S = ad.place_set(
            ad.QQ, [ad.archimedean_place(), ad.prime_place(2), ad.prime_place(3)]
        )
        assert ad.find_small_prime_outside(S) == ad.prime_place(5)

        S2 = ad.place_set(
            F2T,
            [
                ad.infinite_place(F2T),
                ad.parse_place(F2T, "pi:0,1"),
                ad.parse_place(F2T, "pi:1,1"),
            ],
        )
        got = ad.find_small_prime_outside(S2)
        assert got == ad.parse_place(F2T, "pi:1,1,1")
        assert got.residue_size() == 4 <= (2 * 3) ** 2 - 1

        S3 = ad.place_set(F3T, [ad.infinite_place(F3T)])
        assert ad.find_small_prime_outside(S3) == ad.parse_place(F3T, "pi:0,1")

    def test_huge_characteristic_scans_lazily(self):
        # the first place outside {inf} is t, whatever the size of p
        code = (
            "import arithdyn as ad; F = ad.function_field(1000000000000000003); "
            "print(ad.find_small_prime_outside(ad.place_set(F, [ad.infinite_place(F)])).serialize())"
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "pi:0,1"
        assert time.perf_counter() - start < 2

    def test_residue_bound_small_grid(self):
        # |k(p)| < (p|S|)^2 for S made of the smallest places (worst case)
        for p in (2, 3, 5):
            field = ad.function_field(p)
            scan = ad.fields.iter_places_by_size(field)
            pool = [next(scan) for _ in range(9)]
            for s in range(1, 9):
                S = ad.place_set(field, pool[:s])
                got = ad.find_small_prime_outside(S)
                assert got.residue_size() < (p * s) ** 2
