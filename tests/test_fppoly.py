import random

import pytest
from hypothesis import given, strategies as st

from arithdyn import fppoly
from arithdyn.errors import BudgetExceededError, DomainError

from reference import (
    brute_monic_irreducibles,
    reference_factor_poly,
    reference_is_irreducible,
    schoolbook_pdivmod,
    schoolbook_pmul,
)


def poly(p, *coeffs):
    return fppoly.ptrim(list(coeffs))


@st.composite
def polys(draw, p):
    return fppoly.ptrim(draw(st.lists(st.integers(0, p - 1), max_size=6)))


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        p = 5
        a = poly(p, 1, 2, 3)
        b = poly(p, 4, 4)
        assert fppoly.psub(p, fppoly.padd(p, a, b), b) == a

    def test_mul_example(self):
        # (t+1)^2 = t^2+1 over F_2
        assert fppoly.pmul(2, (1, 1), (1, 1)) == (1, 0, 1)

    @given(st.data())
    def test_divmod_identity(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        a = data.draw(polys(p))
        b = data.draw(polys(p))
        if not b:
            return
        q, r = fppoly.pdivmod(p, a, b)
        assert fppoly.padd(p, fppoly.pmul(p, q, b), r) == a
        assert fppoly.pdeg(r) < fppoly.pdeg(b)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_divmod_by_sparse_divisors(self, p):
        # t^k, c*t^k + 1 and t^k + c*t^j: the loop touches only the
        # nonzero lower coefficients of the divisor
        rng = random.Random(61 + p)
        for k in range(1, 40):
            j = rng.randrange(1, k) if k > 1 else 0
            c = rng.randrange(1, p)
            for b in ((0,) * k + (1,), (1,) + (0,) * (k - 1) + (c,), _binomial(j, c, k)):
                for n in (0, k, k + 1, 3 * k + 5):
                    a = fppoly.ptrim([rng.randrange(p) for _ in range(n)])
                    q, r = fppoly.pdivmod(p, a, b)
                    assert (q, r) == schoolbook_pdivmod(p, a, b)
                    assert fppoly.padd(p, schoolbook_pmul(p, q, b), r) == a

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_divmod_by_dense_divisors(self, p):
        rng = random.Random(67 + p)
        for _ in range(200):
            b = _random_poly(rng, p, rng.randint(1, 30))
            a = fppoly.ptrim([rng.randrange(p) for _ in range(rng.randint(0, 80))])
            assert fppoly.pdivmod(p, a, b) == schoolbook_pdivmod(p, a, b)

    @given(st.data())
    def test_gcd_divides_both(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        a = data.draw(polys(p))
        b = data.draw(polys(p))
        g = fppoly.pgcd(p, a, b)
        if g:
            assert not fppoly.pdivmod(p, a, g)[1]
            assert not fppoly.pdivmod(p, b, g)[1]
        else:
            assert not a and not b

    @given(st.data())
    def test_xgcd_bezout(self, data):
        p = data.draw(st.sampled_from([2, 5]))
        a = data.draw(polys(p))
        b = data.draw(polys(p))
        g, u, v = fppoly.pxgcd(p, a, b)
        lhs = fppoly.padd(p, fppoly.pmul(p, u, a), fppoly.pmul(p, v, b))
        assert lhs == g

    def test_derivative_char_p(self):
        # (t^2)' = 2t = 0 over F_2; p-th powers have zero derivative
        assert fppoly.pderiv(2, (0, 0, 1)) == ()
        assert fppoly.pderiv(3, (0, 0, 0, 1)) == ()
        assert fppoly.pderiv(5, (1, 2, 3)) == (2, 6 % 5)

    def test_monic(self):
        # 2t^2 + 1 over F_5, scaled by 2^-1 = 3; a gcd is monic
        assert fppoly.pmonic(5, (1, 0, 2)) == (3, 0, 1)
        assert fppoly.plead(fppoly.pgcd(5, (2, 0, 4), (0, 2, 0, 4))) == 1



def _binomial(j, c, k):
    """t^k + c*t^j for j < k."""
    return (0,) * j + (c,) + (0,) * (k - j - 1) + (1,)


def _random_poly(rng, p, n):
    """n coefficients mod p with a nonzero leading one (zero for n = 0)."""
    cs = [rng.randrange(p) for _ in range(n)]
    if cs:
        cs[-1] = rng.randrange(1, p)
    return tuple(cs)


class TestPmulOracle:
    """pmul (schoolbook below the cutoff, Kronecker above) against the
    plain double loop of the oracle module."""

    PRIMES = [2, 3, 5, 7, 2**31 - 1]

    @pytest.mark.parametrize("p", PRIMES)
    def test_all_lengths_around_cutoff(self, p):
        rng = random.Random(p)
        top = 3 * fppoly.KRONECKER_CUTOFF
        for la in range(top + 1):
            for lb in range(top + 1):
                a, b = _random_poly(rng, p, la), _random_poly(rng, p, lb)
                assert fppoly.pmul(p, a, b) == schoolbook_pmul(p, a, b), (la, lb)

    @pytest.mark.parametrize("p", PRIMES)
    def test_unbalanced_lengths(self, p):
        rng = random.Random(p + 1)
        for short in (1, 3, fppoly.KRONECKER_CUTOFF, fppoly.KRONECKER_CUTOFF + 1):
            a, b = _random_poly(rng, p, short), _random_poly(rng, p, 400)
            want = schoolbook_pmul(p, a, b)
            assert fppoly.pmul(p, a, b) == want
            assert fppoly.pmul(p, b, a) == want

    @pytest.mark.parametrize("p", PRIMES)
    def test_full_slots(self, p):
        # all coefficients p-1: the middle slot reaches n*(p-1)^2, the
        # largest value the slot width has to hold
        a = (p - 1,) * 400
        assert fppoly.pmul(p, a, a) == schoolbook_pmul(p, a, a)

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_operands(self, p):
        long = _random_poly(random.Random(p + 2), p, 3 * fppoly.KRONECKER_CUTOFF)
        assert fppoly.pmul(p, (), long) == ()
        assert fppoly.pmul(p, long, ()) == ()
        assert fppoly.pmul(p, (), ()) == ()


class TestIrreducibles:
    def test_count_moebius_examples(self):
        assert fppoly.count_irreducibles(2, 4) == 3
        assert sum(fppoly.count_irreducibles(2, n) for n in range(1, 5)) == 8
        for p in (2, 3, 5, 7):
            assert fppoly.count_irreducibles(p, 1) == p
        assert fppoly.count_irreducibles(3, 2) == 3

    def test_count_3_2_against_bruteforce(self):
        assert len(brute_monic_irreducibles(3, 2)) == 3

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumeration_matches_bruteforce(self, p, n):
        ours = {
            f
            for f in fppoly.enumerate_monic_irreducibles(p, n)
            if fppoly.pdeg(f) == n
        }
        assert ours == brute_monic_irreducibles(p, n)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_irreducibility_test_matches_bruteforce(self, p):
        # every monic of degree n when there are at most 3125 of them, else
        # a seeded sample with 200 irreducibles in it
        rng = random.Random(p)
        for n in range(1, 7):
            brute = brute_monic_irreducibles(p, n)
            monics = list(fppoly.monic_of_degree(p, n))
            if len(monics) > 5**5:
                monics = rng.sample(monics, 600) + rng.sample(sorted(brute), 200)
            got = {f for f in monics if fppoly.is_irreducible(p, f)}
            assert got == brute.intersection(monics)

    def test_enumeration_order(self):
        assert fppoly.enumerate_monic_irreducibles(2, 2) == [(0, 1), (1, 1), (1, 1, 1)]
        assert fppoly.enumerate_monic_irreducibles(2, 1) == [(0, 1), (1, 1)]
        assert fppoly.enumerate_monic_irreducibles(3, 1) == [(0, 1), (1, 1), (2, 1)]

    def test_enumeration_length_is_cumulative_count(self):
        for p in (2, 3):
            for up_to in (1, 2, 3, 4, 5):
                got = len(fppoly.enumerate_monic_irreducibles(p, up_to))
                want = sum(fppoly.count_irreducibles(p, n) for n in range(1, up_to + 1))
                assert got == want

    def test_enumeration_budget(self):
        with pytest.raises(BudgetExceededError):
            fppoly.enumerate_monic_irreducibles(5, 20)

    def test_count_rejects_bad_input(self):
        with pytest.raises(DomainError):
            fppoly.count_irreducibles(4, 2)
        with pytest.raises(DomainError):
            fppoly.count_irreducibles(2, 0)

    def test_factor_poly(self):
        # t^3 + t = t (t+1)^2 over F_2
        assert fppoly.factor_poly(2, (0, 1, 0, 1)) == {(0, 1): 1, (1, 1): 2}
        # constants have empty factorization
        assert fppoly.factor_poly(3, (2,)) == {}


def _random_input(rng, p):
    """A random polynomial of degree <= 40; one in three is a product of
    random factors, some of them repeated or of equal degree."""
    if rng.random() < 2 / 3:
        return (*(rng.randrange(p) for _ in range(rng.randint(1, 40))), rng.randrange(1, p))
    out = (rng.randrange(1, p),)
    while fppoly.pdeg(out) < 20:
        factor = (*(rng.randrange(p) for _ in range(rng.randint(1, 8))), 1)
        for _ in range(rng.choice((1, 1, 2))):
            out = schoolbook_pmul(p, out, factor)
    return out


class TestDegreeParts:
    # the Ben-Or loop and the trial division that the one Frobenius loop
    # replaced stay in the oracles as references
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_monic_matches_trial_division(self, p, n):
        for f in fppoly.monic_of_degree(p, n):
            assert fppoly.is_irreducible(p, f) == reference_is_irreducible(p, f)
            assert fppoly.factor_poly(p, f) == reference_factor_poly(p, f)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_random_inputs_match_trial_division(self, p):
        # where trial division answers, the factorization is the same, and
        # nothing it answers is refused; past its budget, the factors
        # multiply back and each is irreducible
        rng = random.Random(2800 + p)
        for _ in range(60):
            a = _random_input(rng, p)
            try:
                want = reference_factor_poly(p, a, budget=10**3)
            except BudgetExceededError:
                want = None
            try:
                got = fppoly.factor_poly(p, a, budget=10**3)
            except BudgetExceededError:
                assert want is None
                continue
            if want is not None:
                assert got == want
                continue
            back = (1,)
            for g, e in got.items():
                assert reference_is_irreducible(p, g)
                for _ in range(e):
                    back = schoolbook_pmul(p, back, g)
            assert back == fppoly.pmonic(p, a)

    def test_parts_by_degree(self):
        # t(t+1)(t^2+t+1)(t^3+t+1)(t^3+t^2+1) over F_2: the two cubics are
        # one part of degree 6; a cubic alone is what is left once 2k > 3
        linear = schoolbook_pmul(2, (0, 1), (1, 1))
        cubics = schoolbook_pmul(2, (1, 1, 0, 1), (1, 0, 1, 1))
        f = schoolbook_pmul(2, schoolbook_pmul(2, linear, (1, 1, 1)), cubics)
        assert list(fppoly._degree_parts(2, f)) == [(1, linear), (2, (1, 1, 1)), (3, cubics)]
        assert list(fppoly._degree_parts(2, (1, 1, 0, 1))) == [(3, (1, 1, 0, 1))]

    def test_frobenius_work_refused_before_it_starts(self):
        # t^1279+t^216+1 is irreducible over F_2: all 639 Frobenius steps
        # would take over a minute
        f = tuple(1 if i in (0, 216, 1279) else 0 for i in range(1280))
        for call in (fppoly.is_irreducible, fppoly.factor_poly):
            with pytest.raises(BudgetExceededError):
                call(2, f)


class TestSerialization:
    def test_poly_str(self):
        assert fppoly.poly_str((1, 1, 1)) == "t^2+t+1"
        assert fppoly.poly_str((0, 2)) == "2*t"
        assert fppoly.poly_str(()) == "0"
        assert fppoly.poly_str((3,)) == "3"

    def test_coeff_string_roundtrip(self):
        for cs in [(), (1,), (1, 0, 2), (0, 1, 1)]:
            s = fppoly.coeff_string(cs)
            assert fppoly.parse_coeff_string(3, s) == cs

    # int() reads these as 3, 1, 0 and -12; the parser takes ASCII only
    @pytest.mark.parametrize("s", ["\u0663", "1,\u0661", "\u0660,1", "-\u0661\u0662"])
    def test_non_ascii_digits_refused(self, s):
        with pytest.raises(ValueError):
            fppoly.parse_coeff_string(3, s)
        with pytest.raises(ValueError):
            fppoly.parse_int(s)
