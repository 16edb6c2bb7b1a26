"""Res(F, G) over Z by CRT against elimination and root-product oracles."""

import random
import time

import pytest

import arithdyn as ad
from arithdyn.errors import BudgetExceededError
from arithdyn.ratmap import (
    BAREISS_BUDGET,
    RESULTANT_BUDGET,
    _crt_prime,
    sylvester_resultant,
)

from oracles import (
    form_from_linear_factors,
    frac_det,
    resultant_by_roots,
    sylvester_rows,
)


def res(fco, gco):
    return sylvester_resultant(ad.QQ, tuple(fco), tuple(gco))


def random_form(rng, d, bound=9, lead=None):
    co = [rng.randint(-bound, bound) for _ in range(d + 1)]
    if lead is not None:
        co[d] = lead
    return co


def random_factors(rng, d, bound=5, at_infinity=0):
    """d pairs (a, b), the first `at_infinity` with a = 0 (so g_d = 0)."""
    out = []
    for i in range(d):
        a = 0 if i < at_infinity else rng.choice([-1, 1]) * rng.randint(1, bound)
        b = rng.randint(-bound, bound) if a else rng.choice([-1, 1]) * rng.randint(1, bound)
        out.append((a, b))
    return out


class TestAgainstGaussianElimination:
    def test_every_degree_to_24(self):
        rng = random.Random(41)
        for d in range(1, 25):
            for _ in range(3):
                f, g = random_form(rng, d), random_form(rng, d)
                assert res(f, g) == frac_det(sylvester_rows(f, g, 0))

    @pytest.mark.parametrize("d", [30, 60])
    def test_high_degree(self, d):
        rng = random.Random(d)
        f, g = random_form(rng, d), random_form(rng, d)
        assert res(f, g) == frac_det(sylvester_rows(f, g, 0))

    def test_vanishing_leading_coefficients(self):
        # f_d = 0 swaps the forms, both zero kill the first column; lower
        # coefficients vanish too so the degree drops by more than one
        rng = random.Random(43)
        seen = {"f": 0, "g": 0, "both": 0}
        for _ in range(300):
            d = rng.randint(1, 8)
            f, g = random_form(rng, d, 3), random_form(rng, d, 3)
            for co in (f, g):
                for i in range(d, 0, -1):
                    if rng.random() < 0.5:
                        co[i] = 0
                    else:
                        break
            got = res(f, g)
            assert got == frac_det(sylvester_rows(f, g, 0))
            if f[d] == 0 and g[d] == 0:
                seen["both"] += 1
                assert got == 0
            elif f[d] == 0:
                seen["f"] += 1
            elif g[d] == 0:
                seen["g"] += 1
        assert min(seen.values()) >= 30

    def test_zero_and_negative_values(self):
        rng = random.Random(47)
        signs = set()
        for _ in range(200):
            d = rng.randint(1, 5)
            f, g = random_form(rng, d, 2), random_form(rng, d, 2)
            got = res(f, g)
            assert got == frac_det(sylvester_rows(f, g, 0))
            signs.add((got > 0) - (got < 0))
        assert signs == {-1, 0, 1}

    def test_zero_forms(self):
        assert res((0, 0, 0), (1, 2, 3)) == 0
        assert res((1, 2, 3), (0, 0, 0)) == 0
        assert res((0, 0), (0, 0)) == 0


class TestAgainstRootProducts:
    def test_every_degree_to_60(self):
        rng = random.Random(53)
        for d in range(1, 61):
            f = random_form(rng, d, lead=rng.choice([0, 1, -2, 7]))
            factors = random_factors(rng, d, at_infinity=rng.choice([0, 0, 1, 3]) % (d + 1))
            g = form_from_linear_factors(factors)
            assert res(f, g) == resultant_by_roots(f, factors)

    def test_oracle_agrees_with_elimination(self):
        rng = random.Random(59)
        for d in range(1, 9):
            f = random_form(rng, d)
            factors = random_factors(rng, d, at_infinity=d % 3)
            g = form_from_linear_factors(factors)
            assert resultant_by_roots(f, factors) == frac_det(sylvester_rows(f, g, 0))

    def test_common_root_gives_zero(self):
        rng = random.Random(61)
        for d in (2, 10, 40):
            factors = random_factors(rng, d, at_infinity=1)
            g = form_from_linear_factors(factors)
            a, b = factors[rng.randrange(d)]
            h = random_form(rng, d - 1)
            f = form_from_linear_factors([(a, b)])
            f = [sum(f[j] * h[i - j] for j in range(2) if 0 <= i - j < d) for i in range(d + 1)]
            assert res(f, g) == 0 == resultant_by_roots(f, factors)

    def test_coefficients_above_2_64(self):
        rng = random.Random(67)
        for d, root_bound in ((1, 2**70), (5, 2**40), (20, 2**20), (60, 3)):
            f = random_form(rng, d, bound=2**80)
            factors = random_factors(rng, d, bound=root_bound)
            g = form_from_linear_factors(factors)
            assert min(max(map(abs, f)), max(map(abs, g))) > 2**64
            assert res(f, g) == resultant_by_roots(f, factors)
            assert res(g, f) == (-1) ** d * res(f, g)

    def test_leading_coefficients_divisible_by_crt_primes(self):
        # modulo the first primes both leading coefficients vanish (or one
        # does), and the residue there is still the true one
        rng = random.Random(71)
        l0, l1 = _crt_prime(0), _crt_prime(1)
        for d in (1, 3, 12, 30):
            for lead_f, a0 in ((l0 * l1, l0), (l0, 1), (1, l0 * l1), (-l1, l1)):
                want = 0
                while want == 0:
                    f = random_form(rng, d, lead=lead_f)
                    factors = [(a0, rng.randint(1, 9))] + random_factors(rng, d - 1)
                    want = resultant_by_roots(f, factors)
                g = form_from_linear_factors(factors)
                assert res(f, g) == want
                assert res(g, f) == (-1) ** d * want


class TestAgainstSympy:
    def test_small_degrees(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(73)
        for d in range(1, 13):
            for _ in range(4):
                f = random_form(rng, d, lead=rng.choice([1, -3, 5]))
                g = random_form(rng, d, lead=rng.choice([2, -1, 4]))
                want = sympy.resultant(sympy.Poly(f[::-1], x), sympy.Poly(g[::-1], x))
                assert res(f, g) == int(want)

    def test_vanishing_leading_coefficients(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(79)
        for d in (2, 5, 8, 12):
            for lead_f, lead_g in ((0, 3), (2, 0), (0, 0)):
                f = random_form(rng, d, lead=lead_f)
                g = random_form(rng, d, lead=lead_g)
                want = sympy.Matrix(sylvester_rows(f, g, 0)).det(method="bareiss")
                assert res(f, g) == int(want)


class TestBudget:
    def test_huge_degree_refused_before_reduction(self):
        d = 99999
        f = (1,) + (0,) * (d - 1) + (1,)
        g = (1,) + (0,) * d
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            res(f, g)
        assert time.perf_counter() - start < 0.5

    def test_dense_degree_80_answers(self):
        # G = prod(+-X +- Y) is dense with coefficients up to C(80, 40)
        rng = random.Random(83)
        d = 80
        f = random_form(rng, d, bound=2**64)
        factors = random_factors(rng, d, bound=1)
        g = form_from_linear_factors(factors)
        assert res(f, g) == resultant_by_roots(f, factors)

    def test_budget_counts_primes_and_degree(self):
        # one CRT prime suffices for 0/1 coefficients, so d^2 alone decides
        d = 1
        while (d + 1) ** 2 + 1 <= RESULTANT_BUDGET:
            d += 1
        with pytest.raises(BudgetExceededError):
            res((1,) + (0,) * (d + 1), (0,) * (d + 1) + (1,))


def sparse_form(d, M):
    """X^d + t^M Y^d over F_p[t]: degree d, coefficient degree M, cheap rows."""
    return ((0,) * M + (1,),) + ((),) * (d - 1) + ((1,),)


class TestBareissBudget:
    F2 = ad.function_field(2)

    def test_degree_200_refused_before_elimination(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            sylvester_resultant(self.F2, sparse_form(200, 1), ((1,),) + ((),) * 200)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("d, M", [(14, 2), (3, 24), (40, 1)])
    def test_benchmark_and_degree_40_shapes_admitted(self, d, M):
        # analyze jobs reach d = 14 with M = 2, graph jobs d = 3 with M = 24;
        # the estimate depends on d and M only, so sparse rows stand in
        # for dense ones
        # Res(X^d + t^M Y^d, X^d) = (t^M)^d up to sign, and -1 = 1 over F_2
        gco = ((),) * d + ((1,),)
        assert sylvester_resultant(self.F2, sparse_form(d, M), gco) == (0,) * (d * M) + (1,)

    def test_coefficient_degree_counts(self):
        d = 40
        M = next(m for m in range(10) if d**3 * (d * m + 16) ** 2 > BAREISS_BUDGET)
        with pytest.raises(BudgetExceededError):
            sylvester_resultant(self.F2, sparse_form(d, M), ((1,),) + ((),) * d)
