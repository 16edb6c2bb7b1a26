"""Res(F, G) over Z and F_p[t] by the subresultant PRS against elimination,
root-product, cofactor-expansion and sympy oracles."""

import random
import time

import pytest

import arithdyn as ad
from arithdyn import fppoly, ratmap
from arithdyn.errors import BudgetExceededError
from arithdyn.ratmap import sylvester_resultant

from reference import (
    PolyResidueField,
    form_from_linear_factors,
    frac_det,
    poly_det,
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
        # leading coefficients built from the two largest primes below 2^62
        # (the moduli of an earlier CRT route), so that modulo them both
        # leading coefficients vanish, or one does
        rng = random.Random(71)
        l0, l1 = 4611686018427387847, 4611686018427387817  # 2^62 - 57, 2^62 - 87
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
        # Y^d against X^d: with 0/1 coefficients the size bound grows with
        # d alone, and the degree by itself reaches the refusal
        assert res((1,) + (0,) * 300, (0,) * 300 + (1,)) == 1
        with pytest.raises(BudgetExceededError):
            res((1,) + (0,) * 3000, (0,) * 3000 + (1,))


def sparse_form(d, M):
    """X^d + t^M Y^d over F_p[t]: degree d, coefficient degree M, cheap rows."""
    return ((0,) * M + (1,),) + ((),) * (d - 1) + ((1,),)


class TestBareissBudget:
    """The F_p[t] boundaries of the resultant budget (once the Bareiss one)."""

    F2 = ad.function_field(2)

    def test_degree_200_refused_before_elimination(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            sylvester_resultant(self.F2, sparse_form(200, 1), ((1,),) + ((),) * 200)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("d, M", [(14, 2), (3, 24), (40, 1)])
    def test_benchmark_and_degree_40_shapes_admitted(self, d, M):
        # analyze jobs reach d = 14 with M = 2, graph jobs d = 3 with M = 24;
        # the estimate depends on d and the coefficient degrees only, so
        # sparse rows stand in for dense ones
        # Res(X^d + t^M Y^d, X^d) = (t^M)^d up to sign, and -1 = 1 over F_2
        gco = ((),) * d + ((1,),)
        assert sylvester_resultant(self.F2, sparse_form(d, M), gco) == (0,) * (d * M) + (1,)

    def test_coefficient_degree_counts(self):
        # at d = 40 the t-degree alone reaches the refusal: Res = 1 below it
        d, gco = 40, ((1,),) + ((),) * 40
        refused = []
        for M in range(1, 10):
            try:
                assert sylvester_resultant(self.F2, sparse_form(d, M), gco) == (1,)
            except BudgetExceededError:
                refused.append(M)
        assert refused and refused == list(range(refused[0], 10)) and refused[0] > 1

    def test_dense_degree_100_refused(self):
        rng = random.Random(89)
        f, g = (random_poly_form(rng, 3, 100, 1) for _ in range(2))
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            sylvester_resultant(ad.function_field(3), f, g)
        assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# F_p[t]


def random_poly(rng, p, M):
    """A random element of F_p[t] of degree at most M."""
    return fppoly.ptrim([rng.randrange(p) for _ in range(M + 1)])


def random_poly_form(rng, p, d, M, lead=None):
    co = [random_poly(rng, p, M) for _ in range(d + 1)]
    if lead is not None:
        co[d] = lead
    return tuple(co)


def random_poly_factors(rng, p, d, at_infinity=0):
    """d pairs (a, b) over F_p[t], the first `at_infinity` with a = 0.

    The last root has a coordinate of t-degree 1, the others are constant,
    which keeps G's coefficients (so the budget) and the oracle small.
    """
    out = []
    for i in range(d):
        M = 1 if i == d - 1 else 0
        a = () if i < at_infinity else random_poly(rng, p, M) or (1,)
        b = random_poly(rng, p, M) if a else random_poly(rng, p, M) or (1,)
        out.append((a, b))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
class TestFunctionField:
    def test_root_products_every_degree_to_40(self, p):
        # factors at infinity (g_d = 0) and vanishing f_d, alone and together
        F = ad.function_field(p)
        rng = random.Random(97 + p)
        seen = set()
        for d in range(1, 41):
            kind = ("plain", "g", "f", "both")[d % 4]
            lead = () if kind in ("f", "both") else None
            f = random_poly_form(rng, p, d, 1, lead)
            infinite = rng.randint(1, min(d, 3)) if kind in ("g", "both") else 0
            factors = random_poly_factors(rng, p, d, infinite)
            g = form_from_linear_factors(factors, p)
            want = resultant_by_roots(f, factors, p)
            assert sylvester_resultant(F, f, g) == want
            if kind == "both":
                assert want == ()
            seen.add((kind, bool(want)))
        assert {("plain", True), ("g", True), ("f", True), ("both", False)} <= seen

    def test_abnormal_remainder_sequences(self, p, monkeypatch):
        # G = X^i Y^j (aX - bY)^(p^e) with constants a, b is a binomial
        # times a monomial in characteristic p, and with sparse F the
        # remainder degrees drop by more than one
        F = ad.function_field(p)
        rng = random.Random(101 + p)
        drops, nonzero = [], 0

        def prem(ring, a, b):
            r = real_prem(ring, a, b)
            if any(r):
                drops.append(len(b) - len(ratmap._strip(r)))  # deg b - deg r
            return r

        real_prem = ratmap._prem
        monkeypatch.setattr(ratmap, "_prem", prem)
        for d in range(p + 2, 31):
            q = p ** next(e for e in range(5, 0, -1) if p**e < d)
            i = rng.randint(0, d - q)
            a, b = (rng.randrange(1, p),), (rng.randrange(1, p),)
            factors = [((1,), ())] * i + [((), (p - 1,))] * (d - q - i) + [(a, b)] * q
            f = [()] * (d + 1)
            for k in [0, d] + rng.sample(range(1, d), 2):
                f[k] = random_poly(rng, p, 2) or (1,)
            g = form_from_linear_factors(factors, p)
            want = resultant_by_roots(f, factors, p)
            assert sylvester_resultant(F, tuple(f), g) == want
            nonzero += bool(want)
        assert sum(drop > 1 for drop in drops) >= 10 and nonzero >= 10

    def test_cofactor_expansion(self, p):
        F = ad.function_field(p)
        rng = random.Random(103 + p)
        for d in range(1, 5):
            for _ in range(6):
                f, g = (
                    random_poly_form(rng, p, d, 2, rng.choice([None, ()])) for _ in range(2)
                )
                want = poly_det(sylvester_rows(f, g, ()), p)
                assert sylvester_resultant(F, f, g) == want

    def test_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        t = sympy.Symbol("t")
        ring = sympy.GF(p)[t]
        F = ad.function_field(p)
        rng = random.Random(107 + p)
        for d in range(1, 7):
            f, g = (random_poly_form(rng, p, d, 2, rng.choice([None, None, ()])) for _ in range(2))
            rows = [
                [ring.from_sympy(sum(c * t**i for i, c in enumerate(e))) for e in row]
                for row in sylvester_rows(f, g, ())
            ]
            det = ring.to_sympy(DomainMatrix(rows, (2 * d, 2 * d), ring).det())
            coeffs = sympy.Poly(det, t, modulus=p).all_coeffs()[::-1]
            assert sylvester_resultant(F, f, g) == fppoly.ptrim([int(c) % p for c in coeffs])


@pytest.mark.parametrize("p, moduli", [(2, [(1, 1, 1), (1, 1, 0, 1), (1, 1, 0, 0, 1)]),
                                       (3, [(1, 1), (1, 0, 1), (1, 2, 0, 1)])])
def test_dense_degree_40_answers_quickly(p, moduli):
    # random dense forms with d = 40 and t-degree 1 took 9-14 s by Bareiss;
    # the value is checked modulo three irreducibles against elimination
    # over the residue field
    rng = random.Random(109 + p)
    f, g = (random_poly_form(rng, p, 40, 1) for _ in range(2))
    start = time.perf_counter()
    got = sylvester_resultant(ad.function_field(p), f, g)
    assert time.perf_counter() - start < 2.0
    assert got
    for pi in moduli:
        rf = PolyResidueField(p, pi)
        rows = sylvester_rows(f, g, ())
        codes = [[fppoly.pcode(p, fppoly.pmod(p, e, pi)) for e in row] for row in rows]
        assert rf.det(codes) == fppoly.pcode(p, fppoly.pmod(p, got, pi))
