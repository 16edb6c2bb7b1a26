import math
from fractions import Fraction

import mpmath as mp
import pytest

import arithdyn as ad
from arithdyn.bounds import (
    BoundContext,
    _digits,
    _ln_fixed,
    certified_ceiling,
    unit_equation_solution_bound,
)
from arithdyn.errors import BudgetExceededError, DomainError, PreconditionError

mp.mp.dps = 60


def ln_enclosure(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """The integers lo <= 2^bits * ln(x) <= hi of `_ln_fixed`, over 2^bits."""
    lo, hi = _ln_fixed(x, bits)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


class TestLnInterval:
    @pytest.mark.parametrize(
        "x", [Fraction(1), Fraction(2), Fraction(5), Fraction(10), Fraction(355, 113)]
    )
    def test_encloses_true_value(self, x):
        lo, hi = ln_enclosure(x, 80)
        true = mp.log(mp.mpf(x.numerator) / x.denominator)
        assert mp.mpf(lo.numerator) / lo.denominator <= true
        assert mp.mpf(hi.numerator) / hi.denominator >= true
        assert hi - lo < Fraction(1, 10**20)

    # reduced arguments at both ends of [1, 2), with and without many
    # halvings, and the x = 5s + 5 of the largest admitted |S|
    @pytest.mark.parametrize(
        "x", [Fraction(2**40), Fraction(2**40 - 1), Fraction(1999, 1000), Fraction(4465)]
    )
    @pytest.mark.parametrize("bits", [64, 128, 1024])
    def test_width_at_the_edges(self, x, bits):
        lo, hi = ln_enclosure(x, bits)
        with mp.workdps(bits // 3 + 30):
            true = mp.log(mp.mpf(x.numerator) / x.denominator)
            assert mp.mpf(lo.numerator) / lo.denominator <= true
            assert mp.mpf(hi.numerator) / hi.denominator >= true
        assert (hi - lo) * 2**bits <= 2 * (math.log2(x) + 1) * (bits + 8)

    def test_rejects_small_arguments(self):
        with pytest.raises(DomainError):
            _ln_fixed(Fraction(1, 2), 64)


class TestPositiveCharacteristic:
    def test_spot_check_2_1_1(self):
        bs = ad.compute_bounds(BoundContext(2, 1, 1))
        assert (bs.eta, bs.cycle_bound, bs.i_bound, bs.r_bound) == (64, 60, 3, 1)
        assert bs.evertse_bound is None

    def test_spot_check_3_1_2(self):
        bs = ad.compute_bounds(BoundContext(3, 1, 2))
        assert bs.i_bound == 35
        assert bs.r_bound == 45

    def test_two_evaluation_routes(self):
        # factored route recomputed independently of compute_bounds
        for p in (2, 3, 5):
            for D in (1, 2, 3):
                for s in range(1, 9):
                    bs = ad.compute_bounds(BoundContext(p, D, s))
                    ps = p * s
                    direct = ps ** (4 * D) * max(ps ** (2 * D), p ** (4 * s - 2))
                    if ps ** (2 * D) >= p ** (4 * s - 2):
                        factored = ps ** (6 * D)
                    else:
                        factored = ps ** (4 * D) * p ** (4 * s - 2)
                    assert bs.eta == direct == factored
                    assert bs.cycle_bound == direct - max(
                        ps ** (2 * D), p ** (4 * s - 2)
                    )

    @pytest.mark.parametrize("p, D", [(2, 1), (3, 2), (101, 1), (2, 600), (0, 1)])
    def test_every_admitted_eta_prints(self, p, D):
        # the largest admitted |S| prints in at most 4,300 digits, and the
        # next one is refused; every printed bound is at most eta
        def admitted(s):
            try:
                return ad.compute_bounds(BoundContext(p, D, s))
            except BudgetExceededError:
                return None

        lo, hi = 0, 10**4  # admitted(lo) or lo == 0; hi refused
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
        if lo:
            bs = admitted(lo)
            assert len(str(bs.eta)) <= 4300
            others = (bs.cycle_bound, bs.i_bound, bs.r_bound, bs.evertse_bound)
            assert max(b for b in others if b is not None) <= bs.eta
        assert admitted(lo + 1) is None

    def test_digit_estimate_bounds_the_digit_count(self):
        # the one estimator behind both refusals is at least the digit
        # count, tight at the powers of 10
        for b, e in [(10, 1), (10, 4296), (2, 14270), (3, 9000), (99, 7), (7, 1)]:
            assert _digits((b, e)) >= len(str(b**e))
            assert _digits((b, e), (10, 3)) >= len(str(b**e * 1000))
        assert _digits((2, 10**400)) == math.inf

    def test_each_context_evaluated_once(self):
        for p in (0, 3):
            first = ad.compute_bounds(BoundContext(p, 2, 3))
            assert ad.compute_bounds(BoundContext(p, 2, 3)) is first

    def test_cycle_bound_below_eta(self):
        for p in (2, 3, 5):
            for D in (1, 2, 3):
                for s in range(1, 9):
                    bs = ad.compute_bounds(BoundContext(p, D, s))
                    assert bs.cycle_bound <= bs.eta

    def test_r_bound_integrality_and_value(self):
        for p in (2, 3, 5, 7):
            for s in range(1, 9):
                base = p ** (2 * s - 2)
                assert unit_equation_solution_bound(p, s) * (p - 1) == base * (
                    base + p - 2
                )


class TestCharacteristicZero:
    def test_cycle_bound_exact_ceiling(self):
        bs = ad.compute_bounds(BoundContext(0, 1, 1))
        true = (24 * mp.log(10)) ** 4
        assert bs.cycle_bound == int(mp.ceil(true)) == 9326265

    def test_eta_value(self):
        bs = ad.compute_bounds(BoundContext(0, 1, 1))
        b1 = (2**8 + 3) * (12 * mp.log(5))
        b2 = (36 * mp.log(10)) ** 4
        assert bs.eta == int(mp.ceil(max(b1, b2))) == 47214214
        assert bs.evertse_bound == 256
        assert bs.r_bound is None

    @pytest.mark.parametrize("s", range(1, 13))
    @pytest.mark.parametrize("D", range(1, 7))
    def test_certified_ceilings_against_high_precision(self, s, D):
        self.check_against_mpmath(D, s)

    # long exponents: D = 100, eta's factor 2^(16s - 8) at |S| = 200, and
    # the largest admitted extension degree
    @pytest.mark.parametrize("D, s", [(100, 1), (1, 200), (560, 1)])
    def test_certified_ceilings_at_large_exponents(self, D, s):
        self.check_against_mpmath(D, s)

    @staticmethod
    def check_against_mpmath(D, s):
        bs = ad.compute_bounds(BoundContext(0, D, s))
        with mp.workdps(len(str(bs.eta)) + 30):
            eta_true = max(
                (2 ** (16 * s - 8) + 3) * (12 * s * mp.log(5 * s)) ** D,
                (12 * (s + 2) * mp.log(5 * s + 5)) ** (4 * D),
            )
            cycle_true = (12 * (s + 1) * mp.log(5 * (s + 1))) ** (4 * D)
            i_true = (12 * s * mp.log(5 * s)) ** D
            assert bs.eta >= eta_true and bs.eta == int(mp.ceil(eta_true))
            assert bs.cycle_bound >= cycle_true
            assert bs.cycle_bound == int(mp.ceil(cycle_true))
            assert bs.i_bound == int(mp.ceil(i_true)) - 1

    def test_certified_ceiling_refines(self):
        # a deliberately coarse formula still settles on the right ceiling
        assert certified_ceiling(((1, 1, 3, 1),)) == 2  # ln 3 = 1.0986...

    def test_value_just_above_an_integer(self):
        # ln(1 + 2^-80)^2 is far below 2^-64: at 64 bits its square stays
        # positive at the upper end only because products there round up
        assert certified_ceiling(((1, 1, Fraction(2**80 + 1, 2**80), 2),)) == 1


class TestMonotonicity:
    def test_grid(self):
        for p in (0, 2, 3, 5):
            prev_by_d = {}
            for D in (1, 2, 3):
                prev = None
                for s in range(1, 9):
                    bs = ad.compute_bounds(BoundContext(p, D, s))
                    fields = [bs.eta, bs.cycle_bound, bs.i_bound]
                    if bs.r_bound is not None:
                        fields.append(bs.r_bound)
                    if bs.evertse_bound is not None:
                        fields.append(bs.evertse_bound)
                    if prev is not None:
                        assert all(a >= b for a, b in zip(fields, prev))
                    prev = fields
                    key = s
                    if key in prev_by_d:
                        assert all(a >= b for a, b in zip(fields, prev_by_d[key]))
                    prev_by_d[key] = fields


class TestAuxiliaryBounds:
    def test_lemma33(self):
        assert ad.equal_distance_family_bound(BoundContext(2, 1, 1)) == 4
        assert ad.equal_distance_family_bound(BoundContext(3, 1, 1)) == 9
        assert ad.equal_distance_family_bound(BoundContext(2, 2, 3)) == 1296
        with pytest.raises(DomainError):
            ad.equal_distance_family_bound(BoundContext(0, 1, 1))

    def test_automorphism_cycle_bound(self):
        assert ad.automorphism_cycle_bound(1) == 6
        assert ad.automorphism_cycle_bound(2) == 18
        assert ad.automorphism_cycle_bound(3) == 38

    def test_context_validation(self):
        with pytest.raises(DomainError):
            BoundContext(4, 1, 1)
        with pytest.raises(DomainError):
            BoundContext(2, 0, 1)
        with pytest.raises(DomainError):
            BoundContext(2, 1, 0)


class TestVerifyReport:
    def test_passes_on_small_orbit(self):
        phi = ad.parse_map("z^2-1", ad.QQ)
        rep = ad.orbit(phi, ad.from_affine(ad.QQ.one()))
        S = ad.place_set(ad.QQ, [ad.archimedean_place()])
        checks = ad.verify_report(rep, phi, BoundContext(0, 1, 1), S)
        names = {c.name for c in checks}
        assert {"orbit_size", "cycle_length", "everywhere_good_cycle",
                "everywhere_good_orbit"} == names
        assert all(c.passed for c in checks)

    def test_precondition_bad_places_in_s(self):
        phi = ad.parse_map("z^2/3", ad.QQ)
        rep = ad.orbit(phi, ad.infinity(ad.QQ))
        S = ad.place_set(ad.QQ, [ad.archimedean_place()])
        with pytest.raises(PreconditionError):
            ad.verify_report(rep, phi, BoundContext(0, 1, 1), S)

    def test_function_field_context(self):
        F2T = ad.function_field(2)
        phi = ad.parse_map("z^2+1", F2T)
        rep = ad.orbit(phi, ad.from_affine(F2T.zero()))
        S = ad.place_set(F2T, [ad.infinite_place(F2T)])
        checks = ad.verify_report(rep, phi, BoundContext(2, 1, 1), S)
        assert all(c.passed for c in checks)
        assert {c.name for c in checks} == {"orbit_size", "cycle_length"}

    def test_given_s_needs_no_factoring(self):
        # Res = N^2 with N the product of two primes near 2^45 is beyond the
        # factoring budget (rho needs over 10^7 steps to split N), yet S is
        # checked by stripping its places from Res
        phi = ad.parse_map("z^2/1276625665520642735302779833", ad.QQ)
        with pytest.raises(BudgetExceededError):
            ad.bad_places(phi)
        rep = ad.orbit(phi, ad.from_affine(ad.QQ.zero()))
        S = ad.parse_place_set(ad.QQ, "inf;p:35184372088891;p:36283883716763")
        checks = ad.verify_report(rep, phi, BoundContext(0, 1, S.size), S)
        assert {c.name for c in checks} == {"orbit_size", "cycle_length"}
        assert all(c.passed for c in checks)
        short = ad.parse_place_set(ad.QQ, "inf;p:35184372088891")
        with pytest.raises(PreconditionError):
            ad.verify_report(rep, phi, BoundContext(0, 1, short.size), short)

    def test_context_s_must_be_the_size_of_s(self):
        # a smaller s gives bounds too small for this S, a larger one too loose
        phi = ad.parse_map("z^2/2", ad.QQ)
        rep = ad.orbit(phi, ad.from_affine(ad.QQ.zero()))
        S = ad.parse_place_set(ad.QQ, "inf;p:2")
        assert all(c.passed for c in ad.verify_report(rep, phi, BoundContext(0, 1, S.size), S))
        for s in (S.size - 1, S.size + 1):
            with pytest.raises(PreconditionError):
                ad.verify_report(rep, phi, BoundContext(0, 1, s), S)

    def test_bad_infinite_place_must_be_in_s(self):
        F2T = ad.function_field(2)
        phi = ad.parse_map("z^2/t", F2T)  # Res = t^2: bad at t and at infinity
        rep = ad.orbit(phi, ad.from_affine(F2T.zero()))
        finite = ad.parse_place_set(F2T, "pi:0,1")
        with pytest.raises(PreconditionError):
            ad.verify_report(rep, phi, BoundContext(2, 1, 1), finite)
        S = ad.parse_place_set(F2T, "inf;pi:0,1")
        assert all(c.passed for c in ad.verify_report(rep, phi, BoundContext(2, 1, 2), S))
