import pytest

import arithdyn as ad
from arithdyn.errors import (
    BudgetExceededError,
    DomainError,
    UnsupportedConfigurationError,
)

F2T = ad.function_field(2)
F3T = ad.function_field(3)


def q_set(*primes):
    return ad.place_set(
        ad.QQ, [ad.archimedean_place()] + [ad.prime_place(q) for q in primes]
    )


def ff_set(field, *tokens):
    return ad.place_set(
        field,
        [ad.infinite_place(field)] + [ad.parse_place(field, t) for t in tokens],
    )


class TestGenerators:
    def test_rationals(self):
        desc = ad.s_unit_generators(q_set(2, 3))
        assert [u.as_fraction() for u in desc.torsion] == [1, -1]
        assert [g.as_fraction() for g in desc.free_generators] == [2, 3]
        assert desc.rank == 2

    def test_function_field_char_2(self):
        desc = ad.s_unit_generators(ff_set(F2T, "pi:0,1"))
        assert len(desc.torsion) == 1
        assert desc.free_generators == (F2T.gen(),)
        assert desc.rank == 1

    def test_function_field_char_3(self):
        desc = ad.s_unit_generators(ff_set(F3T, "pi:0,1", "pi:1,1"))
        assert [str(u) for u in desc.torsion] == ["1", "2"]
        assert desc.rank == 2

    def test_rank_is_size_minus_one(self):
        assert ad.s_unit_generators(q_set(2, 3, 5)).rank == 3
        assert ad.s_unit_generators(ff_set(F2T, "pi:0,1", "pi:1,1")).rank == 2

    def test_infinity_required_over_function_fields(self):
        S = ad.place_set(F2T, [ad.parse_place(F2T, "pi:0,1")])
        with pytest.raises(UnsupportedConfigurationError):
            ad.s_unit_generators(S)


class TestEnumeration:
    def test_rationals_cap_1(self):
        got = {u.as_fraction() for u in ad.enumerate_s_units(q_set(2), 1)}
        from fractions import Fraction

        assert got == {1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)}

    def test_function_field_cap_2(self):
        got = list(ad.enumerate_s_units(ff_set(F2T, "pi:0,1"), 2))
        assert len(got) == 5
        t = F2T.gen()
        assert set(got) == {t**-2, t**-1, F2T.one(), t, t * t}

    def test_cap_1_three_places(self):
        assert sum(1 for _ in ad.enumerate_s_units(q_set(2, 3), 1)) == 18

    def test_all_outputs_are_s_units_and_distinct(self):
        for S in (q_set(2, 3), ff_set(F3T, "pi:0,1")):
            units = list(ad.enumerate_s_units(S, 2))
            desc = ad.s_unit_generators(S)
            assert len(set(units)) == len(units)
            assert len(units) == len(desc.torsion) * 5**desc.rank
            for u in units:
                assert ad.is_s_unit(u, S)

    def test_size_guard(self):
        with pytest.raises(BudgetExceededError):
            list(ad.enumerate_s_units(q_set(2, 3, 5), 100))


class TestSTrivial:
    def test_worked_examples(self):
        S = q_set(2)
        assert ad.is_s_trivial(ad.QQ.element(4), ad.QQ.element(8), S)
        assert not ad.is_s_trivial(ad.QQ.element(3), ad.QQ.element(1), S)
        S2 = ff_set(F2T, "pi:0,1")
        t = F2T.gen()
        assert ad.is_s_trivial(t * t, F2T.one() / t, S2)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            ad.is_s_trivial(ad.QQ.zero(), ad.QQ.one(), q_set(2))


class TestSolver:
    def test_x_plus_y_eq_1_over_q(self):
        inst = ad.UnitEquationInstance(ad.QQ.one(), ad.QQ.one(), q_set(2, 3), 4)
        sols = ad.solve_unit_equation(inst)
        found = {(x.as_fraction(), y.as_fraction()) for x, y in sols}
        from fractions import Fraction as F

        expected_members = [
            (2, -1), (-1, 2), (4, -3), (3, -2), (9, -8),
            (F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(1, 9), F(8, 9)),
            (F(-1, 3), F(4, 3)), (F(3, 4), F(1, 4)),
        ]
        for pair in expected_members:
            assert pair in found
            assert (pair[1], pair[0]) in found  # symmetric mate
        # every found pair verifies exactly
        for x, y in sols:
            assert (x + y).as_fraction() == 1
        assert len(sols) <= 2 ** (8 * 5)

    def test_powers_of_t_only_char_2(self):
        inst = ad.UnitEquationInstance(F2T.one(), F2T.one(), ff_set(F2T, "pi:0,1"), 3)
        assert ad.solve_unit_equation(inst) == []

    def test_affine_example_a3_b1(self):
        inst = ad.UnitEquationInstance(ad.QQ.element(3), ad.QQ.one(), q_set(2), 5)
        found = {(x.as_fraction(), y.as_fraction()) for x, y in ad.solve_unit_equation(inst)}
        from fractions import Fraction as F

        assert (1, -2) in found
        assert (-1, 4) in found
        assert (F(1, 2), F(-1, 2)) in found

    def test_report_bound_for_nontrivial_instance(self):
        t = F2T.gen()
        one = F2T.one()
        inst = ad.UnitEquationInstance(t + one, one, ff_set(F2T, "pi:0,1"), 10)
        report = ad.unit_equation_report(inst)
        assert not report.s_trivial
        assert report.bound == 16  # p=2, |S|=2
        assert report.within_bound
        # hand-checked members: (1, t) and (1/t, 1/t)
        found = {(str(x), str(y)) for x, y in report.solutions}
        assert ("1", "t") in found
        assert ("(1)/(t)", "(1)/(t)") in found

    def test_frobenius_family_is_found(self):
        # x + y = 1 with S covering t and t - 1: the p-power pairs
        # (t^(p^j), (1-t)^(p^j)) survive every cap that reaches them
        for field, p in ((F2T, 2), (F3T, 3)):
            t = field.gen()
            one = field.one()
            S = ff_set(field, "pi:0,1", "pi:" + f"{p - 1},1")  # t and t-1
            inst_small = ad.UnitEquationInstance(one, one, S, p)
            inst_large = ad.UnitEquationInstance(one, one, S, p * p)
            assert ad.is_s_trivial(one, one, S)
            for inst, cap in ((inst_small, p), (inst_large, p * p)):
                sols = set(ad.solve_unit_equation(inst))
                frobenius = []
                j = 0
                while p**j <= cap:
                    xj = t ** (p**j)
                    yj = (one - t) ** (p**j)
                    frobenius.append((xj, yj))
                    j += 1
                assert len(frobenius) >= int(__import__("math").log(cap, p)) + 1
                for pair in frobenius:
                    assert pair in sols

    def test_report_no_bound_for_trivial_instance(self):
        inst = ad.UnitEquationInstance(ad.QQ.one(), ad.QQ.one(), q_set(2, 3), 2)
        report = ad.unit_equation_report(inst)
        assert report.s_trivial and report.bound is None
