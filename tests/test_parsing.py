"""Square-and-multiply powers in the parser, its degree and size limits
and errors."""

import random
import time

import pytest

import arithdyn as ad
from arithdyn.errors import ArithDynError, BudgetExceededError, MapParseError
from arithdyn.fields import MAX_BOUND_DIGITS, MAX_T_DEGREE, Z
from arithdyn.parsing import (
    _AFFINE_SYMBOLS,
    _FORM_SYMBOLS,
    MAX_DEGREE,
    _FractionAlgebra,
    _Parser,
    _tokenize,
)

from reference import repeated_pow

F2T = ad.function_field(2)
F3T = ad.function_field(3)
FIELDS = [ad.QQ, F2T, F3T]


def forms(field):
    return _FractionAlgebra(field, _FORM_SYMBOLS, forms=True)


def affine(field):
    return _FractionAlgebra(field, _AFFINE_SYMBOLS)


def value(algebra, s):
    return _Parser(_tokenize(s), algebra).parse_expr()


def outcome(s, field):
    """The parsed map, or the name of the error it raises."""
    try:
        return ad.parse_map(s, field)
    except ArithDynError as exc:
        return type(exc).__name__


def random_coeff(rng, field):
    if field.is_rationals:
        return rng.choice(["1", "-1", "2", "3/2", "-5/7", "1/4"])
    return rng.choice(["1", "t", "(t+1)", "1/t", "(t^2+1)/(t+1)"])


def random_bracket_base(rng, field, k=None):
    """A sum of terms c*X^i*Y^j; homogeneous of degree k when k is given."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, 3 if k is None else k)
        j = rng.randint(0, 3) if k is None else k - i
        terms.append(f"{random_coeff(rng, field)}*X^{i}*Y^{j}")
    return "(" + "+".join(terms) + ")"


def random_affine_base(rng, field):
    def poly(n_terms, max_power):
        return "+".join(
            f"{random_coeff(rng, field)}*z^{rng.randint(0, max_power)}"
            for _ in range(n_terms)
        )

    num = poly(rng.randint(1, 3), 3)
    if rng.random() < 0.4:
        return f"(({num})/({poly(rng.randint(1, 2), 2)}))"
    return f"({num})"


class TestPowAgainstRepeatedMultiplication:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_bracket_values(self, field):
        rng = random.Random(11)
        algebra = forms(field)
        bases = ["(X+Y)", "X", "X^0", "(X*Y)", "0", "(X^2*Y)", "(X+1)"]
        bases += ["(2*X-3/2*Y)", "1/3"] if field.is_rationals else ["(X+t*Y)", "1/t"]
        bases += [random_bracket_base(rng, field) for _ in range(12)]
        for s in bases:
            a = value(algebra, s)
            for e in range(8):
                assert algebra.pow(a, e) == repeated_pow(algebra, a, e), (s, e)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_affine_values(self, field):
        rng = random.Random(13)
        algebra = affine(field)
        bases = ["z", "(z+1)", "(z^0)", "(z/(z+1))", "0", "1/z"]
        bases += ["(1/2*z^2-3)", "(2*z)^2"] if field.is_rationals else ["(t*z^2-1/t)"]
        bases += [random_affine_base(rng, field) for _ in range(12)]
        for s in bases:
            a = value(algebra, s)
            for e in range(8):
                assert algebra.pow(a, e) == repeated_pow(algebra, a, e), (s, e)

    def test_monomial_in_one_step(self):
        algebra = forms(ad.QQ)
        a = value(algebra, "3/2*X^2*Y")
        assert algebra.pow(a, 40) == ({(80, 40): 3**40}, {(0, 0): 2**40})
        algebra = affine(F2T)
        num, den = algebra.pow(value(algebra, "t*z^3"), 5)
        assert num == {(15, 0): (0, 0, 0, 0, 0, 1)} and den == {(0, 0): (1,)}

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_maps_equal_written_out_products(self, field):
        rng = random.Random(17)
        for _ in range(12):
            k, e = rng.randint(1, 3), rng.randint(1, 4)
            base = random_bracket_base(rng, field, k)
            g = f"X^{k * e} + 5*Y^{k * e}"
            assert outcome(f"[{base}^{e} : {g}]", field) == outcome(
                f"[{'*'.join([base] * e)} : {g}]", field
            )
            base = random_affine_base(rng, field)
            assert outcome(f"z*{base}^{e} + 1", field) == outcome(
                f"z*{'*'.join([base] * e)} + 1", field
            )


class TestDegreeLimit:
    def test_power_refused_before_expanding(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            ad.parse_map("(z+1)^99999 + 1", ad.QQ)
        with pytest.raises(BudgetExceededError):
            ad.parse_map("[(X+Y)^99999 : Y^99999]", ad.QQ)
        with pytest.raises(BudgetExceededError):
            ad.parse_map("z^99999 + t", F2T)
        assert time.perf_counter() - start < 0.5

    def test_products_refused_past_the_limit(self):
        half = MAX_DEGREE // 2 + 1
        with pytest.raises(BudgetExceededError):
            ad.parse_map(f"(z^{half}+1) * (z^{half}-1)", ad.QQ)
        with pytest.raises(BudgetExceededError):
            ad.parse_map(f"1/(z^{half}+1) + 1/(z^{half}-1)", ad.QQ)
        with pytest.raises(BudgetExceededError):
            ad.parse_map(f"[X^{half} * (X^{half} + Y^{half}) : Y]", ad.QQ)

    def test_limit_itself_is_allowed(self):
        for algebra, s in ((affine(ad.QQ), "z"), (forms(ad.QQ), "X")):
            a = value(algebra, s)
            algebra.pow(a, MAX_DEGREE)
            with pytest.raises(BudgetExceededError):
                algebra.pow(a, MAX_DEGREE + 1)

    def test_dense_degree_80_map_answers(self):
        rng = random.Random(19)
        d = 80

        def form():
            return " + ".join(
                f"({rng.randint(-10**6, 10**6)})*X^{i}*Y^{d - i}" for i in range(d + 1)
            )

        phi = ad.parse_map(f"[{form()} : {form()}]", ad.QQ)
        assert phi.degree == d
        assert ad.resultant(phi) != ad.QQ.zero()


class TestSizeLimit:
    """Values are refused by the ring's size rule: bits over Z, t-degree
    over F_p[t]; products and powers on an estimate, before they are built."""

    def test_powers_refused_on_the_estimate(self):
        # 2^e has e + 1 bits, so 2^14283 is the largest admitted power of 2
        largest = f"2^{Z.max_length - 1}"
        assert ad.parse_element(ad.QQ, largest) == ad.QQ.element(2 ** (Z.max_length - 1))
        assert ad.parse_element(ad.QQ, f"1^{10**9}") == ad.QQ.one()
        start = time.perf_counter()
        for s in (largest + "*2", f"2^{Z.max_length}", "3^100000000", "z^2 + 3^100000000",
                  "(z+2^8000)*2^8000"):
            with pytest.raises(BudgetExceededError):
                ad.parse_element(ad.QQ, s) if "z" not in s else ad.parse_map(s, ad.QQ)
        with pytest.raises(BudgetExceededError):
            ad.parse_map("z^2 + t^100000000", F3T)
        # a product chain is refused at its first product past the limit
        with pytest.raises(BudgetExceededError):
            ad.parse_element(ad.QQ, "*".join([largest] * 200))
        with pytest.raises(BudgetExceededError):
            ad.parse_element(F3T, "*".join([f"t^{MAX_T_DEGREE}"] * 20))
        assert time.perf_counter() - start < 0.5

    def test_t_degree_limit(self):
        t_max = ad.parse_element(F2T, f"(t+1)^{MAX_T_DEGREE}")
        assert len(t_max.num) == MAX_T_DEGREE + 1
        for s in (f"t^{MAX_T_DEGREE + 1}", f"t^{MAX_T_DEGREE}*t", f"(t^{MAX_T_DEGREE // 2 + 1})^2"):
            with pytest.raises(BudgetExceededError):
                ad.parse_element(F3T, s)

    def test_long_literals_refused_before_reading(self):
        with pytest.raises(BudgetExceededError):
            ad.parse_element(ad.QQ, "1" * (MAX_BOUND_DIGITS + 1))
        with pytest.raises(BudgetExceededError):
            ad.parse_map("z^" + "1" * (MAX_BOUND_DIGITS + 1), ad.QQ)

    def test_every_admitted_value_prints(self):
        # the largest admitted int, 2^Z.max_length - 1, has MAX_BOUND_DIGITS
        # digits; sums and brackets past it are refused
        largest = 2**Z.max_length - 1
        assert len(str(largest)) == MAX_BOUND_DIGITS
        assert str(ad.parse_element(ad.QQ, str(largest))) == str(largest)
        assert str(ad.parse_point(ad.QQ, f"[1 : {largest}]")) == f"[1 : {largest}]"
        for s in (f"{largest} + 1", f"-{largest} - {largest}", "[2^8000 : 1/2^8000]"):
            with pytest.raises(BudgetExceededError):
                ad.parse_point(ad.QQ, s)
        # eight times the largest value would print 4,301 digits
        with pytest.raises(BudgetExceededError):
            ad.parse_element(ad.QQ, " + ".join([str(largest)] * 8))
        with pytest.raises(BudgetExceededError):
            ad.parse_map("[X/2^8000 : Y*2^8000]", ad.QQ)


# positions as reported before powers were computed by square-and-multiply
ERROR_POSITIONS = [
    ("z^2 + $", ad.QQ, 6),
    ("z^", ad.QQ, 1),
    ("z^-2", ad.QQ, 1),
    ("z^x", ad.QQ, 1),
    ("(z+1", ad.QQ, 4),
    ("z+1)", ad.QQ, 3),
    ("z^2 + w", ad.QQ, 6),
    ("t*z^2", ad.QQ, 0),
    ("[X^2 : Y^2", ad.QQ, 10),
    ("[X^2 : Y^2] z", ad.QQ, 12),
    ("[X^2 Y^2]", ad.QQ, 5),
    ("[Z^2 : Y^2]", ad.QQ, 1),
    ("[X^2 : Y]", ad.QQ, None),
    ("[X^0 : Y^0]", ad.QQ, None),
    ("z^2/0", ad.QQ, None),
    ("[X^2/(X) : Y^2]", ad.QQ, None),
    ("[X^2/0 : Y^2]", ad.QQ, None),
    ("z^2^3", ad.QQ, 3),
    ("(z+1)^(2)", ad.QQ, 5),
    ("z^2 +", ad.QQ, 5),
    ("*z", ad.QQ, 0),
    ("0", ad.QQ, None),
    ("0*z", ad.QQ, None),
    ("1/(z-z)", ad.QQ, None),
    ("  z^2 + @", ad.QQ, 6),
    ("z^2 + s", F2T, 6),
    ("[X^2 : Y^2 : X]", ad.QQ, 11),
    ("(t*z^3+1)/z^", F2T, 11),
    # a literal is ASCII digits only: an Arabic-Indic three or two is junk
    ("z^2+\u0663", ad.QQ, 4),
    ("z^\u0662", ad.QQ, 2),
]


@pytest.mark.parametrize("expr,field,position", ERROR_POSITIONS)
def test_parse_error_positions(expr, field, position):
    with pytest.raises(MapParseError) as err:
        ad.parse_map(expr, field)
    assert err.value.position == position
