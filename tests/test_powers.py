"""Ring powers, and the values built from them without a gcd.

`fppoly.power` is the one square-and-multiply: F_p[t] raises to a power
through it and Z through the power of ints, both refusing a negative
exponent, and element powers, S-strips and S-unit enumeration are built from those ring powers.  Each is
compared with the package's earlier route through gcd-normalized field
products and quotients, kept in `reference`.
"""

import random

import pytest

import arithdyn as ad
from arithdyn import fppoly
from arithdyn.errors import DomainError
from arithdyn.fields import Z, polynomial_ring, strip_places

from reference import (
    reference_enumerate_s_units,
    reference_is_s_unit,
    reference_pow,
    reference_strip_places,
)

FIELDS = [ad.QQ] + [ad.function_field(p) for p in (2, 3, 5)]
RINGS = [Z] + [polynomial_ring(p) for p in (2, 3, 5)]
EXPONENTS = range(-12, 41)


def random_value(rng, ring, nonzero=False):
    """A random integral value: signed ints over Z, polynomials of degree
    <= 4 with any leading coefficient over F_p[t]."""
    while True:
        if ring is Z:
            a = rng.randint(-10**6, 10**6) if rng.random() < 0.5 else rng.randint(-9, 9)
        else:
            a = ring.coerce([rng.randrange(ring.p) for _ in range(rng.randint(0, 5))])
        if a or not nonzero:
            return a


def random_element(rng, field):
    ring = field.ring
    return field.element(random_value(rng, ring), random_value(rng, ring, nonzero=True))


@pytest.mark.parametrize("ring", RINGS, ids=["Z", "F2[t]", "F3[t]", "F5[t]"])
def test_ring_pow_is_repeated_mul(ring):
    rng = random.Random(1301)
    for _ in range(25):
        a = random_value(rng, ring)
        want = ring.one
        for e in range(41):
            assert ring.pow(a, e) == want, (a, e)
            want = ring.mul(want, a)


class _CountingMul:
    """Exponent arithmetic on fresh one-element lists: a call on one
    object twice is a squaring, any other call a product."""

    def __init__(self):
        self.squarings = self.products = 0

    def __call__(self, x, y):
        if x is y:
            self.squarings += 1
        else:
            self.products += 1
        return [x[0] + y[0]]


@pytest.mark.parametrize("e", [*range(1, 70), 2**20, 2**20 - 1, 10**9 + 7])
def test_power_counts_its_products(e):
    mul = _CountingMul()
    assert fppoly.power(mul, [1], e, [0]) == [e]
    assert mul.squarings == e.bit_length() - 1
    assert mul.products == bin(e).count("1")


def test_power_of_exponent_zero_makes_no_product():
    mul = _CountingMul()
    assert fppoly.power(mul, [1], 0, [0]) == [0]
    assert mul.squarings == mul.products == 0


def test_negative_exponent_is_refused():
    with pytest.raises(ValueError):
        fppoly.power(_CountingMul(), [1], -1, [0])
    with pytest.raises(ValueError):
        fppoly.ppow_mod(2, (0, 1), -1, (1, 1, 1))
    with pytest.raises(ValueError):
        polynomial_ring(3).pow((1, 1), -2)


@pytest.mark.parametrize("ring", RINGS, ids=["Z", "F2[t]", "F3[t]", "F5[t]"])
@pytest.mark.parametrize("e", [-1, -2, -7])
def test_ring_pow_refuses_a_negative_exponent(ring, e):
    # Z once answered 2^-1 with the float 0.5
    for a in (ring.one, ring.neg(ring.one), ring.add(ring.one, ring.one)):
        with pytest.raises(ValueError):
            ring.pow(a, e)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_element_pow_matches_the_reference(field):
    rng = random.Random(1302)
    # 500 elements per field at a random exponent, and 10 at every exponent
    for i in range(510):
        x = random_element(rng, field)
        exponents = EXPONENTS if i < 10 else [rng.choice(EXPONENTS)]
        for e in exponents:
            if x.is_zero and e < 0:
                continue
            got = x**e
            assert got == reference_pow(x, e), (x, e)
            # canonical as built: the same as normalizing it again
            assert got == field.element(got.num, got.den)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zero_powers(field):
    zero = field.zero()
    assert zero**0 == field.one()
    assert zero**3 == zero
    with pytest.raises(ZeroDivisionError):
        zero**-1


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_negative_and_non_monic_numerators(field):
    ring = field.ring
    num = -6 if field.is_rationals else ring.coerce([1, 0, field.char - 1])
    den = 35 if field.is_rationals else ring.coerce([1, 1, 0, 1])
    x = field.element(num, den)
    for e in EXPONENTS:
        got = x**e
        assert got == reference_pow(x, e)
        assert got == field.element(got.num, got.den)


def _random_s(rng, field, with_infinity=True, size=None):
    """S over Q: inf and up to 4 primes; over F_p(t): inf (optional) and up
    to 3 monic irreducibles of degree <= 3.  `size` fixes the finite count."""
    if field.is_rationals:
        pool = [ad.prime_place(q) for q in (2, 3, 5, 7, 11, 13)]
        k = rng.randint(0, 4) if size is None else size
        places = [ad.archimedean_place()] + rng.sample(pool, k)
    else:
        irr = ad.enumerate_monic_irreducibles(field.char, 3)
        k = rng.randint(0, 3) if size is None else size
        places = [ad.irreducible_place(field, f) for f in rng.sample(irr, k)]
        if with_infinity or not places:
            places.append(ad.infinite_place(field))
    return ad.place_set(field, places)


def _s_shaped_element(rng, field, S):
    """u * prod pi^e over the finite places of S, sometimes times one more
    random value above or below, so it is an S-unit only sometimes."""
    ring = field.ring
    x = field.element(rng.choice(list(ring.units)))
    for pl in S.finite_places():
        x = x * reference_pow(field.element(pl.payload), rng.randint(-4, 4))
    r = rng.random()
    if r < 0.3:
        x = x * field.element(random_value(rng, ring, nonzero=True))
    elif r < 0.6:
        x = x / field.element(random_value(rng, ring, nonzero=True))
    return x


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_strip_and_s_unit_match_the_reference(field):
    rng = random.Random(1303)
    units = 0
    for i in range(60):
        S = _random_s(rng, field, with_infinity=i % 2 == 0)
        for _ in range(20):
            x = _s_shaped_element(rng, field, S)
            rest, exps = strip_places(x, S)
            assert (rest, exps) == reference_strip_places(x, S)
            assert rest == field.element(rest.num, rest.den)
            is_unit = ad.is_s_unit(x, S)
            assert is_unit == reference_is_s_unit(x, S), (x, S)
            units += is_unit
    assert 300 < units < 900  # both answers occur, out of 1,200


def test_s_unit_needs_degree_zero_off_infinity():
    F3T = ad.function_field(3)
    S = ad.parse_place_set(F3T, "pi:0,1;pi:1,1")
    t, t1 = F3T.gen(), F3T.element((1, 1))
    assert ad.is_s_unit(t / t1, S) and reference_is_s_unit(t / t1, S)
    assert not ad.is_s_unit(t, S) and not reference_is_s_unit(t, S)
    with pytest.raises(DomainError):
        ad.is_s_unit(F3T.zero(), S)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_s_unit_sequence_matches_the_reference(field):
    rng = random.Random(1304)
    largest = 4 if field.is_rationals else 3
    for cap, size in [(1, None), (2, None), (3, None), (3, largest)]:
        S = _random_s(rng, field, size=size)
        got = list(ad.enumerate_s_units(S, cap))
        assert got == list(reference_enumerate_s_units(S, cap))
        assert all(x == field.element(x.num, x.den) for x in got)
