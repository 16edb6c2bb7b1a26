import random
from fractions import Fraction

import pytest

import arithdyn as ad
from arithdyn import fppoly
from arithdyn.errors import (
    DegenerateMapError,
    MapParseError,
    PreconditionError,
)
from arithdyn.fields import KIND_INF, IntegerRing, Place, PolynomialRing
from arithdyn.ratmap import max_coeff_degree, resultant_raw, sylvester_resultant

from conftest import good_test_places, multiplier_sign, random_map, random_point
from reference import eval_form_ff, frac_det, poly_det, sylvester_rows

F2T = ad.function_field(2)
F3T = ad.function_field(3)
F5T = ad.function_field(5)


class TestParse:
    def test_homogenization(self):
        phi = ad.parse_map("z^2 - 1", ad.QQ)
        assert phi.degree == 2
        assert phi.fco == (-1, 0, 1) and phi.gco == (1, 0, 0)

    def test_rational_expression(self):
        phi = ad.parse_map("(z^2+1)/(2*z)", ad.QQ)
        assert phi.fco == (1, 0, 1) and phi.gco == (0, 2, 0)

    def test_coefficient_denominator_cleared(self):
        phi = ad.parse_map("z^2/t", F2T)
        assert phi.fco == ((), (), (1,)) and phi.gco == ((0, 1), (), ())

    def test_pair_form(self):
        assert ad.parse_map("[X^2-Y^2 : Y^2]", ad.QQ) == ad.parse_map("z^2-1", ad.QQ)
        with pytest.raises(MapParseError):
            ad.parse_map("[X^2 : Y]", ad.QQ)  # not the same degree

    def test_syntax_error_position(self):
        with pytest.raises(MapParseError) as err:
            ad.parse_map("z^2 + $", ad.QQ)
        assert err.value.position is not None

    def test_degenerate_map(self):
        with pytest.raises(DegenerateMapError):
            ad.parse_map("[X^2 : X*Y]", ad.QQ)  # common factor X

    def test_fraction_coefficients(self):
        phi = ad.parse_map("1/2*z^2 + 1/3", ad.QQ)
        assert phi.fco == (2, 0, 3) and phi.gco == (6, 0, 0)

    def test_printed_maps_parse_back(self):
        # one printer, fppoly.poly_str, prints the forms over both rings
        assert str(ad.parse_map("z^3-2*z-1", ad.QQ)) == "z^3-2*z-1"
        assert str(ad.parse_map("((t+1)*z^2+2*t)/(z-1)", F3T)) == "((t+1)*z^2+2*t)/(z+2)"
        rng = random.Random(47)
        for field in (ad.QQ, F2T, F3T, F5T):
            for _ in range(60):
                phi = random_map(field, rng)
                assert ad.parse_map(str(phi), field) == phi, phi


class TestResultant:
    def test_worked_examples_with_oracle(self):
        cases = [
            ((-1, 0, 1), (1, 0, 0), 1),  # X^2 - Y^2, Y^2
            ((0, 0, 1), (3, 0, 0), 9),  # X^2, 3Y^2
        ]
        for fco, gco, expected in cases:
            phi = ad.make_map(ad.QQ, fco, gco)
            got = ad.resultant(phi)
            assert got == ad.QQ.element(expected)
            oracle = frac_det(sylvester_rows(phi.fco, phi.gco, 0))
            assert got.as_fraction() == oracle

    def test_function_field_example_with_oracle(self):
        # t X^2 + Y^2 against X Y: resultant is t (up to the sign convention)
        phi = ad.make_map(F2T, ((1,), (), (0, 1)), ((), (1,), ()))
        got = ad.resultant(phi)
        assert got == F2T.gen()
        oracle = poly_det(
            sylvester_rows(phi.fco, phi.gco, fppoly.ZERO), 2
        )
        assert got.num == oracle

    def test_random_against_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            phi = random_map(ad.QQ, rng)
            got = ad.resultant(phi).as_fraction()
            assert got == frac_det(sylvester_rows(phi.fco, phi.gco, 0))
        for field in (F2T, F3T):
            for _ in range(20):
                phi = random_map(field, rng, max_degree=2)
                got = ad.resultant(phi)
                oracle = poly_det(
                    sylvester_rows(phi.fco, phi.gco, fppoly.ZERO), field.char
                )
                assert got.num == oracle

    def test_scaling_covariance(self):
        rng = random.Random(9)
        for _ in range(25):
            phi = random_map(ad.QQ, rng)
            lam = rng.choice([-3, -2, 2, 3, 7])
            scaled = sylvester_resultant(
                ad.QQ,
                tuple(lam * c for c in phi.fco),
                tuple(lam * c for c in phi.gco),
            )
            base = sylvester_resultant(ad.QQ, phi.fco, phi.gco)
            assert scaled == lam ** (2 * phi.degree) * base

    def test_zero_pivot_patterns(self):
        # forms with vanishing leading coefficients take the swap and
        # degree-drop rules of the PRS; cross-check against plain Gaussian
        # elimination
        cases = [
            ((0, 1, 0), (1, 0, 1)),  # XY vs X^2 + Y^2
            ((1, 0, 0), (0, 1, 1)),  # Y^2 vs X^2 + XY
            ((0, 1, 0, 0), (1, 0, 0, 1)),  # X Y^2 vs X^3 + Y^3
        ]
        for fco, gco in cases:
            got = sylvester_resultant(ad.QQ, fco, gco)
            assert got == frac_det(sylvester_rows(fco, gco, 0))
            assert got != 0

    def test_infinity_criterion_against_scalar_search(self):
        # the minimum of v_inf(Res) over infinity-integral models lambda*(F,G)
        # is attained at v_inf(lambda) = M; searching scalars confirms it
        from arithdyn.ratmap import max_coeff_degree, resultant_raw

        for expr in ["(t*z^2+1)/z", "z^2/t", "z^2+t", "z^2+1", "(z^2+t^2)/(t*z)"]:
            phi = ad.parse_map(expr, F2T)
            res = resultant_raw(phi)
            d = phi.degree
            m_needed = max_coeff_degree(phi)
            deg_res = len(res) - 1
            best = None
            for k in range(m_needed, m_needed + 5):
                v_inf = 2 * d * k - deg_res
                best = v_inf if best is None else min(best, v_inf)
            is_bad = ad.infinite_place(F2T) in ad.bad_places(phi)
            assert (best > 0) == is_bad

    def test_zero_iff_common_factor(self):
        rng = random.Random(21)
        for _ in range(25):
            # build F = A*C, G = B*C with a genuine common linear factor C
            a, b, c = (rng.randint(1, 5) for _ in range(3))
            fco = (0, a * c, 0)  # (aX)(cY) -> degree-2 forms sharing no...
            # use explicit products: F = (aX + Y)(X + cY), G = (bX + Y)(X + cY)
            fco = (c, a * c + 1, a)
            gco = (c, b * c + 1, b)
            res = sylvester_resultant(ad.QQ, fco, gco)
            if a != b:
                assert res == 0  # shares exactly the factor X + cY
        phi = ad.parse_map("z^3-z", ad.QQ)
        assert not ad.resultant(phi).is_zero


class TestBadPlaces:
    def test_good_everywhere(self):
        assert ad.bad_places(ad.parse_map("z^2-1", ad.QQ)) == frozenset()

    def test_bad_at_three(self):
        phi = ad.parse_map("z^2/3", ad.QQ)
        assert ad.bad_places(phi) == frozenset({ad.prime_place(3)})

    def test_function_field_infinity_is_checked(self):
        # (t z^2 + 1)/z: Res = t, and the infinity-integral model has
        # v_inf(Res) = 2dM - deg Res = 3 > 0, so infinity is bad too
        phi = ad.parse_map("(t*z^2+1)/z", F2T)
        expected = {ad.parse_place(F2T, "pi:0,1"), ad.infinite_place(F2T)}
        assert ad.bad_places(phi) == frozenset(expected)

    def test_constant_coefficient_maps_good_at_infinity(self):
        phi = ad.parse_map("z^2+1", F2T)
        assert ad.bad_places(phi) == frozenset()

    def test_good_reduction_outside_s(self):
        phi = ad.parse_map("z^2/3", ad.QQ)
        S = ad.place_set(ad.QQ, [ad.archimedean_place(), ad.prime_place(3)])
        assert ad.bad_places(phi) <= set(S.places)


class TestReduceMap:
    def test_worked_examples(self):
        phi = ad.parse_map("z^2-1", ad.QQ)
        rm3 = ad.reduce_map(phi, ad.prime_place(3))
        assert rm3.fco == (2, 0, 1) and rm3.gco == (1, 0, 0)
        rm2 = ad.reduce_map(phi, ad.prime_place(2))
        assert rm2.fco == (1, 0, 1) and rm2.gco == (1, 0, 0)
        bad = ad.make_map(ad.QQ, (0, 0, 1), (3, 0, 0))
        with pytest.raises(PreconditionError):
            ad.reduce_map(bad, ad.prime_place(3))

    def test_reduction_at_infinity(self):
        # z^2 + t at infinity: renormalized coefficients keep only the
        # top t-degree; the reduced map is z^2-ish with the t lost? no:
        # M = 1, F = X^2 + tY^2 -> (0, 0) X^2 has deg 0 < M -> 0 ... so
        # F reduces to Y^2 and G to 0, which would be degenerate; hence
        # infinity must be a bad place for this map.
        phi = ad.parse_map("z^2+t", F2T)
        assert ad.infinite_place(F2T) in ad.bad_places(phi)

    @pytest.mark.parametrize("field", [ad.QQ, F2T, F3T])
    def test_reduction_commutes_with_evaluation(self, field):
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            phi = random_map(field, rng, max_degree=2)
            pt = random_point(field, rng)
            for pl in good_test_places(phi)[:4]:
                psi = ad.reduce_map(phi, pl)
                lhs = ad.reduce_point(ad.apply_map(phi, pt), pl)
                rhs = psi.apply(ad.reduce_point(pt, pl))
                assert lhs == rhs
                checked += 1


class TestApply:
    def test_worked_examples(self):
        phi = ad.parse_map("z^2-1", ad.QQ)
        two = ad.from_affine(ad.QQ.element(2))
        assert ad.apply_map(phi, two) == ad.from_affine(ad.QQ.element(3))
        zero = ad.from_affine(ad.QQ.zero())
        assert ad.apply_map(phi, zero) == ad.from_affine(ad.QQ.element(-1))
        sq = ad.parse_map("z^2", ad.QQ)
        assert ad.apply_map(sq, ad.infinity(ad.QQ)).is_infinity

    @staticmethod
    def _check_against_full_gcd(phi, pt):
        """apply_map against point_from_raw on independently evaluated forms
        (the full Euclid canonicalization); True when a common factor of
        positive degree had to be divided out."""
        p = phi.field.char
        fx = eval_form_ff(p, phi.fco, pt.x, pt.y)
        gx = eval_form_ff(p, phi.gco, pt.x, pt.y)
        assert ad.apply_map(phi, pt) == ad.point_from_raw(phi.field, fx, gx)
        return fppoly.pdeg(fppoly.pgcd(p, fx, gx)) > 0

    @pytest.mark.parametrize("field", [F2T, F3T, F5T])
    def test_function_field_matches_full_gcd_on_random_orbits(self, field):
        rng = random.Random(field.char * 101)
        for _ in range(25):
            phi = random_map(field, rng, max_degree=3)
            pt = random_point(field, rng)
            # follow the orbit so the coordinates grow past the cutoff of
            # the Kronecker product
            for _ in range(5):
                self._check_against_full_gcd(phi, pt)
                if pt.height() > 60:
                    break
                pt = ad.apply_map(phi, pt)

    @pytest.mark.parametrize("field", [F2T, F3T, F5T])
    def test_function_field_common_root_at_bad_place(self, field):
        # F = (X - aY)*F1 + pi*F2 and G = (X - aY)*G1 + pi*G2 share the root
        # (a : 1) mod pi, so pi divides Res(F, G), and at x = a*y + pi*k both
        # F(x, y) and G(x, y) are divisible by pi
        p = field.char
        rng = random.Random(p * 7 + 1)
        irreducibles = fppoly.enumerate_monic_irreducibles(p, 2)

        def small():
            return tuple(rng.randrange(p) for _ in range(rng.randint(1, 2)))

        nontrivial = 0
        for _ in range(40):
            d = rng.randint(2, 3)
            pi = rng.choice(irreducibles)
            a = rng.randrange(p)
            forms = []
            for _ in range(2):
                low = [small() for _ in range(d)]  # the degree-(d-1) cofactor
                pert = [small() for _ in range(d + 1)]
                co = []
                for j in range(d + 1):
                    c = low[j - 1] if j >= 1 else ()
                    if j < d:
                        c = fppoly.psub(p, c, fppoly.pscale(p, low[j], a))
                    co.append(fppoly.padd(p, c, fppoly.pmul(p, pi, pert[j])))
                forms.append(co)
            try:
                phi = ad.make_map(field, *forms)
            except ad.DegenerateMapError:
                continue
            assert fppoly.pmod(p, resultant_raw(phi), pi) == ()
            y = fppoly.padd(p, small(), (0, 0, 1))
            x = fppoly.padd(p, fppoly.pscale(p, y, a), fppoly.pmul(p, pi, small()))
            pt = ad.point_from_raw(field, x, y)
            nontrivial += self._check_against_full_gcd(phi, pt)
        assert nontrivial >= 10

    @pytest.mark.parametrize("field", [F2T, F3T, F5T])
    def test_function_field_unit_resultant(self, field):
        # z^d + c(t) has resultant 1: the gcd step is skipped outright
        p = field.char
        rng = random.Random(p + 13)
        for d in (2, 3):
            c = tuple(rng.randrange(p) for _ in range(3)) + (1,)
            phi = ad.make_map(field, [c] + [()] * (d - 1) + [(1,)], [(1,)] + [()] * d)
            assert fppoly.pdeg(resultant_raw(phi)) == 0
            pt = random_point(field, rng)
            for _ in range(4):
                assert not self._check_against_full_gcd(phi, pt)
                pt = ad.apply_map(phi, pt)

    def test_function_field_worked_example(self):
        # [X^2 : t*Y^2] at [t : 1]: F = t^2 and G = t share t, so the image
        # is [t : 1] again
        phi = ad.make_map(F2T, [(), (), (1,)], [(0, 1), (), ()])
        pt = ad.point_from_raw(F2T, (0, 1), (1,))
        assert ad.apply_map(phi, pt) == pt


class TestMultiplier:
    def test_worked_examples(self):
        sq = ad.parse_map("z^2", ad.QQ)
        zero = ad.from_affine(ad.QQ.zero())
        one = ad.from_affine(ad.QQ.one())
        assert ad.multiplier(sq, zero, 1).is_zero
        assert ad.multiplier(sq, one, 1) == ad.QQ.element(2)
        phi = ad.parse_map("z^2-1", ad.QQ)
        assert ad.multiplier(phi, zero, 2).is_zero

    def test_non_periodic_rejected(self):
        sq = ad.parse_map("z^2", ad.QQ)
        with pytest.raises(PreconditionError):
            ad.multiplier(sq, ad.from_affine(ad.QQ.element(2)), 3)

    def test_cycle_through_infinity(self):
        inv = ad.parse_map("1/z", ad.QQ)  # 0 <-> infinity, phi^2 = id
        lam = ad.multiplier(inv, ad.infinity(ad.QQ), 2)
        assert lam == ad.QQ.one()
        halves = ad.parse_map("1/z^2", ad.QQ)  # infinity -> 0 -> infinity
        assert ad.multiplier(halves, ad.infinity(ad.QQ), 2).is_zero

    def _limit_formula_at_infinity(self, phi) -> Fraction:
        """Oracle: lim_{z->inf} z^2 phi'(z) / phi(z)^2 as exact rationals.

        Evaluated by comparing degrees of the numerator and denominator of
        the rational function z^2 f'(z) g(z)^... reduced symbolically.
        """
        f = [Fraction(c) for c in phi.fco]
        g = [Fraction(c) for c in phi.gco]

        def pmulq(a, b):
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            while out and out[-1] == 0:
                out.pop()
            return out

        def deriv(a):
            return [i * a[i] for i in range(1, len(a))]

        # phi = f/g, phi' = (f'g - fg')/g^2
        num = [Fraction(0), Fraction(0), Fraction(1)]  # z^2
        num = pmulq(
            num,
            [
                x - y
                for x, y in zip(
                    pmulq(deriv(f), g) + [Fraction(0)] * 99,
                    pmulq(f, deriv(g)) + [Fraction(0)] * 99,
                )
            ],
        )
        while num and num[-1] == 0:
            num.pop()
        den = pmulq(f, f)
        if len(num) > len(den):
            raise AssertionError("limit does not exist")
        if len(num) < len(den):
            return Fraction(0)
        return num[-1] / den[-1]

    def test_infinity_chart_matches_limit_formula(self):
        # maps fixing infinity; the conjugation value must equal the limit
        for expr in ["z^2", "(2*z^2+1)/z", "z^3 - z", "(3*z^2+z)/(z+1)"]:
            phi = ad.parse_map(expr, ad.QQ)
            inf = ad.infinity(ad.QQ)
            if not ad.apply_map(phi, inf).is_infinity:
                continue
            got = ad.multiplier(phi, inf, 1).as_fraction()
            assert got == self._limit_formula_at_infinity(phi)

    def test_fixed_point_at_infinity_linear_dominant(self):
        phi = ad.parse_map("(2*z^2+1)/z", ad.QQ)
        lam = ad.multiplier(phi, ad.infinity(ad.QQ), 1)
        assert lam == ad.QQ.element(1, 2)


class TestClassification:
    def test_worked_examples(self):
        sq = ad.parse_map("z^2", ad.QQ)
        one = ad.from_affine(ad.QQ.one())
        # attracting: v > 0 or a zero multiplier; indifferent: v = 0
        assert multiplier_sign(sq, one, 1, ad.prime_place(2)) == 1
        assert multiplier_sign(sq, one, 1, ad.prime_place(3)) == 0
        phi = ad.parse_map("z^2-1", ad.QQ)
        zero = ad.from_affine(ad.QQ.zero())
        assert multiplier_sign(phi, zero, 2, ad.prime_place(5)) == 1

    def test_never_repelling_at_good_places(self):
        rng = random.Random(3)
        fields = [ad.QQ, F2T, F3T]
        checked = 0
        for field in fields:
            # cycles built by interpolation would also work; monomials are
            # enough here: z^2 fixes 0, 1 (or the constants) and infinity
            sq = ad.parse_map("z^2", field)
            pts = [ad.from_affine(field.one()), ad.infinity(field)]
            for pt in pts:
                for pl in good_test_places(sq)[:5]:
                    assert multiplier_sign(sq, pt, 1, pl) >= 0
                    checked += 1
        assert checked >= 20


# ---------------------------------------------------------------------------
# good reduction at a given place, against factoring the resultant


def _random_form(field, rng, d, max_len):
    if field.is_rationals:
        return [rng.randint(-6, 6) for _ in range(d + 1)]
    p = field.char
    return [tuple(rng.randrange(p) for _ in range(rng.randint(1, max_len))) for _ in range(d + 1)]


def _map_bad_at(field, place, rng, d):
    """A random (A, A + pi*B), whose resultant pi^d * Res(A, B) vanishes at
    `place`; at infinity pi*B is a B of lower t-degree than A."""
    ring = field.ring
    if place.kind == KIND_INF:
        a = _random_form(field, rng, d, 4)
        m = max(map(len, a)) - 1
        b = _random_form(field, rng, d, m) if m else [0] * (d + 1)
    else:
        a, b = _random_form(field, rng, d, 3), _random_form(field, rng, d, 3)
        b = [ring.mul(place.payload, ring.coerce(c)) for c in b]
    g = [ring.add(ring.coerce(x), ring.coerce(y)) for x, y in zip(a, b)]
    return (a, g) if rng.random() < 0.5 else (g, a)


def _integral_model_at_infinity(phi):
    """(F, G) times t^-M as forms over F_p[s], s = 1/t the uniformizer."""
    m = max_coeff_degree(phi)
    return [
        tuple(fppoly.ptrim((c + (0,) * (m + 1 - len(c)))[::-1]) for c in co)
        for co in (phi.fco, phi.gco)
    ]


def factor_based_bad_places(phi):
    """Bad places by factoring the resultant of a model integral at each.

    At infinity the model is t^-M (F, G) over F_p[s]; the place is bad
    when the uniformizer s divides its resultant.
    """
    field, ring = phi.field, phi.field.ring
    bad = {Place(field, pi) for pi in ring.factor(resultant_raw(phi))}
    if field.char:
        res_inf = sylvester_resultant(field, *_integral_model_at_infinity(phi))
        if (0, 1) in ring.factor(res_inf):
            bad.add(ad.infinite_place(field))
    return bad


def local_rule_good(phi, place):
    """The factor-free rule: Res mod pi != 0, or deg Res = 2*d*M at infinity."""
    ring, res = phi.field.ring, resultant_raw(phi)
    if place.kind == KIND_INF:
        return ring.size(res) == 2 * phi.degree * max_coeff_degree(phi)
    return ring.residue(res, place.payload) != 0


def _oracle_places(field):
    if field.is_rationals:
        return [ad.prime_place(q) for q in (2, 3, 5, 7, 11, 13)]
    irr = ad.enumerate_monic_irreducibles(field.char, 3)
    places = [ad.infinite_place(field)]
    for k in (1, 2, 3):
        places += [ad.irreducible_place(field, f) for f in irr if len(f) - 1 == k][:3]
    return places


def _place_kind(place):
    return place.kind if place.kind != "irreducible" else f"degree {place.degree}"


class TestGoodReductionOracle:
    @pytest.mark.parametrize("field", [ad.QQ, F2T, F3T, F5T], ids=str)
    def test_local_test_matches_factoring(self, field):
        rng = random.Random(900 + field.char)
        places = _oracle_places(field)
        outcomes = {(_place_kind(pl), good) for pl in places for good in (True, False)}
        seen = set()
        pairs = 0
        while pairs < 1300:
            d = rng.randint(1, 3)
            if rng.random() < 0.5:
                raw = _map_bad_at(field, rng.choice(places), rng, d)
            else:
                raw = _random_form(field, rng, d, 3), _random_form(field, rng, d, 3)
            try:
                phi = ad.make_map(field, *raw)
            except ad.DegenerateMapError:
                continue
            bad = factor_based_bad_places(phi)
            assert ad.bad_places(phi) == bad
            for pl in places:
                good = ad.has_good_reduction(phi, pl)
                assert good == (pl not in bad) == local_rule_good(phi, pl), (phi, pl)
                seen.add((_place_kind(pl), good))
                pairs += 1
        assert seen == outcomes

    def test_archimedean_and_foreign_places_refused(self):
        phi = ad.parse_map("z^2-1", ad.QQ)
        for call in (ad.has_good_reduction, ad.reduce_map):
            with pytest.raises(ad.DomainError):
                call(phi, ad.archimedean_place())
            with pytest.raises(ad.DomainError):
                call(phi, ad.infinite_place(F2T))


class TestGivenPlacesNeverFactor:
    """Questions about a given place or S answer with factoring disabled."""

    @pytest.fixture(autouse=True)
    def no_factoring(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factored while deciding a given place")

        for ring_class in (IntegerRing, PolynomialRing):
            monkeypatch.setattr(ring_class, "factor", refuse)
        monkeypatch.setattr(fppoly, "factor_poly", refuse)

    # neither resultant is factored (the fixture refuses any factoring):
    # D^2 with D = t^36 + ... a product of two degree-18 irreducibles, and
    # N^2 with N = (10^9 + 7) * (10^9 + 9)
    def test_reduction_and_period_relation(self):
        for field, expr, good, bad in [
            (F2T, "z^2/(t^36+t^23+t^22+t^20+t^19+t^12+t^11+t^10+t^7+t^3+t^2+t+1)",
             "pi:1,1", "inf"),
            (ad.QQ, "z^2/1000000016000000063", "p:5", "p:1000000007"),
        ]:
            phi = ad.parse_map(expr, field)
            good, bad = ad.parse_place(field, good), ad.parse_place(field, bad)
            zero = ad.parse_point(field, "0")  # a superattracting fixed point
            assert ad.has_good_reduction(phi, good)
            assert ad.reduce_map(phi, good).degree == 2
            assert multiplier_sign(phi, zero, 1, good) == 1
            assert ad.check_period_relation(phi, zero, 1, good).case == "i"
            assert not ad.has_good_reduction(phi, bad)
            with pytest.raises(PreconditionError):
                ad.reduce_map(phi, bad)

    def test_s_membership(self):
        for field, value, tokens in [
            (ad.QQ, "1000000016000000063/4", ["p:2"]),
            (F2T, "(t^61+t^5+t^3+t+1)/t^3", ["pi:0,1"]),
        ]:
            x = ad.parse_element(field, value)
            S = ad.place_set(
                field,
                [ad.infinite_place(field)] + [ad.parse_place(field, tok) for tok in tokens],
            )
            assert not ad.is_s_unit(x, S) and ad.is_s_integer(x, S)
            assert not ad.is_s_integer(field.one() / x, S)
            assert ad.s_unit_exponents(x, S) is None
            assert ad.is_s_unit(field.element(4 if field.is_rationals else (0, 0, 1)), S)
            assert not ad.is_s_trivial(x, field.one(), S)
