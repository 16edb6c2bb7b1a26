import random

import pytest

import arithdyn as ad
from arithdyn.errors import DomainError, UnsupportedPlaceError
from arithdyn.projective import INFINITE
from arithdyn.residue import reduce_values

F2T = ad.function_field(2)
F3T = ad.function_field(3)


class TestNormalize:
    def test_worked_examples(self):
        p = ad.normalize(ad.QQ.element(4), ad.QQ.element(6))
        assert (p.x, p.y) == (2, 3)
        p = ad.normalize(ad.QQ.element(1, 2), ad.QQ.element(1, 3))
        assert (p.x, p.y) == (3, 2)
        p = ad.normalize(F2T.element((0, 1, 1)), F2T.element((0, 1)))
        assert (p.x, p.y) == ((1, 1), (1,))

    def test_canonical_scaling(self):
        assert ad.point_from_raw(ad.QQ, -2, -3) == ad.point_from_raw(ad.QQ, 2, 3)
        assert ad.point_from_raw(ad.QQ, -5, 0) == ad.point_from_raw(ad.QQ, 1, 0)
        p = ad.point_from_raw(F3T, (2, 2), (0, 2))  # scale to make y monic
        assert (p.x, p.y) == ((1, 1), (0, 1))
        q = ad.point_from_raw(F3T, (0, 2), ())
        assert (q.x, q.y) == ((1,), ())

    def test_zero_zero_rejected(self):
        with pytest.raises(DomainError):
            ad.point_from_raw(ad.QQ, 0, 0)
        with pytest.raises(DomainError):
            ad.normalize(ad.QQ.zero(), ad.QQ.zero())

    def test_scaling_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            x = rng.randint(-30, 30)
            y = rng.randint(-30, 30)
            if not (x or y):
                continue
            lam = rng.choice([-3, -2, -1, 2, 3, 5])
            assert ad.point_from_raw(ad.QQ, lam * x, lam * y) == ad.point_from_raw(
                ad.QQ, x, y
            )

    def test_scaling_invariance_function_field(self):
        rng = random.Random(19)
        t_lam = [(0, 1), (1, 1), (1, 0, 1), (2,)]
        for _ in range(40):
            x = tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
            y = tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
            if not any(x) and not any(y):
                continue
            lam = t_lam[rng.randrange(len(t_lam))]
            from arithdyn import fppoly

            lx = fppoly.pmul(3, lam, fppoly.ptrim(list(x)))
            ly = fppoly.pmul(3, lam, fppoly.ptrim(list(y)))
            assert ad.point_from_raw(F3T, lx, ly) == ad.point_from_raw(F3T, x, y)

    def test_affine_shorthand(self):
        p = ad.from_affine(ad.QQ.element(3, 4))
        assert (p.x, p.y) == (3, 4)
        assert ad.parse_point(ad.QQ, "3/4") == p
        assert ad.parse_point(ad.QQ, "[6 : 8]") == p
        assert ad.parse_point(ad.QQ, "inf").is_infinity


class TestLogDistance:
    def test_worked_examples(self):
        inf_pt = ad.infinity(ad.QQ)
        zero = ad.from_affine(ad.QQ.zero())
        assert ad.log_distance(inf_pt, zero, ad.prime_place(5)) == 0
        two = ad.from_affine(ad.QQ.element(2))
        assert ad.log_distance(two, zero, ad.prime_place(2)) == 1
        t_pt = ad.from_affine(F2T.gen())
        zero_f = ad.from_affine(F2T.zero())
        assert ad.log_distance(t_pt, zero_f, ad.parse_place(F2T, "pi:0,1")) == 1

    def test_equal_points_infinite(self):
        p = ad.from_affine(ad.QQ.element(1, 2))
        assert ad.log_distance(p, p, ad.prime_place(3)) == INFINITE

    def test_infinite_place_full_formula(self):
        # [t : 1] and [t+1 : 1] agree at infinity: delta = 0 - (-1) - (-1) = 2
        a = ad.from_affine(F2T.gen())
        b = ad.from_affine(F2T.gen() + F2T.one())
        inf = ad.infinite_place(F2T)
        assert ad.log_distance(a, b, inf) == 2
        assert ad.reduce_point(a, inf) == ad.reduce_point(b, inf)

    def test_archimedean_rejected(self):
        p = ad.from_affine(ad.QQ.element(1))
        q = ad.from_affine(ad.QQ.element(2))
        with pytest.raises(UnsupportedPlaceError):
            ad.log_distance(p, q, ad.archimedean_place())

    def _random_points(self, field, rng, count):
        pts = []
        while len(pts) < count:
            if field.is_rationals:
                x, y = rng.randint(-20, 20), rng.randint(0, 20)
            else:
                p = field.char
                x = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3)))
                y = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3)))
            try:
                pts.append(ad.point_from_raw(field, x, y))
            except DomainError:
                continue
        return pts

    def _places(self, field):
        if field.is_rationals:
            return [ad.prime_place(q) for q in (2, 3, 5, 7)]
        return [ad.infinite_place(field)] + [
            ad.irreducible_place(field, f)
            for f in ad.enumerate_monic_irreducibles(field.char, 2)
        ]

    @pytest.mark.parametrize("field", [ad.QQ, F2T, F3T])
    def test_symmetry_and_triangle(self, field):
        rng = random.Random(11)
        pts = self._random_points(field, rng, 12)
        places = self._places(field)
        for pl in places:
            for a in pts:
                for b in pts:
                    assert ad.log_distance(a, b, pl) == ad.log_distance(b, a, pl)
                    for c in pts:
                        d_ac = ad.log_distance(a, c, pl)
                        d_ab = ad.log_distance(a, b, pl)
                        d_bc = ad.log_distance(b, c, pl)
                        assert d_ac >= min(d_ab, d_bc)

    @pytest.mark.parametrize("field", [ad.QQ, F2T, F3T])
    def test_positive_iff_same_reduction(self, field):
        rng = random.Random(13)
        pts = self._random_points(field, rng, 15)
        for pl in self._places(field):
            for a in pts:
                for b in pts:
                    if a == b:
                        continue
                    same = ad.reduce_point(a, pl) == ad.reduce_point(b, pl)
                    assert (ad.log_distance(a, b, pl) > 0) == same


class TestReducePoint:
    def test_worked_examples(self):
        two = ad.from_affine(ad.QQ.element(2))
        assert ad.reduce_point(two, ad.prime_place(2)) == 0  # [0 : 1]
        third = ad.normalize(ad.QQ.element(1), ad.QQ.element(3))
        assert ad.reduce_point(third, ad.prime_place(3)) == 3  # [1 : 0], node q
        tp1 = ad.from_affine(F2T.gen() + F2T.one())
        assert ad.reduce_point(tp1, ad.parse_place(F2T, "pi:0,1")) == 1  # [1 : 1]

    def test_reduce_at_infinity_rescales(self):
        inf = ad.infinite_place(F2T)
        t_pt = ad.from_affine(F2T.gen())
        assert ad.reduce_point(t_pt, inf) == 2  # [1 : 0] in P^1(F_2)
        # [t+1 : t] -> top coefficients [1 : 1]
        p = ad.point_from_raw(F2T, (1, 1), (0, 1))
        assert ad.reduce_point(p, inf) == 1

    def test_extension_field_reduction(self):
        pl = ad.parse_place(F2T, "pi:1,1,1")  # residue field F_4
        p = ad.from_affine(F2T.gen())  # t reduces to the class of u
        assert ad.reduce_point(p, pl) == 2  # code 2 = u

    # q = 2 and 5 over Q, 4 and 9 over F_2(t) and F_3(t); reduction
    # commutes with a map of good reduction there
    @pytest.mark.parametrize(
        "field, token, expr",
        [
            (ad.QQ, "p:2", "(z^2+1)/(z+2)"),
            (ad.QQ, "p:5", "z^2+1"),
            (F2T, "pi:1,1,1", "(z^2+t)/(z+1)"),
            (F3T, "pi:1,0,1", "z^3+t*z+1"),
        ],
        ids=["2", "5", "4", "9"],
    )
    def test_the_reduction_is_a_node(self, field, token, expr):
        place = ad.parse_place(field, token)
        rf = ad.residue_field(place)
        phi = ad.parse_map(expr, field)
        psi = ad.reduce_map(phi, place)
        rng = random.Random(rf.q)
        if field.is_rationals:
            coords = [(rng.randint(-40, 40), rng.randint(0, 40)) for _ in range(200)]
        else:
            coords = [
                [tuple(rng.randrange(field.char) for _ in range(rng.randint(0, 4))) for _ in "xy"]
                for _ in range(200)
            ]
        coords = [tuple(map(field.ring.coerce, pair)) for pair in coords]
        points = [ad.point_from_raw(field, x, y) for x, y in coords if any((x, y))]
        seen = set()
        for pt in points:
            node = ad.reduce_point(pt, place)
            assert 0 <= node <= rf.q
            assert node == rf.node(*reduce_values(place, (pt.x, pt.y)))
            assert psi.apply(node) == ad.reduce_point(ad.apply_map(phi, pt), place)
            seen.add(node)
        assert seen == set(range(rf.q + 1))


class TestFieldOfSize:
    def test_field_of_size_4(self):
        rf = ad.field_of_size(4)
        assert rf.p == 2 and rf.deg == 2
        # u^2 = u + 1 under the first irreducible modulus u^2+u+1
        assert rf.mul(2, 2) == 3
