"""Cross-checks of cycle multipliers against independent computations.

`ratmap.cycle_multiplier` takes the multiplier from the homogeneous
Jacobian of (F, G), with no chart at all, so it is checked against three
structurally different routes:

- explicit symbolic composition of the iterate as one big rational
  function over Fraction coefficients, gcd-reduced, then differentiated at
  a finite cycle point;
- the affine chain rule with chart swaps at infinity (`reference.
  cycle_multiplier`, the package's former kernel), on random cycles over
  Q, F_2(t), F_3(t) and F_5(t) and on every cycle of their reductions at
  prime places, the infinite place and extension places, the last both
  with exp/log tables and with polynomial arithmetic;
- the reduction of an exact multiplier modulo a prime, compared with the
  residue-side computation.
"""

from fractions import Fraction

import random

import pytest

import arithdyn as ad
from arithdyn import ratmap
from arithdyn.projective import INFINITE

import reference


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _padd(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pscale(a, c):
    return _ptrim([x * c for x in a])


def _pdivmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        _ptrim(a)
    return _ptrim(q), a


def _pgcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        a = _pscale(a, 1 / a[-1])
    return a


def _peval(a, z):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * z + c
    return acc


def _pderiv(a):
    return [i * a[i] for i in range(1, len(a))]


def _compose_iterate(phi, n):
    """phi^n as a reduced (num, den) pair of Fraction polynomials."""
    f = [Fraction(c) for c in phi.fco]
    g = [Fraction(c) for c in phi.gco]
    num, den = [Fraction(0), Fraction(1)], [Fraction(1)]  # identity z
    d = phi.degree
    for _ in range(n):
        # substitute num/den into each form: sum c_i num^i den^(d-i)
        new_num, new_den = [], []
        np_pows = [[Fraction(1)]]
        dp_pows = [[Fraction(1)]]
        for i in range(d):
            np_pows.append(_pmul(np_pows[-1], num))
            dp_pows.append(_pmul(dp_pows[-1], den))
        for coeffs, target in ((f, "num"), (g, "den")):
            acc = []
            for i, c in enumerate(coeffs):
                if c == 0:
                    continue
                term = _pscale(_pmul(np_pows[i], dp_pows[d - i]), c)
                acc = _padd(acc, term)
            if target == "num":
                new_num = acc
            else:
                new_den = acc
        common = _pgcd(new_num, new_den)
        if len(common) > 1:
            new_num = _pdivmod(new_num, common)[0]
            new_den = _pdivmod(new_den, common)[0]
        num, den = new_num, new_den
    return num, den


def _iterate_derivative_at(phi, n, z0: Fraction) -> Fraction:
    num, den = _compose_iterate(phi, n)
    dz = _peval(den, z0)
    assert dz != 0, "cycle point is a pole of the reduced iterate"
    nz = _peval(num, z0)
    npz = _peval(_pderiv(num), z0)
    dpz = _peval(_pderiv(den), z0)
    return (npz * dz - nz * dpz) / (dz * dz)


CYCLE_CASES = [
    # (map, finite cycle point, minimal period); cycles pass through
    # infinity in the last three cases
    ("z^2-1", Fraction(0), 2),
    ("z^2-1", Fraction(-1), 2),
    ("(-3*z^2+5*z+2)/2", Fraction(0), 3),  # Lagrange: 0 -> 1 -> 2 -> 0
    ("1/z", Fraction(0), 2),
    ("(z-1)/z", Fraction(1), 3),  # 1 -> 0 -> inf -> 1, order-3 in PGL_2
    ("1/z^2", Fraction(0), 2),
]


class TestCompositionOracle:
    @pytest.mark.parametrize("expr,z0,n", CYCLE_CASES)
    def test_multiplier_matches_composed_iterate(self, expr, z0, n):
        phi = ad.parse_map(expr, ad.QQ)
        start = ad.from_affine(ad.QQ.element(z0.numerator, z0.denominator))
        if ad.iterate_map(phi, start, n) != start:
            pytest.skip(f"{z0} is not {n}-periodic for {expr}")
        got = ad.multiplier(phi, start, n).as_fraction()
        want = _iterate_derivative_at(phi, n, z0)
        assert got == want

    def test_three_cycle_through_infinity_is_indifferent(self):
        phi = ad.parse_map("(z-1)/z", ad.QQ)
        one = ad.from_affine(ad.QQ.one())
        rep = ad.orbit(phi, one)
        assert rep.n == 3
        assert any(p.is_infinity for p in rep.cycle)
        lam = ad.multiplier(phi, one, 3)
        assert lam == ad.QQ.one()  # phi^3 = id in PGL_2

    def test_multiplier_same_along_cycle(self):
        phi = ad.parse_map("z^2-1", ad.QQ)
        zero = ad.from_affine(ad.QQ.zero())
        minus = ad.from_affine(-ad.QQ.one())
        assert ad.multiplier(phi, zero, 2) == ad.multiplier(phi, minus, 2)


class TestReductionCompatibility:
    def test_reduced_multiplier_is_reduction_of_exact(self):
        # finite cycle, finite reductions: the residue-side multiplier must
        # be the residue class of the exact multiplier
        phi = ad.parse_map("z^2-1", ad.QQ)
        zero = ad.from_affine(ad.QQ.zero())
        lam = ad.multiplier(phi, zero, 2)
        for p in (5, 7, 11, 13, 17):
            place = ad.prime_place(p)
            data = ad.reduced_period_data(phi, zero, place)
            rf = ad.residue_field(place)
            if lam.is_zero:
                expected_r = INFINITE
            else:
                code = lam.num * pow(lam.den, -1, p) % p
                expected_r = rf.multiplicative_order(code) if code else INFINITE
            assert data.r == expected_r

    def test_fixed_points_of_squaring(self):
        sq = ad.parse_map("z^2", ad.QQ)
        one = ad.from_affine(ad.QQ.one())
        lam = ad.multiplier(sq, one, 1).as_fraction()
        assert lam == 2
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            data = ad.reduced_period_data(sq, one, ad.prime_place(p))
            rf = ad.residue_field(ad.prime_place(p))
            assert data.m == 1
            assert data.r == rf.multiplicative_order(2 % p)


class TestFunctionFieldMultipliers:
    def test_cycle_through_infinity_char_2(self):
        F2T = ad.function_field(2)
        inv = ad.parse_map("1/z", F2T)
        lam = ad.multiplier(inv, ad.infinity(F2T), 2)
        assert lam == F2T.one()

    def test_char_p_power_map_superattracting(self):
        F3T = ad.function_field(3)
        cube = ad.parse_map("z^3", F3T)  # Frobenius-like: derivative 3z^2 = 0
        one = ad.from_affine(F3T.one())
        assert ad.multiplier(cube, one, 1).is_zero

    def test_coefficient_t_cycle(self):
        # z -> t/z swaps 1 and t; multiplier of the 2-cycle is 1
        F2T = ad.function_field(2)
        phi = ad.parse_map("t/z", F2T)
        one_pt = ad.from_affine(F2T.one())
        rep = ad.orbit(phi, one_pt)
        assert rep.n == 2
        assert ad.multiplier(phi, one_pt, 2) == F2T.one()


# ---------------------------------------------------------------------------
# random cycles against the chart-swap chain rule

FIELDS = [ad.QQ, ad.function_field(2), ad.function_field(3), ad.function_field(5)]


def _random_coordinate(field, rng):
    if field.is_rationals:
        return rng.randint(-6, 6)
    return field.ring.coerce([rng.randrange(field.char) for _ in range(rng.randint(1, 3))])


def _random_points(field, rng, n):
    """n distinct points, one in four sets containing infinity."""
    pts = [ad.infinity(field)] if rng.random() < 0.25 else []
    while len(pts) < n:
        x, y = _random_coordinate(field, rng), _random_coordinate(field, rng)
        if x or y:
            pt = ad.point_from_raw(field, x, y)
            if pt not in pts:
                pts.append(pt)
    rng.shuffle(pts)
    return pts


def _null_vector(field, rows, rng):
    """A random vector of the kernel of a matrix of field elements."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivots = []
    for c in range(ncols):
        k = next((i for i in range(len(pivots), len(rows)) if not rows[i][c].is_zero), None)
        if k is None:
            continue
        r = len(pivots)
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    sol = [field.zero()] * ncols
    for j in free:
        sol[j] = field.element(_random_coordinate(field, rng))
    for r, c in enumerate(pivots):
        sol[c] = -sum((rows[r][j] * sol[j] for j in free), field.zero())
    return sol


def map_with_cycle(field, pts, d, rng, step=1):
    """A random degree-d map sending each point of pts to the next, or None.

    Only the coefficients of X^i Y^(d-i) with step | i may be nonzero, so
    step = p gives a map in X^p and Y^p, whose derivative vanishes in
    characteristic p.  (F, G) maps P to P' exactly when
    y' F(P) - x' G(P) = 0, which is linear in the coefficients.
    """
    idx = range(0, d + 1, step)
    el = field.element
    rows = []
    for P, Q in zip(pts, pts[1:] + pts[:1]):
        mono = [el(P.x) ** i * el(P.y) ** (d - i) for i in idx]
        rows.append([el(Q.y) * m for m in mono] + [-el(Q.x) * m for m in mono])
    sol = _null_vector(field, rows, rng)
    if all(c.is_zero for c in sol):
        return None
    fco, gco = [field.zero()] * (d + 1), [field.zero()] * (d + 1)
    for k, i in enumerate(idx):
        fco[i], gco[i] = sol[k], sol[len(idx) + k]
    raw = reference.clear_denominators(field, fco + gco)
    try:
        return ad.make_map(field, raw[: d + 1], raw[d + 1 :])
    except ad.DegenerateMapError:
        return None


def random_cycles(field, seed, count):
    """(map, cycle) pairs: degree 1..3, period 1..2d+1, some inseparable."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 3)
        step = 1
        if field.char and d % field.char == 0 and rng.random() < 0.5:
            step = field.char
        n = rng.randint(1, 2 * len(range(0, d + 1, step)) - 1)
        pts = _random_points(field, rng, n)
        phi = map_with_cycle(field, pts, d, rng, step)
        if phi is not None:
            out.append((phi, pts))
    return out


def reduced_cycles(phi):
    """(reduced map, cycle of nodes) at a few good places."""
    field = phi.field
    if field.is_rationals:
        places = [ad.prime_place(q) for q in (2, 3, 5, 7)]
    else:
        irr = ad.enumerate_monic_irreducibles(field.char, 3)
        places = [ad.infinite_place(field)]
        for k in (1, 2, 3):
            places += [ad.irreducible_place(field, f) for f in irr if len(f) - 1 == k][:2]
    for place in places:
        if not ad.has_good_reduction(phi, place):
            continue
        psi = ad.reduce_map(phi, place)
        for cyc in ad.functional_graph(psi).cycles:
            yield psi, list(cyc)


class TestChartSwapOracle:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_global_cycles(self, field):
        cases = random_cycles(field, 8000 + field.char, 60)
        through_inf = zero = linear = 0
        for phi, pts in cases:
            assert all(ad.apply_map(phi, P) == Q for P, Q in zip(pts, pts[1:] + pts[:1]))
            got = ad.multiplier(phi, pts[0], len(pts))
            assert got == reference.chart_swap_multiplier(phi, pts), (phi, pts)
            through_inf += any(P.is_infinity for P in pts)
            zero += got.is_zero
            linear += phi.degree == 1
        assert through_inf >= 10 and linear >= 10
        if field.char in (2, 3):  # maps in X^p, Y^p of degree p
            assert zero >= 3

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_reduced_cycles(self, field, arithmetic):
        kinds = set()
        through_inf = zero = 0
        for phi, _ in random_cycles(field, 9000 + field.char, 25):
            for psi, pts in reduced_cycles(phi):
                rf = psi.rfield
                cycle = list(map(rf.pair, pts))
                got = rf.div(*ratmap.cycle_multiplier(rf, psi.fco, psi.gco, cycle))
                assert got == reference.reduced_chart_swap_multiplier(psi, pts), (psi, pts)
                kinds.add((rf.modulus is None, rf.tables() is None))
                through_inf += rf.q in pts
                zero += not got
        assert through_inf >= 10 and zero >= 5
        assert (True, True) in kinds
        if field.char:
            assert (False, arithmetic == "polynomial") in kinds
