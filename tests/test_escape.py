"""The escape criterion (`ratmap.escape_profile`, `ratmap.escape_test`) against
independent oracles.

- The cofactors: a*F + b*G = Res * Y^(2d-1) checked by schoolbook form
  products, on both rings, through vanishing leading coefficients and
  abnormal remainder sequences; over F_p[t] their t-degree stays within
  the (2d-1)*M minor bound the profile uses.
- The inequality the height clause rests on, H(phi(P)) >= H(P)^d / c over
  Q and h(phi(P)) >= d*h(P) - a over F_p(t), on random steps computed from
  explicit monomial sums and a Euclid gcd.
- No clause fires on a point that brute-force iteration finds preperiodic.
- On polynomial maps the old shape-only proof never fires before the
  criterion does.
- `preperiodic_search`, which proves points before starting their orbits,
  returns what `orbit` called on every point gives.
- The start box (`ratmap.start_box`): every canonical pair of height <= H
  outside it fires `escape_test` at step 0, on random maps with a
  profile, the pairs listed by `reference.brute_points`.
- Below the radii: the search, which starts the kernel only on the pairs
  no clause dismisses at step 0 and counts the rest, equals
  `reference.reference_preperiodic_search` on maps whose radii lie below the
  search height, starts at most the pairs below the radii, and refuses
  the heights it refused before.
- The polynomial clause on [F : g_0*Y^d] outside the unit shape, with no
  escape profile in the oracle: its N and r from exact local bounds, the
  search against plain iteration of every point, the escape inequalities
  at the places of N and at the archimedean or infinite place on random
  steps, and Poonen's classification of the z^2 + c with c = a/b,
  |a|, b <= 30.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import arithdyn as ad
from arithdyn import dynamics, fppoly
from arithdyn.dynamics import Budget, SearchResult
from arithdyn.errors import BudgetExceededError
from arithdyn.ratmap import (
    RationalMap,
    escape_profile,
    escape_test,
    start_box,
    sylvester_resultant,
)

from conftest import enumerated_points
from reference import (
    _ring_ops,
    brute_monic_irreducibles,
    brute_points,
    map_step,
    reference_ord_int,
    reference_ord_poly,
    reference_preperiodic_search,
    schoolbook_pdivmod,
    schoolbook_pmul,
    trial_division_is_prime,
)

FIELDS = [ad.QQ, ad.function_field(2), ad.function_field(3), ad.function_field(5)]


def random_poly(rng, p, max_len):
    return fppoly.ptrim([rng.randrange(p) for _ in range(rng.randint(0, max_len))])


def random_forms(rng, field, d, size=6):
    """Two random degree-d coefficient lists; leading and constant
    coefficients vanish now and then (points at infinity, degree drops)."""
    if field.is_rationals:
        draw = lambda: rng.randint(-size, size)  # noqa: E731
    else:
        draw = lambda: random_poly(rng, field.char, 3)  # noqa: E731
    zero = field.ring.zero
    fco, gco = [draw() for _ in range(d + 1)], [draw() for _ in range(d + 1)]
    for co in (fco, gco):
        if rng.random() < 0.25:
            co[d] = zero
        if rng.random() < 0.15:
            co[0] = zero
    return fco, gco


def random_maps(rng, field, count, degrees=(2, 3, 4)):
    maps = []
    while len(maps) < count:
        try:
            maps.append(ad.make_map(field, *random_forms(rng, field, rng.choice(degrees))))
        except (ad.DegenerateMapError, ad.DomainError):
            continue
    return maps


def form_product(field, a, b):
    """The product of two forms, ascending X-power, by the double loop."""
    zero, _, mul, add, _ = _ring_ops(field.char or None)
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return out


def height(field, x, y):
    size = field.ring.size
    return max(size(x), size(y))


class TestCofactors:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_identity_on_random_forms(self, field):
        rng = random.Random(301 + field.char)
        zero = field.ring.zero
        nonzero = 0
        for _ in range(150):
            d = rng.randint(1, 6)
            fco, gco = (tuple(co) for co in random_forms(rng, field, d))
            res, a, b = sylvester_resultant(field, fco, gco, cofactors=True)
            assert res == sylvester_resultant(field, fco, gco)
            assert len(a) == len(b) == d
            lhs = [
                _ring_ops(field.char or None)[3](u, v)
                for u, v in zip(form_product(field, a, fco), form_product(field, b, gco))
            ]
            assert lhs == [res] + [zero] * (2 * d - 1)
            if res and not field.is_rationals:
                M = max(map(fppoly.pdeg, fco + gco))
                assert max(map(fppoly.pdeg, a + b)) <= (2 * d - 1) * M
            nonzero += bool(res)
        assert nonzero >= 50

    @pytest.mark.parametrize("p", [2, 3])
    def test_identity_on_abnormal_remainder_sequences(self, p):
        # G = X^i Y^j (X - b*Y)^(p^e) is a binomial times a monomial in
        # characteristic p, so the remainder degrees drop by more than one
        F = ad.function_field(p)
        rng = random.Random(311 + p)
        for d in range(p + 2, 20):
            q = p ** next(e for e in range(5, 0, -1) if p**e < d)
            i = rng.randint(0, d - q)
            b = rng.randrange(1, p)
            binom = [()] * (q + 1)
            binom[q], binom[0] = (1,), fppoly.pconst(p, (-b) ** q)
            gco = tuple([()] * i + binom + [()] * (d - q - i))
            fco = [()] * (d + 1)
            for k in [0, d] + rng.sample(range(1, d), 2):
                fco[k] = random_poly(rng, p, 2) or (1,)
            fco = tuple(fco)
            res, a, b_co = sylvester_resultant(F, fco, gco, cofactors=True)
            lhs = [
                fppoly.padd(p, u, v)
                for u, v in zip(form_product(F, a, fco), form_product(F, b_co, gco))
            ]
            assert lhs == [res] + [()] * (2 * d - 1)

    def test_refused_by_the_resultant_budget(self):
        # d = 60 with 64-bit coefficients: the plain resultant is admitted
        # (0.3 s), the tracked runs are refused before any elimination, and
        # the profile keeps only what needs no cofactors; the polynomial
        # map needs 128-bit coefficients for that, as its G is Y^d
        rng = random.Random(317)
        d = 60
        fco, gco = ([rng.getrandbits(64) - 2**63 for _ in range(d + 1)] for _ in range(2))
        with pytest.raises(BudgetExceededError):
            sylvester_resultant(ad.QQ, tuple(fco), tuple(gco), cofactors=True)
        lower = [rng.getrandbits(128) - 2**127 for _ in range(d)]
        shaped = RationalMap(ad.QQ, tuple(lower + [1]), (1,) + (0,) * d)
        general = RationalMap(ad.QQ, tuple(fco), tuple(gco))
        start = time.perf_counter()
        profile = ad.escape_profile(shaped)
        assert profile.height is profile.constant is None
        assert profile.polynomial.radius == sum(map(abs, lower)) + 2
        assert ad.escape_profile(general) is None
        out = ad.orbit(general, ad.point_from_raw(ad.QQ, 2, 1))
        assert (out.reason, out.proof) == ("height", None)
        assert time.perf_counter() - start < 2.0


class TestHeightInequality:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_every_step(self, field):
        rng = random.Random(321 + field.char)
        ring = field.ring
        steps = bad = 0
        for phi in random_maps(rng, field, 60):
            d, profile = phi.degree, ad.escape_profile(phi)
            c = profile.constant
            bad += not ring.is_unit(ad.ratmap.resultant_raw(phi))
            for _ in range(6):
                x, y = (rng.randint(-40, 40), rng.randint(0, 40)) if field.is_rationals else (
                    random_poly(rng, field.char, 4), random_poly(rng, field.char, 4)
                )
                if not (x or y):
                    continue
                pt = ad.point_from_raw(field, x, y)
                x, y = pt.x, pt.y
                for _ in range(2):
                    h = height(field, x, y)
                    x, y = map_step(phi, x, y)
                    h1 = height(field, x, y)
                    if field.is_rationals:
                        assert h1 * c >= h**d
                    else:
                        assert h1 >= d * h - c
                    if h >= profile.height.radius:
                        assert h1 > h
                    steps += 1
        assert steps >= 550 and bad >= 20

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_constant_is_the_cofactor_bound(self, field):
        rng = random.Random(331 + field.char)
        for phi in random_maps(rng, field, 30):
            d, profile = phi.degree, ad.escape_profile(phi)
            runs = [
                sylvester_resultant(field, phi.fco, phi.gco, cofactors=True),
                sylvester_resultant(field, phi.fco[::-1], phi.gco[::-1], cofactors=True),
            ]
            if field.is_rationals:
                assert profile.constant == max(sum(map(abs, a + b)) for _, a, b in runs)
                r = profile.height.radius
                assert (r - 1) ** (d - 1) <= profile.constant < r ** (d - 1)
            else:
                M = ad.ratmap.max_coeff_degree(phi)
                assert profile.constant == (2 * d - 1) * M
                exact = max(max(map(fppoly.pdeg, a + b)) for _, a, b in runs)
                assert exact <= profile.constant
                assert profile.height.radius == profile.constant // (d - 1) + 1


def brute_force_orbit(phi, pt, steps=40, cap=None):
    """The tail and cycle of pt by plain iteration with a visited set, or
    None when no revisit happens within the step or height cap."""
    field = phi.field
    cap = cap or (10**30 if field.is_rationals else 60)
    seen, chain = {}, []
    x, y = pt.x, pt.y
    for _ in range(steps):
        if (x, y) in seen:
            return chain[: seen[(x, y)]], chain[seen[(x, y)] :]
        seen[(x, y)] = len(chain)
        chain.append((x, y))
        x, y = map_step(phi, x, y)
        if height(field, x, y) > cap:
            return None
    return None


def preperiodic_rich_maps(field, rng):
    """Maps with many preperiodic points of small height, plus random ones."""
    if field.is_rationals:
        exprs = ["z^2-1", "z^2-29/16", "z^2-3/4", "z^2-2", "1/z^2", "(z^2-9)/(3*z)",
                 "z^3-z", "(z^2+1)/(2*z)", "2*z^2-1", "(z^2-2)/(3*z)", "z^2"]
    else:
        exprs = ["z^2", "1/z^2", "z^3", "(t*z^2+1)/z", "z^2+t", "(z^2+t)/(z+1)", "t/z^2"]
    maps = [ad.parse_map(e, field) for e in exprs]
    return maps + random_maps(rng, field, 8, degrees=(2, 3))


@pytest.mark.parametrize("field", FIELDS[:3], ids=str)
def test_never_fires_on_preperiodic_points(field):
    rng = random.Random(341 + field.char)
    found = 0
    for phi in preperiodic_rich_maps(field, rng):
        profile = ad.escape_profile(phi)
        for pt in enumerated_points(field, 4 if field.is_rationals else 1):
            truth = brute_force_orbit(phi, pt)
            if truth is None:
                continue
            found += 1
            for x, y in truth[0] + truth[1]:
                assert escape_test(profile, field.ring)(x, y, height(field, x, y)) is None
            out = ad.orbit(phi, pt)
            assert isinstance(out, ad.OrbitReport)
            assert [(q.x, q.y) for q in out.tail] == truth[0]
            assert [(q.x, q.y) for q in out.cycle] == truth[1]
    assert found >= 30


def old_radius(field, lower):
    """The affine radius of the shape-only proof for [F : u*Y^d], F monic
    up to a unit with lower coefficients `lower`: Sum |f_i| + 2 over Q,
    max(1, max_i deg f_i + 1) over F_p(t)."""
    if field.is_rationals:
        return sum(map(abs, lower)) + 2
    return max(1, *map(len, lower))


def old_proof_step(phi, pt, steps=12):
    """The step at which the shape-only proof for [F : u*Y^d] fires: a
    non-unit denominator, or a numerator of size >= `old_radius`."""
    field, ring, d = phi.field, phi.field.ring, phi.degree
    radius = old_radius(field, phi.fco[:d])
    x, y = pt.x, pt.y
    for k in range(steps):
        if y and (not ring.is_unit(y) or ring.size(x) >= radius):
            return k
        x, y = map_step(phi, x, y)
    return None


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_old_proof_never_fires_first(field):
    rng = random.Random(351 + field.char)
    compared = 0
    for _ in range(25):
        d = rng.choice((2, 3))
        if field.is_rationals:
            fco = [rng.randint(-8, 8) for _ in range(d)] + [rng.choice((1, -1))]
            u = rng.choice((1, -1))
        else:
            p = field.char
            fco = [random_poly(rng, p, 3) for _ in range(d)] + [rng.randrange(1, p)]
            u = rng.randrange(1, p)
        phi = ad.make_map(field, fco, [u] + [0] * d)
        assert ad.escape_profile(phi).polynomial is not None
        for pt in enumerated_points(field, 3 if field.is_rationals else 1):
            if rng.random() < 0.5:
                continue
            k = old_proof_step(phi, pt)
            if k is None:
                continue
            out = ad.orbit(phi, pt, Budget(max_steps=k + 1))
            assert isinstance(out, ad.ExceededBudget) and out.divergent
            assert out.steps <= k
            compared += 1
    assert compared >= 60


def pretest_maps(field):
    """Named maps of every kind of escape profile (none, height clause only,
    both clauses) and four random maps of degree 2 or 3."""
    rng = random.Random(361 + field.char)
    exprs = (["z+1", "z^2-1", "z^2-3/4", "(z^2+1)/(2*z)", "z^3-z"] if field.is_rationals
             else ["t*z+1", "z^2", "1/z^2", "(t*z^2+1)/z", "z^2+t"])
    return [ad.parse_map(e, field) for e in exprs] + random_maps(rng, field, 4, (2, 3))


@pytest.mark.parametrize("field", FIELDS[:3], ids=str)
def test_search_pretest_matches_orbit_on_every_point(field):
    height_bound = 5 if field.is_rationals else 1
    budget = Budget(max_steps=60)
    for phi in pretest_maps(field):
        reports, undecided, divergent, scanned = [], [], 0, 0
        for pt in enumerated_points(field, height_bound):
            scanned += 1
            out = ad.orbit(phi, pt, budget)
            if isinstance(out, ad.OrbitReport):
                reports.append(out)
            elif out.divergent:
                divergent += 1
            else:
                undecided.append(pt)
        reports.sort(key=lambda r: r.start.sort_key())
        undecided.sort(key=ad.ProjPoint.sort_key)
        want = SearchResult(tuple(reports), tuple(undecided), scanned, divergent)
        assert ad.preperiodic_search(phi, height_bound, budget) == want


def test_fp2_search_leaves_at_most_one_point_undecided():
    # the orbit heights of (t*z^2+1)/z run h -> 2h + 1; before the height
    # clause 127 of these 129 points were left undecided at the cap
    phi = ad.parse_map("(t*z^2+1)/z", ad.function_field(2))
    res = ad.preperiodic_search(phi, 3)
    assert res.scanned == 129 and len(res.undecided) <= 1
    assert res.divergent + len(res.preperiodic) + len(res.undecided) == 129


# The search starts the kernel only below the radii and counts the other
# points; `reference.reference_preperiodic_search` still tests every point.

F2T, F3T = ad.function_field(2), ad.function_field(3)


def below_the_radii_cases():
    yield from ((f"z^2{c:+d}", ad.QQ, 60) for c in range(-50, 51))  # polynomial clause
    yield "(z^2+5)/(z-7)", ad.QQ, 160  # height clause only
    yield "(t*z^2+1)/z", F2T, 6
    yield "z^2+t", F3T, 4
    yield "(z^2+t)/(t*z+1)", F3T, 4


def test_search_below_the_radii_matches_reference():
    for expr, field, height_bound in below_the_radii_cases():
        phi = ad.parse_map(expr, field)
        profile = escape_profile(phi)
        assert min(p.radius for p in (profile.height, profile.polynomial) if p) <= height_bound
        assert ad.preperiodic_search(phi, height_bound) == reference_preperiodic_search(
            phi, height_bound
        ), expr


@pytest.mark.parametrize("field, height_bound", [(ad.QQ, 120), (F2T, 6), (F3T, 3)], ids=str)
def test_search_on_pretest_maps_matches_reference(field, height_bound):
    # the maps without a profile (degree 1) have no radius to search below
    budget = Budget(max_steps=60)
    for phi in pretest_maps(field):
        if escape_profile(phi) is not None:
            assert ad.preperiodic_search(phi, height_bound, budget) == (
                reference_preperiodic_search(phi, height_bound, budget)
            ), phi


def random_polynomial_maps(rng, field, count):
    """[F : u*Y^d] with unit u and unit leading coefficient of F, the unit
    shape, where the polynomial clause has N = 1."""
    maps = []
    for _ in range(count):
        d = rng.choice((2, 3))
        if field.is_rationals:
            fco = [rng.randint(-6, 6) for _ in range(d)] + [rng.choice((1, -1))]
            u = rng.choice((1, -1))
        else:
            p = field.char
            fco = [random_poly(rng, p, 2) for _ in range(d)] + [rng.randrange(1, p)]
            u = rng.randrange(1, p)
        maps.append(ad.make_map(field, fco, [u] + [0] * d))
    return maps


@pytest.mark.parametrize("field, height_bound", [(ad.QQ, 30), (F2T, 4), (F3T, 3)], ids=str)
def test_pairs_outside_the_start_box_escape_at_once(field, height_bound):
    rng = random.Random(371 + field.char)
    ring = field.ring
    pairs = brute_points(field.char, height_bound)
    outside = 0
    maps = random_maps(rng, field, 12, (2, 3)) + random_polynomial_maps(rng, field, 12)
    for phi in maps + general_polynomial_maps(rng, field, 12):
        profile = escape_profile(phi)
        if profile is None:
            continue
        xs, ys = start_box(profile, ring, height_bound)
        box = {(ring.one, ring.zero)} | {(x, y) for x in xs for y in ys}
        for x, y in pairs - box:
            assert escape_test(profile, ring)(x, y, height(field, x, y)) is not None, (phi, x, y)
            outside += 1
    assert outside >= 5000


@pytest.fixture
def kernel_starts(monkeypatch):
    """The pairs on which `preperiodic_search` starts the orbit kernel."""
    starts = []
    make_kernel = dynamics._orbit_kernel

    def counting_kernel(*args):
        run = make_kernel(*args)

        def counted(x, y, image=None):
            starts.append((x, y))
            return run(x, y, image)

        return counted

    monkeypatch.setattr(dynamics, "_orbit_kernel", counting_kernel)
    return starts


class TestSearchStartsBelowTheRadii:
    def test_polynomial_clause_keeps_unit_denominators(self, kernel_starts):
        # infinity and the (x, 1) with |x|, or deg x, below the affine radius
        phi = ad.parse_map("z^2-2", ad.QQ)
        radius = escape_profile(phi).polynomial.radius
        res = ad.preperiodic_search(phi, 100)
        assert 0 < len(kernel_starts) <= 2 * (radius - 1) + 2
        assert res.scanned == ad.QQ.ring.count_points(100) == 12_176 and len(res.preperiodic) == 6
        kernel_starts.clear()
        phi = ad.parse_map("z^2+t", F3T)
        profile = escape_profile(phi)
        assert profile.polynomial.radius == 2 < profile.height.radius
        ad.preperiodic_search(phi, 4)
        assert 0 < len(kernel_starts) <= 3**2 + 1

    def test_height_clause_stops_the_enumeration(self, kernel_starts):
        phi = ad.parse_map("(t*z^2+1)/z", F2T)
        assert escape_profile(phi).height.radius == 4
        res = ad.preperiodic_search(phi, 6)
        assert 0 < len(kernel_starts) <= F2T.ring.count_points(3) == 129
        assert res.scanned == F2T.ring.count_points(6) == 8193

    def test_refused_height_stays_refused(self, kernel_starts):
        # z^2 dismisses every point but 0, +-1 and infinity at step 0, yet
        # (2*500 + 1)*500 + 1 points pass the default enumeration budget
        with pytest.raises(BudgetExceededError):
            ad.preperiodic_search(ad.parse_map("z^2", ad.QQ), 500)
        assert kernel_starts == []


# The polynomial clause on every [F : g_0*Y^d], checked without the
# escape profile: the search against plain iteration of every point, and
# the local escape inequalities on random steps at the places of the
# denominator bound N and at the archimedean or infinite place.


def general_polynomial_maps(rng, field, count):
    """[F : g_0*Y^d], d = 2..4, outside the unit shape: over Q rational
    coefficients and a leading one other than +-1, over F_p(t) a
    non-constant f_d or g_0."""
    maps = []
    while len(maps) < count:
        d = rng.randint(2, 4)
        if field.is_rationals:
            lower = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 8, 9))) for _ in range(d)]
            lead = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 2, 3, 4, 9)))
            if abs(lead) == 1:
                continue
            den = math.lcm(*(c.denominator for c in lower + [lead]))
            fco = [int(c * den) for c in lower + [lead]]
            gco = [den] + [0] * d
        else:
            p = field.char
            fco = [random_poly(rng, p, 2) for _ in range(d)] + [random_poly(rng, p, 3) or (1,)]
            g0 = random_poly(rng, p, 3) or (1,)
            if len(fco[d]) < 2 and len(g0) < 2:
                continue
            gco = [g0] + [()] * d
        maps.append(ad.make_map(field, fco, gco))
    return maps


def reference_primes(field, a):
    """The primes of a != 0 by trial division (over Q) or by the
    brute-force monic irreducibles (over F_p[t])."""
    if field.is_rationals:
        return [q for q in range(2, abs(a) + 1) if a % q == 0 and trial_division_is_prime(q)]
    p = field.char
    return [pi for n in range(1, len(a)) for pi in sorted(brute_monic_irreducibles(p, n))
            if not schoolbook_pdivmod(p, a, pi)[1]]


def reference_ord(field, a, pi):
    if field.is_rationals:
        return reference_ord_int(a, pi)
    return reference_ord_poly(field.char, a, pi)


def reference_clause(phi):
    """(primes of f_d, N, r) of the polynomial clause from the local bound
    m_v = min(min_i (v(a_i) - v(a_d))/(d - i), -v(a_d)/(d - 1)) in exact
    fractions, N = prod pi^max(0, -ceil(m_v)), and r the least integer
    above (|g_0| + sum |f_i|)/|f_d| (over F_p(t): one more than the
    largest deg g_0 - deg f_d, deg f_i - deg f_d, and at least 1)."""
    field, d = phi.field, phi.degree
    fd, g0 = phi.fco[d], phi.gco[0]
    primes = reference_primes(field, fd)
    n = field.ring.one
    for pi in primes:
        v = lambda c: reference_ord(field, c, pi)  # noqa: E731
        m = min([Fraction(v(c) - v(fd), d - i) for i, c in enumerate(phi.fco[:d]) if c]
                + [Fraction(v(g0) - v(fd), d - 1)])
        for _ in range(max(0, -math.ceil(m))):
            n = n * pi if field.is_rationals else schoolbook_pmul(field.char, n, pi)
    if field.is_rationals:
        r = math.floor(Fraction(abs(g0) + sum(map(abs, phi.fco[:d])), fd)) + 1
    else:
        r = max(1, max(len(c) for c in phi.fco[:d] + (g0,)) - len(fd) + 1)
    return primes, n, r


POLY_FIELDS = [ad.QQ, F2T, F3T]


def plain_preperiodic(phi, height_bound):
    """{start: (tail, cycle)} of every point of height <= height_bound that
    plain iteration, with no escape test, finds preperiodic."""
    field = phi.field
    cap = 10**40 if field.is_rationals else 40
    want = {}
    for x, y in brute_points(field.char, height_bound):
        truth = brute_force_orbit(phi, ad.ProjPoint(field, x, y), steps=80, cap=cap)
        if truth is not None:
            want[x, y] = truth
    return want


def reported(res):
    """The preperiodic orbits of a SearchResult as plain_preperiodic lists them."""
    return {
        (r.start.x, r.start.y): ([(q.x, q.y) for q in r.tail], [(q.x, q.y) for q in r.cycle])
        for r in res.preperiodic
    }


# polynomial maps outside the unit shape with many preperiodic points
RICH_POLYNOMIALS = {
    ad.QQ: ["z^2-29/16", "z^2-3/4", "2*z^2-1", "4*z^3-3*z", "3*z^2/2-1/2"],
    F2T: ["t*z^2", "(t+1)*z^2", "(z^2+z)/t"],
    F3T: ["t*z^2", "t*z^2-z", "(z^2-1)/t"],
}


@pytest.mark.parametrize("field, height_bound", [(ad.QQ, 12), (F2T, 3), (F3T, 2)], ids=str)
def test_polynomial_search_matches_plain_iteration(field, height_bound):
    rng = random.Random(381 + field.char)
    maps = [ad.parse_map(e, field) for e in RICH_POLYNOMIALS[field]]
    maps += general_polynomial_maps(rng, field, 8)
    found = beyond_infinity = above_one = 0
    for phi in maps:
        proof = escape_profile(phi).polynomial
        above_one += proof.denominator != field.ring.one
        res = ad.preperiodic_search(phi, height_bound)
        want = plain_preperiodic(phi, height_bound)
        assert reported(res) == want and res.undecided == (), phi
        found += len(want)
        beyond_infinity += len(want) > 1
    assert above_one >= 3 and beyond_infinity >= 6 and found >= 30


@pytest.mark.parametrize("field", POLY_FIELDS, ids=str)
def test_polynomial_escape_inequalities(field):
    rng = random.Random(391 + field.char)
    ring, p = field.ring, field.char
    extra = [2, 3, 5, 7] if field.is_rationals else sorted(brute_monic_irreducibles(p, 1))
    steps = finite = infinite = above_one = 0
    for phi in general_polynomial_maps(rng, field, 40):
        d, proof = phi.degree, escape_profile(phi).polynomial
        fd, g0 = phi.fco[d], phi.gco[0]
        primes, n, r = reference_clause(phi)
        assert (proof.denominator, proof.radius) == (n, r), phi
        above_one += n != ring.one
        for _ in range(120):
            y = ring.one
            for pi in primes + [rng.choice(extra)]:
                for _ in range(rng.randint(0, reference_ord(field, n, pi) + 2) if pi in primes
                               else rng.randint(0, 1)):
                    y = ring.mul(y, pi)
            if field.is_rationals:
                x = rng.randint(-3 * r * y, 3 * r * y)
            else:
                x = random_poly(rng, p, len(y) + r + 1)
            if not x or ring.gcd(x, y) != ring.one:
                continue
            x1, y1 = map_step(phi, x, y)
            steps += 1
            for pi in set(primes) | set(extra):
                ey = reference_ord(field, y, pi)
                if ey > reference_ord(field, n, pi):  # y does not divide N at pi
                    v, v1 = -ey, reference_ord(field, x1, pi) - reference_ord(field, y1, pi)
                    lead = reference_ord(field, fd, pi) - reference_ord(field, g0, pi)
                    assert v1 == lead + d * v < v, (phi, x, y, pi)
                    finite += 1
            if field.is_rationals and abs(x) >= r * y:
                assert abs(Fraction(x1, y1)) > abs(Fraction(x, y)), (phi, x, y)
                infinite += 1
            elif not field.is_rationals and len(x) - len(y) >= r:  # deg z >= r
                lead = len(fd) - len(g0)
                assert len(x1) - len(y1) == lead + d * (len(x) - len(y)) > len(x) - len(y)
                infinite += 1
    assert steps >= 2000 and finite >= 500 and infinite >= 500 and above_one >= 10


def test_poonen_classification():
    # every z^2 + a/b, |a| <= 30, 1 <= b <= 30, searched at the height
    # r*N that holds its candidates (|x| < r*y, y | N): the complete
    # preperiodic set, whose size with infinity is one Poonen allows
    # (Poonen, Math. Z. 228, 1998)
    sizes = set()
    maps = {Fraction(a, b) for a in range(-30, 31) for b in range(1, 31)}
    assert len(maps) == 1111
    for c in sorted(maps):
        phi = ad.make_map(ad.QQ, [c.numerator, 0, c.denominator], [c.denominator, 0, 0])
        proof = escape_profile(phi).polynomial
        res = ad.preperiodic_search(phi, proof.radius * proof.denominator)
        assert res.undecided == (), c
        sizes.add(len(res.preperiodic))
        if c == Fraction(-29, 16):
            assert {(r.start.x, r.start.y) for r in res.preperiodic} == {
                (1, 0), *((s * x, 4) for s in (1, -1) for x in (1, 3, 5, 7))
            }
    assert sizes == {1, 3, 4, 5, 6, 7, 9}


def test_leading_coefficient_past_the_factoring_budget():
    # f_d = (10^9 + 7) * (10^9 + 9): rho needs about 5*10^4 steps to split
    # it, past DENOMINATOR_FACTOR_BUDGET, so `ring.factor` refuses f_d and N
    # is f_d, a multiple of the exact bound 10^9 + 7
    fd = (10**9 + 7) * (10**9 + 9)
    phi = ad.make_map(ad.QQ, [1, 0, fd], [fd, 0, 0])
    assert escape_profile(phi).polynomial.denominator == fd
    res = ad.preperiodic_search(phi, 20)
    assert reported(res) == plain_preperiodic(phi, 20) and res.undecided == ()
    # 1009^2 is split by trial division within the budget: N is exact
    phi = ad.make_map(ad.QQ, [1, 0, 1009**2], [1009**2, 0, 0])
    assert escape_profile(phi).polynomial.denominator == 1009
    # a leading coefficient that the budget cannot split is refused at
    # once: 2^14000 + 1, and an irreducible of degree 40 over F_2
    rng = random.Random(401)
    fd2 = ()
    while not fppoly.is_irreducible(2, fd2):
        fd2 = tuple(rng.randrange(2) for _ in range(40)) + (1,)
    start = time.perf_counter()
    for field, fd in ((ad.QQ, 2**14000 + 1), (F2T, fd2)):
        one, zero = field.ring.one, field.ring.zero
        phi = ad.make_map(field, [one, zero, fd], [one, zero, zero])
        assert escape_profile(phi).polynomial.denominator == fd
    assert time.perf_counter() - start < 0.5
