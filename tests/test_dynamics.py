import random

import pytest

import arithdyn as ad
from arithdyn import dynamics, fppoly, ratmap
from arithdyn.dynamics import Budget
from arithdyn.errors import BudgetExceededError, DomainError, PreconditionError
from arithdyn.projective import INFINITE

from conftest import (
    enumerated_pairs,
    enumerated_points,
    good_test_places,
    interpolated_polynomial_map,
    random_map,
)
from reference import brute_points, map_step, reference_decompose

F2T = ad.function_field(2)
F3T = ad.function_field(3)


def affine_points(field, *values):
    return [ad.from_affine(field.element(v)) for v in values]


class TestOrbit:
    def test_cycle_from_zero(self):
        phi = ad.parse_map("z^2-1", ad.QQ)
        rep = ad.orbit(phi, ad.from_affine(ad.QQ.zero()))
        assert rep.tail == ()
        assert [p.affine().as_fraction() for p in rep.cycle] == [0, -1]
        assert (rep.m, rep.n, rep.total) == (0, 2, 2)

    def test_tail_then_cycle(self):
        phi = ad.parse_map("z^2-1", ad.QQ)
        rep = ad.orbit(phi, ad.from_affine(ad.QQ.one()))
        assert [p.affine().as_fraction() for p in rep.tail] == [1]
        assert (rep.m, rep.n, rep.total) == (1, 2, 3)

    def test_budget_on_divergent_point(self):
        phi = ad.parse_map("z^2", ad.QQ)
        out = ad.orbit(phi, ad.from_affine(ad.QQ.element(2)), Budget(height_cap=10**6))
        assert isinstance(out, ad.ExceededBudget)
        assert out.divergent  # escape criterion proves it
        assert out.reason == "escape"

    def test_budget_without_divergence_proof(self):
        shift = ad.parse_map("z+1", ad.QQ)  # degree 1: no escape profile
        out = ad.orbit(shift, ad.from_affine(ad.QQ.zero()), Budget(max_steps=50))
        assert isinstance(out, ad.ExceededBudget)
        assert not out.divergent
        assert (out.reason, out.steps) == ("steps", 50)

    def test_budget_reason_names_the_height_cap(self):
        shift = ad.parse_map("z+1", ad.QQ)
        out = ad.orbit(shift, ad.from_affine(ad.QQ.zero()), Budget(height_cap=10))
        assert isinstance(out, ad.ExceededBudget)
        assert not out.divergent
        assert (out.reason, out.last_height) == ("height", 11)

    @pytest.mark.parametrize(
        "kwargs", [{"max_steps": 0}, {"max_steps": -3}, {"height_cap": -1}],
        ids=["zero-steps", "negative-steps", "negative-cap"],
    )
    def test_budget_refuses_what_the_cli_refuses(self, kwargs):
        # max_steps=0 once ran one step and reported steps=1
        with pytest.raises(DomainError):
            Budget(**kwargs)

    def test_smallest_budget(self):
        phi = ad.parse_map("z^2+1", ad.QQ)
        out = ad.orbit(phi, ad.from_affine(ad.QQ.zero()), Budget(max_steps=1, height_cap=0))
        assert (out.reason, out.steps, out.last_height) == ("height", 1, 1)
        out = ad.orbit(phi, ad.from_affine(ad.QQ.zero()), Budget(max_steps=1))
        assert (out.reason, out.steps, out.last_height) == ("steps", 1, 1)

    def test_function_field_cycle(self):
        phi = ad.parse_map("z^2+1", F2T)
        rep = ad.orbit(phi, ad.from_affine(F2T.zero()))
        assert (rep.m, rep.n) == (0, 2)

    def test_escape_never_fires_on_preperiodic_points(self):
        # brute-force iteration without any escape logic, as the oracle
        for c in (-2, -1, 0, 1, 2):
            phi = ad.parse_map(f"z^2{c:+d}" if c else "z^2", ad.QQ)
            for pt in enumerated_points(ad.QQ, 10):
                seen = set()
                cur = pt
                preperiodic = False
                for _ in range(60):
                    if cur in seen:
                        preperiodic = True
                        break
                    seen.add(cur)
                    cur = ad.apply_map(phi, cur)
                    if cur.height() > 10**80:
                        break
                outcome = ad.orbit(phi, pt)
                assert isinstance(outcome, ad.OrbitReport) == preperiodic

    def test_validator_rejects_tampered_report(self):
        phi = ad.parse_map("z^2-1", ad.QQ)
        rep = ad.orbit(phi, ad.from_affine(ad.QQ.zero()))
        fake = ad.OrbitReport(rep.start, rep.tail, rep.cycle + rep.cycle)
        with pytest.raises(PreconditionError):
            ad.validate_orbit_report(phi, fake)

    # z^2 - 1: 1 -> 0 -> -1 -> 0, so [1 : 1] has tail (1,) and cycle (0, -1)
    @pytest.mark.parametrize(
        "start, tail, cycle, message",
        [
            ("1", ("1", "3"), ("0", "-1"), "successor property violated"),
            ("1", ("1",), ("0",), "cycle does not close"),
            ("0", (), ("0", "-1", "0", "-1"), "repeated points"),
            ("5", ("1",), ("0", "-1"), "start is not the first point"),
        ],
    )
    def test_validator_refusals(self, start, tail, cycle, message):
        phi = ad.parse_map("z^2-1", ad.QQ)
        pt = lambda s: ad.parse_point(ad.QQ, s)  # noqa: E731
        good = ad.OrbitReport(pt("1"), (pt("1"),), (pt("0"), pt("-1")))
        ad.validate_orbit_report(phi, good)
        fake = ad.OrbitReport(pt(start), tuple(map(pt, tail)), tuple(map(pt, cycle)))
        with pytest.raises(PreconditionError, match=message):
            ad.validate_orbit_report(phi, fake)


def shaped_maps(field, rng, count):
    """Maps [F : u*Y^d], d = 2, 3 over Q and d = 2 over F_p(t), with unit
    u and unit leading coefficient of F: the unit shape, where the
    polynomial clause of escape_profile has N = 1."""
    maps = []
    while len(maps) < count:
        if field.is_rationals:
            d = rng.choice((2, 3))
            lower = [rng.randint(-6, 6) for _ in range(d)]
            fco, u = lower + [rng.choice((1, -1))], rng.choice((1, -1))
        else:
            d, p = 2, field.char
            lower = [[rng.randrange(p) for _ in range(rng.randint(1, 3))] for _ in range(d)]
            fco, u = lower + [rng.randrange(1, p)], rng.randrange(1, p)
        maps.append(ad.make_map(field, fco, [u] + [0] * d))
    return maps


class TestEscapeProfile:
    FIELDS = [ad.QQ, F2T, F3T]

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_radius_formula(self, field):
        for phi in shaped_maps(field, random.Random(71), 40):
            lower = phi.fco[:-1]
            if field.is_rationals:
                want = sum(abs(c) for c in lower) + 2
            else:
                want = max([fppoly.pdeg(c) + 1 for c in lower if c], default=1)
            proof = ad.escape_profile(phi).polynomial
            assert (proof.clause, proof.radius) == ("polynomial", want)

    @pytest.mark.parametrize(
        "field, expr",
        [
            (ad.QQ, "z+3"),
            (ad.QQ, "2*z^2+1"),
            (ad.QQ, "z^2/3"),
            (ad.QQ, "(z^2+1)/(z+1)"),
            (F2T, "t*z^2+1"),
            (F2T, "z^2/t"),
            (F3T, "(z^3+1)/(z^2+1)"),
        ],
    )
    def test_other_shapes_have_no_profile(self, field, expr):
        # degree 1 has no profile; a map of degree >= 2 has the height
        # clause, and the polynomial clause only when it is [F : g_0*Y^d]:
        # outside the unit shape its denominator bound N may exceed 1
        phi = ad.parse_map(expr, field)
        profile = ad.escape_profile(phi)
        polynomial = {"2*z^2+1": (2, 2), "z^2/3": (1, 4), "t*z^2+1": ((0, 1), 1), "z^2/t": ((1,), 2)}
        if phi.degree == 1:
            assert profile is None
            return
        assert profile.height.clause == "height" and profile.height.radius >= 1
        if expr in polynomial:
            proof = profile.polynomial
            assert proof.clause == "polynomial"
            assert (proof.denominator, proof.radius) == polynomial[expr]
        else:
            assert profile.polynomial is None

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_escaped_orbits_grow(self, field):
        # what the clause that fired claims, checked on 8 oracle steps past
        # the point where it fired.  The polynomial clause: a non-unit
        # denominator grows strictly; a unit denominator means an integral
        # point whose numerator grows (by a factor 2 at least over Q); the
        # projective height itself can drop: z^2-6 sends 5/2 to 1/4.  The
        # height clause: H(phi(P)) >= H(P)^d / c over Q and
        # h(phi(P)) >= d*h(P) - a over F_p(t), so the height grows strictly.
        ring, rng = field.ring, random.Random(72)
        integral = fractional = by_height = 0
        for phi in shaped_maps(field, rng, 12):
            d, profile = phi.degree, ad.escape_profile(phi)
            c = profile.constant
            points = enumerated_points(field, 4 if field.is_rationals else 1)
            outs = [ad.orbit(phi, pt) for pt in points]
            escaped = [o for o in outs if isinstance(o, ad.ExceededBudget) and o.divergent]
            # the oracle steps are slow on long polynomials: six per map
            for out in rng.sample(escaped, min(6, len(escaped))):
                x, y = out.start.x, out.start.y
                for _ in range(out.steps):
                    x, y = map_step(phi, x, y)
                h = max(ring.size(x), ring.size(y))
                assert h == out.last_height
                if out.proof.clause == "height":
                    by_height += 1
                    assert out.proof == profile.height and h >= out.proof.radius
                    for _ in range(8):
                        x, y = map_step(phi, x, y)
                        h1 = max(ring.size(x), ring.size(y))
                        if field.is_rationals:
                            assert h1 * c >= h**d and h1 > h
                        else:
                            assert h1 >= d * h - c and h1 > h
                        h = h1
                    continue
                assert out.proof == profile.polynomial
                if ring.is_unit(y):
                    integral += 1
                    assert ring.size(x) >= out.proof.radius
                else:
                    fractional += 1
                for _ in range(8):
                    x1, y1 = map_step(phi, x, y)
                    if ring.is_unit(y):
                        assert ring.is_unit(y1)
                        if field.is_rationals:
                            assert abs(x1) >= 2 * abs(x)
                        else:
                            assert ring.size(x1) > ring.size(x)
                    else:
                        assert ring.size(y1) > ring.size(y)
                    x, y = x1, y1
        assert integral + by_height >= 10 and fractional >= 10


class TestFunctionalGraph:
    def test_square_mod_3(self):
        g = ad.functional_graph(
            ad.reduce_map(ad.parse_map("z^2", ad.QQ), ad.prime_place(3))
        )
        assert g.successors == (0, 1, 1, 3)
        assert sorted(g.cycles) == [(0,), (1,), (3,)]
        assert g.tail_depth == (0, 0, 1, 0)

    def test_square_plus_one_mod_2(self):
        g = ad.functional_graph(
            ad.reduce_map(ad.parse_map("z^2+1", ad.QQ), ad.prime_place(2))
        )
        assert g.successors == (1, 0, 2)
        assert sorted(len(c) for c in g.cycles) == [1, 2]

    def test_square_mod_2_all_fixed(self):
        g = ad.functional_graph(
            ad.reduce_map(ad.parse_map("z^2", ad.QQ), ad.prime_place(2))
        )
        assert g.successors == (0, 1, 2)
        assert len(g.cycles) == 3

    def test_partition_invariant_random(self):
        rng = random.Random(17)
        for _ in range(30):
            field = rng.choice([ad.QQ, F2T, F3T])
            phi = random_map(field, rng, max_degree=2)
            places = [
                pl for pl in good_test_places(phi) if ad.residue_field(pl).q <= 50
            ]
            if not places:
                continue
            pl = places[0]
            g = ad.functional_graph(ad.reduce_map(phi, pl))
            q = g.rfield.q
            cycle_nodes = sum(len(c) for c in g.cycles)
            tail_nodes = sum(1 for d in g.tail_depth if d > 0)
            assert cycle_nodes + tail_nodes == q + 1
            # every node has out-degree one and the walk follows the successor table
            for code in range(q + 1):
                walk = dynamics._walk(g.successors.__getitem__, code)[0]
                for a, b in zip(walk, walk[1:]):
                    assert g.successors[a] == b

    def test_node_budget(self):
        with pytest.raises(BudgetExceededError):
            ad.functional_graph(
                ad.reduce_map(ad.parse_map("z^2", ad.QQ), ad.prime_place(101)),
                node_budget=50,
            )


def successor_lists():
    """Seeded successor lists by name: random mappings, self-loops, the two
    mixed, permutations (every node cyclic) and long chains into a 2-cycle."""
    rng = random.Random(40)
    for n in (1, 2, 3, 10, 1000):
        yield f"random-{n}", [rng.randrange(n) for _ in range(n)]
        yield f"loops-{n}", list(range(n))
        yield f"mixed-{n}", [x if rng.random() < 0.3 else rng.randrange(n) for x in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        yield f"perm-{n}", perm
    n = 100_000
    # 0 -> 1 -> ... -> n-2 <-> n-1: one walk covers every node
    yield "chain", list(range(1, n)) + [n - 2]
    # 1 <-> 0 <- 2 <- 3 <- ...: every later start takes one step
    yield "chain-reversed", [1, 0] + list(range(1, n - 1))


class TestDecompose:
    @pytest.mark.parametrize("succ", [pytest.param(s, id=name) for name, s in successor_lists()])
    def test_against_the_two_list_walk(self, succ):
        # cycles in the same order and rotation, and the same depths
        cycles, depth = dynamics._decompose(succ)
        assert (cycles, depth) == reference_decompose(succ)
        assert sum(map(len, cycles)) == depth.count(0)

    def test_depths_count_up_from_the_cycle(self):
        # 4 -> 3 -> 2 -> 0 <-> 1, and 5 -> 3
        cycles, depth = dynamics._decompose([1, 0, 0, 2, 3, 3])
        assert cycles == [(0, 1)]
        assert depth == [0, 0, 1, 2, 3, 3]


class TestReducedPeriodData:
    def test_worked_examples(self):
        phi = ad.parse_map("z^2-1", ad.QQ)
        zero = ad.from_affine(ad.QQ.zero())
        data = ad.reduced_period_data(phi, zero, ad.prime_place(3))
        assert (data.m, data.r) == (2, INFINITE)

        sq = ad.parse_map("z^2", ad.QQ)
        one = ad.from_affine(ad.QQ.one())
        data = ad.reduced_period_data(sq, one, ad.prime_place(7))
        assert (data.m, data.r) == (1, 3)  # order of 2 in F_7^*

        data = ad.reduced_period_data(sq, ad.infinity(ad.QQ), ad.prime_place(5))
        assert (data.m, data.r) == (1, INFINITE)

    def test_bad_place_rejected(self):
        phi = ad.parse_map("z^2/3", ad.QQ)
        with pytest.raises(PreconditionError):
            ad.reduced_period_data(phi, ad.infinity(ad.QQ), ad.prime_place(3))

    def test_extension_residue_field(self):
        # z^2 over F_3(t) at the degree-2 place t^2+1: the residue field is
        # F_9 and the class of t squares to 2, landing on the fixed point 1
        phi = ad.parse_map("z^2", F3T)
        place = ad.parse_place(F3T, "pi:1,0,1")
        data = ad.reduced_period_data(phi, ad.from_affine(F3T.gen()), place)
        assert data.m == 1
        assert data.r == 2  # order of the derivative value 2 in F_9^*

    def test_infinite_place_period_data(self):
        phi = ad.parse_map("z^2+1", F3T)
        place = ad.infinite_place(F3T)
        data = ad.reduced_period_data(phi, ad.infinity(F3T), place)
        assert (data.m, data.r) == (1, INFINITE)

    def test_function_field_default_degree_cap(self):
        # degree growth under a degree-one map stops at the degree cap
        scale = ad.parse_map("t*z", F3T)
        out = ad.orbit(scale, ad.from_affine(F3T.one()))
        assert isinstance(out, ad.ExceededBudget)
        assert not out.divergent
        assert out.last_height > 200


class TestCheckMst:
    def test_worked_examples(self):
        phi = ad.parse_map("z^2-1", ad.QQ)
        zero = ad.from_affine(ad.QQ.zero())
        assert ad.check_period_relation(phi, zero, 2, ad.prime_place(3)).case == "i"
        assert ad.check_period_relation(phi, zero, 2, ad.prime_place(5)).case == "i"
        sq = ad.parse_map("z^2", ad.QQ)
        one = ad.from_affine(ad.QQ.one())
        assert ad.check_period_relation(sq, one, 1, ad.prime_place(7)).case == "i"

    def test_case_ii_exists(self):
        # 1/z swaps 2 and 1/2; mod 3 they collapse to the fixed point -1,
        # whose multiplier -1 has order r = 2, so n = 2 = m * r with m = 1
        inv = ad.parse_map("1/z", ad.QQ)
        two = ad.from_affine(ad.QQ.element(2))
        verdict = ad.check_period_relation(inv, two, 2, ad.prime_place(3))
        assert (verdict.case, verdict.m, verdict.r) == ("ii", 1, 2)

    def test_case_iii_fires(self):
        # z -> -z swaps 1 and -1; mod 2 they are one fixed point with
        # multiplier -1 = 1, so m = r = 1 and n = 2 = 2^1 * m * r
        flip = ad.parse_map("-z", ad.QQ)
        one = ad.from_affine(ad.QQ.one())
        verdict = ad.check_period_relation(flip, one, 2, ad.prime_place(2))
        assert (verdict.case, verdict.e, verdict.m, verdict.r) == ("iii", 1, 1, 1)

    def test_minimality_enforced(self):
        sq = ad.parse_map("z^2", ad.QQ)
        one = ad.from_affine(ad.QQ.one())
        with pytest.raises(PreconditionError):
            ad.check_period_relation(sq, one, 2, ad.prime_place(7))  # 2 is not minimal

    def test_non_periodic_point_rejected(self):
        # 0 -> -1 -> 0 -> -1: three steps do not return to 0
        phi = ad.parse_map("z^2-1", ad.QQ)
        zero = ad.from_affine(ad.QQ.zero())
        with pytest.raises(PreconditionError, match="point is not n-periodic"):
            ad.check_period_relation(phi, zero, 3, ad.prime_place(3))

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_period_rejected(self, n):
        phi = ad.parse_map("z^2-1", ad.QQ)
        zero = ad.from_affine(ad.QQ.zero())
        with pytest.raises(PreconditionError):
            ad.check_period_relation(phi, zero, n, ad.prime_place(3))


BRUTE_HEIGHTS = [(0, 29), (2, 5), (3, 3), (5, 2), (7, 2), (11, 2)]


class TestPreperiodicSearch:
    def test_square_minus_one(self):
        res = ad.preperiodic_search(ad.parse_map("z^2-1", ad.QQ), 10)
        starts = {str(r.start) for r in res.preperiodic}
        assert starts == {"[0 : 1]", "[-1 : 1]", "[1 : 1]", "[1 : 0]"}
        assert len(res.undecided) == 0

    def test_square(self):
        res = ad.preperiodic_search(ad.parse_map("z^2", ad.QQ), 10)
        starts = {str(r.start) for r in res.preperiodic}
        assert starts == {"[0 : 1]", "[-1 : 1]", "[1 : 1]", "[1 : 0]"}
        assert len(res.undecided) == 0

    def test_function_field_char_2(self):
        res = ad.preperiodic_search(ad.parse_map("z^2+1", F2T), 2)
        starts = {str(r.start) for r in res.preperiodic}
        assert {"[0 : 1]", "[1 : 1]", "[1 : 0]"} <= starts
        assert len(res.undecided) == 0

    def test_enumeration_counts(self):
        assert sum(1 for _ in enumerated_points(ad.QQ, 2)) == 8
        assert sum(1 for _ in enumerated_points(F2T, 1)) == 9

    @pytest.mark.parametrize("p, max_height", BRUTE_HEIGHTS)
    def test_enumeration_matches_brute_force(self, monkeypatch, p, max_height):
        monkeypatch.setattr(ratmap, "ENUMERATION_BUDGET", 10**7)
        field = ad.function_field(p) if p else ad.QQ
        for H in range(1, max_height + 1):
            points = list(enumerated_pairs(field, H))
            assert len(set(points)) == len(points)
            assert set(points) == brute_points(p, H)

    @pytest.mark.parametrize("p, max_height", BRUTE_HEIGHTS)
    def test_point_count_matches_brute_force(self, p, max_height):
        # the search reports this count as `scanned` without listing the points
        ring = (ad.function_field(p) if p else ad.QQ).ring
        for H in range(1, max_height + 1):
            assert ring.count_points(H) == len(brute_points(p, H))

    def test_enumeration_budget(self, monkeypatch):
        monkeypatch.setattr(ratmap, "ENUMERATION_BUDGET", 100)
        with pytest.raises(BudgetExceededError):
            ad.preperiodic_search(ad.parse_map("z+1", ad.QQ), 100)

    def test_results_are_sorted_and_validated(self):
        res = ad.preperiodic_search(ad.parse_map("z^2-1", ad.QQ), 10)
        keys = [r.start.sort_key() for r in res.preperiodic]
        assert keys == sorted(keys)
        for rep in res.preperiodic:
            ad.validate_orbit_report(ad.parse_map("z^2-1", ad.QQ), rep)


class TestStructuralLemmas:
    """Shift invariance and tail-distance relations on built cycles."""

    def _four_cycle_map(self):
        t = F2T.gen()
        one = F2T.one()
        zero = F2T.zero()
        pts = [zero, one, t, t + one]
        images = [one, t, t + one, zero]
        return interpolated_polynomial_map(F2T, list(zip(pts, images))), [
            ad.from_affine(v) for v in pts
        ]

    def test_interpolated_four_cycle(self):
        phi, pts = self._four_cycle_map()
        rep = ad.orbit(phi, pts[0])
        assert rep.n == 4 and rep.m == 0

    def test_power_of_p_cycle_distance_relation(self):
        # cycle length 4 = p^2 in characteristic 2: the distance from the
        # base point to step 1 equals the distance to step 3 at every
        # good place
        phi, pts = self._four_cycle_map()
        dets = []
        for i in range(4):
            for j in range(i + 1, 4):
                a, b = pts[i], pts[j]
                p = F2T.char
                from arithdyn import fppoly

                det = fppoly.psub(
                    p, fppoly.pmul(p, a.x, b.y), fppoly.pmul(p, b.x, a.y)
                )
                dets.append(F2T.element(det))
        for pl in good_test_places(phi, extra_support=dets):
            d1 = ad.log_distance(pts[0], pts[1], pl)
            d3 = ad.log_distance(pts[0], pts[3], pl)
            assert d1 == d3

    def test_shift_invariance_on_cycle(self):
        phi, pts = self._four_cycle_map()
        n = 4
        for pl in good_test_places(phi):
            base = ad.log_distance(pts[1], pts[0], pl)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    for k in range(1, n):
                        lhs = ad.log_distance(pts[i], pts[j], pl)
                        rhs = ad.log_distance(
                            pts[(i + k) % n], pts[(j + k) % n], pl
                        )
                        assert lhs == rhs
                    if (i - j) % 2 == 1:  # gcd(i - j, 4) = 1
                        assert ad.log_distance(pts[i], pts[j], pl) == base

    def test_tail_distance_relation(self):
        # 0 -> -2 -> 2 -> 2 under z^2 - 2: chain to a fixed point
        phi = ad.parse_map("z^2-2", ad.QQ)
        chain = affine_points(ad.QQ, 0, -2, 2)
        rep = ad.orbit(phi, chain[0])
        assert rep.n == 1 and rep.m == 2
        p2 = ad.prime_place(2)
        d_b_a = ad.log_distance(chain[0], chain[1], p2)
        d_b_0 = ad.log_distance(chain[0], chain[2], p2)
        d_a_0 = ad.log_distance(chain[1], chain[2], p2)
        assert d_b_a == d_b_0 <= d_a_0
