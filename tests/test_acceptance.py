"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line with its timing
when it succeeds (visible with `pytest -s` or in the captured output).
The quadratic-family sweep feeding criteria 1, 6, 8 and 10 is computed
once as a module fixture.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import arithdyn as ad
from arithdyn import fppoly
from arithdyn.bounds import BoundContext
from arithdyn.fields import iter_places_by_size

from conftest import (
    good_test_places,
    interpolated_polynomial_map,
    multiplier_sign,
    random_map,
    random_point,
)

PRIMES_UNDER_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _announce(number: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {detail}")


@pytest.fixture(scope="module")
def quad_sweep():
    """preperiodic_search for z^2 + c, |c| <= 50, at height 100."""
    t0 = time.monotonic()
    results = {}
    for c in range(-50, 51):
        expr = f"z^2{c:+d}" if c else "z^2"
        phi = ad.parse_map(expr, ad.QQ)
        results[c] = (phi, ad.preperiodic_search(phi, 100))
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def ff_sweeps():
    """Small exhaustive searches over F_2(t) and F_3(t)."""
    corpus = []
    exprs = {
        2: ["z^2", "z^2+1", "z^2+t", "z^2+t+1", "z^2/t", "(t*z^2+1)/z"],
        3: ["z^2", "z^2+1", "z^2+2", "z^2+t", "z^2+2*t+1", "2*z^2+t"],
    }
    for p, items in exprs.items():
        field = ad.function_field(p)
        for expr in items:
            phi = ad.parse_map(expr, field)
            S_places = set(ad.bad_places(phi)) | {ad.infinite_place(field)}
            S = ad.place_set(field, S_places)
            ctx = BoundContext(p, 1, S.size)
            res = ad.preperiodic_search(phi, 2)
            corpus.append((phi, S, ctx, res))
    return corpus


def test_criterion_1_everywhere_good_quadratic_sweep(quad_sweep):
    results, elapsed = quad_sweep
    max_cycle = 0
    max_orbit = 0
    orbits = 0
    for _, (phi, res) in results.items():
        for rep in res.preperiodic:
            orbits += 1
            max_cycle = max(max_cycle, rep.n)
            max_orbit = max(max_orbit, rep.total)
            assert rep.n <= 3
            assert rep.total <= 12
    assert max_cycle >= 2  # witness c = -1: the cycle {0, -1}
    assert elapsed < 120
    _announce(
        1,
        elapsed,
        f"{orbits} finite orbits across 101 maps; max cycle {max_cycle}, "
        f"max orbit {max_orbit}",
    )


def test_criterion_2_irreducible_counts():
    t0 = time.monotonic()
    for p in (2, 3, 5):
        enumerated = ad.fppoly.enumerate_monic_irreducibles(p, 6)
        by_degree = {}
        for f in enumerated:
            by_degree.setdefault(fppoly.pdeg(f), []).append(f)
        for n in range(1, 7):
            assert len(by_degree.get(n, [])) == ad.count_irreducibles(p, n)
    cumulative = sum(ad.count_irreducibles(2, n) for n in range(1, 5))
    assert cumulative == 8
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    _announce(2, elapsed, "Moebius counts match enumeration, p in {2,3,5}, n <= 6")


def test_criterion_3_small_prime_constructive():
    t0 = time.monotonic()
    total_classes = 0
    for p in (2, 3, 5):
        field = ad.function_field(p)
        pool = [ad.infinite_place(field)] + [
            ad.irreducible_place(field, f)
            for f in ad.enumerate_monic_irreducibles(field.char, 3)
        ]
        pool_set = set(pool)
        scan = list(itertools.islice(iter_places_by_size(field), 8))
        first7 = scan[:7]
        pool_scan = [pl for pl in first7 if pl in pool_set]
        outside = len(pool) - len(pool_scan)
        # Every S with |S| <= 6 has its returned place among the first 7
        # scanned candidates, determined solely by T = S intersect first7;
        # iterating over all (T, |S|) classes therefore covers every S.
        for r in range(len(pool_scan) + 1):
            for T in itertools.combinations(pool_scan, r):
                T_set = set(T)
                for s in range(max(1, r), 7):
                    if s - r > outside:
                        continue
                    answer = next(pl for pl in scan if pl not in T_set)
                    assert answer.residue_size() <= (p * s) ** 2 - 1
                    total_classes += 1
        # literal brute force for the two small pools validates the quotient
        if p in (2, 3):
            for s in range(1, 7):
                for combo in itertools.combinations(pool, s):
                    S = ad.place_set(field, combo)
                    got = ad.find_small_prime_outside(S)
                    assert got.residue_size() <= (p * s) ** 2 - 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _announce(
        3,
        elapsed,
        f"every S (p in 2,3,5; |S| <= 6) via {total_classes} trace classes "
        "+ literal brute force for p in {2,3}",
    )


def test_criterion_4_bound_spot_checks():
    t0 = time.monotonic()
    bs = ad.compute_bounds(BoundContext(2, 1, 1))
    assert (bs.eta, bs.cycle_bound, bs.i_bound, bs.r_bound) == (64, 60, 3, 1)
    # independent second route, written out digit by digit
    assert bs.eta == 2**4 * max(2**2, 2**2) == 64
    assert bs.cycle_bound == (2**4 - 1) * 4 == 60
    assert bs.i_bound == 2**2 - 1 == 3
    assert bs.r_bound == (2**0 * (2**0 + 2 - 2)) // (2 - 1) == 1

    bs2 = ad.compute_bounds(BoundContext(3, 1, 2))
    assert bs2.i_bound == 35 == 6**2 - 1
    assert bs2.r_bound == 45 == (9 * 10) // 2
    elapsed = time.monotonic() - t0
    _announce(4, elapsed, "(2,1,1) -> (64, 60, 3, 1); (3,1,2) -> i 35, r 45")


def _pair_support_places(field, points, phi):
    values = []
    for a, b in itertools.combinations(points, 2):
        if field.is_rationals:
            det = a.x * b.y - b.x * a.y
        else:
            p = field.char
            det = fppoly.psub(p, fppoly.pmul(p, a.x, b.y), fppoly.pmul(p, b.x, a.y))
        if det != 0 and det != ():
            values.append(field.element(det))
    return good_test_places(phi, extra_support=values)


def test_criterion_5_divisibility_property_suite(quad_sweep):
    t0 = time.monotonic()
    rng = random.Random(424242)
    fields = [ad.QQ, ad.function_field(2), ad.function_field(3), ad.function_field(5)]
    instances = 0

    # triangle inequality of the logarithmic distance (point triples)
    for _ in range(160):
        field = rng.choice(fields)
        phi = random_map(field, rng, max_degree=2)
        pts = [random_point(field, rng) for _ in range(3)]
        if len({pts[0], pts[1], pts[2]}) < 3:
            continue
        for pl in _pair_support_places(field, pts, phi)[:4]:
            d02 = ad.log_distance(pts[0], pts[2], pl)
            d01 = ad.log_distance(pts[0], pts[1], pl)
            d12 = ad.log_distance(pts[1], pts[2], pl)
            assert d02 >= min(d01, d12)
            instances += 1

    # non-expansion under maps of good reduction (point pairs)
    for _ in range(200):
        field = rng.choice(fields)
        phi = random_map(field, rng, max_degree=3)
        a, b = random_point(field, rng), random_point(field, rng)
        if a == b:
            continue
        fa, fb = ad.apply_map(phi, a), ad.apply_map(phi, b)
        for pl in _pair_support_places(field, [a, b], phi)[:4]:
            before = ad.log_distance(a, b, pl)
            after = ad.log_distance(fa, fb, pl) if fa != fb else ad.INFINITE
            assert after >= before
            instances += 1

    # periodic shift invariance on constructed cycles and swept 2-cycles
    cycle_sources = []
    for field in fields:
        pool = _small_field_values(field)
        for size in (3, 4):
            pts = pool[:size]
            images = pts[1:] + pts[:1]
            try:
                phi = interpolated_polynomial_map(field, list(zip(pts, images)))
            except (ad.DegenerateMapError, ValueError):
                continue
            cycle = [ad.from_affine(v) for v in pts]
            cycle_sources.append((phi, cycle))
    results, _ = quad_sweep
    for c in range(-50, 51):
        phi, res = results[c]
        for rep in res.preperiodic:
            if rep.n >= 2 and rep.m == 0:
                cycle_sources.append((phi, list(rep.cycle)))
                break
    for phi, cycle in cycle_sources:
        n = len(cycle)
        rep = ad.orbit(phi, cycle[0])
        assert isinstance(rep, ad.OrbitReport) and rep.n == n
        for pl in _pair_support_places(phi.field, cycle, phi)[:5]:
            base = ad.log_distance(cycle[1], cycle[0], pl)
            ok = True
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    d = ad.log_distance(cycle[i], cycle[j], pl)
                    for k in range(1, n):
                        ok = ok and d == ad.log_distance(
                            cycle[(i + k) % n], cycle[(j + k) % n], pl
                        )
                    if math.gcd(i - j, n) == 1:
                        ok = ok and d == base
            assert ok
            instances += 1

    # tail chains into a fixed point of an iterate
    tail_sources = []
    for c in range(-50, 51):
        phi, res = results[c]
        for rep in res.preperiodic:
            if rep.m >= 2:
                tail_sources.append((phi, rep))
    for field in fields[1:]:
        pool = _small_field_values(field)
        a0, a1, a2 = pool[0], pool[1], pool[2]
        try:
            phi = interpolated_polynomial_map(
                field, [(a0, a1), (a1, a2), (a2, a2), (pool[3], pool[0])]
            )
        except (ad.DegenerateMapError, ValueError):
            continue
        rep = ad.orbit(phi, ad.from_affine(a0))
        if isinstance(rep, ad.OrbitReport) and rep.m >= 2:
            tail_sources.append((phi, rep))
    for phi, rep in tail_sources:
        n = rep.n
        chain = [rep.start]
        current = rep.start
        while True:
            nxt = ad.iterate_map(phi, current, n)
            if nxt == current:
                break
            chain.append(nxt)
            current = nxt
        L = len(chain) - 1
        if L < 2:
            continue
        for pl in _pair_support_places(phi.field, chain, phi)[:5]:
            for b in range(2, L + 1):
                for a in range(1, b):
                    d_ba = ad.log_distance(chain[L - b], chain[L - a], pl)
                    d_b0 = ad.log_distance(chain[L - b], chain[L], pl)
                    d_a0 = ad.log_distance(chain[L - a], chain[L], pl)
                    assert d_ba == d_b0 <= d_a0
            instances += 1

    elapsed = time.monotonic() - t0
    assert instances >= 1000, f"only {instances} instances"
    assert elapsed < 60
    _announce(5, elapsed, f"{instances} randomized instances, zero violations")


def _small_field_values(field):
    if field.is_rationals:
        return [field.element(v) for v in (0, 1, -1, 2, -2, 3)]
    t = field.gen()
    one = field.one()
    vals = [field.zero(), one, t, t + one, t * t, t * t + one]
    if field.char > 2:
        vals.insert(2, one + one)
    return vals


def test_criterion_6_period_relations(quad_sweep):
    results, _ = quad_sweep
    t0 = time.monotonic()
    checks = 0
    for c, (phi, res) in results.items():
        seen_cycles = set()
        for rep in res.preperiodic:
            key = frozenset(rep.cycle)
            if key in seen_cycles:
                continue
            seen_cycles.add(key)
            for pt in rep.cycle:
                for p in PRIMES_UNDER_50:
                    verdict = ad.check_period_relation(phi, pt, rep.n, ad.prime_place(p))
                    assert verdict.case != "violation", (c, str(pt), p, verdict)
                    if verdict.r == ad.INFINITE:
                        assert verdict.case == "i"
                    checks += 1
    elapsed = time.monotonic() - t0
    _announce(6, elapsed, f"{checks} period-relation checks, all in cases i/ii/iii")


def test_criterion_7_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(777)
    fields = [ad.QQ] * 60 + [
        ad.function_field(p) for p in (2, 3, 5) for _ in range(14)
    ]
    maps_checked = 0
    for field in fields[:100]:
        phi = random_map(field, rng, max_degree=3)
        place = _good_place_with_small_residue(phi, rng)
        if place is None:
            continue
        psi = ad.reduce_map(phi, place)
        graph = ad.functional_graph(psi)
        rf = graph.rfield
        q = rf.q
        assert q + 1 <= 200
        for code in range(q + 1):
            lift = _lift_reduced_point(phi.field, place, rf, code)
            assert ad.reduce_point(lift, place) == code
            image = ad.apply_map(phi, lift)
            assert graph.successors[code] == ad.reduce_point(image, place)
        # a short exact orbit, reduced step by step, must walk the graph
        start = _lift_reduced_point(phi.field, place, rf, rng.randrange(q + 1))
        walk = [ad.reduce_point(start, place)]
        current = start
        for _ in range(3):
            current = ad.apply_map(phi, current)
            walk.append(ad.reduce_point(current, place))
        for a, b in zip(walk, walk[1:]):
            assert graph.successors[a] == b
        maps_checked += 1
    elapsed = time.monotonic() - t0
    assert maps_checked == 100
    _announce(
        7, elapsed, f"{maps_checked} maps: graphs match exact reduction at every node"
    )


def _good_place_with_small_residue(phi, rng):
    field = phi.field
    bad = ad.bad_places(phi)
    if field.is_rationals:
        primes = [q for q in PRIMES_UNDER_50 + [53, 59, 61, 67, 71, 97, 127, 199] if q + 1 <= 200]
        rng.shuffle(primes)
        for q in primes:
            pl = ad.prime_place(q)
            if pl not in bad:
                return pl
        return None
    candidates = [ad.infinite_place(field)] + [
        ad.irreducible_place(field, f)
        for f in ad.enumerate_monic_irreducibles(field.char, 3)
    ]
    candidates = [
        pl for pl in candidates if pl not in bad and pl.residue_size() + 1 <= 200
    ]
    if not candidates:
        return None
    return rng.choice(candidates)


def _lift_reduced_point(field, place, rf, code):
    if code == rf.q:
        return ad.infinity(field)
    if field.is_rationals:
        return ad.point_from_raw(field, code, 1)
    if place.kind == "inf":
        return ad.point_from_raw(field, (code,), (1,))
    coeffs = fppoly.pfromcode(field.char, code)
    return ad.point_from_raw(field, coeffs if coeffs else (), (1,))


def test_criterion_8_classification_suite(quad_sweep):
    results, _ = quad_sweep
    t0 = time.monotonic()
    classified = 0
    for c, (phi, res) in results.items():
        for rep in res.preperiodic:
            for p in PRIMES_UNDER_50:
                pl = ad.prime_place(p)
                sign = multiplier_sign(phi, rep.cycle[0], rep.n, pl)
                assert sign >= 0  # never repelling
                classified += 1
                if sign > 0:  # attracting
                    reductions = [ad.reduce_point(q, pl) for q in rep.cycle]
                    assert len(set(reductions)) == len(reductions)
                else:
                    tails = [ad.reduce_point(q, pl) for q in rep.tail]
                    assert len(set(tails)) == len(tails)
    elapsed = time.monotonic() - t0
    _announce(
        8,
        elapsed,
        f"{classified} classifications: never repelling, injective reductions",
    )


def test_criterion_9_unit_equation_bounds():
    t0 = time.monotonic()
    instances = []
    for p in (2, 3):
        field = ad.function_field(p)
        irreducibles = ad.enumerate_monic_irreducibles(field.char, 3)
        one = field.one()
        t = field.gen()
        for pi in irreducibles[:6]:
            S = ad.place_set(
                field,
                [ad.infinite_place(field), ad.irreducible_place(field, pi)],
            )
            candidates = [
                field.element(pi) + one,
                t * t + t + one,
                field.element((1, 1)),
                t * t + one,
                t * (t + one) + one,
            ]
            for a in candidates:
                if a.is_zero or ad.is_s_trivial(a, one, S):
                    continue
                instances.append(ad.UnitEquationInstance(a, one, S, 10))
    # exactly twenty non-trivial instances, ten per characteristic
    by_char = {2: [], 3: []}
    for inst in instances:
        by_char[inst.S.field.char].append(inst)
    chosen = by_char[2][:10] + by_char[3][:10]
    assert len(chosen) == 20
    for inst in chosen:
        report = ad.unit_equation_report(inst)
        assert not report.s_trivial
        expected_bound = ad.unit_equation_solution_bound(inst.S.field.char, 2)
        assert report.bound == expected_bound
        assert len(report.solutions) <= expected_bound

    # over Q: x + y = 1 for S = {inf, 2, 3} at cap 8
    S = ad.place_set(
        ad.QQ, [ad.archimedean_place(), ad.prime_place(2), ad.prime_place(3)]
    )
    inst = ad.UnitEquationInstance(ad.QQ.one(), ad.QQ.one(), S, 8)
    sols = ad.solve_unit_equation(inst)
    assert len(sols) <= 2 ** (8 * 5)
    found = {(x.as_fraction(), y.as_fraction()) for x, y in sols}
    known = [
        (2, -1), (-1, 2), (4, -3), (3, -2), (9, -8),
        (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1, 9), Fraction(8, 9)), (Fraction(-1, 3), Fraction(4, 3)),
        (Fraction(3, 4), Fraction(1, 4)),
    ]
    for pair in known:
        assert pair in found and (pair[1], pair[0]) in found
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _announce(
        9,
        elapsed,
        f"20 non-trivial instances within r(p,2); {len(sols)} rational "
        "solutions at cap 8 include all known pairs",
    )


def test_criterion_10_bound_compliance_everywhere(quad_sweep, ff_sweeps):
    results, _ = quad_sweep
    t0 = time.monotonic()
    S_q = ad.place_set(ad.QQ, [ad.archimedean_place()])
    ctx_q = BoundContext(0, 1, 1)
    verified = 0
    for c, (phi, res) in results.items():
        for rep in res.preperiodic:
            for check in ad.verify_report(rep, phi, ctx_q, S_q):
                assert check.passed, (c, check)
                verified += 1
    for phi, S, ctx, res in ff_sweeps:
        for rep in res.preperiodic:
            for check in ad.verify_report(rep, phi, ctx, S):
                assert check.passed, (str(phi), check)
                verified += 1
    elapsed = time.monotonic() - t0
    assert verified > 0
    _announce(
        10,
        elapsed,
        f"{verified} bound checks pass on every orbit from all sweeps "
        "(both base fields)",
    )
