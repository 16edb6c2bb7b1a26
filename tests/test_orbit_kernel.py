"""The coordinate-pair orbit kernel against the ProjPoint loop it replaced.

`reference.reference_orbit` and `reference.reference_preperiodic_search` keep
the earlier bodies of `orbit` and `preperiodic_search`: a visited dict of
ProjPoints, `escape_test` and one `apply_map` per step, on every point
of `reference.brute_points`.  On random maps over Q (z^2 + c and the three
general families of the benchmark's sweep, several with a non-unit
resultant) and over F_2(t) and F_3(t), with step budgets of
1 to 3 and small height caps, both must give equal SearchResults and equal
outcomes of `orbit`, ExceededBudget fields included; every kind of outcome
must occur: a report, an escape by each clause, a height stop and a step
stop.

The search's row pass, `ratmap.first_step_cut`, is checked pair by pair
against `pair_step`, `reference.map_step` and `escape_test` on rows over Z,
F_2[t] and F_3[t]: it drops exactly the starts whose image fires the height
clause within the cap, and hands on every other image unchanged.  At the
edges of the budget (one to three steps, caps below, among and above the
heights of the first images) the search must still equal the reference
where the cut drops starts.
"""

import math
import random
from collections import Counter

import pytest

import arithdyn as ad
from arithdyn import fppoly
from arithdyn.dynamics import Budget
from arithdyn.errors import DegenerateMapError
from arithdyn.ratmap import (
    CLAUSE_HEIGHT,
    escape_profile,
    escape_test,
    first_step_cut,
    pair_step,
    resultant_raw,
    start_box,
)

from conftest import enumerated_points
from reference import eval_form_ff, map_step, reference_orbit, reference_preperiodic_search

KINDS = {"report", "escape:height", "escape:polynomial", "height", "steps"}


def kind(outcome) -> str:
    if isinstance(outcome, ad.OrbitReport):
        return "report"
    if outcome.divergent:
        return f"escape:{outcome.proof.clause}"
    return outcome.reason


def random_budget(rng, caps):
    steps = rng.choice((1, 2, 3, 60))
    cap = rng.choice((None, None) + caps)
    return rng.choice((None, Budget(max_steps=steps, height_cap=cap), Budget(height_cap=cap)))


def q_map(rng, families=range(4)):
    """z^2 + c (family 0), or one of the benchmark sweep's three general
    families (1 to 3)."""
    family = rng.choice(families)
    if family == 0:  # z^2 + c
        c = rng.choice((rng.randint(-12, 12), rng.randint(-10**5, 10**5)))
        return (c, 0, 1), (1, 0, 0)
    if family == 1:  # z^2 + a/b^2, resultant b^8
        b = rng.choice((2, 3, 4))
        a = rng.choice([a for a in range(-9 * b * b, 9 * b * b + 1) if math.gcd(a, b) == 1])
        return (a, 0, b * b), (b * b, 0, 0)
    if family == 2:  # (z^2 + a)/(b*z)
        return (rng.choice([a for a in range(-12, 13) if a]), 0, 1), (0, rng.randint(1, 6), 0)
    while True:  # (z^2 + a)/(z + b), resultant a + b^2
        a, b = rng.randint(-12, 12), rng.randint(-12, 12)
        if a + b * b:
            return (a, 0, 1), (b, 1, 0)


def ff_map(rng, p):
    """A degree 2 or 3 map over F_p(t): every fourth one [F : u*Y^d]."""
    d = rng.choice((2, 3))
    while True:
        if rng.random() < 0.25:
            fco = [random_poly(rng, p, 3) for _ in range(d)] + [(rng.randrange(1, p),)]
            gco = [(rng.randrange(1, p),)] + [()] * d
        else:
            fco = [random_poly(rng, p, 2) for _ in range(d + 1)]
            gco = [random_poly(rng, p, 2) for _ in range(d + 1)]
        try:
            return ad.make_map(ad.function_field(p), fco, gco)
        except DegenerateMapError:
            continue


def random_poly(rng, p, max_len):
    return fppoly.ptrim([rng.randrange(p) for _ in range(rng.randint(0, max_len))])


def starts(rng, phi, height_bound, extra):
    """The enumerated points plus a few random ones of larger height."""
    field = phi.field
    pts = list(enumerated_points(field, height_bound))
    for _ in range(extra):
        if field.is_rationals:
            x, y = rng.randint(-10**4, 10**4), rng.randint(0, 10**3)
        else:
            x, y = random_poly(rng, field.char, 6), random_poly(rng, field.char, 6)
        if x or y:
            pts.append(ad.point_from_raw(field, x, y))
    return pts


def compare(rng, phi, height_bound, caps, seen: Counter):
    budget = random_budget(rng, caps)
    want = reference_preperiodic_search(phi, height_bound, budget)
    assert ad.preperiodic_search(phi, height_bound, budget) == want, phi
    for pt in starts(rng, phi, height_bound, 3):
        got = ad.orbit(phi, pt, budget)
        assert got == reference_orbit(phi, pt, budget), (phi, pt, budget)
        seen[kind(got)] += 1


def test_kernel_matches_reference_over_q():
    rng = random.Random(1401)
    seen = Counter()
    maps = set()
    while len(maps) < 520:
        maps.add(ad.make_map(ad.QQ, *q_map(rng)))
    assert sum(not ad.QQ.ring.is_unit(ad.ratmap.resultant_raw(phi)) for phi in maps) >= 100
    for phi in sorted(maps, key=str):
        compare(rng, phi, rng.choice((1, 2, 3)), (0, 3, 50, 10**4), seen)
    assert set(seen) == KINDS, seen


@pytest.mark.parametrize("p", [2, 3])
def test_kernel_matches_reference_over_fpt(p):
    rng = random.Random(1402 + p)
    seen = Counter()
    for _ in range(110):
        compare(rng, ff_map(rng, p), 1, (0, 2, 5, 12), seen)
    assert set(seen) == KINDS, seen


@pytest.mark.parametrize("field", [ad.QQ, ad.function_field(3)], ids=str)
def test_search_counts_match_on_bigger_scans(field):
    # the default budget and larger scans, where orbits run to a revisit,
    # an escape or the default cap
    rng = random.Random(1405 + field.char)
    for _ in range(8):
        phi = ad.make_map(field, *q_map(rng)) if field.is_rationals else ff_map(rng, 3)
        height_bound = 6 if field.is_rationals else 2
        assert ad.preperiodic_search(phi, height_bound) == reference_preperiodic_search(
            phi, height_bound
        )


# ---------------------------------------------------------------------------
# the first-step cut of the search

F2T, F3T = ad.function_field(2), ad.function_field(3)

# maps with a zero of F or G at a small point, besides the random ones
CUT_MAPS = {
    0: ["(z^2-4)/(3*z+1)", "(z^2+2)/(5*z)", "z^2-1", "(2*z^2-3)/(z^2+z)"],
    2: ["(z^2+t^2)/(t*z+1)", "z^2+t", "(z^2+t)/(z^2+z)"],
    3: ["(z^2-t^2)/(t*z+1)", "(2*z^2+t)/(z+t)", "z^2+t"],
}


def raw_values(phi, x, y):
    """(F(x, y), G(x, y)) from explicit monomial sums."""
    p, d = phi.field.char, phi.degree
    if p:
        return eval_form_ff(p, phi.fco, x, y), eval_form_ff(p, phi.gco, x, y)
    return tuple(sum(c * x**i * y ** (d - i) for i, c in enumerate(co)) for co in (phi.fco, phi.gco))


def box_rows(phi, height_bound):
    """The rows (xs, y) of phi's start box: the x coprime to y."""
    ring = phi.field.ring
    xs, ys = start_box(escape_profile(phi), ring, height_bound)
    return [([x for x in xs if ring.gcd(x, y) == ring.one], y) for y in ys]


def check_cut(phi, cap, rows, seen: Counter):
    """first_step_cut on every row against pair_step, map_step and escape_test."""
    ring = phi.field.ring
    size = ring.size
    profile = escape_profile(phi)
    cut = first_step_cut(phi, profile, cap)
    assert cut is not None, phi
    step, test = pair_step(phi), escape_test(profile, ring)
    seen["unit Res" if ring.is_unit(resultant_raw(phi)) else "non-unit Res"] += 1
    for xs, y in rows:
        out = cut(xs, y)
        kept = dict(out)
        assert [x for x, _ in out] == [x for x in xs if x in kept]
        for x in xs:
            image = step(x, y)
            assert image == map_step(phi, x, y), (phi, x, y)
            h = max(size(image[0]), size(image[1]))
            proof = test(*image, h)
            fires = proof is not None and proof.clause == CLAUSE_HEIGHT
            if x in kept:
                assert kept[x] == image, (phi, x, y)
                assert not (fires and h <= cap), (phi, x, y, cap)
                seen["kept above the cap" if fires else "kept"] += 1
            else:
                assert fires and h <= cap, (phi, x, y, cap)
                seen["dropped"] += 1
            f, g = raw_values(phi, x, y)
            seen["F(P) = 0"] += not f
            seen["G(P) = 0, image at infinity"] += not g and image[1] == ring.zero
            seen["G(P) needs a unit"] += bool(g) and ring.unit_inverse(g) != 1


@pytest.mark.parametrize("field", [ad.QQ, F2T, F3T], ids=str)
def test_first_step_cut_against_pair_step(field):
    rng = random.Random(1411 + field.char)
    p = field.char
    maps = [ad.parse_map(text, field) for text in CUT_MAPS[p]]
    while len(maps) < 24:
        maps.append(ad.make_map(field, *q_map(rng)) if not p else ff_map(rng, p))
    seen = Counter()
    for phi in maps:
        ring = field.ring
        xs, ys = ring.upto(12 if not p else 2, 10**6)
        rows = [([x for x in xs if ring.gcd(x, y) == ring.one], y) for y in ys[:6]]
        for cap in (0, rng.randrange(1, 400 if not p else 8), ring.height_cap):
            check_cut(phi, cap, rows, seen)
    want = {
        "unit Res", "non-unit Res", "kept", "kept above the cap", "dropped",
        "F(P) = 0", "G(P) = 0, image at infinity",
    }
    if p != 2:  # F_2 has no unit but 1
        want.add("G(P) needs a unit")
    assert want <= {k for k, v in seen.items() if v}, seen


def first_image_heights(phi, rows) -> list:
    ring = phi.field.ring
    step = pair_step(phi)
    return sorted(max(map(ring.size, step(x, y))) for xs, y in rows for x in xs)


@pytest.mark.parametrize("field", [ad.QQ, F2T, F3T], ids=str)
def test_search_at_the_budget_edges(field):
    # step budgets of 1 to 3 and caps below, among and above the heights
    # of the first images, on maps whose cut drops starts
    rng = random.Random(1421 + field.char)
    p = field.char
    seen = Counter()
    for _ in range(10 if not p else 8):
        if p:
            phi, height_bound = ff_map(rng, p), 2
        else:
            phi, height_bound = ad.make_map(field, *q_map(rng, (1, 2, 3))), rng.choice((8, 10, 12))
        rows = box_rows(phi, height_bound)
        heights = first_image_heights(phi, rows)
        caps = (max(heights[0] - 1, 0), heights[len(heights) // 2], heights[-1], None)
        for steps in (1, 2, 3):
            for cap in caps:
                budget = Budget(max_steps=steps, height_cap=cap)
                want = reference_preperiodic_search(phi, height_bound, budget)
                assert ad.preperiodic_search(phi, height_bound, budget) == want, (phi, budget)
                cut = first_step_cut(phi, escape_profile(phi), budget.cap_for(field))
                dropped = sum(len(xs) - len(cut(xs, y)) for xs, y in rows)
                if dropped:
                    seen["one step" if steps == 1 else "cut drops"] += 1
                elif cap is not None and cap < heights[-1]:
                    # no drop under this cap, but one under the ring's cap
                    uncapped = first_step_cut(phi, escape_profile(phi), field.ring.height_cap)
                    if any(len(uncapped(xs, y)) < len(xs) for xs, y in rows):
                        seen["cap keeps"] += 1
    assert {"one step", "cut drops", "cap keeps"} <= set(seen), seen
