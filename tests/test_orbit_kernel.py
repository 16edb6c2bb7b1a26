"""The coordinate-pair orbit kernel against the ProjPoint loop it replaced.

`reference.reference_orbit` and `reference.reference_preperiodic_search` keep
the earlier bodies of `orbit` and `preperiodic_search`: a visited dict of
ProjPoints, `escape_clause` and one `apply_map` per step, on every point
of `reference.brute_points`.  On random maps over Q (z^2 + c and the three
general families of the benchmark's sweep, several with a non-unit
resultant) and over F_2(t) and F_3(t), with step budgets of
1 to 3 and small height caps, both must give equal SearchResults and equal
outcomes of `orbit`, ExceededBudget fields included; every kind of outcome
must occur: a report, an escape by each clause, a height stop and a step
stop.
"""

import math
import random
from collections import Counter

import pytest

import arithdyn as ad
from arithdyn import fppoly
from arithdyn.dynamics import Budget
from arithdyn.errors import DegenerateMapError

from conftest import enumerated_points
from reference import reference_orbit, reference_preperiodic_search

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


def q_map(rng):
    """z^2 + c, or one of the benchmark sweep's three general families."""
    family = rng.randrange(4)
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
