import random

import pytest
from hypothesis import HealthCheck, settings

import arithdyn as ad
from arithdyn import ratmap, residue
from reference import clear_denominators

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def interpolated_polynomial_map(field, pairs) -> ad.RationalMap:
    """The polynomial map with f(x_i) = y_i (Lagrange), as a RationalMap.

    `pairs` is a list of (x, y) GlobalFieldElements with distinct x.
    """
    n = len(pairs)
    zero, one = field.zero(), field.one()
    coeffs = [zero] * n
    for i, (xi, yi) in enumerate(pairs):
        # basis polynomial prod_{j != i} (z - x_j) / (x_i - x_j)
        basis = [one]
        denom = one
        for j, (xj, _) in enumerate(pairs):
            if j == i:
                continue
            new = [zero] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] = new[k] - c * xj
                new[k + 1] = new[k + 1] + c
            basis = new
            denom = denom * (xi - xj)
        scale = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] = coeffs[k] + scale * c
    while len(coeffs) > 1 and coeffs[-1].is_zero:
        coeffs.pop()
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("interpolation degenerated to a constant")
    gk = [zero] * (d + 1)
    gk[0] = one
    cleared = clear_denominators(field, coeffs + gk)
    return ad.make_map(field, cleared[: d + 1], cleared[d + 1 :])


def random_map(field, rng: random.Random, max_degree: int = 3) -> ad.RationalMap:
    """A random valid map with small coefficients."""
    while True:
        d = rng.randint(1, max_degree)
        if field.is_rationals:
            fco = [rng.randint(-4, 4) for _ in range(d + 1)]
            gco = [rng.randint(-4, 4) for _ in range(d + 1)]
        else:
            p = field.char
            fco = [
                tuple(rng.randrange(p) for _ in range(rng.randint(1, 2)))
                for _ in range(d + 1)
            ]
            gco = [
                tuple(rng.randrange(p) for _ in range(rng.randint(1, 2)))
                for _ in range(d + 1)
            ]
        try:
            return ad.make_map(field, fco, gco)
        except (ad.DegenerateMapError, ad.DomainError):
            continue


def random_point(field, rng: random.Random, height: int = 6) -> ad.ProjPoint:
    if field.is_rationals:
        while True:
            x = rng.randint(-height, height)
            y = rng.randint(0, height)
            if x or y:
                return ad.point_from_raw(field, x, y)
    p = field.char
    while True:
        x = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3)))
        y = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3)))
        if any(x) or any(y):
            return ad.point_from_raw(field, x, y)


def enumerated_pairs(field, height_bound: int):
    """The canonical pair of every point of height <= height_bound, in the
    search's order without an escape profile: infinity, then row by row
    the coprime pairs of `ratmap.start_box`."""
    ring = field.ring
    xs, ys = ratmap.start_box(None, ring, height_bound)
    yield ring.one, ring.zero
    for y in ys:
        for x in xs:
            if ring.gcd(x, y) == ring.one:
                yield x, y


def enumerated_points(field, height_bound: int):
    """The points of `enumerated_pairs`."""
    for x, y in enumerated_pairs(field, height_bound):
        yield ad.ProjPoint(field, x, y)


def multiplier_sign(phi, point, n: int, place) -> int:
    """The sign of v(multiplier) of an n-periodic point at a place: 1
    attracting (a zero multiplier has valuation +infinity), 0 indifferent,
    -1 repelling."""
    lam = ad.multiplier(phi, point, n)
    if lam.is_zero:
        return 1
    v = ad.valuation(lam, place)
    return (v > 0) - (v < 0)


def good_test_places(phi: ad.RationalMap, extra_support=()):
    """A deterministic batch of good-reduction places for a map.

    Includes small fixed places plus the support of any provided nonzero
    integral values (so that positive-distance cases actually occur).
    """
    field = phi.field
    bad = ad.bad_places(phi)
    places = []
    if field.is_rationals:
        places.extend(ad.prime_place(q) for q in (2, 3, 5, 7, 11, 13))
    else:
        places.append(ad.infinite_place(field))
        places.extend(
            ad.irreducible_place(field, f)
            for f in ad.enumerate_monic_irreducibles(field.char, 2)
        )
    for value in extra_support:
        if value.is_zero:
            continue
        places.extend(ad.support(value))
    seen = set()
    out = []
    for pl in places:
        if pl not in seen and pl not in bad and not pl.is_archimedean:
            seen.add(pl)
            out.append(pl)
    return out


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260810)


@pytest.fixture(params=["tables", "polynomial"])
def arithmetic(request, monkeypatch):
    """Run a test with exp/log tables and again with polynomial arithmetic."""
    if request.param == "polynomial":
        monkeypatch.setattr(residue, "DEFAULT_NODE_BUDGET", 0)
    return request.param
