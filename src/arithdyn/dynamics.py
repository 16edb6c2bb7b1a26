"""Orbit computation, finite-field functional graphs and period relations.

Preperiodicity detection is exact on success: the orbit is iterated with
a hash map of visited canonical points, and the first revisit splits the
trajectory into its tail and cycle with the minimal period for free
(cycle points are distinct by construction).  Non-preperiodicity is only
semi-decided in general: hitting the step or height budget yields an
ExceededBudget outcome that claims nothing and names the budget that ran
out ("steps" or "height").  For maps of the shape [F : u*Y^d] with unit u
and unit leading coefficient (after the primitive normalization) a
rigorous divergence argument applies, and such outcomes carry reason
"escape" and divergent=True: a non-unit denominator grows strictly under
iteration, and beyond an explicit radius the numerator does.

The functional graph of a reduced map is the complete successor structure
on the q + 1 points of P^1(F_q), decomposed into cycles and tails; it
serves as the brute-force oracle for everything the reductions claim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import fppoly
from .errors import BudgetExceededError, DomainError, PreconditionError
from .fields import BaseField, Place
from .projective import (
    INFINITE,
    ProjPoint,
    ReducedPoint,
    infinity,
    reduce_point,
)
from .ratmap import (
    RationalMap,
    ReducedMap,
    apply_map,
    bad_places,
    cycle_multiplier,
    escape_profile,
    iterate_map,
    reduce_map,
    _INF_MARK,
)
from .residue import DEFAULT_NODE_BUDGET, ResidueField, residue_field

DEFAULT_MAX_STEPS = 2000
DEFAULT_HEIGHT_CAP_Q = 10**40
DEFAULT_HEIGHT_CAP_FF = 200


@dataclass(frozen=True, slots=True)
class Budget:
    """Iteration budget; height_cap None picks the per-field default."""

    max_steps: int = DEFAULT_MAX_STEPS
    height_cap: int | None = None

    def cap_for(self, field: BaseField) -> int:
        if self.height_cap is not None:
            return self.height_cap
        return DEFAULT_HEIGHT_CAP_Q if field.is_rationals else DEFAULT_HEIGHT_CAP_FF


@dataclass(frozen=True, slots=True)
class OrbitReport:
    """Exact tail/cycle decomposition of a finite forward orbit."""

    start: ProjPoint
    tail: tuple[ProjPoint, ...]
    cycle: tuple[ProjPoint, ...]

    @property
    def m(self) -> int:
        return len(self.tail)

    @property
    def n(self) -> int:
        return len(self.cycle)

    @property
    def total(self) -> int:
        return self.m + self.n


REASON_HEIGHT = "height"
REASON_STEPS = "steps"
REASON_ESCAPE = "escape"


@dataclass(frozen=True, slots=True)
class ExceededBudget:
    """Iteration stopped without finding a cycle.

    `reason` says what stopped it: REASON_ESCAPE when the orbit was proved
    infinite by the escape criterion (then `divergent` is True), otherwise
    the budget that ran out, REASON_HEIGHT for the height cap or
    REASON_STEPS for the step count; a budget stop claims nothing.
    """

    start: ProjPoint
    steps: int
    last_height: int
    reason: str

    @property
    def divergent(self) -> bool:
        return self.reason == REASON_ESCAPE


def _diverges(profile, point: ProjPoint, ring) -> bool:
    # denominator already non-unit, or numerator beyond the escape radius
    if point.is_infinity:
        return False
    return not ring.is_unit(point.y) or ring.size(point.x) >= profile.radius


def orbit(
    phi: RationalMap, start: ProjPoint, budget: Budget | None = None
) -> OrbitReport | ExceededBudget:
    """Iterate until a revisit, a divergence proof, or the budget."""
    if phi.field != start.field:
        raise DomainError("map and point over different base fields")
    if budget is None:
        budget = Budget()
    cap = budget.cap_for(phi.field)
    profile = escape_profile(phi)
    ring = phi.field.ring
    pts: list[ProjPoint] = [start]
    index: dict[ProjPoint, int] = {start: 0}
    current = start
    while True:
        if profile is not None and _diverges(profile, current, ring):
            return ExceededBudget(start, len(pts) - 1, current.height(), REASON_ESCAPE)
        nxt = apply_map(phi, current)
        hit = index.get(nxt)
        if hit is not None:
            report = OrbitReport(start, tuple(pts[:hit]), tuple(pts[hit:]))
            validate_orbit_report(phi, report)
            return report
        h = nxt.height()
        if h > cap:
            return ExceededBudget(start, len(pts), h, REASON_HEIGHT)
        if len(pts) >= budget.max_steps:
            return ExceededBudget(start, len(pts), h, REASON_STEPS)
        index[nxt] = len(pts)
        pts.append(nxt)
        current = nxt


def validate_orbit_report(phi: RationalMap, report: OrbitReport) -> None:
    """Independent consistency check of a report (successors, minimality)."""
    chain = list(report.tail) + list(report.cycle)
    for i in range(len(chain) - 1):
        if apply_map(phi, chain[i]) != chain[i + 1]:
            raise PreconditionError("orbit report: successor property violated")
    if apply_map(phi, report.cycle[-1]) != report.cycle[0]:
        raise PreconditionError("orbit report: cycle does not close")
    if len(set(chain)) != len(chain):
        raise PreconditionError("orbit report: repeated points")
    n = report.n
    for d in range(1, n):
        if n % d == 0 and iterate_map(phi, report.cycle[0], d) == report.cycle[0]:
            raise PreconditionError("orbit report: cycle length not minimal")


# ---------------------------------------------------------------------------
# functional graphs over residue fields


@dataclass(frozen=True, slots=True)
class FunctionalGraph:
    """Complete dynamics of a reduced map on P^1(F_q).

    Node i < q is the affine point with code i; node q is infinity.
    """

    rfield: ResidueField
    successors: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    tail_depth: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.successors)

    def orbit_of(self, code: int) -> list[int]:
        """Node sequence from `code` until just before the first repeat."""
        seen = set()
        out = []
        while code not in seen:
            seen.add(code)
            out.append(code)
            code = self.successors[code]
        return out


def functional_graph(psi: ReducedMap, node_budget: int = DEFAULT_NODE_BUDGET) -> FunctionalGraph:
    """Successor table plus cycle/tail decomposition by iterative marking."""
    q = psi.rfield.q
    if q + 1 > node_budget:
        raise BudgetExceededError(f"P^1(F_{q}) exceeds the node budget {node_budget}")
    succ = psi.successors()

    # a node on the path being walked holds its position in `path`
    UNSEEN, DONE = -2, -1
    state = [UNSEEN] * (q + 1)
    depth = [0] * (q + 1)
    cycles: list[tuple[int, ...]] = []
    for v in range(q + 1):
        if state[v] != UNSEEN:
            continue
        path = []
        u = v
        while state[u] == UNSEEN:
            state[u] = len(path)
            path.append(u)
            u = succ[u]
        k = state[u]
        if k >= 0:
            # the walk closed a new cycle; its nodes keep depth 0
            cycles.append(tuple(path[k:]))
            for w in path[k:]:
                state[w] = DONE
            del path[k:]
        for w in reversed(path):
            depth[w] = depth[succ[w]] + 1
            state[w] = DONE
    return FunctionalGraph(psi.rfield, tuple(succ), tuple(cycles), tuple(depth))


# ---------------------------------------------------------------------------
# reduced period data and the period relation check


@dataclass(frozen=True, slots=True)
class PeriodData:
    """Minimal period of the reduced point and the multiplicative order of
    the reduced cycle multiplier (INFINITE when that multiplier is 0)."""

    m: int
    r: int | float


def _reduced_cycle_from(psi: ReducedMap, start: ReducedPoint) -> list[ReducedPoint]:
    """The cycle reached from `start` (follows the tail first if any)."""
    seen: dict[ReducedPoint, int] = {}
    pts = []
    cur = start
    while cur not in seen:
        seen[cur] = len(pts)
        pts.append(cur)
        cur = psi.apply(cur)
    return pts[seen[cur]:]


def reduced_period_data(
    phi: RationalMap, point: ProjPoint, place: Place
) -> PeriodData:
    """(m, r) for the reduction of a point at a good place."""
    if place in bad_places(phi):
        raise PreconditionError(f"bad reduction at {place}")
    psi = reduce_map(phi, place)
    start = reduce_point(point, place)
    cycle = _reduced_cycle_from(psi, start)
    m = len(cycle)
    chain = [
        _INF_MARK if q.is_infinity else q.x for q in cycle
    ]
    lam = cycle_multiplier(psi.rfield, list(psi.fco), list(psi.gco), chain)
    if lam == 0:
        return PeriodData(m, INFINITE)
    return PeriodData(m, psi.rfield.multiplicative_order(lam))


@dataclass(frozen=True, slots=True)
class PeriodRelationVerdict:
    """Which period relation holds between n and the reduced data (m, r)."""

    case: str  # "i" | "ii" | "iii" | "violation"
    e: int | None
    m: int
    r: int | float
    n: int


def check_period_relation(
    phi: RationalMap, point: ProjPoint, n: int, place: Place
) -> PeriodRelationVerdict:
    """Verify n in {m, m*r, p^e*m*r} for the reduction at a good place.

    n must be the exact minimal period of the point; this is re-verified
    by iteration.  A "violation" verdict would indicate an implementation
    bug, not a counterexample.
    """
    if iterate_map(phi, point, n) != point:
        raise PreconditionError("point is not n-periodic")
    for d in range(1, n):
        if n % d == 0 and iterate_map(phi, point, d) == point:
            raise PreconditionError("n is not the minimal period")
    data = reduced_period_data(phi, point, place)
    m, r = data.m, data.r
    if n == m:
        return PeriodRelationVerdict("i", None, m, r, n)
    if r is not INFINITE:
        if n == m * r:
            return PeriodRelationVerdict("ii", None, m, r, n)
        if n % (m * r) == 0:
            quotient = n // (m * r)
            p_char = residue_field(place).p
            e = 0
            while quotient % p_char == 0:
                quotient //= p_char
                e += 1
            if quotient == 1 and e >= 1:
                return PeriodRelationVerdict("iii", e, m, r, n)
    return PeriodRelationVerdict("violation", None, m, r, n)


# ---------------------------------------------------------------------------
# exhaustive preperiodic search up to a coordinate height


@dataclass(frozen=True, slots=True)
class SearchResult:
    preperiodic: tuple[OrbitReport, ...]
    undecided: tuple[ProjPoint, ...]
    scanned: int
    divergent: int


def enumerate_points(field: BaseField, height_bound: int, enum_budget: int = 500_000):
    """All points of P^1(K) of coordinate height <= height_bound.

    Q: coprime pairs [x : y], |x| <= H, 1 <= y <= H, plus infinity.
    F_p(t): coprime pairs with monic y, max degree <= H, plus infinity.
    """
    if height_bound < 1:
        raise DomainError("height bound must be >= 1")
    if field.is_rationals:
        count = (2 * height_bound + 1) * height_bound + 1
        if count > enum_budget:
            raise BudgetExceededError("point enumeration exceeds budget")
        from math import gcd

        yield infinity(field)
        for y in range(1, height_bound + 1):
            for x in range(-height_bound, height_bound + 1):
                if gcd(x, y) == 1:
                    yield ProjPoint(field, x, y)
        return
    p = field.char
    if (p ** (height_bound + 1)) ** 2 > enum_budget:
        raise BudgetExceededError("point enumeration exceeds budget")
    yield infinity(field)
    monic_ys = [
        fppoly.ptrim(list(lower) + [1])
        for deg in range(0, height_bound + 1)
        for lower in itertools.product(range(p), repeat=deg)
    ]
    all_xs = [
        fppoly.ptrim(list(cs))
        for deg in range(0, height_bound + 1)
        for cs in itertools.product(range(p), repeat=deg + 1)
        if deg == 0 or cs[-1] != 0
    ]
    # distinct (x, monic y) pairs are distinct points
    for y in monic_ys:
        for x in all_xs:
            if fppoly.pgcd(p, x, y) == fppoly.ONE:
                yield ProjPoint(field, x, y)


def preperiodic_search(
    phi: RationalMap,
    height_bound: int,
    budget: Budget | None = None,
    enum_budget: int = 500_000,
) -> SearchResult:
    """Run `orbit` on every point up to the height bound.

    Returns the preperiodic orbits, plus the budget-unresolved points as
    undecided; points with a divergence proof are counted but are neither
    preperiodic nor undecided.
    """
    reports = []
    undecided = []
    divergent = 0
    scanned = 0
    for pt in enumerate_points(phi.field, height_bound, enum_budget):
        scanned += 1
        outcome = orbit(phi, pt, budget)
        if isinstance(outcome, OrbitReport):
            reports.append(outcome)
        elif outcome.divergent:
            divergent += 1
        else:
            undecided.append(pt)
    reports.sort(key=lambda r: r.start.sort_key())
    undecided.sort(key=ProjPoint.sort_key)
    return SearchResult(tuple(reports), tuple(undecided), scanned, divergent)
