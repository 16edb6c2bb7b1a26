"""Orbit computation, finite-field functional graphs and period relations.

Preperiodicity detection is exact on success: the orbit is iterated with
a hash map of visited canonical points, and the first revisit splits the
trajectory into its tail and cycle with the minimal period for free
(cycle points are distinct by construction).  Non-preperiodicity is only
semi-decided in general: hitting the step or height budget yields an
ExceededBudget outcome that claims nothing and names the budget that ran
out ("steps" or "height").  For every map of degree d >= 2 an exact escape
criterion (`ratmap.escape_profile`) proves divergence: beyond a height
radius computed from the Sylvester cofactors the height grows strictly at
every step, and for maps of the shape [F : u*Y^d] with unit u and unit
leading coefficient a non-unit denominator or a numerator beyond an
affine radius does too.  Such outcomes carry reason "escape",
divergent=True and the clause that fired.  `orbit` tests the criterion
at every step, and `preperiodic_search` tests it on each enumerated point
before it starts an orbit.

The functional graph of a reduced map is the complete successor structure
on the q + 1 points of P^1(F_q), decomposed into cycles and tails; it
serves as the brute-force oracle for everything the reductions claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, DomainError, PreconditionError
from .fields import BaseField, Place
from .projective import (
    INFINITE,
    ProjPoint,
    infinity,
    reduce_point,
)
from .ratmap import (
    EscapeProof,
    RationalMap,
    ReducedMap,
    apply_map,
    cycle_multiplier,
    escape_profile,
    escapes,
    iterate_map,
    reduce_map,
)
from .residue import DEFAULT_NODE_BUDGET, ResidueField, residue_field

DEFAULT_MAX_STEPS = 2000


@dataclass(frozen=True, slots=True)
class Budget:
    """Iteration budget; height_cap None picks the ring's default."""

    max_steps: int = DEFAULT_MAX_STEPS
    height_cap: int | None = None

    def cap_for(self, field: BaseField) -> int:
        return field.ring.height_cap if self.height_cap is None else self.height_cap


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
    infinite by the escape criterion (then `divergent` is True and `proof`
    names the clause that fired at the last point), otherwise the budget
    that ran out, REASON_HEIGHT for the height cap or REASON_STEPS for the
    step count; a budget stop claims nothing.
    """

    start: ProjPoint
    steps: int
    last_height: int
    reason: str
    proof: EscapeProof | None = None

    @property
    def divergent(self) -> bool:
        return self.reason == REASON_ESCAPE


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
    pts: list[ProjPoint] = [start]
    index: dict[ProjPoint, int] = {start: 0}
    current = start
    while True:
        proof = escapes(profile, current)
        if proof is not None:
            return ExceededBudget(
                start, len(pts) - 1, current.height(), REASON_ESCAPE, proof
            )
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
        return _walk(self.successors.__getitem__, code)[0]


def _walk(step, start) -> tuple[list, int]:
    """start, step(start), ... up to the first repeat, and its first index."""
    seen: dict = {}
    out = []
    while start not in seen:
        seen[start] = len(out)
        out.append(start)
        start = step(start)
    return out, seen[start]


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


def reduced_period_data(
    phi: RationalMap, point: ProjPoint, place: Place
) -> PeriodData:
    """(m, r) for the reduction of a point at a good place."""
    psi = reduce_map(phi, place)
    pts, first = _walk(psi.apply, reduce_point(point, place))
    cycle = pts[first:]  # after the tail, if any
    rf = psi.rfield
    num, den = cycle_multiplier(rf, psi.fco, psi.gco, [(q.x, q.y) for q in cycle])
    if not num:
        return PeriodData(len(cycle), INFINITE)
    return PeriodData(len(cycle), rf.multiplicative_order(rf.div(num, den)))


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
    by iteration, and n < 1 raises PreconditionError.  A "violation"
    verdict would indicate an implementation bug, not a counterexample.
    """
    if n < 1:
        raise PreconditionError("period must be >= 1")
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
    """All points of P^1(K) of coordinate height <= height_bound: infinity,
    then the coprime pairs [x : y] from `ring.upto`, which refuses a bound
    whose pairs pass the budget; y is canonical (positive over Q, monic over
    F_p(t)), so distinct pairs are distinct points."""
    if height_bound < 1:
        raise DomainError("height bound must be >= 1")
    ring = field.ring
    xs, ys = ring.upto(height_bound, enum_budget)
    gcd, one = ring.gcd, ring.one
    yield infinity(field)
    for y in ys:
        for x in xs:
            if gcd(x, y) == one:
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
    preperiodic nor undecided.  A point the escape criterion proves at
    once is counted without an `orbit` call, which would stop at step 0.
    """
    profile = escape_profile(phi)
    reports = []
    undecided = []
    divergent = 0
    scanned = 0
    for pt in enumerate_points(phi.field, height_bound, enum_budget):
        scanned += 1
        if escapes(profile, pt) is not None:
            divergent += 1
            continue
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
