"""Orbit computation, finite-field functional graphs and period relations.

Preperiodicity detection is exact on success: the orbit is iterated with
a hash map of visited canonical points, and the first revisit splits the
trajectory into its tail and cycle with the minimal period for free
(cycle points are distinct by construction).  One kernel does this for
`orbit` and for `preperiodic_search`, on raw coordinate pairs with the
step of `apply_map` (`ratmap.map_pair`); only the points of a report and
the starts it cannot decide become ProjPoints; the checks of a given cycle
walk the same pairs (`ratmap.walk_pairs`).  Non-preperiodicity is only
semi-decided in general: hitting the step or height budget yields an
ExceededBudget outcome that claims nothing and names the budget that ran
out ("steps" or "height").  For every map of degree d >= 2 an exact escape
criterion (`ratmap.escape_profile`) proves divergence; such outcomes
carry reason "escape", divergent=True and the clause that fired.  The
kernel tests the criterion (`ratmap.escape_clause`) at every point of an
orbit, the start included.  `preperiodic_search` starts it only on the
pairs of the criterion's start box (`ratmap.start_box`), outside which a
clause fires at step 0, and counts the rest as divergent without listing
them (`ring.count_points`), so its cost follows the radii, not the bound.

The functional graph of a reduced map is the complete successor structure
on the q + 1 points of P^1(F_q), decomposed into cycles and tails; it
serves as the brute-force oracle for everything the reductions claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, DomainError, PreconditionError
from .fields import Z, BaseField, Place
from .projective import (
    INFINITE,
    ProjPoint,
    reduce_point,
)
from .ratmap import (
    EscapeProfile,
    EscapeProof,
    RationalMap,
    ReducedMap,
    _periodic_walk,
    _successor_step,
    cycle_multiplier,
    escape_clause,
    escape_profile,
    map_pair,
    reduce_map,
    resultant_raw,
    start_box,
    walk_pairs,
)
from .residue import DEFAULT_NODE_BUDGET, ResidueField, residue_field

DEFAULT_MAX_STEPS = 2000


@dataclass(frozen=True, slots=True)
class Budget:
    """Iteration budget; height_cap None picks the ring's default."""

    max_steps: int = DEFAULT_MAX_STEPS
    height_cap: int | None = None

    def __post_init__(self):
        if self.max_steps < 1:
            raise DomainError("max_steps must be >= 1")
        if self.height_cap is not None and self.height_cap < 0:
            raise DomainError("height_cap must be >= 0")

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


def _orbit_kernel(phi: RationalMap, budget: Budget, profile: EscapeProfile | None):
    """The orbit iteration of phi on canonical coordinate pairs.

    The ring, the resultant, phi's escape profile (`escape_profile(phi)`,
    passed in so that a search reads it once), the height cap and the
    step budget are bound once; the returned `run(x, y)` iterates
    `map_pair` from the canonical pair (x, y) with a dict of the visited
    pairs, and returns (None, pairs, k, None) when the next image revisits
    pairs[k] (the tail is pairs[:k], the cycle pairs[k:]), or
    (reason, steps, last_height, proof) with the fields of the
    ExceededBudget it stands for.
    """
    field = phi.field
    ring = field.ring
    size = ring.size
    fco, gco, res = phi.fco, phi.gco, resultant_raw(phi)
    cap, max_steps = budget.cap_for(field), budget.max_steps

    def run(x, y):
        seen = {}  # pair -> its index in the orbit
        h = max(size(x), size(y))
        while True:
            proof = escape_clause(profile, ring, x, y, h)
            if proof is not None:
                return REASON_ESCAPE, len(seen), h, proof
            seen[x, y] = len(seen)
            x, y = map_pair(ring, fco, gco, res, x, y)
            hit = seen.get((x, y))
            if hit is not None:
                return None, list(seen), hit, None
            h = max(size(x), size(y))
            if h > cap:
                return REASON_HEIGHT, len(seen), h, None
            if len(seen) >= max_steps:
                return REASON_STEPS, len(seen), h, None

    return run


def _report(phi: RationalMap, start: ProjPoint, pairs: list, k: int) -> OrbitReport:
    """The validated report of a revisit at pairs[k], pairs[0] being start."""
    field = phi.field
    pts = [start] + [ProjPoint(field, x, y) for x, y in pairs[1:]]
    report = OrbitReport(start, tuple(pts[:k]), tuple(pts[k:]))
    validate_orbit_report(phi, report)
    return report


def orbit(
    phi: RationalMap, start: ProjPoint, budget: Budget | None = None
) -> OrbitReport | ExceededBudget:
    """Iterate until a revisit, a divergence proof, or the budget."""
    if phi.field != start.field:
        raise DomainError("map and point over different base fields")
    run = _orbit_kernel(phi, budget or Budget(), escape_profile(phi))
    reason, a, b, proof = run(start.x, start.y)
    if reason is None:
        return _report(phi, start, a, b)
    return ExceededBudget(start, a, b, reason, proof)


def validate_orbit_report(phi: RationalMap, report: OrbitReport) -> None:
    """Independent check of a report: the walk from its start runs through
    the tail and the cycle back to the first cycle point, stopping at the
    first difference, and distinct chain points make the cycle minimal."""
    chain = [(q.x, q.y) for q in report.tail + report.cycle]
    chain.append(chain[report.m])
    n = len(chain) - 1
    if (report.start.x, report.start.y) != chain[0]:
        raise PreconditionError("orbit report: start is not the first point")
    for i, (pair, want) in enumerate(zip(walk_pairs(phi, report.start, n), chain)):
        if pair != want:
            what = "cycle does not close" if i == n else "successor property violated"
            raise PreconditionError(f"orbit report: {what}")
    if len(set(chain)) != n:
        raise PreconditionError("orbit report: repeated points")


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
    codes, first = _walk(_successor_step(psi), reduce_point(point, place))
    rf = psi.rfield
    cycle = [rf.pair(c) for c in codes[first:]]  # after the tail
    num, den = cycle_multiplier(rf, psi.fco, psi.gco, cycle)
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
    by one walk of n steps, and n < 1 raises PreconditionError.  A
    "violation" verdict would indicate an implementation bug.
    """
    if len(set(_periodic_walk(phi, point, n))) != n:
        raise PreconditionError("n is not the minimal period")
    data = reduced_period_data(phi, point, place)
    m, r = data.m, data.r
    if n == m:
        return PeriodRelationVerdict("i", None, m, r, n)
    if r is not INFINITE:
        if n == m * r:
            return PeriodRelationVerdict("ii", None, m, r, n)
        if n % (m * r) == 0:
            e, rest = Z.split(n // (m * r), residue_field(place).p)
            if rest == 1 and e >= 1:
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


def _enumerate_pairs(field: BaseField, height_bound: int, profile: EscapeProfile | None):
    """The canonical coordinate pairs of all points of P^1(K) of coordinate
    height <= height_bound: infinity, then the coprime pairs (x, y) from
    `ring.upto`, which refuses a bound whose pairs pass
    `ratmap.ENUMERATION_BUDGET`; y is canonical (positive over Q, monic
    over F_p(t)), so distinct pairs are distinct points.

    With an escape profile only the pairs in `ratmap.start_box` are listed:
    every pair left out fires `escape_clause` at once, and a bound refused
    without a profile is refused with one.
    """
    if height_bound < 1:
        raise DomainError("height bound must be >= 1")
    ring = field.ring
    xs, ys = start_box(profile, ring, height_bound)
    gcd, one = ring.gcd, ring.one
    yield one, ring.zero
    for y in ys:
        for x in xs:
            if gcd(x, y) == one:
                yield x, y


def preperiodic_search(
    phi: RationalMap, height_bound: int, budget: Budget | None = None
) -> SearchResult:
    """Classify every point up to the height bound.

    Returns the preperiodic orbits, plus the budget-unresolved points as
    undecided; points with a divergence proof are counted but are neither
    preperiodic nor undecided.  The orbit kernel runs, as in `orbit`, on
    the pairs of `_enumerate_pairs` under phi's escape profile; every point
    it leaves out is proved divergent at step 0, so it adds to `divergent`
    through `scanned = ring.count_points(height_bound)` and is never built.
    Only reported orbits and undecided points become ProjPoints.
    """
    field = phi.field
    profile = escape_profile(phi)
    run = _orbit_kernel(phi, budget or Budget(), profile)
    reports = []
    undecided = []
    divergent = 0
    started = 0
    for x, y in _enumerate_pairs(field, height_bound, profile):
        started += 1
        reason, a, b, _ = run(x, y)
        if reason is None:
            reports.append(_report(phi, ProjPoint(field, x, y), a, b))
        elif reason == REASON_ESCAPE:
            divergent += 1
        else:
            undecided.append(ProjPoint(field, x, y))
    scanned = field.ring.count_points(height_bound)
    reports.sort(key=lambda r: r.start.sort_key())
    undecided.sort(key=ProjPoint.sort_key)
    return SearchResult(tuple(reports), tuple(undecided), scanned, divergent + scanned - started)
