"""Exact evaluation of every explicit bound formula, plus report checking.

Positive-characteristic bounds are plain integer arithmetic.  The
characteristic-zero bounds involve natural logarithms; those are returned
as certified integer ceilings: ln is enclosed between exact rational
lower/upper bounds (argument reduction to [1, 2) plus the atanh series
with an explicit remainder term), the whole formula is evaluated in
interval arithmetic over Fraction, and the precision is doubled until the
two interval ends agree on the ceiling.  The returned integer is provably
>= the real value of the formula, never below it.

log means the natural logarithm throughout; changing the base would be a
one-line change of _LN_BASE_ADJUST (kept at 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, DomainError, PreconditionError
from .fields import KIND_ARCH, PlaceSet, infinite_place, is_prime_int, strip_places
from .ratmap import RationalMap, has_good_reduction, resultant

_LN_BASE_ADJUST = 1  # natural log; documented single point of change

Interval = tuple[Fraction, Fraction]


def _atanh_interval(y: Fraction, terms: int) -> Interval:
    """Enclosure of atanh(y) for 0 <= y < 1 by the odd power series."""
    s = Fraction(0)
    y2 = y * y
    power = y
    for k in range(terms):
        s += power / (2 * k + 1)
        power *= y2
    remainder = power / ((2 * terms + 1) * (1 - y2))
    return s, s + remainder


def ln_interval(x: Fraction, terms: int = 24) -> Interval:
    """Exact rational enclosure of ln(x) for rational x >= 1."""
    if x < 1:
        raise DomainError("ln enclosure implemented for x >= 1 only")
    k = 0
    while x >= 2:
        x /= 2
        k += 1
    lo2, hi2 = _atanh_interval(Fraction(1, 3), terms)  # atanh(1/3) = ln(2)/2
    lom, him = _atanh_interval((x - 1) / (x + 1), terms)
    return (
        (2 * k * lo2 + 2 * lom) * _LN_BASE_ADJUST,
        (2 * k * hi2 + 2 * him) * _LN_BASE_ADJUST,
    )


def _ipow(a: Interval, e: int) -> Interval:
    return a[0] ** e, a[1] ** e


def _iscale(a: Interval, c) -> Interval:
    c = Fraction(c)
    return a[0] * c, a[1] * c


def _imax(a: Interval, b: Interval) -> Interval:
    return max(a[0], b[0]), max(a[1], b[1])


def certified_ceiling(formula, max_terms: int = 3072) -> int:
    """ceil of an interval-valued formula, refined until both ends agree.

    `formula` maps a term count to an Interval.  If agreement is never
    reached the upper ceiling is returned, which is still a correct upper
    bound for the real value.
    """
    terms = 24
    while terms <= max_terms:
        lo, hi = formula(terms)
        if math.ceil(lo) == math.ceil(hi):
            return math.ceil(hi)
        terms *= 2
    return math.ceil(formula(max_terms)[1])


# ---------------------------------------------------------------------------
# contexts and bound sets


@dataclass(frozen=True, slots=True)
class BoundContext:
    """(characteristic, extension degree, |S|, optional map degree)."""

    p: int
    D: int
    s: int
    d: int | None = None

    def __post_init__(self):
        if self.p != 0 and not is_prime_int(self.p):
            raise DomainError("characteristic must be 0 or prime")
        if self.D < 1 or self.s < 1:
            raise DomainError("need D >= 1 and |S| >= 1")
        if self.d is not None and self.d < 2:
            raise DomainError("map degree parameter must be >= 2")


@dataclass(frozen=True, slots=True)
class BoundSet:
    """All applicable bounds for a context, as exact integers.

    r_bound is None in characteristic zero; evertse_bound is None in
    positive characteristic.  Log-based entries are certified ceilings.
    """

    context: BoundContext
    eta: int
    cycle_bound: int
    i_bound: int
    r_bound: int | None
    evertse_bound: int | None


def unit_equation_solution_bound(p: int, s: int) -> int:
    """Max solution count of a non-trivial two-term unit equation, char p > 0."""
    if p == 0:
        raise DomainError("positive characteristic only")
    base = p ** (2 * s - 2)
    num = base * (base + p - 2)
    assert num % (p - 1) == 0
    return num // (p - 1)


def evertse_solution_bound(rank: int) -> int:
    """2^(8(rank+1)): solution count bound for x + y = 1 in a rank-r group."""
    return 2 ** (8 * (rank + 1))


# CPython's default limit on the digits of an int printed in decimal
MAX_BOUND_DIGITS = 4300


def _eta_digits(p: int, D: int, s: int) -> float:
    """log10(eta) + 1, at least the digit count of eta; inf past a float."""
    try:
        if p > 0:
            lps = math.log10(p * s)
            return 4 * D * lps + max(2 * D * lps, (4 * s - 2) * math.log10(p)) + 1
        return 1 + max(
            D * math.log10(12 * s * math.log(5 * s)) + (16 * s - 8) * math.log10(2),
            4 * D * math.log10(12 * (s + 2) * math.log(5 * s + 5)),
        )
    except OverflowError:
        return math.inf


def compute_bounds(ctx: BoundContext) -> BoundSet:
    """Evaluate every bound formula applicable to the context, refusing one
    whose eta, the largest value printed, would pass MAX_BOUND_DIGITS."""
    p, D, s = ctx.p, ctx.D, ctx.s
    if _eta_digits(p, D, s) > MAX_BOUND_DIGITS:
        raise BudgetExceededError(f"eta would have more than {MAX_BOUND_DIGITS} digits")
    if p > 0:
        ps = p * s
        big = max(ps ** (2 * D), p ** (4 * s - 2))
        eta = ps ** (4 * D) * big
        cycle = (ps ** (4 * D) - 1) * big
        i_bound = ps ** (2 * D) - 1
        r_bound = unit_equation_solution_bound(p, s)
        return BoundSet(ctx, eta, cycle, i_bound, r_bound, None)

    def eta_formula(terms: int) -> Interval:
        branch1 = _iscale(
            _ipow(_iscale(ln_interval(Fraction(5 * s), terms), 12 * s), D),
            2 ** (16 * s - 8) + 3,
        )
        branch2 = _ipow(
            _iscale(ln_interval(Fraction(5 * s + 5), terms), 12 * (s + 2)), 4 * D
        )
        return _imax(branch1, branch2)

    def cycle_formula(terms: int) -> Interval:
        return _ipow(
            _iscale(ln_interval(Fraction(5 * (s + 1)), terms), 12 * (s + 1)), 4 * D
        )

    def small_residue_formula(terms: int) -> Interval:
        return _ipow(_iscale(ln_interval(Fraction(5 * s), terms), 12 * s), D)

    eta = certified_ceiling(eta_formula)
    cycle = certified_ceiling(cycle_formula)
    i_bound = certified_ceiling(small_residue_formula) - 1
    return BoundSet(ctx, eta, cycle, i_bound, None, evertse_solution_bound(2 * s - 2))


def equal_distance_family_bound(ctx: BoundContext) -> int:
    """(p|S|)^(2D): max number of points with all pairwise logarithmic
    distances equal at every place outside S (positive characteristic)."""

    if ctx.p == 0:
        raise DomainError("positive characteristic only")
    return (ctx.p * ctx.s) ** (2 * ctx.D)


def automorphism_cycle_bound(D: int) -> int:
    """2 + 4D^2: maximal cycle length of a degree-one map."""
    if D < 1:
        raise DomainError("D must be >= 1")
    return 2 + 4 * D * D


def preper_total_bound(B: int, C: int, d: int, digit_budget: int = 10**6) -> int:
    """d^B * (d^n + 1) with n = lcm(1..C).

    B bounds the orbit size, C the cycle length, d >= 2 is the map degree.
    A digit budget guards against nonsensical inputs; arithmetic itself is
    arbitrary precision.
    """
    if B < 1 or C < 1 or d < 2:
        raise DomainError("need B, C >= 1 and d >= 2")
    # lcm(1..C) >= 2^(C-1): refuse on that lower bound before computing the
    # lcm, which for a large cycle bound C does not even fit in memory.
    # Past the first test 2^(C-1) alone has more digits than the budget.
    if C - 1 > digit_budget.bit_length() + 2 or _too_many_digits(
        B + 2 ** (C - 1), d, digit_budget
    ):
        raise BudgetExceededError(
            f"result would have more than {digit_budget} digits "
            f"(n = lcm(1..{C}) >= 2^{C - 1})"
        )
    n = math.lcm(*range(1, C + 1))
    if _too_many_digits(B + n, d, digit_budget):
        raise BudgetExceededError(f"result would have more than {digit_budget} digits")
    return d**B * (d**n + 1)


def _too_many_digits(e: int, d: int, digit_budget: int) -> bool:
    """Whether d^e has more than digit_budget digits, by e*log10(d) + 1.

    Exponents above 4*digit_budget are decided without a float conversion,
    which would overflow: log10(d) > 0.3 puts them over the budget.
    """
    return e > 4 * digit_budget or e * math.log10(d) + 1 > digit_budget


# ---------------------------------------------------------------------------
# orbit report verification


@dataclass(frozen=True, slots=True)
class BoundCheck:
    name: str
    observed: int
    bound: int
    passed: bool


def verify_report(report, phi: RationalMap, ctx: BoundContext, S: PlaceSet) -> list[BoundCheck]:
    """Compare one orbit report against every applicable bound.

    Precondition: S contains every bad-reduction place of phi, otherwise
    the bounds would not apply and PreconditionError is raised.  That is
    decided without factoring: the finite bad places are those dividing
    Res(F, G), so stripping the finite places of S from it must leave a
    unit, and the infinite place, when not in S, must be good.
    """
    rest, _ = strip_places(resultant(phi), S)
    inf = infinite_place(phi.field)
    if not phi.field.ring.is_unit(rest.num) or (
        inf not in S and not has_good_reduction(phi, inf)
    ):
        raise PreconditionError("S does not contain all bad-reduction places")
    if ctx.p != phi.field.char:
        raise PreconditionError("context characteristic differs from the base field")
    bounds = compute_bounds(ctx)
    checks = [
        BoundCheck("orbit_size", report.total, bounds.eta, report.total <= bounds.eta),
        BoundCheck(
            "cycle_length", report.n, bounds.cycle_bound, report.n <= bounds.cycle_bound
        ),
    ]
    if phi.field.is_rationals and all(pl.kind == KIND_ARCH for pl in S):
        checks.append(BoundCheck("everywhere_good_cycle", report.n, 3, report.n <= 3))
        checks.append(
            BoundCheck("everywhere_good_orbit", report.total, 12, report.total <= 12)
        )
    return checks
