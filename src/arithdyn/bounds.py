"""Exact evaluation of every explicit bound formula, plus report checking.

Positive-characteristic bounds are plain integer arithmetic.  Each
characteristic-zero bound is the largest of a few terms m*(c*ln x)^e, with
ln the natural logarithm, and is returned as a certified integer ceiling
(`certified_ceiling`): provably >= the real value, never below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceededError, DomainError, PreconditionError
from .fields import (
    MAX_BOUND_DIGITS,
    PlaceSet,
    infinite_place,
    is_prime_int,
    strip_places,
)
from .ratmap import RationalMap, has_good_reduction, resultant

# precision cap of certified_ceiling: an admitted eta has at most
# MAX_BOUND_DIGITS digits (about 14,300 bits) and is pinned by 2^14 bits
_MAX_BITS = 1 << 16


def _atanh_fixed(a: int, b: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits * atanh(a/b) <= hi, for 0 <= a/b <= 1/3.

    atanh(y) is the sum over k >= 0 of T_k/(2k+1), T_k = 2^bits*y^(2k+1).
    The powers are kept rounded down, P_0 = floor(2^bits*a/b) and
    P_k = floor(P_(k-1)*a^2/b^2), so T_k - P_k < 1 + y^2*(T_(k-1) - P_(k-1))
    stays below 1/(1 - 1/9) = 9/8, and the term floor(P_k/(2k+1)) is within
    9/8 + 1 < 3 of T_k/(2k+1).  The series stops at the first n with
    P_n = 0: then T_n < 9/8, and the tail is at most T_n/(1 - y^2) < 2.
    So the n terms sum to lo, and hi = lo + 3n + 2.
    """
    a2, b2 = a * a, b * b
    power = (a << bits) // b
    lo = n = 0
    while power:
        lo += power // (2 * n + 1)
        power = power * a2 // b2
        n += 1
    return lo, lo + 3 * n + 2


def _ln_fixed(x: Fraction, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits * ln(x) <= hi for rational x >= 1, from
    x = 2^k * m, m in [1, 2): ln x = 2k*atanh(1/3) + 2*atanh((m-1)/(m+1))."""
    if x < 1:
        raise DomainError("ln enclosure implemented for x >= 1 only")
    num, den = x.numerator, x.denominator
    k = num.bit_length() - den.bit_length()
    if den << k > num:
        k -= 1
    lo2, hi2 = _atanh_fixed(1, 3, bits)
    lom, him = _atanh_fixed(num - (den << k), num + (den << k), bits)
    return 2 * (k * lo2 + lom), 2 * (k * hi2 + him)


def ln_interval(x: Fraction, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of ln(x) for rational x >= 1, over 2^bits."""
    lo, hi = _ln_fixed(x, bits)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def _term_ceilings(m: int, c: int, x: int, e: int, bits: int) -> list[int]:
    """ceil(m*(c*ln x)^e) at both ends of the ln x enclosure over 2^bits, by
    square-and-multiply with every product rounded down at the lower end
    and up at the upper end."""
    one = 1 << bits
    ends = []
    for ln_x, rnd in zip(_ln_fixed(x, bits), (0, one - 1)):
        power = one
        for bit in bin(e)[2:]:
            power = (power * power + rnd) >> bits
            if bit == "1":
                power = (power * c * ln_x + rnd) >> bits
        ends.append((m * power + one - 1) >> bits)
    return ends


def certified_ceiling(terms) -> int:
    """ceil of the largest m*(c*ln x)^e over the (m, c, x, e) in `terms`,
    with m, c, e positive integers and x >= 1 rational.

    bits doubles from 64 until the ceilings at both ends agree.  Past
    _MAX_BITS the upper ceiling is returned, which is still a correct upper
    bound (for x = 1 the ends never agree).
    """
    bits = 64
    while True:
        lo, hi = map(max, zip(*(_term_ceilings(*term, bits) for term in terms)))
        if lo == hi or bits >= _MAX_BITS:
            return hi
        bits *= 2


# ---------------------------------------------------------------------------
# contexts and bound sets


@dataclass(frozen=True, slots=True)
class BoundContext:
    """(characteristic, extension degree, |S|)."""

    p: int
    D: int
    s: int

    def __post_init__(self):
        if self.p != 0 and not is_prime_int(self.p):
            raise DomainError("characteristic must be 0 or prime")
        if self.D < 1 or self.s < 1:
            raise DomainError("need D >= 1 and |S| >= 1")


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


def _eta_terms(s: int, D: int) -> tuple:
    """The (m, c, x, e) terms of eta in characteristic zero, each standing
    for m*(c*ln x)^e."""
    return ((2 ** (16 * s - 8) + 3, 12 * s, 5 * s, D), (1, 12 * (s + 2), 5 * s + 5, 4 * D))


def _eta_powers(p: int, s: int, D: int) -> tuple:
    """eta = (p*s)^(4D) * max((p*s)^(2D), p^(4s - 2)) in characteristic p,
    as ((p*s, 4D), the (base, exponent) pairs of the max)."""
    return (p * s, 4 * D), ((p * s, 2 * D), (p, 4 * s - 2))


def _digits(*powers) -> float:
    """1 + log10 of the product of the b^e over the (b, e) in `powers`, at
    least the digit count of that product; inf past a float."""
    try:
        return 1 + sum(e * math.log10(b) for b, e in powers)
    except OverflowError:
        return math.inf


def _eta_digits(p: int, D: int, s: int) -> float:
    """At least the digit count of eta, read off `_eta_powers` or, in
    characteristic zero, `_eta_terms`; an |S| above MAX_BOUND_DIGITS is
    refused before they are built, as eta then exceeds 2^(16*|S| - 8)."""
    if p > 0:
        first, others = _eta_powers(p, s, D)
        return max(_digits(first, pair) for pair in others)
    if s > MAX_BOUND_DIGITS:
        return math.inf
    return max(_digits((m, 1), (c * math.log(x), e)) for m, c, x, e in _eta_terms(s, D))


@lru_cache(maxsize=256)
def compute_bounds(ctx: BoundContext) -> BoundSet:
    """Evaluate every bound formula applicable to the context, refusing one
    whose eta, the largest value printed, would pass MAX_BOUND_DIGITS.
    The result is kept per context."""
    p, D, s = ctx.p, ctx.D, ctx.s
    if _eta_digits(p, D, s) > MAX_BOUND_DIGITS:
        raise BudgetExceededError(f"eta would have more than {MAX_BOUND_DIGITS} digits")
    if p > 0:
        (ps, k), others = _eta_powers(p, s, D)
        big = max(b**e for b, e in others)
        eta = ps**k * big
        cycle = eta - big
        i_bound = ps ** (2 * D) - 1
        r_bound = unit_equation_solution_bound(p, s)
        return BoundSet(ctx, eta, cycle, i_bound, r_bound, None)

    eta = certified_ceiling(_eta_terms(s, D))
    cycle = certified_ceiling(((1, 12 * (s + 1), 5 * (s + 1), 4 * D),))
    i_bound = certified_ceiling(((1, 12 * s, 5 * s, D),)) - 1
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


def preper_total_bound(B: int, C: int, d: int) -> int:
    """d^B * (d^n + 1) with n = lcm(1..C).

    B bounds the orbit size, C the cycle length, d >= 2 is the map degree.
    A result that would pass MAX_BOUND_DIGITS, and so could not be
    printed, is refused before it is computed.
    """
    if B < 1 or C < 1 or d < 2:
        raise DomainError("need B, C >= 1 and d >= 2")
    # lcm(1..C) >= 2^(C-1), and d^(2^(C-1)) has more digits than the limit
    # once C - 1 passes its bit length plus 2: a larger C, whose lcm might
    # not even fit in memory, is refused before the lcm is computed.
    if C - 1 > MAX_BOUND_DIGITS.bit_length() + 2:
        raise BudgetExceededError(
            f"d^lcm(1..{C}) has more than {MAX_BOUND_DIGITS} digits, as lcm(1..{C}) >= 2^{C - 1}"
        )
    n = math.lcm(*range(1, C + 1))
    if _digits((d, B + n + 1)) > MAX_BOUND_DIGITS:  # the result is below d^(B + n + 1)
        raise BudgetExceededError(f"result would have more than {MAX_BOUND_DIGITS} digits")
    return d**B * (d**n + 1)


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
    if ctx.s != S.size:
        # the bounds grow with s: a smaller s could report a false violation
        raise PreconditionError("context s differs from |S|")
    bounds = compute_bounds(ctx)
    checks = [
        BoundCheck("orbit_size", report.total, bounds.eta, report.total <= bounds.eta),
        BoundCheck(
            "cycle_length", report.n, bounds.cycle_bound, report.n <= bounds.cycle_bound
        ),
    ]
    if all(pl.is_archimedean for pl in S):
        checks.append(BoundCheck("everywhere_good_cycle", report.n, 3, report.n <= 3))
        checks.append(
            BoundCheck("everywhere_good_orbit", report.total, 12, report.total <= 12)
        )
    return checks
