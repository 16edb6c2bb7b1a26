"""S-unit groups, bounded enumeration and the equation a*x + b*y = 1.

Over Q with the archimedean place in S the unit group is {+-1} times the
free group on the finite primes of S; over F_p(t) with the infinite place
in S it is F_p^* times the free group on the monic irreducibles of S.
(The kernel-lattice case, infinity not in S over a function field, is
deliberately unsupported.)

The solver is a brute force over the capped enumeration and is honest
about incompleteness: it returns the solutions whose coordinates both lie
within the exponent cap, a lower bound for the true solution set.  Upper
bound comparisons against the solution-count formulas are the only hard
assertions made of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bounds import evertse_solution_bound, unit_equation_solution_bound
from .errors import (
    BudgetExceededError,
    DomainError,
    UnsupportedConfigurationError,
)
from .fields import (
    GlobalFieldElement,
    Place,
    PlaceSet,
    check_length,
    is_s_unit,
    strip_places,
)


@dataclass(frozen=True, slots=True)
class SUnitGroupDesc:
    """Generators of the S-unit group: torsion part plus a free part."""

    torsion: tuple[GlobalFieldElement, ...]
    free_generators: tuple[GlobalFieldElement, ...]

    @property
    def rank(self) -> int:
        return len(self.free_generators)


def _free_places(S: PlaceSet) -> tuple[Place, ...]:
    """The finite places of S; over F_p(t) infinity must be in S."""
    if not S.contains_infinite():
        raise UnsupportedConfigurationError(
            "S-unit generators over F_p(t) need the infinite place in S"
        )
    return S.finite_places()


def s_unit_generators(S: PlaceSet) -> SUnitGroupDesc:
    """Torsion and free generators of the S-units.

    Q: torsion {1, -1}, free generators the finite primes of S.
    F_p(t) with infinity in S: torsion F_p^*, free generators the monic
    irreducibles of S.  Raises UnsupportedConfigurationError otherwise.
    """
    field = S.field
    gens = tuple(field.element(pl.payload) for pl in _free_places(S))
    return SUnitGroupDesc(tuple(field.element(u) for u in field.ring.units), gens)


# Largest number of S-units enumerate_s_units lists.
S_UNIT_BUDGET = 2_000_000


def enumerate_s_units(S: PlaceSet, exponent_cap: int):
    """All torsion * prod g_i^{e_i} with |e_i| <= cap, each exactly once.

    Deterministic order: torsion first, then exponent vectors
    lexicographically from -cap to cap.  The count and the length of the
    longest unit are checked before any unit is built.  A unit is the
    canonical pair (u * prod pi^e over e > 0, prod pi^-e over e < 0), so it
    takes no gcd.
    """
    if exponent_cap < 1:
        raise DomainError("exponent cap must be >= 1")
    pis = [pl.payload for pl in _free_places(S)]
    field, ring = S.field, S.field.ring
    total = len(ring.units) * (2 * exponent_cap + 1) ** len(pis)
    if total > S_UNIT_BUDGET:
        raise BudgetExceededError(f"S-unit enumeration of size {total} over budget")
    # a lower bound for the length of prod pi^cap, the longest unit
    check_length(ring, exponent_cap * sum(ring.length(pi) - 1 for pi in pis) + 1)
    powers = [[ring.pow(pi, e) for e in range(exponent_cap + 1)] for pi in pis]
    exponent_range = range(-exponent_cap, exponent_cap + 1)
    for u in ring.units:
        for vec in itertools.product(exponent_range, repeat=len(pis)):
            num, den = ring.coerce(u), ring.one
            for pw, e in zip(powers, vec):
                if e > 0:
                    num = ring.mul(num, pw[e])
                elif e < 0:
                    den = ring.mul(den, pw[-e])
            yield GlobalFieldElement(field, num, den)


def s_unit_exponents(
    x: GlobalFieldElement, S: PlaceSet
) -> tuple[GlobalFieldElement, tuple[int, ...]] | None:
    """Decompose x as torsion * prod g_i^{e_i}, or None if x is no S-unit.

    The generator order matches s_unit_generators.
    """
    if x.is_zero:
        return None
    _free_places(S)  # refuses S without infinity over F_p(t)
    rest, exponents = strip_places(x, S)
    ring = S.field.ring
    if rest.den != ring.one or not ring.is_unit(rest.num):
        return None
    return rest, exponents


def is_s_trivial(a: GlobalFieldElement, b: GlobalFieldElement, S: PlaceSet) -> bool:
    """Whether a*x + b*y = 1 is a trivial unit equation over the base field.

    Over the base field itself a power being an S-unit forces the element
    to be one (valuations scale linearly), so this is simply: both
    coefficients are S-units.
    """
    if a.is_zero or b.is_zero:
        raise DomainError("coefficients must be nonzero")
    return is_s_unit(a, S) and is_s_unit(b, S)


@dataclass(frozen=True, slots=True)
class UnitEquationInstance:
    a: GlobalFieldElement
    b: GlobalFieldElement
    S: PlaceSet
    exponent_cap: int

    def __post_init__(self):
        if self.a.is_zero or self.b.is_zero:
            raise DomainError("coefficients must be nonzero")
        if self.exponent_cap < 1:
            raise DomainError("exponent cap must be >= 1")


def solve_unit_equation(
    inst: UnitEquationInstance,
) -> list[tuple[GlobalFieldElement, GlobalFieldElement]]:
    """All (x, y) inside the capped enumeration with a*x + b*y = 1.

    Every returned pair is re-verified exactly; the order is the
    deterministic enumeration order of x.
    """
    one = inst.S.field.one()
    out = []
    for x in enumerate_s_units(inst.S, inst.exponent_cap):
        y = (one - inst.a * x) / inst.b
        if y.is_zero:
            continue
        decomposition = s_unit_exponents(y, inst.S)
        if decomposition is None:
            continue
        _, exponents = decomposition
        if all(abs(e) <= inst.exponent_cap for e in exponents):
            assert inst.a * x + inst.b * y == one
            out.append((x, y))
    return out


@dataclass(frozen=True, slots=True)
class UnitEquationReport:
    """Solver result plus the applicable solution-count bound comparison.

    For non-trivial instances the found count must stay within the bound;
    for trivial instances no bound applies (bound is None).
    """

    instance: UnitEquationInstance
    solutions: tuple[tuple[GlobalFieldElement, GlobalFieldElement], ...]
    s_trivial: bool
    bound: int | None
    within_bound: bool | None


def unit_equation_report(inst: UnitEquationInstance) -> UnitEquationReport:
    solutions = tuple(solve_unit_equation(inst))
    trivial = is_s_trivial(inst.a, inst.b, inst.S)
    if trivial:
        return UnitEquationReport(inst, solutions, True, None, None)
    field = inst.S.field
    if field.is_rationals:
        bound = evertse_solution_bound(2 * (inst.S.size - 1))
    else:
        bound = unit_equation_solution_bound(field.char, inst.S.size)
    return UnitEquationReport(inst, solutions, False, bound, len(solutions) <= bound)
