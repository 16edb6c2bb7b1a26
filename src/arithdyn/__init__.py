"""Exact arithmetic dynamics on the projective line over Q and F_p(t).

The package computes orbits and cycles of rational points under rational
self-maps of P^1, detects places of good and bad reduction through exact
resultants, evaluates the explicit orbit/cycle/unit-equation bounds, and
cross-checks all of it against brute-force finite-field oracles.
"""

from .bounds import (
    BoundCheck,
    BoundContext,
    BoundSet,
    automorphism_cycle_bound,
    compute_bounds,
    evertse_solution_bound,
    equal_distance_family_bound,
    preper_total_bound,
    unit_equation_solution_bound,
    verify_report,
)
from .dynamics import (
    Budget,
    ExceededBudget,
    FunctionalGraph,
    PeriodRelationVerdict,
    OrbitReport,
    PeriodData,
    SearchResult,
    check_period_relation,
    enumerate_points,
    functional_graph,
    orbit,
    preperiodic_search,
    reduced_period_data,
    validate_orbit_report,
)
from .errors import (
    ArithDynError,
    BudgetExceededError,
    DegenerateMapError,
    DomainError,
    MapParseError,
    PreconditionError,
    UnsupportedConfigurationError,
    UnsupportedPlaceError,
)
from .fields import (
    QQ,
    BaseField,
    GlobalFieldElement,
    Place,
    PlaceSet,
    archimedean_place,
    count_irreducibles,
    enumerate_monic_irreducibles,
    find_small_prime_outside,
    function_field,
    infinite_place,
    irreducible_place,
    is_s_integer,
    is_s_unit,
    make_element,
    parse_place,
    parse_place_set,
    place_set,
    prime_place,
    support,
    valuation,
)
from .parsing import parse_element, parse_map, parse_point
from .projective import (
    INFINITE,
    ProjPoint,
    ReducedPoint,
    enumerate_p1,
    from_affine,
    infinity,
    log_distance,
    normalize,
    point_from_raw,
    reduce_point,
)
from .ratmap import (
    Classification,
    MultiplierValue,
    RationalMap,
    ReducedMap,
    apply_map,
    bad_places,
    classify_periodic_point,
    escape_profile,
    escapes,
    has_good_reduction,
    iterate_map,
    make_map,
    multiplier,
    reduce_map,
    resultant,
)
from .residue import ResidueField, field_of_size, residue_field
from .sunit import (
    SUnitGroupDesc,
    UnitEquationInstance,
    UnitEquationReport,
    enumerate_s_units,
    is_s_trivial,
    s_unit_exponents,
    s_unit_generators,
    solve_unit_equation,
    unit_equation_report,
)

__version__ = "0.1.0"
