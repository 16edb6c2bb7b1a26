"""Rational self-maps of P^1 as coprime homogeneous pairs.

A map is a pair (F, G) of homogeneous forms of the same degree d over the
integral ring (Z or F_p[t]), stored by ascending X-power: coefficient i
multiplies X^i Y^(d-i).  The pair is primitive (coefficient content 1)
with a fixed sign/monic convention, which makes map equality structural
and makes "places dividing the resultant" the exact set of bad-reduction
places: any other integral model is a common scalar multiple, which can
only raise the valuation of the resultant.

At the infinite place of F_p(t) the primitive model need not be integral;
the integral model there is t^-M * (F, G) with M the maximal coefficient
degree, so the map has good reduction at infinity exactly when
deg_t Res(F, G) = 2*d*M.

The resultant is the determinant of the 2d x 2d Sylvester matrix, computed
by one routine for both rings: Collins' subresultant PRS (Collins, J. ACM
14, 1967; Cohen, *A Course in Computational Algebraic Number Theory*,
Alg. 3.3.7) on the dehomogenized forms, which needs only the ring's
mul, sub and exactdiv, with the degree-drop rule
Res_{d,d}(F, G) = f_d^(d - deg g) * Res(f, g) and a swap of F and G when
f_d vanishes.  Inputs whose cost estimate d^2 * (s + 1)^2 passes
RESULTANT_BUDGET are refused before any elimination; s bounds the size of
the resultant, d * (h(F) + h(G)) in units of 256 bits of the 2-norm over
Z and of one t-degree over F_p[t].
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BudgetExceededError,
    DegenerateMapError,
    DomainError,
    PreconditionError,
)
from .fields import (
    BaseField,
    GlobalFieldElement,
    Place,
    infinite_place,
    integer_root,
    poly_str,
)
from .projective import ProjPoint, canon_pair
from .residue import ResidueField, reduce_values, residue_field

# ---------------------------------------------------------------------------
# resultants: one subresultant PRS on the integral ring

# Largest d^2 * (s + 1)^2 accepted, with s = d * (h(F) + h(G)) // unit the
# bound on the size of Res(F, G) from the ring's form_height and
# height_unit.  The PRS makes about d^2 ring operations, and their exact
# divisions cost the square of the coefficient size in both rings.  Timed
# on random dense forms (CPython 3.11, x86-64), one unit of the estimate
# costs 0.05-0.1 us over Z and over F_p[t]: degree 80 over Q with 64-bit
# coefficients (1.4e7) takes 0.9 s, d = 40 with M = 1 over F_3(t) (1.1e7)
# 0.27 s, and d = 100 with M = 1 (4.0e8) would take 7 s.
RESULTANT_BUDGET = 3 * 10**7

# Units of RESULTANT_BUDGET charged per plain unit of a run that tracks the
# cofactors.  Its rows are 2d entries wider, and one such run costs 5.6-6.6
# plain runs (d = 40 and 80 with 64-bit coefficients over Q); the escape
# profile makes two, so an admitted profile takes about as long as an
# admitted resultant.
COFACTOR_COST = 12


def _strip(co: list) -> list:
    """co without its leading zeros (descending powers)."""
    return co[next((i for i, c in enumerate(co) if c), len(co)) :]


def _prem(ring, a: list, b: list) -> list:
    """lc(b)^(deg a - deg b + 1) * a mod b, descending powers, deg a >= deg b."""
    mul, sub = ring.mul, ring.sub
    lb, tail, n = b[0], b[1:], len(b) - 1
    for _ in range(len(a) - n):
        c = a[0]
        a = [mul(lb, x) for x in a[1:]]
        if c:
            a[:n] = [sub(x, mul(c, y)) for x, y in zip(a, tail)]
    return a


def sylvester_resultant(field: BaseField, fco: tuple, gco: tuple, cofactors: bool = False):
    """Resultant of two degree-d coefficient tuples (ascending X-power).

    The determinant of the 2d x 2d Sylvester matrix with the d rows of F
    first, coefficients by descending X-power, from the subresultant PRS
    of the dehomogenized forms (Cohen, Alg. 3.3.7).

    With cofactors=True the result is (res, a, b): forms of degree d - 1,
    as ascending X-power tuples, with a*F + b*G = res * Y^(2d-1).  The same
    PRS tracks them: every row P carries 2d trailing entries that hold the
    polynomials s and t with s*f + t*g = P, each of degree below d, so
    that the row is P*x^(2d) + s*x^d + t and pseudo-division and the exact
    divisions act on s and t as they act on P.  The cofactors of a
    subresultant are minors of the Sylvester matrix, so those divisions
    stay exact.  Such a run is charged COFACTOR_COST times the estimate.
    """
    ring = field.ring
    zero, one = ring.zero, ring.one
    d = len(fco) - 1
    s = d * (ring.form_height(fco) + ring.form_height(gco)) // ring.height_unit
    if d * d * (s + 1) ** 2 * (COFACTOR_COST if cofactors else 1) > RESULTANT_BUDGET:
        raise BudgetExceededError(f"resultant at degree {d} and size {s} is over budget")
    f, g = _strip(list(fco[::-1])), _strip(list(gco[::-1]))
    sign = 1
    swap = len(f) <= d
    if swap:  # f_d = 0: Res_{d,d}(F, G) = (-1)^d * Res_{d,d}(G, F)
        f, g = g, f
        sign = -1 if d & 1 else 1
    low = 2 * d if cofactors else 0
    vanished = (zero, (zero,) * d, (zero,) * d) if cofactors else zero
    if len(f) <= d or not g:  # a zero first Sylvester column, or a zero form
        return vanished
    if cofactors:
        pad = [zero] * (d - 1)
        f = f + pad + [one] + pad + [zero]
        g = g + pad + [zero] + pad + [one]
    # Every ring.pow exponent below is >= 0, as ring.pow requires:
    # deg g <= deg f in the PRS, and f keeps degree >= 1.
    # Res_{d,d}(F, G) = f_d^(d - deg g) * Res(f, g)
    acc = ring.pow(f[0], d + 1 - len(g) + low)
    lead = h = one
    while len(g) - low > 1:
        m, n = len(f) - 1, len(g) - 1
        if (m - low) & (n - low) & 1:
            sign = -sign
        r = _strip(_prem(ring, f, g))
        if len(r) <= low:
            return vanished
        div = ring.mul(lead, ring.pow(h, m - n))
        f, g = g, [ring.exactdiv(c, div) for c in r]
        lead = f[0]
        if m > n:  # h = lead^(m-n) / h^(m-n-1)
            h = ring.exactdiv(ring.pow(lead, m - n), ring.pow(h, m - n - 1))
    if sign < 0:
        acc = ring.neg(acc)
    m = len(f) - 1 - low
    res = ring.mul(acc, ring.exactdiv(ring.pow(g[0], m), ring.pow(h, m - 1)))
    if not cofactors:
        return res
    # res = acc * (g0 / h)^(m-1) * (s*f + t*g), an integral multiple
    num, den = ring.pow(g[0], m - 1), ring.pow(h, m - 1)
    a, b = (
        tuple(ring.mul(acc, ring.exactdiv(ring.mul(num, c), den)) for c in part[::-1])
        for part in (g[1 : d + 1], g[d + 1 :])
    )
    return (res, b, a) if swap else (res, a, b)


# ---------------------------------------------------------------------------
# the map type


@dataclass(frozen=True, slots=True)
class RationalMap:
    """Primitive coprime homogeneous pair (F, G) of equal degree."""

    field: BaseField
    fco: tuple
    gco: tuple

    @property
    def degree(self) -> int:
        return len(self.fco) - 1

    def affine_str(self) -> str:
        to_str = self.field.ring.to_str
        num, den = (poly_str(co, "z", to_str) for co in (self.fco, self.gco))
        if den == "1":
            return num
        return f"({num})/({den})"

    def coefficient_arrays(self) -> dict:
        """JSON-ready coefficient arrays, ascending X-power."""
        serialize = self.field.ring.serialize
        return {
            "F": [serialize(c) for c in self.fco],
            "G": [serialize(c) for c in self.gco],
            "degree": self.degree,
        }

    def __str__(self) -> str:
        return self.affine_str()


def make_map(field: BaseField, fco, gco) -> RationalMap:
    """Canonicalize and validate a homogeneous pair.

    Raises DegenerateMapError when the forms share a projective root
    (vanishing resultant) and DomainError on shape problems.
    """
    ring = field.ring
    fco = tuple(ring.coerce(c) for c in fco)
    gco = tuple(ring.coerce(c) for c in gco)
    if len(fco) != len(gco) or len(fco) < 2:
        raise DomainError("forms must have equal degree >= 1")
    content = ring.zero
    for c in fco + gco:
        content = ring.gcd(content, c)
    if not content:
        raise DegenerateMapError("both forms are zero")
    if not ring.is_unit(content):
        fco = tuple(ring.exactdiv(c, content) for c in fco)
        gco = tuple(ring.exactdiv(c, content) for c in gco)
    # the highest-power-first leading coefficient is canonical
    u = ring.unit_inverse(next(c for c in fco[::-1] + gco[::-1] if c))
    if u != 1:
        fco = tuple(ring.scale(c, u) for c in fco)
        gco = tuple(ring.scale(c, u) for c in gco)
    phi = RationalMap(field, fco, gco)
    if not resultant_raw(phi):
        raise DegenerateMapError("forms share a root: resultant vanishes")
    return phi


@lru_cache(maxsize=4096)
def resultant_raw(phi: RationalMap):
    """Res(F, G) in the integral ring (int or coefficient tuple)."""
    return sylvester_resultant(phi.field, phi.fco, phi.gco)


def resultant(phi: RationalMap) -> GlobalFieldElement:
    """Res(F, G) as an integral element of the base field."""
    return phi.field.element(resultant_raw(phi))


def max_coeff_degree(phi: RationalMap) -> int:
    """Largest t-degree among coefficients (function fields only)."""
    return max(map(phi.field.ring.size, phi.fco + phi.gco))


@lru_cache(maxsize=4096)
def bad_places(phi: RationalMap) -> frozenset[Place]:
    """Non-archimedean places where no model keeps a unit resultant."""
    field = phi.field
    ring = field.ring
    out = {Place(field, pi) for pi in ring.factor(resultant_raw(phi))}
    inf = infinite_place(field)
    if not inf.is_archimedean and not has_good_reduction(phi, inf):
        out.add(inf)
    return frozenset(out)


def has_good_reduction(phi: RationalMap, place: Place) -> bool:
    """Whether some model of phi has a unit resultant at `place`, read off
    Res(F, G) there without factoring: Res mod pi != 0 at a finite place,
    where the primitive model is integral, and deg Res = 2*d*M at the
    infinite place of F_p(t) (see the module docstring)."""
    if place.is_archimedean:
        raise DomainError("good reduction is defined at non-archimedean places")
    if place.field != phi.field:
        raise DomainError("map and place over different base fields")
    res, ring = resultant_raw(phi), phi.field.ring
    if place.payload is None:
        return ring.size(res) == 2 * phi.degree * max_coeff_degree(phi)
    return ring.residue(res, place.payload) != 0


# ---------------------------------------------------------------------------
# evaluation


def _eval_pair(ring, fco: tuple, gco: tuple, x, y):
    """F(x, y) and G(x, y) by homogeneous Horner, both forms in one pass.

    f runs through c_d, c_d*x + c_(d-1)*y, ..., ending at
    sum_i c_i x^i y^(d-i); yk is y^(d-i) when c_i is added.
    """
    add, mul = ring.add, ring.mul
    d = len(fco) - 1
    f, g, yk = fco[d], gco[d], ring.one
    for i in range(d - 1, -1, -1):
        yk = mul(yk, y)
        f, g = mul(f, x), mul(g, x)
        c = fco[i]
        if c:
            f = add(f, mul(c, yk))
        c = gco[i]
        if c:
            g = add(g, mul(c, yk))
    return f, g


def map_pair(ring, fco: tuple, gco: tuple, res, x, y):
    """The image of the coprime pair (x, y) under (F, G) with Res(F, G) = res,
    as the canonical coprime pair of `point_from_raw`.

    The common factor of F(x, y) and G(x, y) is taken against the
    resultant instead of by a Euclid run on the two values.  Sylvester
    elimination gives forms A, B, C, D in X, Y with
        A*F + B*G = Res(F, G) * Y^(2d-1),   C*F + D*G = Res(F, G) * X^(2d-1),
    so any common divisor g of F(x, y) and G(x, y) divides
    Res * gcd(x^(2d-1), y^(2d-1)) = Res, because x and y are coprime.
    Hence gcd(F(x, y), G(x, y)) = gcd(Res, F(x, y), G(x, y)) exactly, over
    Z as over F_p[t], and a unit resultant leaves nothing to divide out.
    Over F_p[t] every remainder in that gcd has degree below
    deg Res <= 2*d*M.  This is the one step of `walk_pairs` and of the
    orbit kernel of `dynamics`.
    """
    fx, gx = _eval_pair(ring, fco, gco, x, y)
    g = ring.one
    if not ring.is_unit(res):
        g = ring.gcd(res, fx)
        if not ring.is_unit(g):
            g = ring.gcd(g, gx)
    return canon_pair(ring, fx, gx, g)


def walk_pairs(phi: RationalMap, point: ProjPoint, n: int):
    """The canonical pairs of P, phi(P), ..., phi^n(P), one at a time.  P has
    exact period n when pairs[n] == pairs[0] and pairs[:n] are distinct."""
    field = phi.field
    if field != point.field:
        raise DomainError("map and point over different base fields")
    ring, fco, gco, res = field.ring, phi.fco, phi.gco, resultant_raw(phi)
    x, y = point.x, point.y
    yield x, y
    for _ in range(n):
        x, y = map_pair(ring, fco, gco, res, x, y)
        yield x, y


def _periodic_walk(phi: RationalMap, point: ProjPoint, n: int) -> list:
    """The canonical pairs of P, phi(P), ..., phi^(n-1)(P); PreconditionError
    when n < 1 or phi^n(P) != P."""
    if n < 1:
        raise PreconditionError("period must be >= 1")
    pairs = list(walk_pairs(phi, point, n))
    if pairs.pop() != pairs[0]:
        raise PreconditionError(f"point is not n-periodic: {point} under {phi}, n = {n}")
    return pairs


def iterate_map(phi: RationalMap, point: ProjPoint, n: int) -> ProjPoint:
    """phi^n(P), walked on raw pairs in constant memory."""
    for x, y in walk_pairs(phi, point, n):
        pass
    return ProjPoint(phi.field, x, y)


def apply_map(phi: RationalMap, point: ProjPoint) -> ProjPoint:
    """phi(P), renormalized to canonical coprime coordinates (`map_pair`)."""
    return iterate_map(phi, point, 1)


# ---------------------------------------------------------------------------
# reduction of maps


@dataclass(frozen=True, slots=True)
class ReducedMap:
    """The mod-p map over the residue field, same degree as the original.

    Its points are the nodes of P^1(F_q), and nothing else: node i < q is
    [i : 1], node q is [1 : 0] (`ResidueField.pair`), and the node of a
    point [x : y] is `ResidueField.node(x, y)`.  A prime field builds its
    whole successor table at once; `apply` and every other field step node
    by node (`_successor_step`).
    """

    rfield: ResidueField
    fco: tuple[int, ...]
    gco: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.fco) - 1

    def successors(self) -> list[int]:
        """The image node of every node 0..q.

        Over a prime field the table is built at once: F(x, 1) and G(x, 1)
        for every x by Horner on whole lists (`_horner_table`), then one
        product per node, by the one inverse of a nonzero constant G(x, 1)
        (none when it is 1) or else by `_inverse_table`.  A node where
        G(x, 1) vanishes goes through `rf.node(f, 0)`, which raises
        DomainError when F vanishes there too, and infinity maps to
        [c_d : g_d] mod p.  Extension fields step node by node
        (`_successor_step`).
        """
        rf = self.rfield
        if rf.modulus is not None:
            return list(map(_successor_step(self), range(rf.q + 1)))
        p, fco, gco = rf.p, self.fco, self.gco
        fv = _horner_table(fco, p)
        g0 = gco[0] % p
        if g0 and not any(c % p for c in gco[1:]):
            u = pow(g0, -1, p)
            succ = fv if u == 1 else [f * u % p for f in fv]
        else:
            gv = _horner_table(gco, p)
            inv = _inverse_table(p)
            succ = [f * inv[g] % p for f, g in zip(fv, gv)]
            if 0 in gv:
                for x, g in enumerate(gv):
                    if not g:
                        succ[x] = rf.node(fv[x], 0)
        succ.append(rf.node(fco[-1] % p, gco[-1] % p))
        return succ

    def apply(self, node: int) -> int:
        """The image of one node; DomainError for a node outside 0..q."""
        if not 0 <= node <= self.rfield.q:
            raise DomainError(f"{node} is not a node of P^1({self.rfield})")
        return _successor_step(self)(node)


def _horner_table(co: tuple, p: int) -> list[int]:
    """[C(x, 1) mod p for x in F_p] by Horner on whole lists, from c_d down."""
    xs = range(p)
    vals = [co[-1] % p] * p
    for c in co[-2::-1]:
        vals = [(v * x + c) % p for v, x in zip(vals, xs)]
    return vals


def _inverse_table(p: int) -> array:
    """inv[i] = 1/i in F_p for 0 < i < p, and inv[0] = 0.

    p = (p div i)*i + (p mod i) gives 1/i = -(p div i) * inv[p mod i], and
    p mod i < i, so one pass from 2 up fills the table.
    """
    inv = array("l", [0]) * p
    inv[1] = 1
    for i in range(2, p):
        inv[i] = (p - p // i) * inv[p % i] % p
    return inv


def _successor_step(psi: ReducedMap):
    """node -> image node: the one-node step of `ReducedMap.apply`, of
    `dynamics.reduced_period_data` and of `ReducedMap.successors` over
    extension fields.

    Extension fields with tables skip node 0 (it has no log) and run on
    logs (-1 for zero), a product being a sum of logs and a sum g^a + g^c
    being g^(a + zech[c - a]).  Every other field, prime fields among
    them, evaluates both forms at the node's coordinates by `_eval_pair`
    on the field's own arithmetic, so node q (infinity) maps to
    [c_d : g_d].
    """
    rf, fco, gco = psi.rfield, psi.fco, psi.gco
    t = rf.tables()

    if t is None:

        def step(x):
            return rf.node(*_eval_pair(rf, fco, gco, *rf.pair(x)))

    else:
        q, d = rf.q, psi.degree
        exp, log, zech, n = t.exp, t.log, t.zech, t.n
        ends = {0: (fco[0], gco[0]), q: (fco[d], gco[d])}
        lfd, lgd = log[fco[d]], log[gco[d]]
        lrest = tuple((log[cf], log[cg]) for cf, cg in zip(fco[:d][::-1], gco[:d][::-1]))

        def step(x):
            if not x or x == q:
                return rf.node(*ends[x])
            lx = log[x]
            f, g = lfd, lgd
            for cf, cg in lrest:
                if f < 0:
                    f = cf
                else:
                    f += lx
                    if cf >= 0:
                        z = zech[(cf - f) % n]
                        f = f + z if z >= 0 else -1
                if g < 0:
                    g = cg
                else:
                    g += lx
                    if cg >= 0:
                        z = zech[(cg - g) % n]
                        g = g + z if z >= 0 else -1
            if f >= 0 and g >= 0:
                return exp[(f - g) % n]
            # only whether F and G vanish matters now
            return rf.node(int(f >= 0), int(g >= 0))

    return step


def reduce_map(phi: RationalMap, place: Place) -> ReducedMap:
    """Reduce the coefficients at a good-reduction place."""
    if not has_good_reduction(phi, place):
        raise PreconditionError(f"{phi} has bad reduction at {place}")
    codes = reduce_values(place, phi.fco + phi.gco)
    d = phi.degree
    return ReducedMap(residue_field(place), codes[: d + 1], codes[d + 1 :])


# ---------------------------------------------------------------------------
# multipliers

def cycle_multiplier(ring, fco: tuple, gco: tuple, cycle: list):
    """The multiplier of a cycle of (F, G) as a fraction (num, den) in `ring`.

    `ring` is an integral ring (Z or F_p[t]) or a ResidueField, and `cycle`
    lists the points as coordinate pairs (x, y) in it.  For a step P -> P',
    write (u, v) = (F, G)(P) = mu * P' and let J be the Jacobian of (F, G).
    With a chart chosen at each point, the derivative of the step is
        det(P', J(P) w) / (mu * det(P, w)) * k(P) / k(P')
    for any w off the line of P, where k = y^2 in the chart X/Y and x^2 in
    the chart Y/X.  The k's cancel around the cycle, so no chart is
    chosen: w = (0, 1) with det(P, w) = x, or (1, 0) with det = -y when
    x = 0, and mu = s / c with (c, s) = (x', u), or (y', v) when x' = 0.
    The denominator is nonzero because F and G have no common zero.
    """
    d = len(fco) - 1
    scale, mul, sub = ring.scale, ring.mul, ring.sub
    # the partial derivatives, degree d - 1 forms by ascending X-power
    fx, gx = ([scale(co[i], i) for i in range(1, d + 1)] for co in (fco, gco))
    fy, gy = ([scale(co[i], d - i) for i in range(d)] for co in (fco, gco))
    num = den = ring.one
    for (x, y), (x1, y1) in zip(cycle, cycle[1:] + cycle[:1]):
        u, v = _eval_pair(ring, fco, gco, x, y)
        if x:
            a, b = _eval_pair(ring, fy, gy, x, y)
            det = x
        else:
            a, b = _eval_pair(ring, fx, gx, x, y)
            det = ring.neg(y)
        c, s = (x1, u) if x1 else (y1, v)
        num = mul(num, mul(c, sub(mul(x1, b), mul(y1, a))))
        den = mul(den, mul(s, det))
    return num, den


def multiplier(phi: RationalMap, point: ProjPoint, n: int) -> GlobalFieldElement:
    """The multiplier of a point with phi^n(point) = point, an element of
    the base field.

    Checked by iteration; raises PreconditionError when the point is not
    n-periodic.
    """
    cycle = _periodic_walk(phi, point, n)
    field = phi.field
    return field.element(*cycle_multiplier(field.ring, phi.fco, phi.gco, cycle))


# ---------------------------------------------------------------------------
# the escape criterion used by orbit iteration

CLAUSE_HEIGHT = "height"
CLAUSE_POLYNOMIAL = "polynomial"


@dataclass(frozen=True, slots=True)
class EscapeProof:
    """One clause of the escape criterion and the radius at which it fires.

    The polynomial clause also carries its denominator bound N and its
    radius r as a ring element: r over Z, t^r over F_p[t] (`scale`).
    """

    clause: str  # CLAUSE_HEIGHT or CLAUSE_POLYNOMIAL
    radius: int
    denominator: object = None
    scale: object = None


@dataclass(frozen=True, slots=True)
class EscapeProfile:
    """Divergence data of a map of degree d >= 2 (see `escape_profile`).

    `height` fires at points of height H(P) >= radius over Q, or t-degree
    h(P) >= radius over F_p(t); `constant` is the c of
    H(phi(P)) >= H(P)^d / c over Q, or the a of h(phi(P)) >= d*h(P) - a
    over F_p(t).  Both are None when the cofactors are over budget.
    `polynomial` is None unless the map is [F : g_0*Y^d]; it fires at an
    affine pair (x, y) with y not dividing its denominator bound N, or with
    |x| >= r*|y| over Q (deg x >= r + deg y over F_p(t)).  Neither clause
    contains the other.
    """

    constant: int | None
    height: EscapeProof | None
    polynomial: EscapeProof | None


# The budget of `ring.factor` on the leading coefficient f_d of a
# polynomial map: over Z, units of work (`fields.factor_int`: trial
# divisors, then rho steps); over F_p[t], irreducibles of degree k with p^k
# up to it, tried only on a product of irreducibles of one degree k.  Past
# it N is f_d, which is sound.  Over Q an f_d with no small factor then
# costs the profile at most 0.02 s at 14,000 bits (CPython 3.11, x86-64),
# where the default budget takes 0.9 s.  Over F_p[t] splitting by degree
# takes 4 ms at degree 40 over F_2, and the sieve of the degree-k
# irreducibles, growing as p^k, is built only for an equal-degree product.
DENOMINATOR_FACTOR_BUDGET = 10**3


def _polynomial_proof(phi: RationalMap) -> EscapeProof | None:
    """The polynomial clause of [F : g_0*Y^d], d >= 2; None for other maps.

    The affine map is f(z) = sum a_i z^i with a_i = f_i/g_0 (Benedetto,
    J. reine angew. Math. 608, 2007).  At a finite place v, once
    v(z) < m_v = min(min_i (v(a_i) - v(a_d))/(d - i), -v(a_d)/(d - 1)),
    the leading term rules and v(f(z)) = v(a_d) + d*v(z) < v(z), so v falls
    for ever; a preperiodic z has v(z) >= ceil(m_v), and its denominator y
    divides N = prod pi^max(0, -ceil(m_v)).  With v(a_i) - v(a_d) =
    v(f_i) - v(f_d), -v(a_d) = v(g_0) - v(f_d) and a coefficient of the
    primitive pair that is a unit at v, -m_v <= v(f_d): only the primes
    of f_d count, and N divides f_d.  Where `ring.factor` refuses f_d
    within DENOMINATOR_FACTOR_BUDGET, N is f_d.  Over Q,
    |z| >= r = floor((|g_0| + sum_(i<d) |f_i|)/|f_d|) + 1 gives
    |f(z)| >= |z|^(d-1) * (|a_d|*|z| - sum_(i<d) |a_i|) > |z| >= 1, so |z|
    rises for ever.  Over F_p(t) the infinite place is one more
    place: with D = max(deg g_0, deg f_i) - deg f_d, every z with
    deg z >= r = max(1, D + 1) has deg f(z) = deg a_d + d*deg z > deg z.
    For unit f_d and g_0, N = 1 and r is Sum |f_i| + 2 over Q and
    max(1, max_i deg f_i + 1) over F_p(t).
    """
    fco, gco, d = phi.fco, phi.gco, phi.degree
    if any(gco[1:]):
        return None
    field, ring = phi.field, phi.field.ring
    fd, g0 = fco[d], gco[0]
    # (coefficient, d - i): the lower f_i and g_0, whose weight is d - 1
    terms = [(c, d - i) for i, c in enumerate(fco[:d]) if c] + [(g0, d - 1)]
    try:
        primes = ring.factor(fd, DENOMINATOR_FACTOR_BUDGET)
    except BudgetExceededError:
        denominator = fd
    else:
        denominator = ring.one
        for pi, e in primes.items():
            k = max(0, max((e - ring.split(c, pi)[0]) // w for c, w in terms))
            denominator = ring.mul(denominator, ring.pow(pi, k))
    size = ring.size
    if field.is_rationals:
        r = (abs(g0) + sum(map(abs, fco[:d]))) // abs(fd) + 1
        scale = r
    else:
        r = max(1, max(size(c) for c, _ in terms) - size(fd) + 1)
        scale = (0,) * r + (1,)  # t^r
    return EscapeProof(CLAUSE_POLYNOMIAL, r, denominator, scale)


@lru_cache(maxsize=4096)
def escape_profile(phi: RationalMap) -> EscapeProfile | None:
    """The escape criterion of a map of degree d >= 2; None for degree 1
    and wherever no clause applies.

    Sylvester elimination gives forms A, B, C, D of degree d - 1 with
    A*F + B*G = R * Y^(2d-1) and C*F + D*G = R * X^(2d-1), R = +-Res(F, G).
    For coprime P = (x, y) the common factor g of F(P) and G(P) divides R,
    so over Z, with c = max(|A|_1 + |B|_1, |C|_1 + |D|_1) and
    H(P) = max(|x|, |y|),
        |R| * H(P)^(2d-1) <= c * H(P)^(d-1) * g * H(phi(P)),  g <= |R|,
    that is H(phi(P)) >= H(P)^d / c, and over F_p[t] with degrees in
    place of absolute values h(phi(P)) >= d*h(P) - a, with a the largest
    t-degree among the coefficients of A..D (Call & Silverman, Compositio
    1993; Silverman, *The Arithmetic of Dynamical Systems*, Thm 3.11).
    Once H(P)^(d-1) > c, or (d-1)*h(P) > a, the height grows strictly at
    every later step, so the orbit is infinite.  Over Z the cofactors come
    from `sylvester_resultant` on (F, G) and on (F, G) with X and Y
    swapped; where RESULTANT_BUDGET refuses those runs the height clause
    is left out, and the orbit runs as it would without it.  Over F_p[t]
    every coefficient of A..D is a (2d-1)-minor of the Sylvester matrix,
    so a = (2d-1)*M with M the largest t-degree among the coefficients of
    phi, and no elimination runs.  Polynomial maps also get the clause of
    `_polynomial_proof`.
    """
    fco, gco, d = phi.fco, phi.gco, phi.degree
    if d < 2:
        return None
    field = phi.field
    c = height = None
    if field.is_rationals:
        try:
            runs = (
                sylvester_resultant(field, fco, gco, cofactors=True),
                sylvester_resultant(field, fco[::-1], gco[::-1], cofactors=True),
            )
        except BudgetExceededError:
            pass
        else:
            c = max(sum(map(abs, a + b)) for _, a, b in runs)
            height = EscapeProof(CLAUSE_HEIGHT, integer_root(c, d - 1) + 1)
    else:
        c = (2 * d - 1) * max_coeff_degree(phi)
        height = EscapeProof(CLAUSE_HEIGHT, c // (d - 1) + 1)
    polynomial = _polynomial_proof(phi)
    if height is None and polynomial is None:
        return None
    return EscapeProfile(c, height, polynomial)


def escape_clause(profile: EscapeProfile | None, ring, x, y, h: int) -> EscapeProof | None:
    """The clause of `profile` that proves the orbit of the canonical pair
    (x, y) of height h infinite, or None when neither fires (always None
    for a None profile)."""
    if profile is None:
        return None
    height = profile.height
    if height is not None and h >= height.radius:
        return height
    poly = profile.polynomial
    if poly is None or not y:
        return None
    if y == ring.one:  # the test below with y = 1, cheaper on integral orbits
        return poly if ring.size(x) >= poly.radius else None
    if ring.gcd(poly.denominator, y) != y or ring.size(x) >= ring.size(ring.mul(poly.scale, y)):
        return poly
    return None


# The most coordinate pairs a search lists: `ring.upto` refuses a height
# bound whose pairs pass it.
ENUMERATION_BUDGET = 500_000


def start_box(profile: EscapeProfile | None, ring, height_bound: int):
    """The coordinates (xs, ys), from `ring.upto`, whose coprime pairs and
    infinity hold every canonical pair of height <= height_bound on which
    `escape_clause` does not fire at step 0.

    The bound drops below the height radius.  Under the polynomial clause
    only the y dividing N stay, and the x below r times the largest of
    them.  Every pair left out fires at once; pairs that are kept may fire
    too.  The refusal of `ring.upto` is decided at height_bound, before
    the cut, so a bound refused without a profile is refused with one.
    """
    xs, ys = ring.upto(height_bound, ENUMERATION_BUDGET)
    if profile is None:
        return xs, ys
    height, poly = profile.height, profile.polynomial
    h = height_bound if height is None else min(height_bound, height.radius - 1)
    if poly is None:
        return ring.upto(h, ENUMERATION_BUDGET)
    # a divisor of N is no larger than N
    n, size = poly.denominator, ring.size
    ys = [y for y in ring.upto(min(h, size(n)), ENUMERATION_BUDGET)[1] if ring.gcd(n, y) == y]
    width = max((size(ring.mul(poly.scale, y)) for y in ys), default=1)
    return ring.upto(min(h, width - 1), ENUMERATION_BUDGET)[0], ys
