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

The resultant is the determinant of the 2d x 2d Sylvester matrix.  Over
Z it is computed modulo primes just below 2^62 by Euclid's algorithm on
the dehomogenized forms (Collins 1971; von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 6), with the degree-drop rule
Res_{d,d}(F, G) = f_d^(d - deg g) * Res(f, g) and a swap of F and G when
f_d vanishes.  The rule holds over every field, so no prime is unlucky.
The residues are combined by CRT until the modulus exceeds twice the
Hadamard bound |F|_2^d * |G|_2^d, which makes the value exact.  Inputs
whose cost (primes needed times d^2 + primes) passes RESULTANT_BUDGET are
refused before any reduction.  Over F_p[t] the determinant is computed
fraction-free (Bareiss), so every intermediate value stays in F_p[t];
inputs whose cost estimate passes BAREISS_BUDGET are refused before any
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import fppoly
from .errors import (
    BudgetExceededError,
    DegenerateMapError,
    DomainError,
    PreconditionError,
)
from .fields import (
    KIND_ARCH,
    BaseField,
    GlobalFieldElement,
    Place,
    infinite_place,
    is_prime_int,
    valuation,
)
from .fppoly import Coeffs
from .projective import ProjPoint, ReducedPoint, canon_pair
from .residue import ResidueField, reduce_values, residue_field

# ---------------------------------------------------------------------------
# resultants: modular over Z, fraction-free over F_p[t]

# Largest (CRT primes needed) * (d^2 + primes) accepted over Q: the cost
# of the Euclid runs plus the CRT steps, refused before any reduction.
RESULTANT_BUDGET = 2 * 10**6

# Largest d^3 * (d*M + 16)^2 accepted over F_p[t], M the largest
# coefficient degree: Bareiss makes about d^3 entry updates on polynomials
# of degree up to about d*M, and the 16 stands for the fixed cost of one
# update.  Timed on random dense forms (CPython 3.11, x86-64): d = 40,
# M = 1 (2.0e8) takes 9-14 s and d = 60, M = 0 (5.5e7) 2.6 s; z^200+t
# (3.7e11) would run for minutes.
BAREISS_BUDGET = 25 * 10**7


@lru_cache(maxsize=None)
def _crt_prime(i: int) -> int:
    """The i-th prime below 2^62, counting down.

    Callers ask for i = 0, 1, 2, ... in turn, so the recursion on i - 1
    always stops at a cached value.
    """
    n = _crt_prime(i - 1) - 2 if i else 2**62 - 1
    while not is_prime_int(n):
        n -= 2
    return n


def _resultant_mod(ell: int, fco: tuple, gco: tuple) -> int:
    """Res_{d,d}(F, G) mod the prime ell, by Euclid over F_ell.

    With f_d != 0 and n = deg g, Res_{d,d}(F, G) = f_d^(d-n) * Res(f, g);
    with f_d = 0 the rows swap, Res_{d,d}(F, G) = (-1)^d * Res_{d,d}(G, F);
    with f_d = g_d = 0 the first Sylvester column vanishes.  These hold
    over every field, so every prime gives the true residue.
    """
    d = len(fco) - 1
    f = [c % ell for c in reversed(fco)]  # descending X-power
    g = [c % ell for c in reversed(gco)]
    sign = 1
    if not f[0]:
        if not g[0]:
            return 0
        f, g = g, f
        sign = -1 if d & 1 else 1
    k = next((i for i, c in enumerate(g) if c), None)
    if k is None:
        return 0
    acc = pow(f[0], k, ell)
    g = g[k:]
    m = d
    # Res(f, g) = (-1)^(mn) * lc(g)^(m - deg r) * Res(g, r), r = f mod g
    while len(g) > 1:
        n = len(g) - 1
        inv = pow(g[0], -1, ell)
        tail = g[1:]
        r = f
        for _ in range(m - n + 1):
            c = r[0] * inv % ell
            r = [a - c * b for a, b in zip(r[1:], tail)] + r[n + 1 :]
        r = [a % ell for a in r]  # one reduction per division step
        k = next((i for i, c in enumerate(r) if c), None)
        if k is None:
            return 0
        if m * n & 1:
            sign = -sign
        acc = acc * pow(g[0], m - n + 1 + k, ell) % ell
        f, g, m = g, r[k:], n
    acc = acc * pow(g[0], m, ell) % ell
    return acc if sign > 0 else -acc % ell


def _resultant_int(fco: tuple, gco: tuple) -> int:
    """Res_{d,d}(F, G) over Z from residues modulo primes below 2^62.

    Hadamard on the Sylvester rows gives |Res| <= |F|_2^d * |G|_2^d, so
    residues combined by CRT past twice that bound fix the value exactly.
    """
    d = len(fco) - 1
    sf = sum(c * c for c in fco)
    sg = sum(c * c for c in gco)
    if not sf or not sg:
        return 0
    # each prime exceeds 2^61 and 2 * bound < 2^(d * (bits sf + bits sg) / 2 + 1)
    nprimes = (d * (sf.bit_length() + sg.bit_length()) // 2 + 2) // 61 + 1
    if nprimes * (d * d + nprimes) > RESULTANT_BUDGET:
        raise BudgetExceededError(
            f"resultant at degree {d} needs about {nprimes} CRT primes"
        )
    bound_sq = 4 * (sf * sg) ** d  # (2 * Hadamard bound)^2
    value, modulus = 0, 1
    i = 0
    while modulus * modulus <= bound_sq:
        ell = _crt_prime(i)
        i += 1
        t = (_resultant_mod(ell, fco, gco) - value) * pow(modulus, -1, ell) % ell
        value += modulus * t
        modulus *= ell
    return value - modulus if 2 * value > modulus else value


def _bareiss_det(p: int, rows) -> Coeffs:
    """Fraction-free determinant over F_p[t]; every division is exact."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = fppoly.ONE
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return fppoly.ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = fppoly.psub(
                    p,
                    fppoly.pmul(p, m[i][j], m[k][k]),
                    fppoly.pmul(p, m[i][k], m[k][j]),
                )
                m[i][j] = fppoly.pexactdiv(p, num, prev)
            m[i][k] = fppoly.ZERO
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return fppoly.pneg(p, det) if sign < 0 else det


def sylvester_resultant(field: BaseField, fco: tuple, gco: tuple):
    """Resultant of two degree-d coefficient tuples (ascending X-power).

    The determinant of the 2d x 2d Sylvester matrix with the d rows of F
    first, coefficients by descending X-power: by CRT over Z, by Bareiss
    elimination over F_p[t].
    """
    if field.is_rationals:
        return _resultant_int(fco, gco)
    d = len(fco) - 1
    M = max(map(len, fco + gco)) - 1
    if d**3 * (d * M + 16) ** 2 > BAREISS_BUDGET:
        raise BudgetExceededError(
            f"Bareiss resultant at degree {d} with coefficient degree {M} is over budget"
        )
    zero = fppoly.ZERO
    frow = list(reversed(fco))  # univariate-in-X descending coefficients
    grow = list(reversed(gco))
    n = 2 * d
    rows = []
    for i in range(d):
        rows.append([zero] * i + frow + [zero] * (n - d - 1 - i))
    for i in range(d):
        rows.append([zero] * i + grow + [zero] * (n - d - 1 - i))
    return _bareiss_det(field.char, rows)


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

    def apply(self, point: ProjPoint) -> ProjPoint:
        return apply_map(self, point)

    def affine_str(self) -> str:
        num = _form_affine_str(self.field, self.fco)
        den = _form_affine_str(self.field, self.gco)
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


def _form_affine_str(field: BaseField, co: tuple, var: str = "z") -> str:
    terms = []
    for i in range(len(co) - 1, -1, -1):
        c = co[i]
        if not c:
            continue
        cs = field.ring.to_str(c)
        if i == 0:
            term = cs
        else:
            power = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                term = power
            elif cs == "-1":
                term = f"-{power}"
            elif cs.lstrip("-").isdigit():
                term = f"{cs}*{power}"
            else:  # a polynomial in t
                term = f"({cs})*{power}"
        terms.append(term)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


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
    return max(fppoly.pdeg(c) for c in phi.fco + phi.gco)


@lru_cache(maxsize=4096)
def bad_places(phi: RationalMap, budget: int = 10**6) -> frozenset[Place]:
    """Non-archimedean places where no model keeps a unit resultant."""
    res = resultant_raw(phi)
    field = phi.field
    ring = field.ring
    out = {Place(field, ring.place_kind, pi) for pi in ring.factor(res, budget)}
    # at the infinite place of F_p(t) the integral model is t^-M (F, G);
    # its resultant has v_inf = 2*d*M - deg Res, minimal over all models
    inf = infinite_place(field)
    if not inf.is_archimedean and ring.size(res) < 2 * phi.degree * max_coeff_degree(phi):
        out.add(inf)
    return frozenset(out)


def has_good_reduction(phi: RationalMap, place: Place) -> bool:
    if place.kind == KIND_ARCH:
        raise DomainError("good reduction is defined at non-archimedean places")
    return place not in bad_places(phi)


# ---------------------------------------------------------------------------
# evaluation


def _eval_pair(ring, fco: tuple, gco: tuple, x, y):
    """F(x, y) and G(x, y) by homogeneous Horner over one table of y-powers.

    acc runs through c_d, c_d*x + c_(d-1)*y, ..., ending at
    sum_i c_i x^i y^(d-i).
    """
    add, mul = ring.add, ring.mul
    d = len(fco) - 1
    yp = [ring.one] * (d + 1)
    for i in range(1, d + 1):
        yp[i] = mul(yp[i - 1], y)
    out = []
    for co in (fco, gco):
        acc = co[d]
        for i in range(d - 1, -1, -1):
            acc = mul(acc, x)
            if co[i]:
                acc = add(acc, mul(co[i], yp[d - i]))
        out.append(acc)
    return out


def apply_map(phi: RationalMap, point: ProjPoint) -> ProjPoint:
    """phi(P), renormalized to canonical coprime coordinates.

    The common factor of F(x, y) and G(x, y) is taken against the
    resultant instead of by a Euclid run on the two values.  Sylvester
    elimination gives forms A, B, C, D in X, Y with
        A*F + B*G = Res(F, G) * Y^(2d-1),   C*F + D*G = Res(F, G) * X^(2d-1),
    so any common divisor g of F(x, y) and G(x, y) divides
    Res * gcd(x^(2d-1), y^(2d-1)) = Res, because the coordinates of a
    canonical point are coprime.  Hence gcd(F(x, y), G(x, y)) =
    gcd(Res, F(x, y), G(x, y)) exactly, over Z as over F_p[t], and a unit
    resultant leaves nothing to divide out.  Over F_p[t] every remainder
    in that gcd has degree below deg Res <= 2*d*M.  Dividing by it and
    scaling to the canonical unit gives the same point as `point_from_raw`.
    """
    field = phi.field
    if field != point.field:
        raise DomainError("map and point over different base fields")
    ring = field.ring
    fx, gx = _eval_pair(ring, phi.fco, phi.gco, point.x, point.y)
    res = resultant_raw(phi)
    g = ring.one
    if not ring.is_unit(res):
        g = ring.gcd(res, fx)
        if not ring.is_unit(g):
            g = ring.gcd(g, gx)
    return ProjPoint(field, *canon_pair(ring, fx, gx, g))


def iterate_map(phi: RationalMap, point: ProjPoint, n: int) -> ProjPoint:
    for _ in range(n):
        point = apply_map(phi, point)
    return point


# ---------------------------------------------------------------------------
# reduction of maps


@dataclass(frozen=True, slots=True)
class ReducedMap:
    """The mod-p map over the residue field, same degree as the original.

    Its points are the nodes of P^1(F_q): node i < q is [i : 1], node q is
    [1 : 0] (see ReducedPoint.code).
    """

    rfield: ResidueField
    fco: tuple[int, ...]
    gco: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.fco) - 1

    def successors(self) -> list[int]:
        """The image node of every node 0..q."""
        return list(map(_successor_step(self), range(self.rfield.q + 1)))

    def apply(self, point: ReducedPoint) -> ReducedPoint:
        rf = self.rfield
        if point.rfield != rf:
            raise DomainError("point of a different residue field")
        if point.y not in (0, 1):
            point = ReducedPoint.make(rf, point.x, point.y)
        return ReducedPoint.from_code(rf, _successor_step(self)(point.code()))


@lru_cache(maxsize=64)
def _successor_step(psi: ReducedMap):
    """node -> image node, by Horner on F(x, 1) and G(x, 1) from c_d down.

    Node q (infinity) maps to [c_d : g_d].  Prime fields run on ints mod p
    with one modular inverse.  Extension fields with exp/log tables skip
    node 0 (it has no log): over F_2 they run on codes, a sum being an XOR
    and a product exp[log a + log b]; over odd p they run on logs (-1 for
    zero), a sum g^a + g^c being g^(a + zech[c - a]).  Other extensions
    use the field's polynomial arithmetic.
    """
    rf = psi.rfield
    p, q, d = rf.p, rf.q, psi.degree
    fco, gco = psi.fco, psi.gco
    fd, gd = fco[d], gco[d]
    rest = tuple(zip(fco[:d][::-1], gco[:d][::-1]))
    ends = {0: (fco[0], gco[0]), q: (fd, gd)}
    t = rf.tables()

    if rf.modulus is None:

        def step(x):
            if x == q:
                return ReducedPoint.make(rf, fd, gd).code()
            f, g = fd, gd
            for cf, cg in rest:
                f = (f * x + cf) % p
                g = (g * x + cg) % p
            if g:
                return f * pow(g, -1, p) % p
            return ReducedPoint.make(rf, f, g).code()

    elif t is None:
        mul, add = rf.mul, rf.add

        def step(x):
            if x == q:
                return ReducedPoint.make(rf, fd, gd).code()
            f, g = fd, gd
            for cf, cg in rest:
                f = add(mul(f, x), cf)
                g = add(mul(g, x), cg)
            return ReducedPoint.make(rf, f, g).code()

    elif p == 2:
        exp, log, n = t.exp, t.log, t.n

        def step(x):
            if not x or x == q:
                return ReducedPoint.make(rf, *ends[x]).code()
            lx = log[x]
            f, g = fd, gd
            for cf, cg in rest:
                if f:
                    f = exp[log[f] + lx]
                if g:
                    g = exp[log[g] + lx]
                f ^= cf
                g ^= cg
            if f and g:
                return exp[log[f] - log[g] + n]
            return ReducedPoint.make(rf, f, g).code()

    else:
        exp, log, zech, n = t.exp, t.log, t.zech, t.n
        lfd, lgd = log[fd], log[gd]
        lrest = tuple((log[cf], log[cg]) for cf, cg in rest)

        def step(x):
            if not x or x == q:
                return ReducedPoint.make(rf, *ends[x]).code()
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
            return ReducedPoint.make(rf, int(f >= 0), int(g >= 0)).code()

    return step


def reduce_map(phi: RationalMap, place: Place) -> ReducedMap:
    """Reduce the coefficients at a good-reduction place."""
    if place.kind == KIND_ARCH:
        raise DomainError("cannot reduce at the archimedean place")
    if place in bad_places(phi):
        raise PreconditionError(f"{phi} has bad reduction at {place}")
    codes = reduce_values(place, phi.fco + phi.gco)
    d = phi.degree
    return ReducedMap(residue_field(place), codes[: d + 1], codes[d + 1 :])


# ---------------------------------------------------------------------------
# multipliers

_INF_MARK = object()  # chart marker for the point at infinity


def _horner(field, co: list, z):
    acc = field.from_int(0)
    for c in reversed(co):
        acc = field.add(field.mul(acc, z), c)
    return acc


def _deriv(field, co: list) -> list:
    return [field.mul(co[i], field.from_int(i)) for i in range(1, len(co))]


def _rational_derivative(field, num: list, den: list, z):
    """d/dz (num/den) at z; caller guarantees den(z) != 0."""
    nz = _horner(field, num, z)
    dz = _horner(field, den, z)
    npz = _horner(field, _deriv(field, num), z)
    dpz = _horner(field, _deriv(field, den), z)
    return field.div(
        field.sub(field.mul(npz, dz), field.mul(nz, dpz)), field.mul(dz, dz)
    )


def cycle_multiplier(field, fco: list, gco: list, cycle: list):
    """Derivative of the n-th iterate along a cycle, by the chain rule.

    `field` is a BaseField (elements GlobalFieldElement) or a ResidueField
    (elements int codes); both give from_int, add, sub, mul and div.
    `cycle` lists the affine values of the cycle points with _INF_MARK for
    the point at infinity; fco/gco are the affine numerator/denominator
    coefficients (ascending).  Chart changes w = 1/z are applied wherever
    a step enters or leaves infinity, and the telescoped product is the
    chart-independent multiplier of the cycle.
    """
    n = len(cycle)
    frev = list(reversed(fco))
    grev = list(reversed(gco))
    zero = field.from_int(0)
    result = field.from_int(1)
    for i in range(n):
        z = cycle[i]
        z_next = cycle[(i + 1) % n]
        at_inf = z is _INF_MARK
        next_inf = z_next is _INF_MARK
        if not at_inf and not next_inf:
            factor = _rational_derivative(field, fco, gco, z)
        elif not at_inf and next_inf:
            factor = _rational_derivative(field, gco, fco, z)
        elif at_inf and not next_inf:
            # chart w = 1/z; phi(1/w) = frev(w)/grev(w), evaluated at w = 0
            factor = _rational_derivative(field, frev, grev, zero)
        else:
            factor = _rational_derivative(field, grev, frev, zero)
        result = field.mul(result, factor)
        if result == zero:
            return result
    return result


@dataclass(frozen=True, slots=True)
class MultiplierValue:
    value: GlobalFieldElement
    period: int
    point: ProjPoint


def affine_coefficients(phi: RationalMap) -> tuple[list, list]:
    """F(z, 1) and G(z, 1) as ascending lists of field elements."""
    field = phi.field
    return (
        [field.element(c) for c in phi.fco],
        [field.element(c) for c in phi.gco],
    )


def multiplier(phi: RationalMap, point: ProjPoint, n: int) -> MultiplierValue:
    """The multiplier of a point with phi^n(point) = point.

    Checked by iteration; raises PreconditionError when the point is not
    n-periodic.
    """
    if n < 1:
        raise PreconditionError("period must be >= 1")
    cycle_pts = [point]
    current = point
    for _ in range(n):
        current = apply_map(phi, current)
        cycle_pts.append(current)
    if cycle_pts[-1] != point:
        raise PreconditionError(f"{point} is not {n}-periodic under {phi}")
    fco, gco = affine_coefficients(phi)
    chain = [
        _INF_MARK if q.is_infinity else q.affine() for q in cycle_pts[:-1]
    ]
    value = cycle_multiplier(phi.field, fco, gco, chain)
    return MultiplierValue(value, n, point)


class Classification:
    ATTRACTING = "attracting"
    INDIFFERENT = "indifferent"
    REPELLING = "repelling"


def classify_periodic_point(
    phi: RationalMap, point: ProjPoint, n: int, place: Place
) -> str:
    """Attracting / indifferent / repelling from the multiplier valuation.

    A vanishing multiplier counts as attracting (valuation +infinity).
    The place must be one of good reduction for phi.
    """
    if place.kind == KIND_ARCH:
        raise DomainError("classification needs a non-archimedean place")
    if place in bad_places(phi):
        raise PreconditionError(f"bad reduction at {place}")
    lam = multiplier(phi, point, n).value
    if lam.is_zero:
        return Classification.ATTRACTING
    v = valuation(lam, place)
    if v > 0:
        return Classification.ATTRACTING
    if v == 0:
        return Classification.INDIFFERENT
    return Classification.REPELLING


# ---------------------------------------------------------------------------
# data for the escape criterion used by orbit iteration


@dataclass(frozen=True, slots=True)
class EscapeProfile:
    """Rigorous divergence data for maps [F : u*Y^d], d >= 2, with unit u
    and unit leading coefficient of F.

    Over Q: a non-unit denominator grows strictly forever, and an integer
    point z with |z| >= radius satisfies |phi(z)| >= 2|z|, so either way
    the orbit is provably infinite.  Over F_p(t) the same holds with
    degrees in place of absolute values.
    """

    radius: int  # escape radius for |z| (Q) or deg z (F_p(t))


def escape_profile(phi: RationalMap) -> EscapeProfile | None:
    """The divergence profile, or None when the criterion does not apply."""
    d = phi.degree
    if d < 2:
        return None
    field = phi.field
    if field.is_rationals:
        if any(phi.gco[i] != 0 for i in range(1, d + 1)):
            return None
        if abs(phi.gco[0]) != 1 or abs(phi.fco[d]) != 1:
            return None
        s = sum(abs(phi.fco[i]) for i in range(d))
        return EscapeProfile(radius=s + 2)
    if any(phi.gco[i] for i in range(1, d + 1)):
        return None
    if fppoly.pdeg(phi.gco[0]) != 0 or fppoly.pdeg(phi.fco[d]) != 0:
        return None
    t = max((fppoly.pdeg(phi.fco[i]) for i in range(d) if phi.fco[i]), default=0)
    return EscapeProfile(radius=max(t + 1, 1))
