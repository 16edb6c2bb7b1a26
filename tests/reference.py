"""Independent oracles for the test suite.

Everything here deliberately recomputes results by a different route than
the package: determinants by Gaussian elimination over Q or a residue
field, or by cofactor expansion, instead of the subresultant PRS,
resultants from the values of a form at the roots of a split one, powers
by repeated multiplication instead of square-and-multiply, irreducibility
by all-pairs product enumeration instead of the product sieve or Ben-Or's
test, F_p[t] factorizations by trial division in enumeration order (the
routine that distinct-degree factorization replaced) instead of splitting
by degree, polynomial products by the plain double loop instead of
`fppoly.pmul`, quotients by dense long division instead of the sparse
loop of `fppoly.pdivmod`, residue-field arithmetic on coefficient tuples
instead of exp/log tables, primality by trial division instead of
Miller-Rabin, cycle multipliers by the affine chain rule with chart swaps
at infinity instead of the homogeneous Jacobian, valuations by dividing out one prime
at a time instead of splitting off its square, powers, S-strips and
S-units by gcd-normalized field products and quotients instead of ring
powers and exact division, orbits by a loop over ProjPoints through the public
`apply_map` and `escape_test` instead of the coordinate-pair kernel,
searches over the points of `brute_points` instead of the search's own
enumeration, parsed
maps and elements by arithmetic in K and an lcm of denominators instead
of fractions over the integral ring, points by splitting the brackets at
':' and normalizing two parsed elements instead of the bracket grammar of
the maps, tokens by one regex match per token instead of one `finditer`
scan, functional-graph decompositions by the two-list walk (a state and a
depth per node, a path for every start) instead of one depth list, value
tables by Horner at each x instead of summed forward differences, and so
on.
Oracle outputs are either compared live or frozen into expected values in
the test modules.
"""

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from arithdyn import fppoly
from arithdyn.dynamics import (
    REASON_ESCAPE,
    REASON_HEIGHT,
    REASON_STEPS,
    Budget,
    ExceededBudget,
    OrbitReport,
    SearchResult,
    validate_orbit_report,
)
from arithdyn.errors import BudgetExceededError, DomainError, MapParseError
from arithdyn.fields import (
    MAX_BOUND_DIGITS,
    BaseField,
    GlobalFieldElement,
    infinite_place,
    valuation,
)
from arithdyn.fppoly import power
from arithdyn.parsing import _check_degree, _Parser
from arithdyn.projective import ProjPoint, from_affine, infinity, normalize
from arithdyn.ratmap import RationalMap, apply_map, escape_profile, escape_test, make_map
from arithdyn.sunit import _free_places, s_unit_generators


def frac_det(rows) -> Fraction:
    """Determinant over Q by plain Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / inv
            if factor:
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]
    return det


def schoolbook_pmul(p: int, a, b) -> tuple:
    """Product over F_p by the plain double loop, trimmed like fppoly."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    out = [c % p for c in out]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def schoolbook_pdivmod(p: int, a, b) -> tuple[tuple, tuple]:
    """Quotient and remainder over F_p by dense long division: every step
    subtracts the whole shifted divisor, zero coefficients included, and
    the leading coefficient is inverted by search."""
    inv = next(c for c in range(1, p) if c * b[-1] % p == 1)
    rem, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] * inv % p
        shift = len(rem) - len(b)
        q[shift] = c
        rem = [(r - c * (b[i - shift] if 0 <= i - shift < len(b) else 0)) % p
               for i, r in enumerate(rem)]
        while rem and rem[-1] == 0:
            rem.pop()
    while q and q[-1] == 0:
        q.pop()
    return tuple(q), tuple(rem)


def eval_form_ff(p: int, co, x, y) -> tuple:
    """sum_i co[i] * x^i * y^(d-i) over F_p[t] from explicit monomials."""
    d = len(co) - 1
    total = ()
    for i, c in enumerate(co):
        term = c
        for _ in range(i):
            term = schoolbook_pmul(p, term, x)
        for _ in range(d - i):
            term = schoolbook_pmul(p, term, y)
        total = fppoly.padd(p, total, term)
    return total


def map_step(phi, x, y):
    """The canonical coprime coordinates of phi([x : y]) from explicit
    monomial sums and a Euclid gcd: y positive (monic over F_p[t]), or x
    when y = 0."""
    d = phi.degree
    p = phi.field.char
    if not p:
        fx = sum(c * x**i * y ** (d - i) for i, c in enumerate(phi.fco))
        gx = sum(c * x**i * y ** (d - i) for i, c in enumerate(phi.gco))
        g = math.gcd(fx, gx)
        fx, gx = fx // g, gx // g
        return (-fx, -gx) if gx < 0 or (gx == 0 and fx < 0) else (fx, gx)
    fx, gx = eval_form_ff(p, phi.fco, x, y), eval_form_ff(p, phi.gco, x, y)
    g = fppoly.pgcd(p, fx, gx)
    fx, gx = fppoly.pdivmod(p, fx, g)[0], fppoly.pdivmod(p, gx, g)[0]
    u = pow((gx or fx)[-1], -1, p)
    return fppoly.pscale(p, fx, u), fppoly.pscale(p, gx, u)


def poly_det(rows, p: int):
    """Determinant over F_p[t] by cofactor expansion along the first column."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = fppoly.ZERO
    for i in range(n):
        if not rows[i][0]:
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = schoolbook_pmul(p, rows[i][0], poly_det(minor, p))
        if i % 2:
            term = fppoly.pneg(p, term)
        total = fppoly.padd(p, total, term)
    return total


def sylvester_rows(fco, gco, zero):
    """Sylvester matrix rows for two degree-d coefficient tuples (ascending)."""
    d = len(fco) - 1
    frow = list(reversed(fco))
    grow = list(reversed(gco))
    n = 2 * d
    rows = []
    for i in range(d):
        rows.append([zero] * i + frow + [zero] * (n - d - 1 - i))
    for i in range(d):
        rows.append([zero] * i + grow + [zero] * (n - d - 1 - i))
    return rows


def _ring_ops(p):
    """(zero, one, mul, add, neg) on ints, or on F_p[t] tuples with
    schoolbook products when p is given."""
    if p is None:
        return 0, 1, (lambda a, b: a * b), (lambda a, b: a + b), (lambda a: -a)
    return (
        (),
        (1,),
        lambda a, b: schoolbook_pmul(p, a, b),
        lambda a, b: fppoly.padd(p, a, b),
        lambda a: fppoly.pneg(p, a),
    )


def form_from_linear_factors(factors, p=None) -> tuple:
    """prod (a*X - b*Y) over the pairs (a, b), ascending X-power.

    Over Z by default, over F_p[t] (a, b coefficient tuples) when p is given.
    """
    zero, one, mul, add, neg = _ring_ops(p)
    co = [one]
    for a, b in factors:
        out = [zero] * (len(co) + 1)
        for i, c in enumerate(co):
            out[i + 1] = add(out[i + 1], mul(a, c))
            out[i] = add(out[i], neg(mul(b, c)))
        co = out
    return tuple(co)


def resultant_by_roots(fco, factors, p=None):
    """Res(F, prod (a_i X - b_i Y)) from the values of F at the roots.

    Res(F, aX - bY) = (-1)^d F(b, a) for F of degree d, and the resultant
    is multiplicative in each argument, so no elimination is involved.
    F(b, a) is summed by Horner's rule in the homogeneous form.  Over Z by
    default, over F_p[t] when p is given.
    """
    zero, one, mul, add, neg = _ring_ops(p)
    d = len(fco) - 1
    out = one
    for a, b in factors:
        value, apow = fco[d], one
        for c in reversed(fco[:d]):
            apow = mul(apow, a)
            value = add(mul(value, b), mul(c, apow))
        out = mul(out, neg(value) if d % 2 else value)
    return out


def repeated_pow(algebra, a, e: int):
    """a^e by e multiplications from 1, as the parser once computed it."""
    out = algebra.const(1)
    for _ in range(e):
        out = algebra.mul(out, a)
    return out


def brute_monic_irreducibles(p: int, n: int) -> set:
    """Monic irreducibles of degree n by enumerating ALL factor pairs."""
    def monics(deg):
        for cs in product(range(p), repeat=deg):
            yield tuple(cs) + (1,)

    composites = set()
    for a in range(1, n):
        b = n - a
        if b < 1:
            continue
        for g in monics(a):
            for h in monics(b):
                composites.add(schoolbook_pmul(p, g, h))
    return {f for f in monics(n) if f not in composites}


# The two F_p[t] routines that distinct-degree factorization replaced, kept
# as written: Ben-Or's loop on its own, and trial division in enumeration
# order that stops once the part left passes that loop.
def reference_is_irreducible(p: int, a) -> bool:
    """Irreducibility of a nonconstant polynomial by Ben-Or's test.

    a of degree n is reducible iff it has a factor of some degree
    k <= n/2, that is iff gcd(t^(p^k) - t, a) != 1 for some k <= n/2; a
    reducible a exits at the degree of its smallest factor.
    """
    n = fppoly.pdeg(a)
    if n < 2:
        return n == 1
    t = frob = (0, 1)  # frob = t^(p^k) mod a
    for _ in range(n // 2):
        frob = fppoly.ppow_mod(p, frob, p, a)
        if fppoly.pgcd(p, fppoly.psub(p, frob, t), a) != fppoly.ONE:
            return False
    return True


def reference_factor_poly(p: int, a, budget: int = 10**6) -> dict:
    """Factor a nonzero polynomial into monic irreducibles.

    Each squarefree part is split by trial division in enumeration order,
    and the division stops once the part left passes
    `reference_is_irreducible`.  Candidates of degree k with p^k > budget
    are never tried: a cofactor of degree below 2k is then irreducible,
    and a reducible one of degree 2k or more raises BudgetExceededError.
    The budget is checked before the irreducibility test, so a part of
    degree >= 2 is refused, irreducible or not, when even p > budget.
    """
    if not a:
        raise DomainError("cannot factor the zero polynomial")
    factors = {}
    for part, e in fppoly._squarefree_parts(p, fppoly.pmonic(p, a)):
        fresh = True  # part has not been tested since it last changed
        for g in fppoly.iter_monic_irreducibles(p):
            k = fppoly.pdeg(g)
            if 2 * k > fppoly.pdeg(part):
                break
            if p**k > budget:
                raise BudgetExceededError(
                    f"factorization cofactor of degree {fppoly.pdeg(part)} over F_{p} "
                    f"needs trial divisors of degree {k}, over budget {budget}"
                )
            if fresh and reference_is_irreducible(p, part):
                break
            q, r = fppoly.pdivmod(p, part, g)
            fresh = not r
            if not r:
                factors[g] = e
                part = q
        if fppoly.pdeg(part) >= 1:
            factors[part] = e
    return factors


def brute_points(p: int, H: int) -> set:
    """Coordinates (x, y) of every point of P^1 of height <= H, without a gcd.

    Over Q (p = 0) the reduced fractions x/y with |x|, |y| <= H by
    `Fraction`; over F_p(t) the pairs of degree <= H with monic y, minus
    every multiple g*(x, y) by a monic g of positive degree.  Plus [1 : 0].
    """
    if not p:
        points = {
            (f.numerator, f.denominator)
            for y in range(1, H + 1)
            for f in (Fraction(x, y) for x in range(-H, H + 1))
        }
        return points | {(1, 0)}

    def monic(deg):
        return [lower + (1,) for lower in product(range(p), repeat=deg)]

    def upto(h):
        """(every polynomial of degree <= h, the monic ones)."""
        monics = [y for deg in range(h + 1) for y in monic(deg)]
        scaled = [tuple(c * v % p for v in y) for c in range(1, p) for y in monics]
        return [()] + scaled, monics

    xs, ys = upto(H)
    pairs = {(x, y) for x in xs for y in ys}
    multiples = set()
    for a in range(1, H + 1):
        xs, ys = upto(H - a)
        for g in monic(a):
            multiples |= {
                (schoolbook_pmul(p, g, x), schoolbook_pmul(p, g, y)) for x in xs for y in ys
            }
    return (pairs - multiples) | {((1,), ())}


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class PolyResidueField:
    """F_p[u]/(modulus) on coefficient tuples: schoolbook products, pdivmod.

    The modulus (0, 1) gives F_p itself.  Elements cross the interface as
    the package's base-p codes.
    """

    def __init__(self, p: int, modulus):
        self.p = p
        self.modulus = tuple(modulus)
        self.q = p ** (len(modulus) - 1)

    def _red(self, a):
        return fppoly.pdivmod(self.p, a, self.modulus)[1]

    def _mul(self, a, b):
        return self._red(schoolbook_pmul(self.p, a, b))

    def _pow(self, a, e: int):
        out = self._red((1,))
        for bit in bin(e)[2:]:
            out = self._mul(out, out)
            if bit == "1":
                out = self._mul(out, a)
        return out

    def mul(self, a: int, b: int) -> int:
        p = self.p
        return fppoly.pcode(p, self._mul(fppoly.pfromcode(p, a), fppoly.pfromcode(p, b)))

    def add(self, a: int, b: int) -> int:
        p = self.p
        return fppoly.pcode(p, fppoly.padd(p, fppoly.pfromcode(p, a), fppoly.pfromcode(p, b)))

    def inv(self, a: int) -> int:
        return fppoly.pcode(self.p, self._pow(fppoly.pfromcode(self.p, a), self.q - 2))

    def det(self, rows) -> int:
        """Determinant of a square matrix of codes by Gaussian elimination,
        on addition and multiplication tables built from add and mul."""
        q = self.q
        add = [[self.add(a, b) for b in range(q)] for a in range(q)]
        mul = [[self.mul(a, b) for b in range(q)] for a in range(q)]
        neg = [row.index(0) for row in add]
        m = [list(r) for r in rows]
        n = len(m)
        det = 1
        for k in range(n):
            pivot = next((i for i in range(k, n) if m[i][k]), None)
            if pivot is None:
                return 0
            if pivot != k:
                m[k], m[pivot] = m[pivot], m[k]
                det = neg[det]
            det = mul[det][m[k][k]]
            inv = self.inv(m[k][k])
            for i in range(k + 1, n):
                if m[i][k]:
                    f = neg[mul[m[i][k]][inv]]
                    mf, mk, mi = mul[f], m[k], m[i]
                    for j in range(k, n):
                        mi[j] = add[mi[j]][mf[mk[j]]]
        return det

    def order(self, a: int) -> int:
        """Multiplicative order by repeated multiplication."""
        e, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            e += 1
        return e

    def successors(self, fco, gco, nodes=None) -> list:
        """The image node of every node of P^1, or of each of `nodes`: [i : 1]
        is node i, [1 : 0] node q.

        [F(x, y) : G(x, y)] is summed from explicit monomials c_i x^i y^(d-i)
        and divided by G^(q-2); None marks a node where F and G both vanish.
        """
        p, q, d = self.p, self.q, len(fco) - 1
        out = []
        for node in range(q + 1) if nodes is None else nodes:
            x, y = ((1,), ()) if node == q else (fppoly.pfromcode(p, node), (1,))
            f, g = (
                self._form([fppoly.pfromcode(p, c) for c in co], d, x, y)
                for co in (fco, gco)
            )
            if not g:
                out.append(q if f else None)
            else:
                out.append(fppoly.pcode(p, self._mul(f, self._pow(g, q - 2))))
        return out

    def _form(self, co, d, x, y):
        total = ()
        for i, c in enumerate(co):
            term = self._mul(self._mul(c, self._pow(x, i)), self._pow(y, d - i))
            total = fppoly.padd(self.p, total, term)
        return total


# ---------------------------------------------------------------------------
# cycle multipliers by the affine chain rule, the package's kernel before
# the homogeneous Jacobian replaced it (kept verbatim below the adapters)


class GlobalFieldOps:
    """from_int, add, sub, mul and div on the elements of Q or F_p(t)."""

    add, sub, mul, div = operator.add, operator.sub, operator.mul, operator.truediv

    def __init__(self, field):
        self.from_int = field.element


class ResidueFieldOps:
    """from_int, add, sub, mul and div on the int codes of a ResidueField."""

    def __init__(self, rf):
        self.from_int = lambda n: n % rf.p
        self.add, self.sub, self.mul, self.div = rf.add, rf.sub, rf.mul, rf.div


def chart_swap_multiplier(phi, cycle):
    """The multiplier of a cycle of ProjPoints of a RationalMap, a field element."""
    field = phi.field
    chain = [_INF_MARK if q.is_infinity else q.affine() for q in cycle]
    fco = [field.element(c) for c in phi.fco]
    gco = [field.element(c) for c in phi.gco]
    return cycle_multiplier(GlobalFieldOps(field), fco, gco, chain)


def reduced_chart_swap_multiplier(psi, cycle) -> int:
    """The multiplier of a cycle of nodes of a ReducedMap, an int code: node
    x < q is the affine value x, node q is the point at infinity."""
    q = psi.rfield.q
    chain = [_INF_MARK if x == q else x for x in cycle]
    return cycle_multiplier(ResidueFieldOps(psi.rfield), list(psi.fco), list(psi.gco), chain)


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

    `field` is a GlobalFieldOps or a ResidueFieldOps; both give from_int,
    add, sub, mul and div.  `cycle` lists the affine values of the cycle
    points with _INF_MARK for the point at infinity; fco/gco are the affine
    numerator/denominator coefficients (ascending).  Chart changes w = 1/z
    are applied wherever a step enters or leaves infinity, and the
    telescoped product is the chart-independent multiplier of the cycle.
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


# ---------------------------------------------------------------------------
# valuations by dividing out one prime at a time, the package's two `ord`
# loops before `ring.split` replaced them.  Kept verbatim, with the ring's
# `self.p` made an argument.


def reference_ord_int(a: int, pi: int) -> int:
    """Exact power of the prime pi dividing a != 0."""
    e = 0
    while a % pi == 0:
        a //= pi
        e += 1
    return e


def reference_ord_poly(p: int, a, pi) -> int:
    """Exact power of the irreducible pi dividing a != 0."""
    e = 0
    while True:
        q, r = fppoly.pdivmod(p, a, pi)
        if r:
            return e
        a = q
        e += 1


def reference_valuation(x, place) -> int:
    """The valuation of x != 0 at a finite place, by the loops above."""
    p, pi = x.field.char, place.payload
    if p:
        return reference_ord_poly(p, x.num, pi) - reference_ord_poly(p, x.den, pi)
    return reference_ord_int(x.num, pi) - reference_ord_int(x.den, pi)


# ---------------------------------------------------------------------------
# powers, S-strips and S-units through field products and quotients (each
# one normalized by a gcd), the package's code before ring powers replaced
# it.  Kept verbatim, with `self` made an argument and every power and
# S-integer test routed through the copies here.


def reference_pow(self, e: int):
    if e < 0:
        return self.field.one() / reference_pow(self, -e)
    result = self.field.one()
    base = self
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def reference_strip_places(x, S):
    rest, exponents = x, []
    for pl in S.finite_places():
        e = reference_valuation(x, pl)
        exponents.append(e)
        if e:
            rest = rest / reference_pow(x.field.element(pl.payload), e)
    return rest, tuple(exponents)


def reference_is_s_integer(x, S) -> bool:
    if x.is_zero:
        return True
    rest, _ = reference_strip_places(x, S)
    return x.field.ring.is_unit(rest.den) and (
        S.contains_infinite() or valuation(x, infinite_place(x.field)) >= 0
    )


def reference_is_s_unit(x, S) -> bool:
    if x.is_zero:
        raise DomainError("zero is not an S-unit")
    return reference_is_s_integer(x, S) and reference_is_s_integer(x.field.one() / x, S)


def reference_enumerate_s_units(S, exponent_cap: int, size_budget: int = 2_000_000):
    if exponent_cap < 1:
        raise DomainError("exponent cap must be >= 1")
    rank = len(_free_places(S))
    total = len(S.field.ring.units) * (2 * exponent_cap + 1) ** rank
    if total > size_budget:
        raise BudgetExceededError(f"S-unit enumeration of size {total} over budget")
    desc = s_unit_generators(S)
    exponent_range = range(-exponent_cap, exponent_cap + 1)
    for u in desc.torsion:
        for vec in product(exponent_range, repeat=desc.rank):
            value = u
            for g, e in zip(desc.free_generators, vec):
                if e:
                    value = value * reference_pow(g, e)
            yield value


def reference_orbit(phi, start, budget=None):
    """`dynamics.orbit` iterated on ProjPoints: a visited dict of points,
    the escape test and one `apply_map` per step."""
    if phi.field != start.field:
        raise DomainError("map and point over different base fields")
    if budget is None:
        budget = Budget()
    cap = budget.cap_for(phi.field)
    escapes = escape_test(escape_profile(phi), phi.field.ring)
    pts = [start]
    index = {start: 0}
    current = start
    while True:
        proof = escapes(current.x, current.y, current.height())
        if proof is not None:
            return ExceededBudget(start, len(pts) - 1, current.height(), REASON_ESCAPE, proof)
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


def reference_preperiodic_search(phi, height_bound, budget=None):
    """`dynamics.preperiodic_search` by `reference_orbit` on every point of
    `brute_points`."""
    escapes = escape_test(escape_profile(phi), phi.field.ring)
    reports = []
    undecided = []
    divergent = 0
    scanned = 0
    for x, y in brute_points(phi.field.char, height_bound):
        pt = ProjPoint(phi.field, x, y)
        scanned += 1
        if escapes(x, y, pt.height()) is not None:
            divergent += 1
            continue
        outcome = reference_orbit(phi, pt, budget)
        if isinstance(outcome, OrbitReport):
            reports.append(outcome)
        elif outcome.divergent:
            divergent += 1
        else:
            undecided.append(pt)
    reports.sort(key=lambda r: r.start.sort_key())
    undecided.sort(key=ProjPoint.sort_key)
    return SearchResult(tuple(reports), tuple(undecided), scanned, divergent)


# ---------------------------------------------------------------------------
# the parser before it evaluated on the integral ring: forms over K (one
# gcd per coefficient operation), affine values as num/den pairs over K,
# and denominators cleared by an lcm before make_map.  Kept verbatim from
# the algebras on, with the entry points renamed; the recursive-descent
# `_Parser` and the degree check are the package's.  The tokenizer is the
# package's former one: one `match` call and one dataclass token per token,
# with literals of ASCII digits as in the package.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<ident>[A-Za-z]+)|(?P<op>\*\*|[+\-*/^()\[\]:]))"
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    pos: int


def reference_tokenize(s: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m or m.end() == pos:
            stripped = s[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(s) - len(stripped)
            raise MapParseError(f"unexpected character {s[bad_at]!r}", bad_at)
        digits = m.group("int")
        if digits:
            if len(digits) > MAX_BOUND_DIGITS:
                raise BudgetExceededError(
                    f"a literal of {len(digits)} digits passes the limit {MAX_BOUND_DIGITS}"
                )
            tokens.append(_Token("int", digits, m.start("int")))
        elif m.group("ident"):
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            op = m.group("op")
            tokens.append(_Token("op", "^" if op == "**" else op, m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(s)))
    return tokens



class _BivariateAlgebra:
    """Values are dicts {(i, j): coeff} for X^i Y^j over K."""

    def __init__(self, field: BaseField):
        self.field = field
        self.zero = field.zero()

    def const(self, n: int):
        e = self.field.element(n)
        return {} if e.is_zero else {(0, 0): e}

    def variable(self, name: str, pos: int):
        if name == "X":
            return {(1, 0): self.field.one()}
        if name == "Y":
            return {(0, 1): self.field.one()}
        if name == "t":
            if self.field.is_rationals:
                raise MapParseError("t is only defined over F_p(t)", pos)
            return {(0, 0): self.field.gen()}
        raise MapParseError(f"unknown symbol {name!r} (use X and Y)", pos)

    def add(self, a, b):
        out = dict(a)
        for key, c in b.items():
            s = out.get(key, self.zero) + c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return {k: -c for k, c in a.items()}

    @staticmethod
    def degree(a) -> int:
        return max((i + j for i, j in a), default=0)

    def mul(self, a, b):
        _check_degree(self.degree(a) + self.degree(b))
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, self.zero) + c1 * c2
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return out

    def div(self, a, b):
        if set(b) - {(0, 0)}:
            raise MapParseError("can only divide forms by constants")
        if not b:
            raise MapParseError("division by zero")
        c = b[(0, 0)]
        return {k: v / c for k, v in a.items()}

    def pow(self, a, e: int):
        """a^e by square-and-multiply; a monomial c*X^i*Y^j in one step."""
        _check_degree(self.degree(a) * e)
        if len(a) == 1:
            ((i, j), c), = a.items()
            return {(i * e, j * e): c**e}
        return power(self.mul, a, e, self.const(1))


class _RatFuncAlgebra:
    """Values are pairs (num, den) of polynomials in z over K, each a
    _BivariateAlgebra dict {(i, 0): c} for c*z^i."""

    def __init__(self, field: BaseField, allow_z: bool = True):
        self.field = field
        self.allow_z = allow_z
        self.poly = _BivariateAlgebra(field)

    def const(self, n: int):
        return self.poly.const(n), self.poly.const(1)

    def variable(self, name: str, pos: int):
        if name == "z":
            if not self.allow_z:
                raise MapParseError("the variable z is not allowed here", pos)
            return self.poly.variable("X", pos), self.poly.const(1)
        if name == "t":
            return self.poly.variable("t", pos), self.poly.const(1)
        raise MapParseError(f"unknown symbol {name!r}", pos)

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        mul = self.poly.mul
        return self.poly.add(mul(n1, d2), mul(n2, d1)), mul(d1, d2)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        n, d = a
        return self.poly.neg(n), d

    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        return self.poly.mul(n1, n2), self.poly.mul(d1, d2)

    def div(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if not n2:
            raise MapParseError("division by zero")
        return self.poly.mul(n1, d2), self.poly.mul(d1, n2)

    def pow(self, a, e: int):
        n, d = a
        return self.poly.pow(n, e), self.poly.pow(d, e)


# ---------------------------------------------------------------------------
# integral clearing


def clear_denominators(field: BaseField, coeffs: list[GlobalFieldElement]):
    """Scale a list of K-elements by the lcm of their denominators."""
    ring = field.ring
    mult = ring.one
    for c in coeffs:
        mult = ring.mul(mult, ring.exactdiv(c.den, ring.gcd(mult, c.den)))
    return [ring.mul(c.num, ring.exactdiv(mult, c.den)) for c in coeffs]


# ---------------------------------------------------------------------------
# public entry points


def reference_parse_element(field: BaseField, s: str) -> GlobalFieldElement:
    """Parse a constant expression, e.g. '-3/4' or '(t^2+1)/t'."""
    parser = _Parser(reference_tokenize(s), _RatFuncAlgebra(field, allow_z=False))
    num, den = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise MapParseError("trailing input", tok.pos)
    # without z every value is a constant {(0, 0): c} or zero {}
    return num.get((0, 0), field.zero()) / den[(0, 0)]


def reference_parse_map(expr: str, field: BaseField) -> RationalMap:
    """Parse an affine expression in z or a homogeneous pair in X, Y."""
    stripped = expr.strip()
    if stripped.startswith("["):
        return _reference_parse_map_pair(field, stripped)
    parser = _Parser(reference_tokenize(stripped), _RatFuncAlgebra(field))
    num, den = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise MapParseError("trailing input", tok.pos)
    if not den:
        raise MapParseError("zero denominator")
    if not num:
        raise MapParseError("the zero map is not a self-map of P^1")
    d = max(_BivariateAlgebra.degree(num), _BivariateAlgebra.degree(den))
    if d < 1:
        raise MapParseError("constant expressions do not define a map")
    zero = field.zero()
    fk = [num.get((i, 0), zero) for i in range(d + 1)]
    gk = [den.get((i, 0), zero) for i in range(d + 1)]
    cleared = clear_denominators(field, fk + gk)
    return make_map(field, cleared[: d + 1], cleared[d + 1 :])


def _reference_parse_map_pair(field: BaseField, s: str) -> RationalMap:
    tokens = reference_tokenize(s)
    algebra = _BivariateAlgebra(field)
    parser = _Parser(tokens, algebra)
    parser.expect_op("[")
    f_poly = parser.parse_expr()
    parser.expect_op(":")
    g_poly = parser.parse_expr()
    parser.expect_op("]")
    tok = parser.peek()
    if tok.kind != "end":
        raise MapParseError("trailing input", tok.pos)
    if not f_poly or not g_poly:
        raise MapParseError("both forms must be nonzero")
    degrees = {i + j for poly in (f_poly, g_poly) for (i, j) in poly}
    if len(degrees) != 1:
        raise MapParseError("forms must be homogeneous of one common degree")
    d = degrees.pop()
    if d < 1:
        raise MapParseError("degree must be at least 1")
    zero = field.zero()
    fk = [f_poly.get((i, d - i), zero) for i in range(d + 1)]
    gk = [g_poly.get((i, d - i), zero) for i in range(d + 1)]
    cleared = clear_denominators(field, fk + gk)
    return make_map(field, cleared[: d + 1], cleared[d + 1 :])


def reference_parse_point(field: BaseField, s: str) -> ProjPoint:
    """Parse '[a : b]' or an affine value; 'inf' is the point at infinity."""
    stripped = s.strip()
    if stripped in ("inf", "oo"):
        return infinity(field)
    if stripped.startswith("["):
        inner = stripped[1:-1] if stripped.endswith("]") else None
        if inner is None:
            raise MapParseError("unterminated '['", len(stripped) - 1)
        parts = inner.split(":")
        if len(parts) != 2:
            raise MapParseError("a point needs exactly one ':'")
        x = reference_parse_element(field, parts[0])
        y = reference_parse_element(field, parts[1])
        return normalize(x, y)
    return from_affine(reference_parse_element(field, stripped))


# ---------------------------------------------------------------------------
# functional graphs: the package's two-list walk before `_decompose`, kept
# verbatim


def reference_decompose(succ) -> tuple[list, list]:
    """(cycles, tail_depth) of i -> succ[i]: a state and a depth per node,
    and a path walked from every unseen start."""
    n = len(succ)
    # a node on the path being walked holds its position in `path`
    UNSEEN, DONE = -2, -1
    state = [UNSEEN] * n
    depth = [0] * n
    cycles = []
    for v in range(n):
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
    return cycles, depth

