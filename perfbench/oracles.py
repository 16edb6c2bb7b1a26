"""Independent arithmetic for checking the library's answers.

Nothing here imports arithdyn.  Every routine reaches its answer by a
different route than the library: Miller-Rabin instead of trial division,
the Rabin test instead of the irreducible sieve, Euclid resultants over a
finite field instead of the fraction-free Sylvester determinant, Zech
logarithm tables instead of polynomial arithmetic modulo the place, and
decimal logarithms instead of certified interval ceilings.

Polynomials over F_p are tuples of ints, constant term first, with no
trailing zeros (the zero polynomial is the empty tuple).  Residue field
elements are int codes: the base-p digits of the residue polynomial,
constant term least significant, which is the library's convention.
"""

from __future__ import annotations

import functools
import math
import random
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction

# ---------------------------------------------------------------------------
# integers

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    while not is_prime(n):
        n += 1
    return n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of a small positive int, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def ordinal(n: int, q: int) -> int:
    """Exact power of q dividing n != 0."""
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


# ---------------------------------------------------------------------------
# polynomials over F_p


def trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(p, a, b):
    n = max(len(a), len(b))
    return trim(
        ((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)
    )


def psub(p, a, b):
    return padd(p, a, tuple(-c % p for c in b))


def pmul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for j, bj in enumerate(b):
        if bj:
            for i, ai in enumerate(a):
                out[i + j] += ai * bj
    return trim(c % p for c in out)


def pdivmod(p, a, b):
    inv = pow(b[-1], -1, p)
    rem = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv % p
        if c:
            q[k] = c
            for i, bi in enumerate(b):
                rem[k + i] = (rem[k + i] - c * bi) % p
    return trim(q), trim(rem)


def pmod(p, a, b):
    return pdivmod(p, a, b)[1]


def pmonic(p, a):
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def pgcd(p, a, b):
    while b:
        a, b = b, pmod(p, a, b)
    return pmonic(p, a)


def ppow_mod(p, a, e, m):
    result, base = (1,), pmod(p, a, m)
    while e:
        if e & 1:
            result = pmod(p, pmul(p, result, base), m)
        base = pmod(p, pmul(p, base, base), m)
        e >>= 1
    return result


def is_irreducible(p: int, f) -> bool:
    """Rabin's test for a monic polynomial of degree >= 1."""
    n = len(f) - 1
    if n < 1:
        return False
    x = (0, 1)
    for r in prime_factors(n):
        h = psub(p, ppow_mod(p, x, p ** (n // r), f), x)
        if pgcd(p, h, f) != (1,):
            return False
    return ppow_mod(p, x, p**n, f) == pmod(p, x, f)


def random_irreducible(rng, p: int, n: int):
    while True:
        f = tuple(rng.randrange(p) for _ in range(n)) + (1,)
        if is_irreducible(p, f):
            return f


def code_of(p: int, a) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * p + c
    return acc


def poly_of_code(p: int, code: int):
    cs = []
    while code:
        code, c = divmod(code, p)
        cs.append(c)
    return tuple(cs)


def parse_poly(p: int, s: str):
    """Inverse of the library's poly_str: 't^3+2*t+1' -> (1, 2, 0, 1)."""
    s = s.strip()
    if s == "0":
        return ()
    out: dict[int, int] = {}
    for term in s.split("+"):
        if "t" in term:
            coeff, _, power = term.partition("t")
            c = int(coeff.rstrip("*")) if coeff else 1
            e = int(power[1:]) if power.startswith("^") else 1
        else:
            c, e = int(term), 0
        out[e] = (out.get(e, 0) + c) % p
    return trim(out.get(i, 0) for i in range(max(out) + 1))


def poly_str(a) -> str:
    """Same text form as the library's poly_str (for building inputs)."""
    if not a:
        return "0"
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            power = "t" if i == 1 else f"t^{i}"
            terms.append(power if c == 1 else f"{c}*{power}")
    return "+".join(terms)


# ---------------------------------------------------------------------------
# finite fields by Zech logarithms


class PrimeField:
    """F_p with plain modular arithmetic; same interface as ZechField."""

    def __init__(self, p: int):
        self.p = self.q = p
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def order(self, a) -> int:
        n = self.q - 1
        for r in prime_factors(n):
            while n % r == 0 and pow(a, n // r, self.p) == 1:
                n //= r
        return n


class ZechField:
    """F_p[u]/(modulus) on int codes, multiplication and addition by tables."""

    def __init__(self, p: int, modulus):
        self.p, self.modulus = p, tuple(modulus)
        self.k = len(modulus) - 1
        self.q = p**self.k
        self.zero, self.one = 0, 1
        n = self.q - 1
        factors = prime_factors(n)
        for g in range(2, self.q):
            gp = poly_of_code(p, g)
            if all(ppow_mod(p, gp, n // r, self.modulus) != (1,) for r in factors):
                break
        else:  # q = 2: the only unit is 1
            gp = (1,)
        exp = [0] * n
        cur = (1,)
        for i in range(n):
            exp[i] = code_of(p, cur)
            cur = pmod(p, pmul(p, cur, gp), self.modulus)
        log = [0] * self.q
        for i, c in enumerate(exp):
            log[c] = i
        self.exp, self.log, self.n = exp, log, n
        one_plus = [code_of(p, padd(p, (1,), poly_of_code(p, c))) for c in exp]
        self.zech = [log[c] if c else None for c in one_plus]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.n]

    def inv(self, a):
        return self.exp[-self.log[a] % self.n]

    def add(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % self.n]
        return 0 if z is None else self.exp[(la + z) % self.n]

    def neg(self, a):
        if a == 0 or self.p == 2:
            return a
        # -1 = g^(n/2) in odd characteristic
        return self.exp[(self.log[a] + self.n // 2) % self.n]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def order(self, a) -> int:
        return self.n // math.gcd(self.log[a], self.n)


@functools.lru_cache(maxsize=256)
def field_for(p: int, modulus=None):
    """F_p, or F_p[u]/(modulus) with its tables built once."""
    if modulus is None or len(modulus) <= 2:
        return PrimeField(p)
    return ZechField(p, tuple(modulus))


@functools.lru_cache(maxsize=None)
def test_field(p: int, k: int):
    """A fixed residue field of size p^k, for nonvanishing tests."""
    return field_for(p, random_irreducible(random.Random(p * 1000 + k), p, k))


def successors(fld, fco, gco) -> list[int]:
    """Successor table of [F : G] on P^1(F_q); node q is infinity.

    fco/gco are ascending coefficient codes of the two forms.  Evaluates
    F(x, 1) and G(x, 1) by Horner's rule at every x, and at infinity
    takes the leading coefficients.
    """
    q = fld.q
    mul, add = fld.mul, fld.add
    out = [0] * (q + 1)
    frev, grev = fco[::-1], gco[::-1]
    for x in range(q):
        fx = gx = 0
        for c in frev:
            fx = add(mul(fx, x), c)
        for c in grev:
            gx = add(mul(gx, x), c)
        out[x] = q if gx == 0 else mul(fx, fld.inv(gx))
    fd, gd = fco[-1], gco[-1]
    out[q] = q if gd == 0 else mul(fd, fld.inv(gd))
    return out


def graph_structure(succ: list[int]):
    """(sorted cycles as rotated tuples, tail depth list) of a successor table."""
    n = len(succ)
    color = [0] * n
    cycles = []
    on_cycle = [False] * n
    for v in range(n):
        path = []
        u = v
        while color[u] == 0:
            color[u] = 1
            path.append(u)
            u = succ[u]
        if color[u] == 1:
            cyc = path[path.index(u):]
            k = cyc.index(min(cyc))
            cycles.append(tuple(cyc[k:] + cyc[:k]))
            for w in cyc:
                on_cycle[w] = True
        for w in path:
            color[w] = 2
    depth = [0] * n
    for v in range(n):
        if on_cycle[v] or depth[v]:
            continue
        chain = []
        u = v
        while not on_cycle[u] and depth[u] == 0:
            chain.append(u)
            u = succ[u]
        d = depth[u]
        for w in reversed(chain):
            d += 1
            depth[w] = d
    return sorted(cycles), depth


def canonical_cycles(cycles) -> list[tuple]:
    out = []
    for cyc in cycles:
        cyc = list(cyc)
        k = cyc.index(min(cyc))
        out.append(tuple(cyc[k:] + cyc[:k]))
    return sorted(out)


# ---------------------------------------------------------------------------
# resultants of two binary forms over a field, by Euclid


def _deg(fld_zero, a):
    n = len(a) - 1
    while n >= 0 and a[n] == fld_zero:
        n -= 1
    return n


def _field_pow(fld, a, e):
    r = fld.one
    for _ in range(e):
        r = fld.mul(r, a)
    return r


def _res_actual(fld, f, m, g, n):
    """Res(f, g) of polynomials of exact degrees m, n >= 0 (ascending lists)."""
    sign = 1
    acc = fld.one
    while True:
        if n == 0:
            return _signed(fld, fld.mul(acc, _field_pow(fld, g[0], m)), sign)
        if m == 0:
            return _signed(fld, fld.mul(acc, _field_pow(fld, f[0], n)), sign)
        if m < n:
            f, m, g, n = g, n, f, m
            if m * n % 2:
                sign = -sign
        # r = f mod g
        r = list(f[: m + 1])
        inv = fld.inv(g[n])
        for k in range(m - n, -1, -1):
            c = fld.mul(r[k + n], inv)
            if c != fld.zero:
                for i in range(n + 1):
                    r[k + i] = fld.sub(r[k + i], fld.mul(c, g[i]))
        k = _deg(fld.zero, r[:n])
        if k < 0:
            return fld.zero
        # Res(f, g) = (-1)^(mn) * lc(g)^(m-k) * Res(g, r)
        if m * n % 2:
            sign = -sign
        acc = fld.mul(acc, _field_pow(fld, g[n], m - k))
        f, m, g, n = g, n, r[: k + 1], k


def _signed(fld, a, sign):
    return a if sign > 0 else fld.neg(a)


def form_resultant(fld, fco, gco):
    """Res(F, G) of two forms of formal degree d, in the Sylvester convention.

    The convention is the determinant of the 2d x 2d Sylvester matrix with
    the d rows of F first, coefficients by descending X-power.
    """
    d = len(fco) - 1
    m = _deg(fld.zero, fco)
    n = _deg(fld.zero, gco)
    if m < 0 or n < 0 or (m < d and n < d):
        return fld.zero
    if m == d:
        # expanding along the leading columns: lc(F)^(d - n) Res_{d,n}(F, G)
        return fld.mul(_field_pow(fld, fco[d], d - n), _res_actual(fld, fco, m, gco, n))
    # Res_{d,d}(F, G) = (-1)^(d*d) Res_{d,d}(G, F)
    r = fld.mul(_field_pow(fld, gco[d], d - m), _res_actual(fld, gco, n, fco, m))
    return _signed(fld, r, -1 if d % 2 else 1)


# ---------------------------------------------------------------------------
# exact orbits


def canon_q(x: int, y: int):
    g = math.gcd(x, y)
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return x, y


def eval_form_q(co, x, y):
    d = len(co) - 1
    return sum(c * x**i * y ** (d - i) for i, c in enumerate(co) if c)


def orbit_q(fco, gco, start, height_cap, max_steps):
    """Exact orbit of a point over Q: (tail, cycle) or None when capped."""
    seen = {start: 0}
    pts = [start]
    cur = start
    while len(pts) <= max_steps:
        x, y = cur
        nxt = canon_q(eval_form_q(fco, x, y), eval_form_q(gco, x, y))
        if nxt in seen:
            k = seen[nxt]
            return pts[:k], pts[k:]
        if max(abs(nxt[0]), abs(nxt[1])) > height_cap:
            return None
        seen[nxt] = len(pts)
        pts.append(nxt)
        cur = nxt
    return None


def canon_ff(p, x, y):
    g = pgcd(p, x, y)
    if g != (1,):
        x, y = pdivmod(p, x, g)[0], pdivmod(p, y, g)[0]
    lead = y[-1] if y else x[-1]
    if lead != 1:
        inv = pow(lead, -1, p)
        x = tuple(c * inv % p for c in x)
        y = tuple(c * inv % p for c in y)
    return x, y


def eval_form_ff(p, co, x, y):
    d = len(co) - 1
    acc = ()
    xp = [(1,)]
    yp = [(1,)]
    for _ in range(d):
        xp.append(pmul(p, xp[-1], x))
        yp.append(pmul(p, yp[-1], y))
    for i, c in enumerate(co):
        if c:
            acc = padd(p, acc, pmul(p, c, pmul(p, xp[i], yp[d - i])))
    return acc


def orbit_ff(p, fco, gco, start, degree_cap, max_steps):
    """Exact orbit over F_p(t): (tail, cycle) or None when capped."""
    seen = {start: 0}
    pts = [start]
    cur = start
    while len(pts) <= max_steps:
        x, y = cur
        nxt = canon_ff(p, eval_form_ff(p, fco, x, y), eval_form_ff(p, gco, x, y))
        if nxt in seen:
            k = seen[nxt]
            return pts[:k], pts[k:]
        if max(len(nxt[0]), len(nxt[1])) - 1 > degree_cap:
            return None
        seen[nxt] = len(pts)
        pts.append(nxt)
        cur = nxt
    return None


@functools.lru_cache(maxsize=8)
def points_q(height: int) -> tuple:
    """The points of P^1(Q) of height <= H, as canonical pairs."""
    out = [(1, 0)]
    for y in range(1, height + 1):
        for x in range(-height, height + 1):
            if math.gcd(x, y) == 1:
                out.append((x, y))
    return tuple(out)


def parse_point_q(s: str):
    x, y = s.strip()[1:-1].split(":")
    return int(x), int(y)


def parse_point_ff(p: int, s: str):
    x, y = s.strip()[1:-1].split(":")
    return parse_poly(p, x), parse_poly(p, y)


# ---------------------------------------------------------------------------
# bound formulas, evaluated independently


def _ceil_decimal(x: Decimal) -> int:
    return int(x.to_integral_value(rounding=ROUND_CEILING))


def bounds_char0(D: int, s: int) -> dict:
    """eta, cycle_bound, i_bound and evertse_bound for characteristic 0."""
    with localcontext() as ctx:
        ctx.prec = 120
        ln = lambda v: Decimal(v).ln()  # noqa: E731
        branch1 = (12 * s * ln(5 * s)) ** D * (2 ** (16 * s - 8) + 3)
        branch2 = (12 * (s + 2) * ln(5 * s + 5)) ** (4 * D)
        eta = _ceil_decimal(max(branch1, branch2))
        cycle = _ceil_decimal((12 * (s + 1) * ln(5 * (s + 1))) ** (4 * D))
        i_bound = _ceil_decimal((12 * s * ln(5 * s)) ** D) - 1
    return {
        "eta": eta,
        "cycle_bound": cycle,
        "i_bound": i_bound,
        "evertse_bound": 2 ** (8 * (2 * s - 1)),
    }


def bounds_charp(p: int, D: int, s: int) -> dict:
    ps = p * s
    big = max(ps ** (2 * D), p ** (4 * s - 2))
    base = p ** (2 * s - 2)
    return {
        "eta": ps ** (4 * D) * big,
        "cycle_bound": (ps ** (4 * D) - 1) * big,
        "i_bound": ps ** (2 * D) - 1,
        "r_bound": base * (base + p - 2) // (p - 1),
    }


def bounds_for(p: int, D: int, s: int) -> dict:
    return bounds_char0(D, s) if p == 0 else bounds_charp(p, D, s)


# ---------------------------------------------------------------------------
# S-unit equations by brute force


def sunit_solutions_q(a: Fraction, b: Fraction, primes, cap: int) -> set:
    """All (x, y) with a*x + b*y = 1, x and y S-units with exponents <= cap."""
    units = [Fraction(1)]
    for q in primes:
        units = [u * Fraction(q) ** e for u in units for e in range(-cap, cap + 1)]
    units += [-u for u in units]
    out = set()
    for x in units:
        y = (1 - a * x) / b
        if y == 0:
            continue
        rest = abs(y)
        ok = True
        for q in primes:
            e = ordinal(rest.numerator, q) - ordinal(rest.denominator, q)
            if abs(e) > cap:
                ok = False
                break
            rest /= Fraction(q) ** e
        if ok and rest == 1:
            out.add((x, y))
    return out


class RationalField:
    """Q on Fractions, for exact resultants of small forms."""

    zero, one = Fraction(0), Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)


def sympy_resultant(fco, gco):
    """Res(F, G) by sympy when it is importable and lc(F) = 1, else None."""
    if fco[-1] != 1:
        return None
    try:
        import sympy
    except ImportError:
        return None
    x = sympy.Symbol("x")
    f = sympy.Poly(list(reversed(fco)), x)
    g = sympy.Poly(list(reversed(gco)), x)
    return int(sympy.resultant(f, g))
