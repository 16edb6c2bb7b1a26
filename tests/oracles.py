"""Independent oracles for the test suite.

Everything here deliberately recomputes results by a different route than
the package: determinants by Fraction Gaussian elimination or cofactor
expansion instead of fraction-free elimination, irreducibility by
all-pairs product enumeration instead of the product sieve, polynomial
products by the plain double loop instead of `fppoly.pmul`, and so on.
Oracle outputs are either compared live or frozen into expected values in
the test modules.
"""

from fractions import Fraction
from itertools import product

from arithdyn import fppoly


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
