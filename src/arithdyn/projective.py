"""Points of P^1(K) in coprime integral coordinates.

A point is stored as a pair of coprime integers (over Q) or coprime
polynomials (over F_p(t)), scaled so the second coordinate is positive
respectively monic; the point at infinity is [1 : 0].  Because both
integral rings are principal ideal domains this canonical form exists and
is unique, so equality and hashing are structural.

The logarithmic distance of two points at a non-archimedean place is the
valuation of their cross determinant minus the coordinate minima.  With
globally coprime coordinates the minima vanish at every finite place; at
the infinite place of F_p(t) they do not, so the full three-term formula
is always evaluated.  Equal points get the distinguished value INFINITE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fppoly
from .errors import DomainError, UnsupportedPlaceError
from .fields import (
    KIND_ARCH,
    KIND_INF,
    KIND_PRIME,
    BaseField,
    GlobalFieldElement,
    Place,
    int_ord,
    poly_ord,
)
from .fppoly import Coeffs
from .residue import ResidueField, residue_field

INFINITE = math.inf


@dataclass(frozen=True, slots=True)
class ProjPoint:
    """A point of P^1 over Q or F_p(t) in canonical coprime coordinates."""

    field: BaseField
    x: int | Coeffs
    y: int | Coeffs

    @property
    def is_infinity(self) -> bool:
        return self.y == 0 or self.y == ()

    def affine(self) -> GlobalFieldElement | None:
        """x/y as a field element, or None for the point at infinity."""
        if self.is_infinity:
            return None
        return self.field.element(self.x, self.y)

    def height(self) -> int:
        """max(|x|, |y|) over Q; max coordinate degree over F_p(t)."""
        if self.field.is_rationals:
            return max(abs(self.x), abs(self.y))
        return max(fppoly.pdeg(self.x), fppoly.pdeg(self.y), 0)

    def sort_key(self):
        if self.field.is_rationals:
            return (self.height(), self.x, self.y)
        p = self.field.char
        return (self.height(), fppoly.pcode(p, self.y), fppoly.pcode(p, self.x))

    def __str__(self) -> str:
        if self.field.is_rationals:
            return f"[{self.x} : {self.y}]"
        return f"[{fppoly.poly_str(self.x)} : {fppoly.poly_str(self.y)}]"

    def __repr__(self) -> str:
        return str(self)


def _canon_pair_q(x: int, y: int) -> tuple[int, int]:
    g = math.gcd(x, y)
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return x, y


def _canon_pair_ff(p: int, x: Coeffs, y: Coeffs, g: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Canonical form of [x : y] over F_p[t], given their monic gcd g."""
    if fppoly.pdeg(g) > 0:
        x = fppoly.pexactdiv(p, x, g)
        y = fppoly.pexactdiv(p, y, g)
    lead = fppoly.plead(y) if y else fppoly.plead(x)
    if lead != 1:
        c = pow(lead, p - 2, p)
        x, y = fppoly.pscale(p, x, c), fppoly.pscale(p, y, c)
    return x, y


def point_from_raw(field: BaseField, x, y) -> ProjPoint:
    """Canonical point from raw integral coordinates (ints or coefficient tuples)."""
    if field.is_rationals:
        if x == 0 and y == 0:
            raise DomainError("(0, 0) does not define a projective point")
        return ProjPoint(field, *_canon_pair_q(x, y))
    p = field.char
    xc = x.coeffs if isinstance(x, fppoly.FpPoly) else fppoly.ptrim([c % p for c in x]) if isinstance(x, (tuple, list)) else fppoly.pconst(p, x)
    yc = y.coeffs if isinstance(y, fppoly.FpPoly) else fppoly.ptrim([c % p for c in y]) if isinstance(y, (tuple, list)) else fppoly.pconst(p, y)
    if not xc and not yc:
        raise DomainError("(0, 0) does not define a projective point")
    return ProjPoint(field, *_canon_pair_ff(p, xc, yc, fppoly.pgcd(p, xc, yc)))


def normalize(x_raw: GlobalFieldElement, y_raw: GlobalFieldElement) -> ProjPoint:
    """Canonical coprime-integral representative of [x_raw : y_raw]."""
    if x_raw.field != y_raw.field:
        raise DomainError("coordinates from different base fields")
    field = x_raw.field
    if x_raw.is_zero and y_raw.is_zero:
        raise DomainError("(0, 0) does not define a projective point")
    if field.is_rationals:
        # clear denominators by cross multiplication
        return point_from_raw(field, x_raw.num * y_raw.den, y_raw.num * x_raw.den)
    p = field.char
    return point_from_raw(
        field,
        fppoly.pmul(p, x_raw.num, y_raw.den),
        fppoly.pmul(p, y_raw.num, x_raw.den),
    )


def from_affine(value: GlobalFieldElement) -> ProjPoint:
    """The affine value a/b as the point [a : b]."""
    return point_from_raw(value.field, value.num, value.den)


def infinity(field: BaseField) -> ProjPoint:
    if field.is_rationals:
        return ProjPoint(field, 1, 0)
    return ProjPoint(field, fppoly.ONE, fppoly.ZERO)


def _coord_valuation(field: BaseField, c, place: Place) -> float:
    """Valuation of one integral coordinate; +inf for the zero coordinate."""
    if c == 0 or c == ():
        return INFINITE
    if place.kind == KIND_PRIME:
        return int_ord(c, place.payload)
    if place.kind == KIND_INF:
        return -fppoly.pdeg(c)
    return poly_ord(c, field.char, place.payload)


def log_distance(p1: ProjPoint, p2: ProjPoint, place: Place):
    """The logarithmic distance at a non-archimedean place.

    Nonnegative integer; INFINITE when the points are equal.
    """
    if place.kind == KIND_ARCH:
        raise UnsupportedPlaceError("logarithmic distance needs a non-archimedean place")
    if p1.field != p2.field or p1.field != place.field:
        raise DomainError("mixed base fields")
    field = p1.field
    if field.is_rationals:
        det = p1.x * p2.y - p2.x * p1.y
        if det == 0:
            return INFINITE
        det_val = int_ord(det, place.payload)
    else:
        p = field.char
        det = fppoly.psub(
            p, fppoly.pmul(p, p1.x, p2.y), fppoly.pmul(p, p2.x, p1.y)
        )
        if not det:
            return INFINITE
        if place.kind == KIND_INF:
            det_val = -fppoly.pdeg(det)
        else:
            det_val = poly_ord(det, p, place.payload)
    m1 = min(_coord_valuation(field, p1.x, place), _coord_valuation(field, p1.y, place))
    m2 = min(_coord_valuation(field, p2.x, place), _coord_valuation(field, p2.y, place))
    delta = det_val - m1 - m2
    assert delta >= 0
    return int(delta)


@dataclass(frozen=True, slots=True)
class ReducedPoint:
    """A point of P^1(k(p)), stored as [a : 1] or [1 : 0] with int codes."""

    rfield: ResidueField
    x: int
    y: int

    @property
    def is_infinity(self) -> bool:
        return self.y == 0

    def code(self) -> int:
        """Graph node index: the affine code, or q for infinity."""
        return self.x if self.y == 1 else self.rfield.q

    @staticmethod
    def from_code(rfield: ResidueField, code: int) -> "ReducedPoint":
        if code == rfield.q:
            return ReducedPoint(rfield, 1, 0)
        return ReducedPoint(rfield, code, 1)

    @staticmethod
    def make(rfield: ResidueField, x: int, y: int) -> "ReducedPoint":
        if x == 0 and y == 0:
            raise DomainError("(0, 0) is not a point of P^1")
        if y == 0:
            return ReducedPoint(rfield, 1, 0)
        return ReducedPoint(rfield, rfield.div(x, y), 1)

    def __str__(self) -> str:
        return f"[{self.rfield.element_str(self.x)} : {self.rfield.element_str(self.y)}]"


def reduce_coordinates(point: ProjPoint, place: Place) -> tuple[ResidueField, int, int]:
    """Residue-field codes of locally renormalized coordinates at a place."""
    rf = residue_field(place)
    field = point.field
    if place.kind == KIND_PRIME:
        return rf, point.x % place.payload, point.y % place.payload
    p = field.char
    if place.kind == KIND_INF:
        # globally coprime polynomials need a local rescale by t^-m here
        m = max(fppoly.pdeg(point.x), fppoly.pdeg(point.y))
        xt = point.x[m] if fppoly.pdeg(point.x) == m else 0
        yt = point.y[m] if fppoly.pdeg(point.y) == m else 0
        return rf, xt, yt
    pi = place.payload
    xr = fppoly.pmod(p, point.x, pi)
    yr = fppoly.pmod(p, point.y, pi)
    return rf, fppoly.pcode(p, xr), fppoly.pcode(p, yr)


def reduce_point(point: ProjPoint, place: Place) -> ReducedPoint:
    """The canonical reduction of a point modulo a non-archimedean place."""
    if place.kind == KIND_ARCH:
        raise UnsupportedPlaceError("cannot reduce at the archimedean place")
    rf, x, y = reduce_coordinates(point, place)
    return ReducedPoint.make(rf, x, y)


def enumerate_p1(rfield: ResidueField) -> list[ReducedPoint]:
    """All q + 1 points of P^1(F_q): [a : 1] for each a, then [1 : 0]."""
    points = [ReducedPoint(rfield, a, 1) for a in rfield.elements()]
    points.append(ReducedPoint(rfield, 1, 0))
    return points
