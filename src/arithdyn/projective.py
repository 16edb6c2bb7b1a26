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

from .errors import DomainError, UnsupportedPlaceError
from .fields import (
    BaseField,
    GlobalFieldElement,
    Place,
    canon_pair,
    ord_at,
)
from .fppoly import Coeffs
from .residue import reduce_values, residue_field

INFINITE = math.inf


@dataclass(frozen=True, slots=True)
class ProjPoint:
    """A point of P^1 over Q or F_p(t) in canonical coprime coordinates."""

    field: BaseField
    x: int | Coeffs
    y: int | Coeffs

    @property
    def is_infinity(self) -> bool:
        return not self.y

    def affine(self) -> GlobalFieldElement | None:
        """x/y as a field element, or None for the point at infinity."""
        if self.is_infinity:
            return None
        # coprime coordinates with a canonical y are already lowest terms
        return GlobalFieldElement(self.field, self.x, self.y)

    def height(self) -> int:
        """max(|x|, |y|) over Q; max coordinate degree over F_p(t)."""
        size = self.field.ring.size
        return max(size(self.x), size(self.y))

    def sort_key(self):
        return (self.height(), *self.field.ring.pair_key(self.x, self.y))

    def __str__(self) -> str:
        to_str = self.field.ring.to_str
        return f"[{to_str(self.x)} : {to_str(self.y)}]"

    def __repr__(self) -> str:
        return str(self)


def point_from_raw(field: BaseField, x, y) -> ProjPoint:
    """Canonical point from raw integral coordinates.

    Coordinates are ints over Q; over F_p(t) ints, coefficient tuples or
    lists.
    """
    ring = field.ring
    x, y = ring.coerce(x), ring.coerce(y)
    if not x and not y:
        raise DomainError("(0, 0) does not define a projective point")
    return ProjPoint(field, *canon_pair(ring, x, y, ring.gcd(x, y)))


def normalize(x_raw: GlobalFieldElement, y_raw: GlobalFieldElement) -> ProjPoint:
    """Canonical coprime-integral representative of [x_raw : y_raw]."""
    if x_raw.field != y_raw.field:
        raise DomainError("coordinates from different base fields")
    if x_raw.is_zero and y_raw.is_zero:
        raise DomainError("(0, 0) does not define a projective point")
    # clear denominators by cross multiplication
    mul = x_raw.field.ring.mul
    return point_from_raw(
        x_raw.field, mul(x_raw.num, y_raw.den), mul(y_raw.num, x_raw.den)
    )


def from_affine(value: GlobalFieldElement) -> ProjPoint:
    """The affine value a/b as the point [a : b], canonical as it stands."""
    return ProjPoint(value.field, value.num, value.den)


def infinity(field: BaseField) -> ProjPoint:
    return ProjPoint(field, field.ring.one, field.ring.zero)


def _coord_valuation(ring, c, place: Place) -> float:
    """Valuation of one integral coordinate; +inf for the zero coordinate."""
    return ord_at(ring, c, place) if c else INFINITE


def log_distance(p1: ProjPoint, p2: ProjPoint, place: Place):
    """The logarithmic distance at a non-archimedean place.

    Nonnegative integer; INFINITE when the points are equal.
    """
    if place.is_archimedean:
        raise UnsupportedPlaceError("logarithmic distance needs a non-archimedean place")
    if p1.field != p2.field or p1.field != place.field:
        raise DomainError("mixed base fields")
    ring = p1.field.ring
    det = ring.sub(ring.mul(p1.x, p2.y), ring.mul(p2.x, p1.y))
    if not det:
        return INFINITE
    m1 = min(_coord_valuation(ring, p1.x, place), _coord_valuation(ring, p1.y, place))
    m2 = min(_coord_valuation(ring, p2.x, place), _coord_valuation(ring, p2.y, place))
    delta = ord_at(ring, det, place) - m1 - m2
    assert delta >= 0
    return int(delta)


def reduce_point(point: ProjPoint, place: Place) -> int:
    """The reduction of a point modulo a non-archimedean place, as its node
    of P^1(k(p)): the code a of [a : 1], or q for [1 : 0]
    (`ResidueField.node`).  The archimedean place has no residue field
    and raises UnsupportedPlaceError."""
    return residue_field(place).node(*reduce_values(place, (point.x, point.y)))
