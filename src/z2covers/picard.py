"""Divisor class arithmetic on the product of a rational and an elliptic curve.

The Picard group of the product splits as Z.E + Pic(C), where E is a
fiber of the projection to the rational factor (a copy of the elliptic
curve C) and the complementary ruling consists of rational fibers, one
over each point of C.  A named point of C enters only through its
degree-zero class (point - basepoint), an element of the group model, so
the building data keeps that element and nothing else; a point of the
rational curve has no class beyond its degree, so it is kept as its label.
A surface class, a.E plus the pullback of a curve class, is held as the
named tuple (a, degree, pic0): the coefficient a, the degree on C and the
degree-zero part on C, the same three fields the file format and the
reports write.  Two classes are linearly equivalent exactly when all three
agree, and arithmetic is componentwise.  The degree-zero part is an element
of the abstract group model from :mod:`z2covers.abgroup`; combining
elements of two different models raises.

Intersection numbers only see the two degrees, because E^2 = F^2 = 0 and
E.F = 1 for fibers E, F of the two rulings.  Section counts multiply
across the factors: a degree-a system on the rational curve has a + 1
sections when a >= 0 and none otherwise, while a degree-d class on the
elliptic curve has d sections when d >= 1, one section when d = 0 and the
class is trivial, and none in every other case.  The degree-zero case is
the single place where torsion data changes a dimension, and the cover
constructions below lean on it.

The classical behaviour of complete linear systems on an elliptic curve
drives the map analysis: degree >= 3 embeds the curve, degree 2 maps it
2-to-1 onto a line, and anything with a one-dimensional space of sections
is constant.  On the rational factor, degree >= 1 maps isomorphically
onto a line and degree 0 is constant.
"""

from __future__ import annotations

from typing import NamedTuple

from .abgroup import GroupElement, GroupSpec


class SurfaceClass(NamedTuple):
    """Class a.E + (pullback of a curve class of ``degree`` and degree-zero
    part ``pic0``) on the product surface."""

    a: int
    degree: int
    pic0: GroupElement

    @classmethod
    def zero(cls, spec: GroupSpec) -> "SurfaceClass":
        return cls(0, 0, spec.zero())

    @property
    def spec(self) -> GroupSpec:
        return self.pic0.spec

    def __add__(self, other: "SurfaceClass") -> "SurfaceClass":
        return SurfaceClass(self.a + other.a, self.degree + other.degree, self.pic0 + other.pic0)

    def __neg__(self) -> "SurfaceClass":
        return SurfaceClass(-self.a, -self.degree, -self.pic0)

    def __sub__(self, other: "SurfaceClass") -> "SurfaceClass":
        return self + (-other)

    def __mul__(self, k: int) -> "SurfaceClass":
        if not isinstance(k, int):
            return NotImplemented
        return SurfaceClass(k * self.a, k * self.degree, k * self.pic0)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a == 0 and self.degree == 0 and self.pic0.is_zero()


def elliptic_fiber_class(spec: GroupSpec) -> SurfaceClass:
    """Class of a fiber of the projection to the rational curve."""
    return SurfaceClass(1, 0, spec.zero())


def canonical_class(spec: GroupSpec) -> SurfaceClass:
    """The canonical class of the product surface, -2E."""
    return SurfaceClass(-2, 0, spec.zero())


def intersect(u: SurfaceClass, v: SurfaceClass) -> int:
    """Intersection number; only the two degrees enter."""
    return u.a * v.degree + v.a * u.degree


def h0(u: SurfaceClass) -> int:
    """Dimension of the space of sections; the product of the factor counts."""
    p1 = u.a + 1 if u.a >= 0 else 0
    if u.degree >= 1:
        return p1 * u.degree
    return p1 if u.degree == 0 and u.pic0.is_zero() else 0


def is_base_point_free(u: SurfaceClass) -> bool:
    """Whether the complete linear system of u is base point free.

    Undefined (raises) for an empty system.  The system is free exactly
    when both factor systems are: any nonnegative degree on the rational
    curve, and on the elliptic curve degree >= 2 or the trivial class.  A
    degree-1 class on the elliptic curve has a single section vanishing at
    one point, hence a base point.
    """
    if h0(u) == 0:
        raise ValueError("empty linear system has no base locus")
    curve_free = u.degree >= 2 or (u.degree == 0 and u.pic0.is_zero())
    return u.a >= 0 and curve_free


class MapReport(NamedTuple):
    """Outcome of analysing the map given by a complete linear system.

    ``map_degree`` and ``image_degree`` are set only when the image is a
    surface (``image_dim == 2``); then map_degree * image_degree equals the
    self-intersection of the class.
    """

    image_dim: int
    map_degree: int | None
    image_degree: int | None


def map_analysis(u: SurfaceClass) -> MapReport:
    """Analyse the rational map defined by |u| through its two factors.

    The factor on the rational curve has degree one onto a line when
    a >= 1 and is constant when a = 0.  The factor on the elliptic curve
    embeds the curve when its degree is >= 3, is 2-to-1 onto a line in
    degree 2, and is constant when it has a single section.
    """
    if h0(u) == 0:
        raise ValueError("empty linear system defines no map")
    p1_degree = 1 if u.a >= 1 else None
    if u.degree >= 3:
        curve_degree = 1
    elif u.degree == 2:
        curve_degree = 2
    else:
        curve_degree = None
    factors = [d for d in (p1_degree, curve_degree) if d is not None]
    if len(factors) < 2:
        return MapReport(len(factors), None, None)
    map_degree = factors[0] * factors[1]
    self_int = intersect(u, u)
    if self_int % map_degree:
        raise ValueError("self-intersection not divisible by the map degree")
    return MapReport(2, map_degree, self_int // map_degree)
