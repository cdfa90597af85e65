"""Divisor class arithmetic on the product of a rational and an elliptic curve.

The Picard group of the product splits as Z.E + Pic(C), where E is a
fiber of the projection to the rational factor (a copy of the elliptic
curve C) and the complementary ruling consists of rational fibers, one
over each point of C.  A surface class is stored as a.E plus the pullback
of a curve class; two classes are linearly equivalent exactly when the
coefficient a, the degree on C and the degree-zero part on C all agree.
The degree-zero part is an element of the abstract group model from
:mod:`z2covers.abgroup`.

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

from dataclasses import dataclass

from .abgroup import GroupElement, GroupSpec


@dataclass(frozen=True)
class CurveClass:
    """A divisor class on the elliptic curve: degree plus degree-zero part."""

    degree: int
    pic0: GroupElement

    @classmethod
    def zero(cls, spec: GroupSpec) -> "CurveClass":
        return cls(0, spec.zero())

    @property
    def spec(self) -> GroupSpec:
        return self.pic0.spec

    def _check_same_spec(self, other: "CurveClass") -> None:
        if self.spec != other.spec:
            raise ValueError("curve classes over different group models")

    def __add__(self, other: "CurveClass") -> "CurveClass":
        self._check_same_spec(other)
        return CurveClass(self.degree + other.degree, self.pic0 + other.pic0)

    def __neg__(self) -> "CurveClass":
        return CurveClass(-self.degree, -self.pic0)

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        return self + (-other)

    def __mul__(self, k: int) -> "CurveClass":
        if not isinstance(k, int):
            return NotImplemented
        return CurveClass(k * self.degree, k * self.pic0)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.degree == 0 and self.pic0.is_zero()


@dataclass(frozen=True)
class PointOnC:
    """A point of the elliptic curve, identified by label and its class.

    ``aj`` is the degree-zero class of (point - basepoint).  Within one
    configuration, distinct labels must carry distinct ``aj`` values; the
    smoothness verifier checks this injectivity.
    """

    label: str
    aj: GroupElement


@dataclass(frozen=True)
class PointOnP1:
    """A point of the rational curve.  All degree-1 classes agree, so the
    label is the only datum."""

    label: str


@dataclass(frozen=True)
class SurfaceClass:
    """Class a.E + (pullback of c) on the product surface."""

    a: int
    c: CurveClass

    @classmethod
    def zero(cls, spec: GroupSpec) -> "SurfaceClass":
        return cls(0, CurveClass.zero(spec))

    @property
    def spec(self) -> GroupSpec:
        return self.c.spec

    def _check_same_spec(self, other: "SurfaceClass") -> None:
        if self.spec != other.spec:
            raise ValueError("surface classes over different group models")

    def __add__(self, other: "SurfaceClass") -> "SurfaceClass":
        self._check_same_spec(other)
        return SurfaceClass(self.a + other.a, self.c + other.c)

    def __neg__(self) -> "SurfaceClass":
        return SurfaceClass(-self.a, -self.c)

    def __sub__(self, other: "SurfaceClass") -> "SurfaceClass":
        return self + (-other)

    def __mul__(self, k: int) -> "SurfaceClass":
        if not isinstance(k, int):
            return NotImplemented
        return SurfaceClass(k * self.a, k * self.c)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a == 0 and self.c.is_zero()


def elliptic_fiber_class(spec: GroupSpec) -> SurfaceClass:
    """Class of a fiber of the projection to the rational curve."""
    return SurfaceClass(1, CurveClass.zero(spec))


def rational_fiber_class(spec: GroupSpec, aj: GroupElement | None = None) -> SurfaceClass:
    """Class of the rational fiber over a point with degree-zero class aj."""
    if aj is None:
        aj = spec.zero()
    return SurfaceClass(0, CurveClass(1, aj))


def canonical_class(spec: GroupSpec) -> SurfaceClass:
    """The canonical class of the product surface, -2E."""
    return SurfaceClass(-2, CurveClass.zero(spec))


def intersect(u: SurfaceClass, v: SurfaceClass) -> int:
    """Intersection number; only the two degrees enter."""
    return u.a * v.c.degree + v.a * u.c.degree


def h0_p1(a: int) -> int:
    return a + 1 if a >= 0 else 0


def h0_curve(c: CurveClass) -> int:
    if c.degree >= 1:
        return c.degree
    if c.degree == 0 and c.pic0.is_zero():
        return 1
    return 0


def h0(u: SurfaceClass) -> int:
    """Dimension of the space of sections; the product of the factor counts."""
    return h0_p1(u.a) * h0_curve(u.c)


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
    c = u.c
    curve_free = c.degree >= 2 or (c.degree == 0 and c.pic0.is_zero())
    return u.a >= 0 and curve_free


@dataclass(frozen=True)
class MapReport:
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
    if u.c.degree >= 3:
        curve_degree = 1
    elif u.c.degree == 2:
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
