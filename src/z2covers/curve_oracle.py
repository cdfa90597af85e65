"""Concretization oracle: genuine elliptic curve points over a prime field.

The abstract group model asserts linear-equivalence identities among
finitely many points with bounded integer coefficients.  This module
re-checks every one of them with honest chord-tangent arithmetic on an
explicit curve y^2 = x^3 + ax + b over F_p, at desk scale: points are
found by exhaustive enumeration (no point counting tricks) and ordered by
brute force, which keeps the oracle independent of the algebra it audits.
The curve's one table of orders, :attr:`CurveOverFp.points_by_order`, is one
pass that orders one point of each pair {P, -P}, each by the primes of the
group order, factored once per curve; ``group_structure`` and
``find_assignment`` both read it.  A point is the tuple (x, y) of
coordinates reduced mod p, and the point at infinity O is None
(:data:`INFINITY`).  The group law inverts each slope's denominator d
exactly, ``pow(d, -1, p)`` as in :func:`abgroup.halvings`, and refuses a zero
denominator with ``ValueError``: only an unreduced alias or a point off the
curve gives one.

Free generators of the abstract model cannot map to infinite-order points
over a finite field, so a map to the curve may send a nonzero combination
to O.  :func:`find_assignment` accepts a placement only when
:func:`realize`, the one evaluation of a placement on the curve, keeps the
registered points apart and fails every relation the model fails; points
the model itself merges, or more registered points than the curve has, are
refused before any draw.  Torsion is read prime by prime: the images (m/ℓ)·P
of the generators with ℓ | m must be independent in the curve's E[ℓ] = (Z/ℓ)^r,
r <= 2, so the search keeps one point per tuple of lines <(m/ℓ)·P>.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property, reduce
from typing import NamedTuple

from .abgroup import GroupElement
from .characters import Character
from .cover import BuildingData, Fiber, cocycle_failures, generating_relations, verify_relations

MAX_EXHAUSTIVE_PRIME = 10_000
ATTEMPTS = 400  # draws of free-generator images before find_assignment gives up


def is_prime(n: int) -> bool:
    return _prime_factors(n) == (n,)


_Point = tuple[int, int] | None
INFINITY = None


class CurveOverFp:
    """y^2 = x^3 + ax + b over the field with p elements, p an odd prime."""

    def __init__(self, p: int, a: int, b: int):
        if p > MAX_EXHAUSTIVE_PRIME:  # refused before the trial division of is_prime
            raise ValueError(f"p = {p} too large for exhaustive enumeration")
        if p < 3 or not is_prime(p):
            raise ValueError("p must be an odd prime")
        self.p = p
        self.a = a % p
        self.b = b % p
        if (4 * self.a**3 + 27 * self.b**2) % p == 0:
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0 mod p")
        self._points: tuple[_Point, ...] | None = None

    def __repr__(self) -> str:
        return f"y^2 = x^3 + {self.a}x + {self.b} over F_{self.p}"

    def contains(self, point: _Point) -> bool:
        """On the curve, with coordinates reduced mod p as the group law needs."""
        if point is None:
            return True
        x, y = point
        if not (0 <= x < self.p and 0 <= y < self.p):
            return False
        return (y**2 - (x**3 + self.a * x + self.b)) % self.p == 0

    def negate(self, point: _Point) -> _Point:
        if point is None:
            return point
        x, y = point
        return x, -y % self.p

    def add(self, p1: _Point, p2: _Point) -> _Point:
        """The chord-tangent sum of two points of the curve, each reduced mod p
        (see :meth:`contains`).  The slope's denominator is inverted exactly,
        ``pow(d, -1, p)``; a zero denominator, which only an unreduced alias or
        a point off the curve gives, raises ``ValueError``."""
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        p = self.p
        (x1, y1), (x2, y2) = p1, p2
        if x1 == x2 and (y1 + y2) % p == 0:
            return INFINITY
        if p1 == p2:
            slope = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope - x1 - x2) % p
        return x3, (slope * (x1 - x3) - y1) % p

    def scale(self, k: int, point: _Point) -> _Point:
        if k < 0:
            return self.scale(-k, self.negate(point))
        result = INFINITY
        addend = point
        while k > 1:
            if k & 1:
                result = self.add(result, addend)
            addend = self.add(addend, addend)
            k >>= 1
        return self.add(result, addend) if k else result

    def points(self) -> tuple[_Point, ...]:
        """All points, by exhaustive enumeration over x."""
        if self._points is not None:
            return self._points
        p = self.p
        roots_of: dict[int, list[int]] = {}
        for y in range(p):
            roots_of.setdefault(y * y % p, []).append(y)
        found = [INFINITY]
        for x in range(p):
            rhs = (x * x * x + self.a * x + self.b) % p
            for y in roots_of.get(rhs, ()):
                found.append((x, y))
        self._points = tuple(found)
        return self._points

    def order(self) -> int:
        return len(self.points())

    @cached_property
    def order_primes(self) -> tuple[int, ...]:
        """The primes of the group order N, factored once per curve."""
        return _prime_factors(self.order())

    def point_order(self, point: _Point) -> int:
        """Order of a point, reduced from the group order N by each prime of N."""
        order = self.order()
        for q in self.order_primes:
            while order % q == 0 and self.scale(order // q, point) is None:
                order //= q
        return order

    @cached_property
    def points_by_order(self) -> dict[int, tuple[_Point, ...]]:
        """The points of each order, as :meth:`points` lists them: the curve's
        one table of point orders, made in one pass that orders one point of
        each pair {P, -P}, since ord(-P) = ord(P)."""
        order_of: dict[_Point, int] = {}
        table: dict[int, list[_Point]] = {}
        for point in self.points():
            if point not in order_of:
                order_of[point] = order_of[self.negate(point)] = self.point_order(point)
            table.setdefault(order_of[point], []).append(point)
        return {m: tuple(points) for m, points in table.items()}

    def group_structure(self) -> tuple[int, tuple[int, int]]:
        """(N, (d1, d2)) with the group isomorphic to Z/d1 x Z/d2, d1 | d2, and
        d2 the exponent, which in a finite abelian group is the largest point
        order.  It is read off :attr:`points_by_order`, so the first call
        orders every point, on a cyclic curve too."""
        n, d2 = self.order(), max(self.points_by_order)
        d1 = n // d2
        if d2 % d1:
            raise ValueError("point orders inconsistent with a rank-2 abelian group")
        return n, (d1, d2)


def _prime_factors(n: int) -> tuple[int, ...]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return tuple(factors)


class Assignment(NamedTuple):
    """Images of the group model's generators on a concrete curve."""

    free_points: tuple[_Point, ...]
    torsion_points: tuple[_Point, ...]


class RealizationReport(NamedTuple):
    """Outcome of re-checking the abstract identities with curve arithmetic."""

    ok: bool
    relations_checked: int
    relation_failures: tuple[tuple[Character, Character], ...]
    injective: bool
    collisions: tuple[tuple[str, str], ...]
    torsion_faithful: bool


def _image(curve: CurveOverFp, assignment: Assignment, element: GroupElement) -> _Point:
    """The curve point of ``element`` under ``assignment``."""
    total = INFINITY
    for i, k in element.terms:
        total = curve.add(total, curve.scale(k, assignment.free_points[i]))
    for k, point in zip(element.tors, assignment.torsion_points):
        if k:
            total = curve.add(total, curve.scale(k, point))
    return total


def _torsion_faithful(
    curve: CurveOverFp, orders: tuple[int, ...], torsion_points: tuple[_Point, ...]
) -> bool:
    """Only the zero element of the model's torsion, its generators of
    ``orders`` sent to ``torsion_points``, maps to O.  A map from a finite
    abelian group is injective exactly when no element of prime order maps
    to O.  For each prime ℓ those elements are spanned by (m/ℓ)·t, one per
    order ℓ | m, and the curve's E[ℓ] is (Z/ℓ)^r, r <= 2, so their images
    (m/ℓ)·P must be independent: at most two, none O, the second not a
    multiple of the first."""
    for ell in set().union(*map(_prime_factors, orders)):
        h = [curve.scale(m // ell, point)
             for m, point in zip(orders, torsion_points) if m % ell == 0]
        if len(h) > 2 or None in h or (
                len(h) == 2 and h[1] in {curve.scale(k, h[0]) for k in range(1, ell)}):
            return False
    return True


def _shared_pairs(keys: dict[str, object]) -> tuple[tuple[str, str], ...]:
    """The sorted pairs of labels that share a key, from one pass that groups
    the labels by key."""
    by_key: dict[object, list[str]] = {}
    for label in sorted(keys):
        by_key.setdefault(keys[label], []).append(label)
    pairs = (pair for labels in by_key.values() for pair in itertools.combinations(labels, 2))
    return tuple(sorted(pairs))


def realize(bd: BuildingData, curve: CurveOverFp, assignment: Assignment) -> RealizationReport:
    """Re-evaluate every identity of the building data on a concrete curve.

    Hard errors: assignment of the wrong shape, points off the curve, or a
    torsion generator image that is not annihilated by its order.  All
    mathematical findings (collisions between realized points, relation
    sides disagreeing) are reported, not raised.
    """
    spec = bd.group_spec
    if len(assignment.free_points) != spec.rank:
        raise ValueError(f"need {spec.rank} free-generator images")
    if len(assignment.torsion_points) != len(spec.torsion_orders):
        raise ValueError(f"need {len(spec.torsion_orders)} torsion-generator images")
    for point in (*assignment.free_points, *assignment.torsion_points):
        if not curve.contains(point):
            raise ValueError(f"{point!r} is not on {curve!r}")
    for m, point in zip(spec.torsion_orders, assignment.torsion_points):
        if curve.scale(m, point) is not None:
            raise ValueError(
                f"torsion generator image {point!r} is not {m}-torsion on the curve"
            )

    torsion_faithful = _torsion_faithful(curve, spec.torsion_orders, assignment.torsion_points)
    realized = {label: _image(curve, assignment, x) for label, x in bd.points_c.items()}
    collisions = _shared_pairs(realized)

    # (E-coefficient, degree, point) triples: each class and branch component
    # is mapped on its own, never a sum formed in the group model.
    def add(u: tuple, v: tuple) -> tuple:
        return u[0] + v[0], u[1] + v[1], curve.add(u[2], v[2])

    def neg(u: tuple) -> tuple:
        return -u[0], -u[1], curve.negate(u[2])

    def component(fiber: Fiber) -> tuple:
        if fiber.kind == "F":
            return 0, 1, realized[fiber.label]
        return 1, 0, INFINITY

    zero = (0, 0, INFINITY)
    L = {chi: (cls.a, cls.degree, _image(curve, assignment, cls.pic0)) for chi, cls in bd.L.items()}
    D = {sigma: reduce(add, map(component, bd.branch(sigma)), zero) for sigma in bd.elements}
    # The curve's arithmetic is an abelian group too, so G's defects give every failing pair.
    sides = (r.sides(L, D, zero, add) for r in generating_relations(bd.n))
    defects = [zero if lhs == rhs else add(lhs, neg(rhs)) for lhs, rhs in sides]
    relation_failures = tuple((a, b) for a, b, _ in cocycle_failures(bd.n, defects, zero, add, neg))
    injective = not collisions
    ok = torsion_faithful and injective and not relation_failures
    pairs = 2 ** (bd.n - 1) * (2**bd.n - 1)
    return RealizationReport(ok, pairs, relation_failures, injective, collisions, torsion_faithful)


def find_assignment(bd: BuildingData, curve: CurveOverFp) -> Assignment:
    """Search for generator images that make the realization faithful.

    Torsion generators are mapped to points of exactly matching order with the
    model's torsion embedded faithfully, which :func:`_torsion_faithful` reads
    only through the images (m/ℓ)·P for each prime ℓ | m.  So per order m
    only the first point of each tuple of lines <(m/ℓ)·P> is tried, and the
    first faithful candidate is the one the product of all points would give;
    more generators with ℓ | m than the curve's ℓ-rank are refused before any
    search.  Free generators are mapped to multiples of the first point of
    order d2, the multipliers drawn from ``random.Random(0)``.  The first of
    :data:`ATTEMPTS` draws whose :func:`realize` report is injective and fails
    every relation the model fails is accepted, so the curve mends none; one
    only the curve fails still reaches the report.  Two registered points of
    one class in the model are refused before any draw: no curve parts them.
    So is a model with more registered points than the curve has points.
    """
    spec = bd.group_spec
    _, (d1, d2) = curve.group_structure()
    line: dict[_Point, _Point] = {}  # each point of prime order to the first of its line
    by_order: dict[int, list[_Point]] = {}
    for m in set(spec.torsion_orders):
        primes = _prime_factors(m)
        firsts: dict[tuple[_Point, ...], _Point] = {}  # the first point per tuple of lines
        for pt in curve.points_by_order.get(m, ()):
            h = [curve.scale(m // ell, pt) for ell in primes]
            for ell, point in zip(primes, h):
                if point not in line:
                    line.update((curve.scale(k, point), point) for k in range(1, ell))
            firsts.setdefault(tuple(map(line.get, h)), pt)
        if not firsts:
            raise ValueError(f"curve has no point of order {m}")
        by_order[m] = list(firsts.values())

    refusal = "curve torsion cannot embed the model's torsion subgroup"
    for ell in set().union(*map(_prime_factors, spec.torsion_orders)):
        if sum(m % ell == 0 for m in spec.torsion_orders) > (d1 % ell == 0) + (d2 % ell == 0):
            raise ValueError(refusal)
    candidates = itertools.product(*(by_order[m] for m in spec.torsion_orders))
    faithful = (c for c in candidates if _torsion_faithful(curve, spec.torsion_orders, c))
    torsion_points = next(faithful, None)
    if torsion_points is None:
        raise ValueError(refusal)

    if d2 == 1 and spec.rank:
        raise ValueError("curve has only the point O, so free generators have no image")
    merged = _shared_pairs(bd.points_c)
    if merged:
        raise ValueError("points {!r} and {!r} share one class in the model, so no curve "
                         "keeps them apart".format(*merged[0]))
    if len(bd.points_c) > curve.order():
        raise ValueError(f"the model registers {len(bd.points_c)} points but the curve has "
                         f"only {curve.order()}, so no assignment keeps them apart")
    failed = {(f.chi, f.chi_prime) for f in verify_relations(bd).failures}
    generator = curve.points_by_order[d2][0]
    rng = random.Random(0)
    for _ in range(ATTEMPTS):
        multipliers = [rng.randrange(1, d2) for _ in range(spec.rank)]
        assignment = Assignment(tuple(curve.scale(c, generator) for c in multipliers),
                                torsion_points)
        report = realize(bd, curve, assignment)
        if report.injective and failed <= set(report.relation_failures):
            return assignment
    raise ValueError(f"no faithful assignment found in {ATTEMPTS} attempts")
