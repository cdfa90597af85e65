"""Building data for Z_2^n covers of the product surface, and its verification.

A cover is described by a divisor class L_chi for every nontrivial
character and an effective branch divisor D_sigma for every nontrivial
group element (possibly empty).  The data defines a cover exactly when
every L_chi is a nonzero class, the total branch divisor is reduced, and
for every pair of nontrivial characters

    L_chi + L_chi' == L_{chi.chi'} + sum of D_sigma over the sigma
                      with chi(sigma) = chi'(sigma) = -1,

where L of the trivial character is read as the zero class.  The pair
condition with chi = chi' specialises to 2 L_chi == sum over chi(sigma) = -1,
the "diagonal" relations.

:func:`relations` is the single source of these relations, one row per
pair; every consumer (the verifier, the generator completion, the family's
relations table, the curve oracle) evaluates those rows in its own arithmetic.

Branch components here are always whole fibers of one of the two rulings.
That restriction keeps the smoothness criterion purely combinatorial:
fibers of the same ruling are disjoint once they are distinct, and fibers
of opposite rulings meet exactly once, transversally.  So the total branch
locus is a simple normal crossings divisor as soon as its components are
pairwise distinct and distinct point labels on the elliptic curve carry
distinct degree-zero classes.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType
from typing import Any, Mapping, Sequence, Union

from .abgroup import GroupElement, GroupSpec
from .characters import Character, CoverElement, nontrivial_characters, nontrivial_elements
from .picard import (
    CurveClass,
    PointOnC,
    PointOnP1,
    SurfaceClass,
    elliptic_fiber_class,
    rational_fiber_class,
)


@dataclass(frozen=True)
class EllipticFiber:
    """Branch component {t} x C over a point of the rational curve."""

    point: PointOnP1

    @property
    def label(self) -> str:
        return self.point.label

    @property
    def kind(self) -> str:
        return "E"


@dataclass(frozen=True)
class RationalFiber:
    """Branch component P1 x {p} over a point of the elliptic curve."""

    point: PointOnC

    @property
    def label(self) -> str:
        return self.point.label

    @property
    def kind(self) -> str:
        return "F"


BranchComponent = Union[EllipticFiber, RationalFiber]


def component_class(comp: BranchComponent, spec: GroupSpec) -> SurfaceClass:
    if isinstance(comp, EllipticFiber):
        return elliptic_fiber_class(spec)
    return rational_fiber_class(spec, comp.point.aj)


def branch_class(components: Sequence[BranchComponent], spec: GroupSpec) -> SurfaceClass:
    """Class of a sum of fiber components; the empty sum is the zero class.

    Each elliptic fiber adds E and each rational fiber adds (1, aj), so the
    sum counts the first kind and adds the points of the second in one pass.
    """
    points = [comp.point.aj for comp in components if isinstance(comp, RationalFiber)]
    return SurfaceClass(len(components) - len(points), CurveClass(len(points), spec.sum(points)))


@dataclass(frozen=True)
class BuildingData:
    """Candidate building data for a Z_2^n cover.

    ``n`` is the number of Z_2 factors of the covering group.  ``points_c``
    and ``points_p1`` register every named point of the configuration,
    including points that appear only through the classes L_chi and not in
    any branch divisor.  Construction validates shape only (all nontrivial
    characters present, components referencing registered points, one group
    model throughout); whether the data actually defines a smooth cover is
    the verifiers' business, and they report rather than raise.
    """

    n: int
    group_spec: GroupSpec
    points_c: Mapping[str, PointOnC]
    points_p1: tuple[PointOnP1, ...]
    L: Mapping[Character, SurfaceClass]
    D: Mapping[CoverElement, tuple[BranchComponent, ...]]

    def __post_init__(self) -> None:
        chars = nontrivial_characters(self.n)
        sigmas = nontrivial_elements(self.n)

        points_c = dict(self.points_c)
        for label, point in points_c.items():
            if point.label != label:
                raise ValueError(f"point registered under {label!r} has label {point.label!r}")
            if point.aj.spec != self.group_spec:
                raise ValueError(f"point {label!r} lives in a different group model")
        points_p1 = tuple(self.points_p1)
        p1_labels = [p.label for p in points_p1]
        if len(set(p1_labels)) != len(p1_labels):
            raise ValueError("duplicate labels among rational-curve points")

        L = dict(self.L)
        if set(L) != set(chars):
            raise ValueError("need a class L_chi for exactly the nontrivial characters")
        for chi, cls in L.items():
            if cls.spec != self.group_spec:
                raise ValueError(f"L_{chi} lives in a different group model")

        D = {sigma: tuple(self.D.get(sigma, ())) for sigma in sigmas}
        if not set(self.D) <= set(sigmas):
            raise ValueError("branch divisors must be indexed by nontrivial group elements")
        for sigma, comps in D.items():
            for comp in comps:
                if isinstance(comp, RationalFiber):
                    registered = points_c.get(comp.label)
                    if registered is None or registered != comp.point:
                        raise ValueError(
                            f"component over unregistered elliptic-curve point {comp.label!r}"
                        )
                elif isinstance(comp, EllipticFiber):
                    if comp.label not in p1_labels:
                        raise ValueError(
                            f"component over unregistered rational-curve point {comp.label!r}"
                        )
                else:
                    raise ValueError(f"unknown branch component {comp!r}")

        object.__setattr__(self, "points_c", MappingProxyType(points_c))
        object.__setattr__(self, "points_p1", points_p1)
        object.__setattr__(self, "L", MappingProxyType(L))
        object.__setattr__(self, "D", MappingProxyType(D))

    @property
    def characters(self) -> tuple[Character, ...]:
        return nontrivial_characters(self.n)

    @property
    def elements(self) -> tuple[CoverElement, ...]:
        return nontrivial_elements(self.n)

    def branch(self, sigma: CoverElement) -> tuple[BranchComponent, ...]:
        return self.D.get(sigma, ())

    def branch_class_of(self, sigma: CoverElement) -> SurfaceClass:
        return branch_class(self.branch(sigma), self.group_spec)

    def total_branch_class(self) -> SurfaceClass:
        components = [c for sigma in self.elements for c in self.branch(sigma)]
        return branch_class(components, self.group_spec)

    @cached_property
    def verification(self) -> VerificationReport:
        """The report of :func:`verify_relations`, computed once per instance.

        A side of a relation is a tuple of ``(a, degree, pic0, -pic0)`` terms,
        one per class it adds, so adding two sides concatenates them.  A row
        holds when the ``a`` and the degrees sum alike on both sides and the
        degree-zero parts of the left minus those of the right sum to zero:
        one signed sum per row, with every class negated once.  The sides
        of a failing row are summed into surface classes for the report.
        """
        spec = self.group_spec
        table = relations(self.n)

        def term(cls: SurfaceClass) -> tuple[tuple[int, int, GroupElement, GroupElement]]:
            return ((cls.a, cls.c.degree, cls.c.pic0, -cls.c.pic0),)

        def side_class(side: tuple) -> SurfaceClass:
            pic0 = spec.sum(t[2] for t in side)
            return SurfaceClass(sum(t[0] for t in side), CurveClass(sum(t[1] for t in side), pic0))

        L = {chi: term(cls) for chi, cls in self.L.items()}
        branch = {sigma: term(self.branch_class_of(sigma)) for sigma in self.elements}
        failures = []
        for r in table:
            lhs, rhs = r.sides(L, branch, ())
            holds = (
                sum(t[0] for t in lhs) == sum(t[0] for t in rhs)
                and sum(t[1] for t in lhs) == sum(t[1] for t in rhs)
                and spec.sum(itertools.chain((t[2] for t in lhs), (t[3] for t in rhs))).is_zero()
            )
            if not holds:
                failures.append(
                    RelationFailure(r.chi, r.chi_prime, side_class(lhs), side_class(rhs))
                )
        trivial = tuple(chi for chi in self.characters if self.L[chi].is_zero())
        ok = not failures and not trivial
        return VerificationReport(ok, len(table), tuple(failures), trivial)


@dataclass(frozen=True)
class Relation:
    """L_chi + L_chi' == L_product + sum of D_sigma over ``sigmas``, the sigma
    with chi(sigma) = chi'(sigma) = -1; ``product`` is None when trivial."""

    chi: Character
    chi_prime: Character
    product: Character | None
    sigmas: tuple[CoverElement, ...]

    def branch_sum(self, D: Mapping, start: Any, add=operator.add) -> Any:
        return reduce(add, (D[sigma] for sigma in self.sigmas), start)

    def sides(self, L: Mapping, D: Mapping, zero: Any, add=operator.add) -> tuple[Any, Any]:
        """(lhs, rhs) in the arithmetic of the values of L and D, whose sum is
        ``add``.  The class of the trivial character reads as ``zero``."""
        rhs = self.branch_sum(D, zero if self.product is None else L[self.product], add)
        return add(L[self.chi], L[self.chi_prime]), rhs


@lru_cache(maxsize=None)
def relations(n: int) -> tuple[Relation, ...]:
    """One relation per unordered pair of nontrivial characters, diagonal
    included, in lexicographic pair order.  chi(sigma) = -1 exactly when
    the masks of chi and sigma share an odd number of bits."""
    chars, elements = nontrivial_characters(n), nontrivial_elements(n)
    odd = {chi: [s for s in elements if (chi.mask & s.mask).bit_count() & 1] for chi in chars}
    table = []
    for chi, chi_prime in itertools.combinations_with_replacement(chars, 2):
        product, mask = chi * chi_prime, chi_prime.mask
        sigmas = tuple(s for s in odd[chi] if (mask & s.mask).bit_count() & 1)
        table.append(Relation(chi, chi_prime, None if product.is_trivial() else product, sigmas))
    return tuple(table)


@dataclass(frozen=True)
class RelationFailure:
    chi: Character
    chi_prime: Character
    lhs: SurfaceClass
    rhs: SurfaceClass


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking the cover relations over all character pairs.

    ``failures`` lists every violated pair with both sides.
    ``trivial_characters`` flags characters whose class is zero, a distinct
    failure kind: such data never describes a connected cover of degree
    2^n, whatever the relations say.  ``ok`` requires both lists empty.
    """

    ok: bool
    pairs_checked: int
    failures: tuple[RelationFailure, ...]
    trivial_characters: tuple[Character, ...]


def verify_relations(bd: BuildingData) -> VerificationReport:
    """Check every unordered pair of nontrivial characters, diagonal included.

    Pairs are processed and reported in lexicographic order, so the report
    is deterministic.  The data is immutable, so the check runs once per
    instance; later calls read the memo :attr:`BuildingData.verification`.
    """
    return bd.verification


@dataclass(frozen=True)
class SmoothnessReport:
    """Combinatorial smoothness evidence for the total branch locus.

    ``reduced``: all branch components pairwise distinct.
    ``injective_points``: distinct registered labels on the elliptic curve
    carry distinct degree-zero classes.
    ``snc``: both of the above; for fiber-type components this already
    makes the branch locus simple normal crossings.
    ``independent_crossings``: no D_sigma holds both kinds of fiber.  Fibers
    of opposite kinds cross, and the cover is smooth over a crossing iff its
    two sigma are independent, i.e. distinct (Pardini 1991).  Smooth iff
    this and ``snc`` hold.
    """

    reduced: bool
    snc: bool
    injective_points: bool
    independent_crossings: bool


def verify_smoothness(bd: BuildingData) -> SmoothnessReport:
    """One pass over the components, one over the points and one over D: each
    set collapses exactly the duplicates a comparison of all pairs would find."""
    components = [(comp.kind, comp.label) for sigma in bd.elements for comp in bd.branch(sigma)]
    reduced = len(set(components)) == len(components)
    classes = [point.aj for point in bd.points_c.values()]
    injective = len(set(classes)) == len(classes)
    independent = all(len({comp.kind for comp in bd.branch(sigma)}) < 2 for sigma in bd.elements)
    return SmoothnessReport(reduced, reduced and injective, injective, independent)


class ConsistencyError(ValueError):
    """Raised when generator data cannot be completed to valid building data."""

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


def derive_from_generators(
    l100: SurfaceClass,
    l010: SurfaceClass,
    l001: SurfaceClass,
    branch: Mapping[CoverElement, Sequence[BranchComponent]],
    *,
    group_spec: GroupSpec,
    points_c: Mapping[str, PointOnC] = (),
    points_p1: Sequence[PointOnP1] = (),
) -> BuildingData:
    """Complete the three generator classes of a Z_2^3 cover to full data.

    Every other class is forced by the relation of chi.e with e, for a
    generator e in chi:

        L_chi = L_e + L_{chi.e} - sum of D_sigma over the sigma
                with e(sigma) = (chi.e)(sigma) = -1.

    The completed data is verified in full.  A ConsistencyError is raised
    if the diagonal relation 2 L_e == sum of D_sigma over e(sigma) = -1
    fails for a generator character e, or if any residual relation fails.
    """
    basis = [chi for chi in nontrivial_characters(3) if chi.mask.bit_count() == 1]
    branch = {sigma: tuple(branch.get(sigma, ())) for sigma in nontrivial_elements(3)}
    branch_classes = {sigma: branch_class(comps, group_spec) for sigma, comps in branch.items()}
    zero = SurfaceClass.zero(group_spec)
    # With e the highest generator in chi, the row (chi.e, e) comes after
    # every row that completes chi.e, so one pass in table order suffices.
    L = dict(zip(basis, (l001, l010, l100)))
    for r in relations(3):
        completes = r.chi in L and r.chi_prime.mask.bit_count() == 1 and r.product is not None
        if completes and r.product not in L:
            L[r.product] = L[r.chi] + L[r.chi_prime] - r.branch_sum(branch_classes, zero)

    bd = BuildingData(3, group_spec, dict(points_c), tuple(points_p1), L, branch)
    report = verify_relations(bd)
    diagonal = [f for f in report.failures if f.chi == f.chi_prime and f.chi.mask.bit_count() == 1]
    if diagonal:
        raise ConsistencyError("diagonal relation fails for a generator character", diagonal)
    if not report.ok:
        raise ConsistencyError(
            "completed data violates a residual relation",
            report.failures or report.trivial_characters,
        )
    return bd
