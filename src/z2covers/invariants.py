"""Numerical invariants and canonical map analysis for a verified cover.

For a smooth Z_2^n cover f : X -> Y of Y = P1 x (elliptic curve) with
building data {L_chi, D_sigma}, writing S = 2 K_Y + sum of all D_sigma:

    2 K_X   ==  f^*(S)
    K_X^2    =  2^(n-2) * S.S
    p_g(X)   =  p_g(Y) + sum over nontrivial chi of h^0(L_chi + K_Y)
    chi(O_X) =  2^n * chi(O_Y) + sum over nontrivial chi of
                (1/2) L_chi.(L_chi + K_Y)
    q(X)     =  1 - chi(O_X) + p_g(X)

This engine is specific to the base: p_g(Y) = 0 and chi(O_Y) = 0 are
facts of the product of a rational and an elliptic curve and are baked
in.  The space of 2-forms of X decomposes character by character, so the
canonical system is generated by the pullbacks of the systems
|K_Y + L_chi| over the contributing characters, each corrected by the
reduced ramification divisors over the sigma with chi(sigma) = +1.  When
a single character contributes and its correction is empty, the canonical
map is the composition of the degree-2^n cover with the map of
|K_Y + L_chi| on the base, and its degree follows by multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .characters import Character, CoverElement, pair
from .cover import BranchComponent, BuildingData, component_class, verify_relations
from .picard import (
    SurfaceClass,
    canonical_class,
    elliptic_fiber_class,
    h0,
    intersect,
    is_base_point_free,
    map_analysis,
    rational_fiber_class,
)


@dataclass(frozen=True)
class CoverInvariants:
    k_squared: int
    p_g: int
    chi: int
    q: int
    h0_by_character: Mapping[Character, int]

    def __post_init__(self) -> None:
        if self.q != self.p_g - self.chi + 1:
            raise ValueError("q, p_g and chi(O) violate the surface identity")
        if self.k_squared % 2:
            raise ValueError("K^2 of a cover of this base must be even")
        # Read-only: compute_invariants hands the same instance to every caller.
        object.__setattr__(self, "h0_by_character", MappingProxyType(dict(self.h0_by_character)))


def _require_verified(bd: BuildingData) -> None:
    report = verify_relations(bd)
    if not report.ok:
        raise ValueError(
            "building data does not satisfy the cover relations; "
            f"{len(report.failures)} pair(s) fail and "
            f"{len(report.trivial_characters)} class(es) are trivial"
        )


def compute_invariants(bd: BuildingData) -> CoverInvariants:
    """Evaluate the invariant formulas.  Refuses unverified data.

    The data is immutable, so the result is kept on the instance, as
    :attr:`BuildingData.verification` is, and later calls read it; a
    refusal is not kept and is raised again on every call.
    """
    if "_invariants" not in bd.__dict__:
        bd.__dict__["_invariants"] = _evaluate(bd)
    return bd.__dict__["_invariants"]


def _evaluate(bd: BuildingData) -> CoverInvariants:
    _require_verified(bd)
    ky = canonical_class(bd.group_spec)
    s = 2 * ky + bd.total_branch_class()
    k2_scaled = (1 << bd.n) * intersect(s, s)
    if k2_scaled % 4:
        raise ValueError("2^n * S.S is not divisible by 4")
    k_squared = k2_scaled // 4

    h0_by, chi_sum = {}, 0
    for chi in bd.characters:
        adjoint = bd.L[chi] + ky
        h0_by[chi] = h0(adjoint)
        term = intersect(bd.L[chi], adjoint)
        if term % 2:
            # Cannot happen for honest classes on this base (adjunction makes
            # L.(L + K_Y) even); kept as a corruption guard.
            raise ValueError(f"L_{chi}.(L_{chi} + K_Y) is odd")
        chi_sum += term // 2

    p_g = sum(h0_by.values())
    return CoverInvariants(k_squared, p_g, chi_sum, p_g - chi_sum + 1, h0_by)


@dataclass(frozen=True)
class CanonicalGenerator:
    """One contributing character with its generator of the canonical system.

    ``line_class`` is K_Y + L_chi.  ``ramification`` lists the nonempty
    branch divisors over group elements fixed by the character (the sigma
    with chi(sigma) = +1); their reduced preimages correct the pullback.
    """

    character: Character
    line_class: SurfaceClass
    ramification: tuple[tuple[CoverElement, tuple[BranchComponent, ...]], ...]


@dataclass(frozen=True)
class CanonicalSystemDescription:
    contributing: tuple[Character, ...]
    generators: tuple[CanonicalGenerator, ...]


def canonical_system(bd: BuildingData) -> CanonicalSystemDescription:
    """Characters with h^0(K_Y + L_chi) > 0 and their generator descriptions.
    Refuses unverified data, as :func:`compute_invariants` does."""
    h0_by = compute_invariants(bd).h0_by_character
    ky = canonical_class(bd.group_spec)
    contributing = tuple(chi for chi in bd.characters if h0_by[chi] > 0)
    generators = []
    for chi in contributing:
        correction = tuple(
            (sigma, bd.branch(sigma))
            for sigma in bd.elements
            if pair(chi, sigma) == 1 and bd.branch(sigma)
        )
        generators.append(CanonicalGenerator(chi, bd.L[chi] + ky, correction))
    return CanonicalSystemDescription(contributing, tuple(generators))


@dataclass(frozen=True)
class CanonicalMapReport:
    """Degree analysis of the canonical map.

    ``factors_through_cover`` holds exactly when a single character
    contributes to the canonical system.  The degree is left undefined
    (None, with a note) when the factorisation fails, when the
    ramification correction is nonempty, or when the canonical image is
    not a surface.
    """

    factors_through_cover: bool
    degree: int | None
    image_degree: int | None
    base_point_free: bool | None
    note: str | None = None


def canonical_map_degree(bd: BuildingData) -> CanonicalMapReport:
    invariants = compute_invariants(bd)
    if invariants.p_g < 3:
        raise ValueError("canonical image of a surface needs p_g >= 3")
    description = canonical_system(bd)
    if len(description.contributing) != 1:
        return CanonicalMapReport(
            False, None, None, None,
            note="several characters contribute to the canonical system",
        )
    generator = description.generators[0]
    if generator.ramification:
        return CanonicalMapReport(
            True, None, None, None,
            note="nonempty ramification correction; the canonical system is "
            "strictly larger than the pullback system",
        )
    u = generator.line_class
    report = map_analysis(u)
    free = is_base_point_free(u)
    if report.image_dim != 2:
        return CanonicalMapReport(
            True, None, None, free, note="canonical image is not a surface"
        )
    return CanonicalMapReport(
        True, (1 << bd.n) * report.map_degree, report.image_degree, free
    )


@dataclass(frozen=True)
class MinimalityEvidence:
    """Finite nef-and-big evidence for S = 2 K_Y + total branch divisor.

    2 K_X is the pullback of S, so S.S > 0 together with nonnegative
    intersection against both rulings and every branch component witnesses
    that K_X is nef and big on the curve classes present in the model.
    """

    divisor: SurfaceClass
    self_intersection: int
    intersections: tuple[tuple[str, int], ...]
    nef_and_big: bool


def minimality_evidence(bd: BuildingData) -> MinimalityEvidence:
    _require_verified(bd)
    spec = bd.group_spec
    s = 2 * canonical_class(spec) + bd.total_branch_class()
    checks: list[tuple[str, int]] = [
        ("E", intersect(s, elliptic_fiber_class(spec))),
        ("F", intersect(s, rational_fiber_class(spec))),
    ]
    for sigma in bd.elements:
        for comp in bd.branch(sigma):
            checks.append(
                (f"{comp.kind}:{comp.label}", intersect(s, component_class(comp, spec)))
            )
    s2 = intersect(s, s)
    nef_and_big = s2 > 0 and all(v >= 0 for _, v in checks)
    return MinimalityEvidence(s, s2, tuple(checks), nef_and_big)
