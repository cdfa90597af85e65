"""Invariant formulas, canonical system, canonical map degree."""

import random

import pytest
from hypothesis import event, given, settings

from test_cover import nodal_double_cover
from test_relations import building_data
from z2covers.abgroup import GroupSpec
from z2covers.characters import Character, CoverElement, nontrivial_characters, pair
from z2covers.construction import construct_etale, construct_family
from z2covers import invariants
from z2covers.cover import BuildingData, Fiber, branch_class, verify_relations, verify_smoothness
from z2covers.invariants import CanonicalMapReport, canonical_map_degree, compute_invariants
from z2covers.picard import (
    SurfaceClass,
    canonical_class,
    elliptic_fiber_class,
    h0,
    intersect,
    is_base_point_free,
    map_analysis,
)


def chi(s):
    return Character.from_string(s)


def sigma(s):
    return CoverElement.from_string(s)


class TestComputeInvariants:
    @pytest.mark.parametrize("n,expected", [(3, (48, 6, 6, 1)), (5, (80, 10, 10, 1))])
    def test_family_values(self, n, expected):
        inv = compute_invariants(construct_family(n))
        assert (inv.k_squared, inv.p_g, inv.chi, inv.q) == expected

    def test_etale_degeneration_is_the_zero_point(self):
        inv = compute_invariants(construct_etale(3))
        assert (inv.k_squared, inv.p_g, inv.chi, inv.q) == (0, 0, 0, 1)
        # the Euler characteristic of an unramified cover is multiplicative
        assert inv.chi == 8 * 0

    def test_single_character_carries_all_sections(self):
        inv = compute_invariants(construct_family(4))
        for c in nontrivial_characters(3):
            assert inv.h0_by_character[c] == (8 if c == chi("100") else 0)

    def test_refuses_data_violating_the_relations(self):
        bd = construct_family(3)
        spec = bd.group_spec
        broken = dict(bd.L)
        broken[chi("110")] = bd.L[chi("110")] + SurfaceClass(0, 0, spec.torsion_generator(0))
        with pytest.raises(ValueError):
            compute_invariants(bd._replace(L=broken))

    def test_computed_once_per_data_instance(self, monkeypatch):
        evaluated = []
        real = invariants._evaluate
        monkeypatch.setattr(invariants, "_evaluate", lambda bd: evaluated.append(bd) or real(bd))
        bd = construct_family(4)
        first = compute_invariants(bd)
        assert canonical_map_degree(bd).degree == 8
        assert compute_invariants(bd) is first
        assert evaluated == [bd]
        assert compute_invariants(construct_family(4)) == first
        assert len(evaluated) == 2

    def test_surface_identity_holds(self):
        for n in (2, 3, 6):
            inv = compute_invariants(construct_family(n))
            assert inv.q == inv.p_g - inv.chi + 1


def two_contributor_variant():
    """Family data enlarged so a second character contributes sections.

    Adding a pair of elliptic fibers over 110 and bumping every class with
    chi(110) = -1 by the fiber class keeps all relations intact; among the
    shifted characters only 010 gains sections.
    """
    bd = construct_family(3)
    extra = ("E7", "E8")
    d = dict(bd.D)
    d[sigma("110")] = d[sigma("110")] + (Fiber("E", extra[0]), Fiber("E", extra[1]))
    e = elliptic_fiber_class(bd.group_spec)
    l = dict(bd.L)
    for name in ("100", "010", "101", "011"):
        l[chi(name)] = l[chi(name)] + e
    return bd._replace(points_p1=bd.points_p1 + extra, D=d, L=l)


def single_contributor_with_ramification_correction():
    """Valid data whose lone contributing character fixes a branched element.

    Everything is pulled back from the rational curve: ten elliptic fibers
    split 4 + 4 + 2 over the group elements 100, 010, 001, and the class
    torsions follow the bit pattern, leaving 110 as the only character
    with sections.  Since 110 pairs to +1 with the branched element 001,
    the canonical system strictly contains the pullback system.
    """
    spec = GroupSpec(0, (2, 2))
    t1, t2 = spec.torsion_generator(0), spec.torsion_generator(1)
    fibers = tuple(f"E{i}" for i in range(1, 11))
    branch = {
        sigma("100"): tuple(Fiber("E", p) for p in fibers[0:4]),
        sigma("010"): tuple(Fiber("E", p) for p in fibers[4:8]),
        sigma("001"): tuple(Fiber("E", p) for p in fibers[8:10]),
    }
    L = {}
    for c in nontrivial_characters(3):
        a = 2 * c.bits[0] + 2 * c.bits[1] + c.bits[2]
        torsion = c.bits[0] * t1 + c.bits[1] * t1 + c.bits[2] * t2
        L[c] = SurfaceClass(a, 0, torsion)
    return BuildingData(spec, {}, fibers, L, branch)


def contributing(bd):
    """The characters with sections, as the invariants pass lists them."""
    return [str(c) for c, value in compute_invariants(bd).h0_by_character.items() if value]


def reference_canonical_system(bd):
    """Per character with h0(K_Y + L_chi) > 0, in ``bd.characters`` order: the
    character, its line class K_Y + L_chi and its ramification list, the
    nonempty branch divisors over the sigma with chi(sigma) = +1."""
    ky = canonical_class(bd.group_spec)
    return [
        (c, bd.L[c] + ky, [(s, bd.branch(s)) for s in bd.elements
                           if pair(c, s) == 1 and bd.branch(s)])
        for c in bd.characters
        if h0(bd.L[c] + ky) > 0
    ]


def reference_canonical_map_degree(bd):
    """The canonical map read off the generators of reference_canonical_system."""
    generators = reference_canonical_system(bd)
    p_g = sum(h0(line) for _, line, _ in generators)
    if p_g < 3:
        raise ValueError("canonical image of a surface needs p_g >= 3")
    if len(generators) != 1:
        return CanonicalMapReport(
            False, None, None, None,
            note="several characters contribute to the canonical system",
        )
    ((_, line, ramification),) = generators
    if ramification:
        return CanonicalMapReport(
            True, None, None, None,
            note="nonempty ramification correction; the canonical system is "
            "strictly larger than the pullback system",
        )
    report, free = map_analysis(line), is_base_point_free(line)
    if report.image_dim != 2:
        return CanonicalMapReport(True, None, None, free, note="canonical image is not a surface")
    return CanonicalMapReport(
        True, (1 << bd.n) * report.map_degree, report.image_degree, free,
        image_minimal_degree=report.image_degree == p_g - 2,
    )


class TestCanonicalSystem:
    def test_family_has_one_generator_with_empty_correction(self):
        bd = construct_family(3)
        assert contributing(bd) == ["100"]
        ((_, line, ramification),) = reference_canonical_system(bd)
        assert (line.a, line.degree) == (1, 3)
        assert ramification == []
        assert canonical_map_degree(bd).note is None

    def test_two_contributors_give_two_generators(self):
        bd = two_contributor_variant()
        assert verify_relations(bd).ok
        assert contributing(bd) == ["010", "100"]
        assert len(reference_canonical_system(bd)) == 2
        report = canonical_map_degree(bd)
        assert report.note == "several characters contribute to the canonical system"

    def test_empty_system_when_nothing_contributes(self):
        bd = construct_etale(3)
        assert contributing(bd) == []
        assert compute_invariants(bd).p_g == 0

    def test_p_g_equals_the_dimension_count_of_the_generators(self):
        for bd in (construct_family(2), construct_family(5), two_contributor_variant()):
            inv = compute_invariants(bd)
            assert inv.p_g == sum(h0(line) for _, line, _ in reference_canonical_system(bd))
            ky = canonical_class(bd.group_spec)
            assert dict(inv.h0_by_character) == {c: h0(bd.L[c] + ky) for c in bd.characters}


class TestCanonicalMapMatchesTheReference:
    """canonical_map_degree against the generator-by-generator reference."""

    @pytest.mark.parametrize("n", range(2, 21))
    def test_family_with_random_halvings(self, n):
        rng = random.Random(n)
        bd = construct_family(n, [rng.randrange(4) for _ in range(n)])
        assert canonical_map_degree(bd) == reference_canonical_map_degree(bd)

    def test_the_variants_that_leave_the_degree_undefined(self):
        for bd in (two_contributor_variant(), single_contributor_with_ramification_correction()):
            report = canonical_map_degree(bd)
            assert report.degree is None
            assert report == reference_canonical_map_degree(bd)

    @settings(max_examples=300, deadline=None)
    @given(building_data())
    def test_every_verified_random_datum_with_three_sections(self, case):
        bd, _ = case
        eligible = verify_relations(bd).ok and compute_invariants(bd).p_g >= 3
        event(f"verified with p_g >= 3: {eligible}")
        if eligible:
            report = canonical_map_degree(bd)
            event(f"note: {report.note}")
            assert report == reference_canonical_map_degree(bd)


class TestCanonicalMapDegree:
    def test_family_degree_eight(self):
        report = canonical_map_degree(construct_family(3))
        assert report.factors_through_cover
        assert report.degree == 8
        assert report.image_degree == 6
        assert report.base_point_free is True
        assert report.note is None

    def test_boundary_case_degree_sixteen(self):
        report = canonical_map_degree(construct_family(2))
        assert (report.degree, report.image_degree) == (16, 2)
        assert report.base_point_free is True

    def test_two_contributors_block_the_factorisation(self):
        report = canonical_map_degree(two_contributor_variant())
        assert report.factors_through_cover is False
        assert report.degree is None and report.image_degree is None

    def test_nonempty_ramification_correction_leaves_degree_undefined(self):
        bd = single_contributor_with_ramification_correction()
        assert verify_relations(bd).ok
        assert contributing(bd) == ["110"]
        ((_, _, ramification),) = reference_canonical_system(bd)
        assert ramification == [(sigma("001"), bd.branch(sigma("001")))]
        report = canonical_map_degree(bd)
        assert report.factors_through_cover is True
        assert report.degree is None
        assert "ramification" in report.note

    def test_small_genus_rejected(self):
        with pytest.raises(ValueError):
            canonical_map_degree(construct_etale(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_degree_times_image_degree_is_k_squared(self, n):
        inv = compute_invariants(construct_family(n))
        report = canonical_map_degree(construct_family(n))
        assert report.degree * report.image_degree == inv.k_squared

    @pytest.mark.parametrize("n", range(2, 21))
    def test_the_image_has_minimal_degree_only_at_n_two(self, n):
        """A nondegenerate surface in P^(p_g - 1) has degree at least p_g - 2,
        with equality for the surfaces of minimal degree.  The family's image
        reaches it only at n = 2, the quadric: for n >= 3 it has degree 2n
        against 2n - 2."""
        bd = construct_family(n)
        image_degree = canonical_map_degree(bd).image_degree
        bound = compute_invariants(bd).p_g - 2
        assert (image_degree == bound) == (n == 2)
        assert (image_degree, bound) == ((2, 2) if n == 2 else (2 * n, 2 * n - 2))
        assert canonical_map_degree(bd).image_minimal_degree is (n == 2)

    def test_no_image_degree_leaves_minimal_degree_undefined(self):
        for bd in (two_contributor_variant(), single_contributor_with_ramification_correction()):
            assert canonical_map_degree(bd).image_minimal_degree is None


class TestHalvingChoiceInvariance:
    def test_every_torsion_offset_produces_identical_invariants(self):
        reference = compute_invariants(construct_family(3))
        for choice in [(1, 1, 1), (2, 0, 3), (3, 3, 3), (0, 1, 2)]:
            variant = construct_family(3, choice)
            assert verify_relations(variant).ok
            assert compute_invariants(variant) == reference


def adjoint_divisor(bd):
    """S = 2 K_Y + the total branch divisor; 2 K_X is its pullback."""
    return 2 * canonical_class(bd.group_spec) + bd.total_branch_class()


def reference_nef_and_big(bd):
    """S.S > 0, and S meets E, F and every branch component nonnegatively,
    each component's class formed on its own by branch_class."""
    spec, s = bd.group_spec, adjoint_divisor(bd)
    curves = [elliptic_fiber_class(spec), SurfaceClass(0, 1, spec.zero())]
    curves += [branch_class((fiber,), bd.points_c, spec)
               for sigma in bd.elements for fiber in bd.branch(sigma)]
    return intersect(s, s) > 0 and all(intersect(s, c) >= 0 for c in curves)


def branched_on_six_elliptic_fibers():
    """The Z_2 cover with D = six E fibers and L = 3E: S = 2E, nef but not big."""
    spec = GroupSpec(0, ())
    fibers = tuple(f"E{i}" for i in range(1, 7))
    branch = {sigma("1"): tuple(Fiber("E", p) for p in fibers)}
    return BuildingData(spec, {}, fibers, {chi("1"): SurfaceClass(3, 0, spec.zero())}, branch)


class TestMinimality:
    """``CoverInvariants.nef_and_big`` reads the two coefficients of S; the
    reference tests S curve by curve."""

    def test_family_adjoint_divisor_is_nef_and_big(self):
        bd = construct_family(3)
        s = adjoint_divisor(bd)
        assert intersect(s, s) == 24
        assert compute_invariants(bd).nef_and_big

    def test_etale_case_is_not_big(self):
        s = adjoint_divisor(construct_etale(3))
        assert intersect(s, s) == 0
        assert not compute_invariants(construct_etale(3)).nef_and_big

    @pytest.mark.parametrize("n", range(2, 21))
    def test_family_with_random_halvings(self, n):
        rng = random.Random(n)
        bd = construct_family(n, [rng.randrange(4) for _ in range(n)])
        assert compute_invariants(bd).nef_and_big is reference_nef_and_big(bd) is True

    @pytest.mark.parametrize("k", range(1, 6))
    def test_etale(self, k):
        bd = construct_etale(k)
        assert adjoint_divisor(bd) == -4 * elliptic_fiber_class(bd.group_spec)
        assert compute_invariants(bd).nef_and_big is reference_nef_and_big(bd) is False

    def test_branched_on_elliptic_fibers_only_is_nef_but_not_big(self):
        bd = branched_on_six_elliptic_fibers()
        assert verify_relations(bd).ok
        assert adjoint_divisor(bd) == 2 * elliptic_fiber_class(bd.group_spec)
        assert compute_invariants(bd).nef_and_big is reference_nef_and_big(bd) is False

    @settings(max_examples=300, deadline=None)
    @given(building_data())
    def test_every_verified_random_datum(self, case):
        bd, _ = case
        verified = verify_relations(bd).ok
        event(f"verified: {verified}")
        if verified:
            expected = reference_nef_and_big(bd)
            event(f"nef and big: {expected}")
            assert compute_invariants(bd).nef_and_big is expected


class TestNoether:
    """12 chi(O_X) = K_X^2 + e(X), with e(X) counted from the branch locus.

    Neither K^2 nor chi(O) enters the count, so the identity checks both
    invariant formulas against the topology of the cover.
    """

    @staticmethod
    def euler_number(bd):
        """e(X), summing e(stratum) times its number of preimages over the strata of Y.

        A point of Y with stabiliser of order s has 2^k / s preimages: s = 1
        off the branch locus, s = 2 on one branch fiber, and where an E fiber
        over sigma meets an F fiber over tau (every E meets every F once),
        s = 4 if sigma != tau and s = 2 if they are equal.  e(Y) = 0,
        e(E) = 0 and e(F) = 2.
        """
        placed = [(s, c.kind) for s in bd.elements for c in bd.branch(s)]
        over_e = [s for s, kind in placed if kind == "E"]
        over_f = [s for s, kind in placed if kind == "F"]
        e, f = len(over_e), len(over_f)
        e_outside = 0 - (0 * e + 2 * f - e * f)  # e(Y) - e(B), each node counted once in B
        e_fibers = e * (0 - f) + f * (2 - e)  # each fiber less the nodes on it
        at_nodes = sum((1 << bd.n) // (2 if s == t else 4) for s in over_e for t in over_f)
        return (1 << bd.n) * e_outside + (1 << bd.n - 1) * e_fibers + at_nodes

    def assert_noether(self, bd):
        inv = compute_invariants(bd)
        assert 12 * inv.chi == inv.k_squared + self.euler_number(bd)

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_family(self, n):
        bd = construct_family(n)
        assert self.euler_number(bd) == 8 * n
        self.assert_noether(bd)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_etale(self, k):
        bd = construct_etale(k)
        assert self.euler_number(bd) == 0
        self.assert_noether(bd)

    @settings(max_examples=300, deadline=None)
    @given(building_data())
    def test_every_accepted_random_datum(self, case):
        bd, _ = case
        smoothness = verify_smoothness(bd)
        accepted = verify_relations(bd).ok and smoothness.snc and smoothness.independent_crossings
        event(f"accepted: {accepted}")
        if accepted:
            self.assert_noether(bd)

    def test_the_nodal_double_cover_breaks_the_identity(self):
        bd = nodal_double_cover()
        inv = compute_invariants(bd)
        assert (12 * inv.chi, inv.k_squared, self.euler_number(bd)) == (0, -4, 0)
