"""The relation table and its consumers, against brute-force references.

Every reference below is written straight from the sign pairing: it walks
all character pairs and all group elements, and it does not read
:func:`z2covers.cover.relations`.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2covers import characters, cover
from z2covers.abgroup import GroupSpec
from z2covers.characters import mul, nontrivial_characters, nontrivial_elements, pair
from z2covers.cli import verify_report
from z2covers.construction import construct_etale, construct_family, single_torsion_mutations
from z2covers.cover import (
    BuildingData,
    EllipticFiber,
    RationalFiber,
    branch_class,
    relations,
    verify_relations,
)
from z2covers.curve_oracle import (
    INFINITY,
    CurveOverFp,
    RealizationReport,
    find_assignment,
    realize,
)
from z2covers.invariants import compute_invariants
from z2covers.picard import CurveClass, PointOnC, PointOnP1, SurfaceClass


def reference_verify(bd):
    """All-pairs check of L_chi + L_chi' == L_chi.chi' + sum of D_sigma."""
    chars = nontrivial_characters(bd.n)
    zero = SurfaceClass.zero(bd.group_spec)
    pairs, failures = 0, []
    for i, chi in enumerate(chars):
        for chi_prime in chars[i:]:
            pairs += 1
            lhs = bd.L[chi] + bd.L[chi_prime]
            product = mul(chi, chi_prime)
            rhs = zero if product.is_trivial() else bd.L[product]
            for sigma in nontrivial_elements(bd.n):
                if pair(chi, sigma) == -1 and pair(chi_prime, sigma) == -1:
                    rhs = rhs + branch_class(bd.branch(sigma), bd.group_spec)
            if lhs != rhs:
                failures.append((chi, chi_prime, lhs, rhs))
    trivial = tuple(chi for chi in chars if bd.L[chi].is_zero())
    return pairs, failures, trivial


def reference_realize(bd, curve, assignment):
    """The realization report computed pair by pair with plain curve arithmetic."""
    spec = bd.group_spec
    images = (*assignment.free_points, *assignment.torsion_points)

    def phi(element):
        total = INFINITY
        for k, point in zip((*element.free, *element.tors), images):
            total = curve.add(total, curve.scale(k, point))
        return total

    torsion_faithful = all(
        t.is_zero() or not phi(t).is_infinity for t in spec.two_torsion()
    )
    labeled = sorted(bd.points_c.values(), key=lambda pt: pt.label)
    collisions = tuple(
        (p.label, q.label)
        for p, q in itertools.combinations(labeled, 2)
        if phi(p.aj) == phi(q.aj)
    )
    chars = nontrivial_characters(bd.n)
    checked, failures = 0, []
    for i, chi in enumerate(chars):
        for chi_prime in chars[i:]:
            checked += 1
            a = bd.L[chi].a + bd.L[chi_prime].a
            degree = bd.L[chi].c.degree + bd.L[chi_prime].c.degree
            point = curve.add(phi(bd.L[chi].c.pic0), phi(bd.L[chi_prime].c.pic0))
            lhs = (a, degree, point)
            product = mul(chi, chi_prime)
            if product.is_trivial():
                a, degree, point = 0, 0, INFINITY
            else:
                cls = bd.L[product]
                a, degree, point = cls.a, cls.c.degree, phi(cls.c.pic0)
            for sigma in nontrivial_elements(bd.n):
                if pair(chi, sigma) == -1 and pair(chi_prime, sigma) == -1:
                    for comp in bd.branch(sigma):
                        if isinstance(comp, RationalFiber):
                            degree += 1
                            point = curve.add(point, phi(comp.point.aj))
                        else:
                            a += 1
            if lhs != (a, degree, point):
                failures.append((chi, chi_prime))
    ok = torsion_faithful and not collisions and not failures
    return RealizationReport(
        ok, checked, tuple(failures), not collisions, collisions, torsion_faithful
    )


def assert_matches_reference(bd):
    report = verify_relations(bd)
    pairs, failures, trivial = reference_verify(bd)
    assert report.pairs_checked == pairs
    assert [(f.chi, f.chi_prime, f.lhs, f.rhs) for f in report.failures] == failures
    assert report.trivial_characters == trivial
    assert report.ok == (not failures and not trivial)


# -- the table itself ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_table_lists_every_pair_once_with_its_branch_elements(n):
    chars, elements = nontrivial_characters(n), nontrivial_elements(n)
    table = relations(n)
    assert len(table) == 2 ** (n - 1) * (2**n - 1)
    assert [(r.chi, r.chi_prime) for r in table] == list(
        itertools.combinations_with_replacement(chars, 2)
    )
    # pair() is called once per (character, element); each character's -1
    # set is a bitset over the positions in the element order.
    minus = {
        chi: sum(1 << i for i, s in enumerate(elements) if pair(chi, s) == -1) for chi in chars
    }
    position = {s: i for i, s in enumerate(elements)}
    for r in table:
        product = mul(r.chi, r.chi_prime)
        assert r.product == (None if product.is_trivial() else product)
        places = [position[s] for s in r.sigmas]
        assert places == sorted(set(places))
        assert sum(1 << i for i in places) == minus[r.chi] & minus[r.chi_prime]


def test_the_table_never_calls_the_pairing(monkeypatch):
    def refuse(chi, sigma):
        raise AssertionError("relations(n) called pair()")

    monkeypatch.setattr(characters, "pair", refuse)
    monkeypatch.setattr(cover, "pair", refuse, raising=False)
    with pytest.raises(AssertionError):
        nontrivial_characters(2)[0](nontrivial_elements(2)[0])
    relations.cache_clear()
    try:
        table = relations(6)
    finally:
        relations.cache_clear()
    assert len(table) == 2016


def test_table_is_built_once_per_n():
    assert relations(3) is relations(3)


# -- verify_relations against the all-pairs reference -------------------------


@st.composite
def building_data(draw):
    """Random small data over (Z/2 or Z/4)-torsion models with E and F branches.

    Each branch divisor is twice a known class H_sigma (pairs of elliptic
    fibers, pairs of rational fibers over p and 2h - p), and with t a
    homomorphism from the characters into the 2-torsion,
    L_chi = sum of H_sigma over chi(sigma) = -1, plus t(chi), satisfies every
    relation.  Half of the draws then shift one class by a nonzero 2-torsion
    element, which breaks every pair of that character with another one.
    Returns the data and whether it was shifted.
    """
    n = draw(st.integers(2, 4))
    torsion = tuple(draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=2)))
    rank = draw(st.integers(0, 2))
    spec = GroupSpec(rank, torsion)
    free = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    tors = st.tuples(*(st.integers(0, m - 1) for m in torsion))

    points_c, points_p1, D, half = {}, [], {}, {}
    for sigma in nontrivial_elements(n):
        comps, h = [], SurfaceClass.zero(spec)
        for _ in range(draw(st.integers(0, 2))):
            if rank and draw(st.booleans()):
                p = spec.element(draw(free), draw(tors))
                mid = spec.element(draw(free), draw(tors))
                for aj in (p, 2 * mid - p):
                    label = f"F{len(points_c)}"
                    points_c[label] = PointOnC(label, aj)
                    comps.append(RationalFiber(points_c[label]))
                h = h + SurfaceClass(0, CurveClass(1, mid))
            else:
                for _ in range(2):
                    points_p1.append(PointOnP1(f"E{len(points_p1)}"))
                    comps.append(EllipticFiber(points_p1[-1]))
                h = h + SurfaceClass(1, CurveClass.zero(spec))
        D[sigma], half[sigma] = tuple(comps), h

    two_torsion = spec.two_torsion()
    basis = [draw(st.sampled_from(two_torsion)) for _ in range(n)]
    L = {}
    for chi in nontrivial_characters(n):
        t = sum((b for bit, b in zip(chi.bits, basis) if bit), spec.zero())
        cls = SurfaceClass(0, CurveClass(0, t))
        for sigma in nontrivial_elements(n):
            if pair(chi, sigma) == -1:
                cls = cls + half[sigma]
        L[chi] = cls
    shifted = draw(st.booleans())
    if shifted:
        chi = draw(st.sampled_from(nontrivial_characters(n)))
        shift = draw(st.sampled_from([t for t in two_torsion if not t.is_zero()]))
        L[chi] = L[chi] + SurfaceClass(0, CurveClass(0, shift))
    return BuildingData(n, spec, points_c, tuple(points_p1), L, D), shifted


@settings(max_examples=150, deadline=None)
@given(building_data())
def test_verify_relations_matches_the_all_pairs_reference(case):
    bd, shifted = case
    assert_matches_reference(bd)
    assert bool(verify_relations(bd).failures) == shifted


@pytest.mark.parametrize("k", [3, 4, 5])
def test_etale_data_and_its_mutants_match_the_reference(k):
    bd = construct_etale(k)
    assert_matches_reference(bd)
    assert verify_relations(bd).ok
    # the i-th character shifted by the i-th 2-torsion element, for four i
    for _, _, mutant in itertools.islice(single_torsion_mutations(bd), 0, 4 * 2**k, 2**k):
        assert_matches_reference(mutant)
        assert not verify_relations(mutant).ok


@pytest.mark.parametrize("n", [2, 3, 8])
def test_family_data_and_its_mutants_match_the_reference(n):
    bd = construct_family(n)
    assert_matches_reference(bd)
    for _, _, mutant in single_torsion_mutations(bd):
        assert_matches_reference(mutant)


# -- realize against the pair-by-pair reference -------------------------------

CURVE = CurveOverFp(191, -1, 0)  # Z/2 x Z/96, room for the n = 3 family


def test_realize_matches_the_reference_on_every_mutant():
    bd = construct_family(3)
    assignment = find_assignment(bd, CURVE)
    assert realize(bd, CURVE, assignment) == reference_realize(bd, CURVE, assignment)
    for _, _, mutant in single_torsion_mutations(bd):
        report = realize(mutant, CURVE, assignment)
        assert report == reference_realize(mutant, CURVE, assignment)
        assert report.relation_failures


def test_realize_matches_the_reference_on_every_halving_variant():
    for choice in itertools.product(range(4), repeat=3):
        bd = construct_family(3, choice)
        assignment = find_assignment(bd, CURVE)
        report = realize(bd, CURVE, assignment)
        assert report == reference_realize(bd, CURVE, assignment)
        assert report.ok


# -- the relation check runs once per verify ----------------------------------


@pytest.fixture
def relation_evaluations(monkeypatch):
    calls = []
    sides = cover.Relation.sides

    def counted(self, *args, **kwargs):
        calls.append((self.chi, self.chi_prime))
        return sides(self, *args, **kwargs)

    monkeypatch.setattr(cover.Relation, "sides", counted)
    return calls


def test_one_verify_report_runs_the_pair_loop_once(relation_evaluations):
    report = verify_report(construct_family(3))
    assert report["invariants"] is not None and report["canonical_map"]["degree"] == 8
    assert relation_evaluations == [(r.chi, r.chi_prime) for r in relations(3)]


def test_invariants_still_refuse_data_that_fails_the_relations(relation_evaluations):
    _, _, mutant = next(single_torsion_mutations(construct_family(3)))
    with pytest.raises(ValueError):
        compute_invariants(mutant)
    with pytest.raises(ValueError):
        compute_invariants(mutant)
    assert len(relation_evaluations) == len(relations(3))


def test_a_changed_copy_is_checked_afresh():
    bd = construct_family(3)
    assert verify_relations(bd).ok
    shifted = dict(bd.L)
    chi = bd.characters[0]
    shifted[chi] = bd.L[chi] + SurfaceClass(0, CurveClass(0, bd.group_spec.torsion_generator(0)))
    assert not verify_relations(replace(bd, L=shifted)).ok
    assert verify_relations(bd).ok
