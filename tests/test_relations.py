"""The relation rows G(n) and their consumers, against brute-force references.

Every reference below is written straight from the sign pairing: it walks
all character pairs and all group elements, and it does not read
:func:`z2covers.cover.generating_relations`.
"""

import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cover import generators
from z2covers import characters, cover
from z2covers.abgroup import GroupSpec
from z2covers.characters import Character, nontrivial_characters, nontrivial_elements, pair
from z2covers.cli import verify_report
from z2covers.construction import (
    construct_etale,
    construct_family,
    relations_table,
    single_torsion_mutations,
)
from z2covers.cover import (
    BuildingData,
    ConsistencyError,
    Fiber,
    branch_class,
    cocycle_failures,
    derive_from_generators,
    generating_relations,
    verify_relations,
)
from z2covers.curve_oracle import (
    INFINITY,
    Assignment,
    CurveOverFp,
    RealizationReport,
    find_assignment,
    realize,
)
from z2covers.invariants import compute_invariants
from z2covers.picard import SurfaceClass


def reference_verify(bd):
    """All-pairs check of L_chi + L_chi' == L_chi.chi' + sum of D_sigma."""
    chars = nontrivial_characters(bd.n)
    zero = SurfaceClass.zero(bd.group_spec)
    pairs, failures = 0, []
    for i, chi in enumerate(chars):
        for chi_prime in chars[i:]:
            pairs += 1
            lhs = bd.L[chi] + bd.L[chi_prime]
            product = chi * chi_prime
            rhs = zero if product.is_trivial() else bd.L[product]
            for sigma in nontrivial_elements(bd.n):
                if pair(chi, sigma) == -1 and pair(chi_prime, sigma) == -1:
                    rhs = rhs + branch_class(bd.branch(sigma), bd.points_c, bd.group_spec)
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
        t.is_zero() or phi(t) is not INFINITY for t in spec.two_torsion()
    )
    collisions = tuple(
        (p, q)
        for p, q in itertools.combinations(sorted(bd.points_c), 2)
        if phi(bd.points_c[p]) == phi(bd.points_c[q])
    )
    chars = nontrivial_characters(bd.n)
    checked, failures = 0, []
    for i, chi in enumerate(chars):
        for chi_prime in chars[i:]:
            checked += 1
            a = bd.L[chi].a + bd.L[chi_prime].a
            degree = bd.L[chi].degree + bd.L[chi_prime].degree
            point = curve.add(phi(bd.L[chi].pic0), phi(bd.L[chi_prime].pic0))
            lhs = (a, degree, point)
            product = chi * chi_prime
            if product.is_trivial():
                a, degree, point = 0, 0, INFINITY
            else:
                cls = bd.L[product]
                a, degree, point = cls.a, cls.degree, phi(cls.pic0)
            for sigma in nontrivial_elements(bd.n):
                if pair(chi, sigma) == -1 and pair(chi_prime, sigma) == -1:
                    for comp in bd.branch(sigma):
                        if comp.kind == "F":
                            degree += 1
                            point = curve.add(point, phi(bd.points_c[comp.label]))
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


# -- the rows of G(n) -----------------------------------------------------------


def test_the_table_never_calls_the_pairing(monkeypatch):
    def refuse(chi, sigma):
        raise AssertionError("generating_relations(n) called pair()")

    monkeypatch.setattr(characters, "pair", refuse)
    monkeypatch.setattr(cover, "pair", refuse, raising=False)
    with pytest.raises(AssertionError):
        characters.pair(nontrivial_characters(2)[0], nontrivial_elements(2)[0])
    generating_relations.cache_clear()
    try:
        rows = generating_relations(6)
    finally:
        generating_relations.cache_clear()
    assert len(rows) == 63


# -- verify_relations against the all-pairs reference -------------------------


@st.composite
def building_data(draw):
    """Random small data over (Z/2 or Z/4)-torsion models with E and F branches.

    Each branch divisor is twice a known class H_sigma (pairs of elliptic
    fibers, pairs of rational fibers over p and 2h - p), and with t a
    homomorphism from the characters into the 2-torsion,
    L_chi = sum of H_sigma over chi(sigma) = -1, plus t(chi), satisfies every
    relation.  Half of the draws then shift one to three classes, each by a
    nonzero 2-torsion element or, when the rank is positive, by a free
    generator or its negative.  One shifted class breaks every pair of that
    character with another one; several may keep every relation, when the
    shifts add up to a homomorphism.  Returns the data and the number of
    classes shifted.
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
                    points_c[label] = aj
                    comps.append(Fiber("F", label))
                h = h + SurfaceClass(0, 1, mid)
            else:
                for _ in range(2):
                    points_p1.append(f"E{len(points_p1)}")
                    comps.append(Fiber("E", points_p1[-1]))
                h = h + SurfaceClass(1, 0, spec.zero())
        D[sigma], half[sigma] = tuple(comps), h

    two_torsion = spec.two_torsion()
    basis = [draw(st.sampled_from(two_torsion)) for _ in range(n)]
    L = {}
    for chi in nontrivial_characters(n):
        t = sum((b for bit, b in zip(chi.bits, basis) if bit), spec.zero())
        cls = SurfaceClass(0, 0, t)
        for sigma in nontrivial_elements(n):
            if pair(chi, sigma) == -1:
                cls = cls + half[sigma]
        L[chi] = cls
    shifted = []
    if draw(st.booleans()):
        shifted = draw(st.lists(st.sampled_from(nontrivial_characters(n)), min_size=1,
                                max_size=3, unique=True))
    for chi in shifted:
        if rank and draw(st.booleans()):
            g = spec.free_generator(draw(st.integers(0, rank - 1)))
            shift = draw(st.sampled_from([g, -g]))
        else:
            shift = draw(st.sampled_from([t for t in two_torsion if not t.is_zero()]))
        L[chi] = L[chi] + SurfaceClass(0, 0, shift)
    return BuildingData(spec, points_c, tuple(points_p1), L, D), len(shifted)


@settings(max_examples=150, deadline=None)
@given(building_data())
def test_verify_relations_matches_the_all_pairs_reference(case):
    bd, shifted = case
    assert_matches_reference(bd)
    if shifted < 2:  # shifts of several classes can add up to a homomorphism
        assert bool(verify_relations(bd).failures) == bool(shifted)


@settings(max_examples=150, deadline=None)
@given(building_data())
def test_completion_rebuilds_exactly_the_accepted_data(case):
    """The weight-one classes and D give back every class of an accepted datum;
    a shifted datum either fails to complete or completes to other classes."""
    bd, _ = case
    try:
        derived = derive_from_generators(
            generators(bd),
            dict(bd.D),
            group_spec=bd.group_spec,
            points_c=dict(bd.points_c),
            points_p1=bd.points_p1,
        )
        rebuilt = dict(derived.L) == dict(bd.L)
    except ConsistencyError:
        rebuilt = False
    assert rebuilt == verify_relations(bd).ok


@pytest.mark.parametrize("k", [3, 4, 5])
def test_etale_data_and_its_mutants_match_the_reference(k):
    bd = construct_etale(k)
    assert_matches_reference(bd)
    assert verify_relations(bd).ok
    # the i-th character shifted by the i-th 2-torsion element, for four i
    for _, _, mutant in itertools.islice(single_torsion_mutations(bd), 0, 4 * 2**k, 2**k):
        assert_matches_reference(mutant)
        assert not verify_relations(mutant).ok


@pytest.mark.parametrize("chi", ["000001", "000011", "111111"])
def test_etale6_with_one_class_shifted_matches_the_reference(chi):
    """A generator's shift spreads delta over half the characters, a weight-2
    class's over one, and 111111 is the last row of G."""
    bd = construct_etale(6)
    chi = Character.from_string(chi)
    shift = SurfaceClass(0, 0, bd.group_spec.torsion_generator(0))
    mutant = bd._replace(L={**bd.L, chi: bd.L[chi] + shift})
    assert_matches_reference(mutant)
    assert not verify_relations(mutant).ok


@pytest.mark.parametrize("n", [2, 3, 8])
def test_family_data_and_its_mutants_match_the_reference(n):
    bd = construct_family(n)
    assert_matches_reference(bd)
    for _, _, mutant in single_torsion_mutations(bd):
        assert_matches_reference(mutant)


# -- G(n): the rows every other relation follows from -------------------------


def generator_rows(n):
    """G(n), 2^n - 1 rows: the diagonal (e, e) of each weight-one e, and
    (chi.h, h) for each chi of weight >= 2, h the highest generator in chi.
    These are the generator diagonals and the rows the completion runs forwards.

    f(chi, chi') = L_chi + L_chi' - L_{chi.chi'} - D_{chi,chi'} is a symmetric
    2-cocycle, so a datum fails some relation exactly when it fails a row of
    G (ROADMAP item 2 has the proof).
    """
    chars = nontrivial_characters(n)
    weight_one = [e for e in chars if e.mask.bit_count() == 1]
    rows = {(e, e) for e in weight_one}
    for chi in chars:
        if chi.mask.bit_count() >= 2:
            h = max(e for e in weight_one if e.mask & chi.mask)
            rows.add((chi * h, h))
    return rows


def assert_fails_only_on_a_row_of_g(bd):
    """The all-pairs reference fails some pair exactly when it fails a row of
    G(n); and the completion, which holds every non-diagonal row of G by
    construction, blames exactly the generator diagonals that fail."""
    failed = {(chi, chi_prime) for chi, chi_prime, *_ in reference_verify(bd)[1]}
    assert bool(failed) == bool(failed & generator_rows(bd.n))
    diagonals = [(e, e) for e in bd.characters if e.mask.bit_count() == 1 and (e, e) in failed]
    try:
        derive_from_generators(
            generators(bd),
            dict(bd.D),
            group_spec=bd.group_spec,
            points_c=dict(bd.points_c),
            points_p1=bd.points_p1,
        )
    except ConsistencyError as error:
        if "zero classes" not in str(error):  # a relation failed
            assert error.failures, "no generator diagonal among the failures"
            assert [(f.chi, f.chi_prime) for f in error.failures] == diagonals
            return
    assert not diagonals


@pytest.mark.parametrize(
    "bd",
    [construct_etale(k) for k in range(1, 6)] + [construct_family(3)],
    ids=[f"etale{k}" for k in range(1, 6)] + ["family3"],
)
def test_the_completion_runs_exactly_the_non_diagonal_rows_of_g(bd, monkeypatch):
    forwards = []
    branch_sum = cover.Relation.branch_sum

    def recorded(self, D, start, *args):
        if isinstance(start, SurfaceClass):  # a verifier side is a tuple of classes, one sum
            forwards.append((self.chi, self.chi_prime))
        return branch_sum(self, D, start, *args)

    monkeypatch.setattr(cover.Relation, "branch_sum", recorded)
    derive_from_generators(
        generators(bd),
        dict(bd.D),
        group_spec=bd.group_spec,
        points_c=dict(bd.points_c),
        points_p1=bd.points_p1,
    )
    rows = generator_rows(bd.n)
    assert len(rows) == 2**bd.n - 1
    assert sorted(forwards) == sorted((chi, h) for chi, h in rows if chi != h)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_generating_relations_are_the_rows_of_g_in_table_order(n):
    """Each row carries the product of its pair, None when trivial, and the
    sigma with chi(sigma) = chi'(sigma) = -1 in element order, by the pairing."""
    rows = generating_relations(n)
    assert [(r.chi, r.chi_prime) for r in rows] == sorted(generator_rows(n))
    assert generating_relations(n) is rows
    for r in rows:
        product = r.chi * r.chi_prime
        assert r.product == (None if product.is_trivial() else product)
        assert r.sigmas == tuple(s for s in nontrivial_elements(n)
                                 if pair(r.chi, s) == pair(r.chi_prime, s) == -1)


def integer_defect(L, D, chi, chi_prime):
    """f(chi, chi') for integer classes: ``L`` by character, ``D`` by element."""
    both = sum(D[s] for s in D if pair(chi, s) == pair(chi_prime, s) == -1)
    return L[chi] + L[chi_prime] - L.get(chi * chi_prime, 0) - both


def assert_cocycle_failures_match_all_pairs(n, L, D):
    defects = [integer_defect(L, D, r.chi, r.chi_prime) for r in generating_relations(n)]
    expected = []
    for a, b in itertools.combinations_with_replacement(nontrivial_characters(n), 2):
        if f := integer_defect(L, D, a, b):
            expected.append((a, b, f))
    assert cocycle_failures(n, defects, 0, operator.add, operator.neg) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cocycle_failures_list_every_nonzero_integer_defect(n):
    """In the integers, with L and D drawn at random, the failures derived from
    G's rows are the nonzero defects of the all-pairs table, in its order."""
    rng = random.Random(n)
    L = {chi: rng.randint(-3, 3) for chi in nontrivial_characters(n)}
    D = {s: rng.randint(0, 2) for s in nontrivial_elements(n)}
    assert_cocycle_failures_match_all_pairs(n, L, D)


@pytest.mark.parametrize("mask", [0b0001, 0b0110, 0b1111])
def test_cocycle_failures_of_one_shifted_integer_class(mask):
    """Accepting integer data (even D, L_chi half the D_sigma with chi(sigma) = -1)
    with one class moved by 1: only pairs that meet the shift fail."""
    rng = random.Random(mask)
    D = {s: 2 * rng.randint(0, 2) for s in nontrivial_elements(4)}
    L = {chi: sum(D[s] for s in D if pair(chi, s) == -1) // 2 for chi in nontrivial_characters(4)}
    assert_cocycle_failures_match_all_pairs(4, L, D)
    L[nontrivial_characters(4)[mask - 1]] += 1
    assert_cocycle_failures_match_all_pairs(4, L, D)


def test_cocycle_failures_do_no_arithmetic_when_g_holds():
    def refuse(*args):
        raise AssertionError("arithmetic on defects that all vanish")

    assert cocycle_failures(4, [0] * 15, 0, refuse, refuse) == []


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_every_pair_is_counted_as_checked(k):
    """The counts are of the rows certified, not of the rows evaluated.  The
    curve cannot hold (Z/2)^k for k > 2, so every torsion image is O here."""
    bd = construct_etale(k)
    pairs = 2 ** (k - 1) * (2**k - 1)
    assert verify_relations(bd).pairs_checked == pairs
    report = realize(bd, CURVE, Assignment((), (INFINITY,) * k))
    assert report.relations_checked == pairs and not report.relation_failures


@settings(max_examples=150, deadline=None)
@given(building_data())
def test_random_data_fails_only_on_a_row_of_g(case):
    assert_fails_only_on_a_row_of_g(case[0])


# Every single-torsion mutant, except at etale k = 5: its 961 mutants take
# about a minute of the all-pairs reference, so each character is shifted once.
@pytest.mark.parametrize(
    "bd, stride",
    [(construct_family(3), 1), (construct_family(8), 1), (construct_etale(3), 1),
     (construct_etale(4), 1), (construct_etale(5), 32)],
    ids=["family3", "family8", "etale3", "etale4", "etale5"],
)
def test_single_torsion_mutants_fail_only_on_a_row_of_g(bd, stride):
    assert_fails_only_on_a_row_of_g(bd)
    for _, _, mutant in itertools.islice(single_torsion_mutations(bd), 0, None, stride):
        assert_fails_only_on_a_row_of_g(mutant)


FAMILIES = {n: construct_family(n) for n in (3, 5)}


@st.composite
def free_shifts(draw):
    """Family n = 3 or 5 with one to three classes shifted by a free generator or its negative."""
    bd = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    spec, L = bd.group_spec, dict(bd.L)
    for chi in draw(st.lists(st.sampled_from(bd.characters), min_size=1, max_size=3, unique=True)):
        g = spec.free_generator(draw(st.integers(0, spec.rank - 1)))
        L[chi] = L[chi] + SurfaceClass(0, 0, draw(st.sampled_from([g, -g])))
    return bd._replace(L=L)


@settings(max_examples=150, deadline=None)
@given(free_shifts())
def test_free_generator_shifts_fail_only_on_a_row_of_g(bd):
    assert_fails_only_on_a_row_of_g(bd)


def test_a_completion_that_makes_a_class_zero_names_it():
    """Etale k = 2 with L01 = L10 = t: every relation holds, and L11 = 2t = 0."""
    spec = GroupSpec(0, (2, 2))
    t = SurfaceClass(0, 0, spec.torsion_generator(0))
    ones = {Character.from_string("01"): t, Character.from_string("10"): t}
    with pytest.raises(ConsistencyError, match="zero classes: L_11$") as info:
        derive_from_generators(ones, {}, group_spec=spec)
    assert info.value.failures == (Character.from_string("11"),)


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


# y^2 = x^3 - x at two primes p = 7 (mod 8): the group Z/2 x Z/((p + 1)/2) has
# points of order 4, so every torsion of building_data but Z/4 x Z/4 embeds.
WITNESSES = {p: CurveOverFp(p, -1, 0) for p in (1399, 2647)}


@pytest.mark.parametrize("p", WITNESSES)
@settings(max_examples=100, deadline=None)
@given(building_data())
def test_the_oracle_fails_exactly_the_relations_the_model_fails(p, case):
    """Refused only for Z/4 x Z/4 torsion, which the curve cannot hold, or for
    points the model already merges; otherwise realize matches the reference
    and fails the model's relations, no more and no fewer."""
    bd, _ = case
    curve = WITNESSES[p]
    try:
        assignment = find_assignment(bd, curve)
    except ValueError as refusal:
        if bd.group_spec.torsion_orders == (4, 4):
            assert "cannot embed the model's torsion subgroup" in str(refusal)
        else:
            assert "share one class in the model" in str(refusal)
            assert len(set(bd.points_c.values())) < len(bd.points_c)
        return
    report = realize(bd, curve, assignment)
    assert report == reference_realize(bd, curve, assignment)
    assert report.relation_failures == tuple(
        (f.chi, f.chi_prime) for f in verify_relations(bd).failures
    )


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
    assert relation_evaluations == sorted(generator_rows(3))  # the 7 rows of G, in table order


def test_invariants_still_refuse_data_that_fails_the_relations(relation_evaluations):
    _, _, mutant = next(single_torsion_mutations(construct_family(3)))
    with pytest.raises(ValueError):
        compute_invariants(mutant)
    with pytest.raises(ValueError):
        compute_invariants(mutant)
    assert len(relation_evaluations) == 7  # G, once; its defects list the failures


def test_accepting_data_never_builds_the_full_table(relation_evaluations):
    """Each check of accepted data evaluates the 2^k - 1 rows of G, once: in
    verify, realize and table."""

    def check(run, n):
        relation_evaluations.clear()
        run()
        assert relation_evaluations == sorted(generator_rows(n))

    check(lambda: verify_report(construct_etale(8)), 8)
    check(lambda: verify_report(construct_family(64)), 3)
    bd = construct_family(3)
    assignment = find_assignment(bd, CURVE)
    check(lambda: relations_table(construct_family(3)), 3)
    check(lambda: realize(bd, CURVE, assignment), 3)


@pytest.mark.parametrize("k", [3, 8])
def test_failing_data_evaluate_only_the_rows_of_g(k, relation_evaluations):
    """The first single-torsion mutant of family n = 3 and of etale k = 8 shifts
    the class of the last generator by a torsion generator the assignment keeps
    off O, so the curve fails the model's pairs; verify and realize each list
    them from the 2^k - 1 rows of G alone."""
    bd = construct_family(3) if k == 3 else construct_etale(8)
    _, shift, mutant = next(single_torsion_mutations(bd))
    if k == 3:
        assignment = find_assignment(bd, CURVE)
    else:  # the curve holds no (Z/2)^8: the shifted generator goes to (0, 0), the rest to O
        assignment = Assignment((), (INFINITY,) * 7 + ((0, 0),))
        assert shift.tors == (0,) * 7 + (1,)
    for run in (lambda: verify_report(mutant), lambda: realize(mutant, CURVE, assignment)):
        relation_evaluations.clear()
        run()
        assert relation_evaluations == sorted(generator_rows(k))
    assert realize(mutant, CURVE, assignment).relation_failures == tuple(
        (f.chi, f.chi_prime) for f in verify_relations(mutant).failures)


def test_a_changed_copy_is_checked_afresh():
    bd = construct_family(3)
    assert verify_relations(bd).ok
    shifted = dict(bd.L)
    chi = bd.characters[0]
    shifted[chi] = bd.L[chi] + SurfaceClass(0, 0, bd.group_spec.torsion_generator(0))
    assert not verify_relations(bd._replace(L=shifted)).ok
    assert verify_relations(bd).ok
