"""End-to-end acceptance checks for the whole pipeline.

Every check is an exact integer identity; there are no tolerances.  Each
test prints a one-line verdict so a verbose run doubles as a report.
"""

import itertools
import time

from test_curve_oracle import two_torsion_points
from z2covers.characters import Character
from z2covers.construction import (
    construct_etale,
    construct_family,
    relations_table,
    single_torsion_mutations,
)
from z2covers.cover import verify_relations, verify_smoothness
from z2covers.curve_oracle import CurveOverFp, INFINITY, find_assignment, realize
from z2covers.invariants import canonical_map_degree, compute_invariants

CHI_100 = Character.from_string("100")


def report(index, message):
    print(f"ACCEPTANCE {index}: PASS - {message}")


def full_pipeline(n, halving_choice=None):
    bd = construct_family(n, halving_choice)
    relations = verify_relations(bd)
    smoothness = verify_smoothness(bd)
    invariants = compute_invariants(bd)
    canonical = canonical_map_degree(bd)
    return bd, relations, smoothness, invariants, canonical


def test_acceptance_1_family_reproduction_for_n_3_to_10():
    for n in range(3, 11):
        started = time.monotonic()
        _, relations, smoothness, invariants, canonical = full_pipeline(n)
        elapsed = time.monotonic() - started
        assert relations.ok and relations.pairs_checked == 28
        assert smoothness.reduced and smoothness.snc and smoothness.injective_points
        assert invariants.k_squared == 16 * n
        assert invariants.p_g == 2 * n
        assert invariants.q == 1
        assert canonical.degree == 8
        assert canonical.image_degree == 2 * n
        assert canonical.base_point_free is True
        assert elapsed < 1.0, f"n = {n} took {elapsed:.3f}s"
    report(1, "n = 3..10 give K^2 = 16n, p_g = 2n, q = 1, canonical degree 8, "
              "image degree 2n, base point free, under 1s each")


def test_acceptance_2_relations_table_symbols():
    rows = relations_table(construct_family(3))
    assert [row["rhs"] for row in rows] == [
        "6E + 2ΣF_ii",
        "4E + 2ΣF_ii + η1",
        "4E + 2ΣF_ii + η2",
        "2E + 2ΣF_ii",
        "2E + 2ΣF_ii + η3",
        "2E + 2ΣF_ii",
    ]
    assert all(row["equal"] for row in rows)
    report(2, "the six relations among the generator classes render with the expected right-hand sides")


def test_acceptance_3_boundary_case_n_2():
    _, relations, smoothness, invariants, canonical = full_pipeline(2)
    assert relations.ok and smoothness.snc
    assert (invariants.k_squared, invariants.p_g, invariants.q) == (32, 4, 1)
    assert canonical.degree == 16
    assert canonical.image_degree == 2
    report(3, "n = 2 gives K^2 = 32, p_g = 4, q = 1, degree 16 onto a quadric")


def test_acceptance_4_degree_times_image_degree_is_k_squared():
    for n in range(2, 21):
        _, _, _, invariants, canonical = full_pipeline(n)
        assert canonical.degree * canonical.image_degree == invariants.k_squared
    report(4, "degree * image degree = K^2 for every n in 2..20")


def test_acceptance_5_single_character_dominance():
    for n in range(2, 21):
        invariants = compute_invariants(construct_family(n))
        for chi, value in invariants.h0_by_character.items():
            assert value == (2 * n if chi == CHI_100 else 0)
    report(5, "only the character 100 carries sections (2n of them) for n in 2..20")


def test_acceptance_6_mutation_sensitivity():
    mutants = list(single_torsion_mutations(construct_family(3)))
    assert len(mutants) == 21
    for character, shift, mutant in mutants:
        assert not verify_relations(mutant).ok, (
            f"torsion shift {shift} of L_{character} passed verification"
        )
    report(6, "all 21 single-torsion mutations fail the relation check")


def test_acceptance_7_halving_choice_invariance():
    reference = compute_invariants(construct_family(3))
    variants = list(itertools.product(range(4), repeat=3))
    assert len(variants) == 64
    for choice in variants:
        _, relations, smoothness, invariants, canonical = full_pipeline(3, choice)
        assert relations.ok and smoothness.snc
        assert invariants == reference
        assert canonical.degree == 8 and canonical.base_point_free
    report(7, "all 64 halving choices at n = 3 verify and share identical invariants")


def test_acceptance_8_concrete_curve_oracle():
    started = time.monotonic()
    curve = CurveOverFp(2003, -1, 0)
    assert len(two_torsion_points(curve)) == 4
    order, (d1, d2) = curve.group_structure()
    assert d1 * d2 == order and d2 % d1 == 0
    for point in curve.points():
        assert curve.scale(order, point) == INFINITY
    bd = construct_family(3)
    assignment = find_assignment(bd, curve)
    outcome = realize(bd, curve, assignment)
    assert outcome.ok and outcome.relations_checked == 28
    for _, _, mutant in single_torsion_mutations(bd):
        assert not realize(mutant, curve, assignment).ok
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle run took {elapsed:.1f}s"
    report(8, f"curve of order {order} over F_2003 confirms the model and rejects "
              f"all 21 mutations in {elapsed:.1f}s")


def test_acceptance_9_etale_degenerate_case():
    bd = construct_etale(3)
    assert verify_relations(bd).ok
    invariants = compute_invariants(bd)
    assert invariants.chi == 0
    assert invariants.chi == 8 * 0  # multiplicative in the unramified case
    assert invariants.k_squared == 0
    assert invariants.q == 1
    report(9, "the unramified all-torsion case has chi = 0, K^2 = 0, q = 1")
