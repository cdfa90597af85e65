"""Family builder: point bookkeeping, relation rows, mutation sensitivity."""

import itertools

import pytest

from z2covers.characters import Character
from z2covers.construction import (
    construct_etale,
    construct_family,
    relations_table,
    render_relations_table,
    single_torsion_mutations,
)
from z2covers.cover import generating_relations, verify_relations, verify_smoothness
from z2covers.picard import SurfaceClass
from z2covers.serialize import dumps

EXPECTED_RIGHT_HAND_SIDES = [
    "6E + 2ΣF_ii",
    "4E + 2ΣF_ii + η1",
    "4E + 2ΣF_ii + η2",
    "2E + 2ΣF_ii",
    "2E + 2ΣF_ii + η3",
    "2E + 2ΣF_ii",
]


class TestConstructFamily:
    def test_small_n_rejected(self):
        for bad in (1, 0, -3):
            with pytest.raises(ValueError):
                construct_family(bad)

    def test_group_model_shape(self):
        bd = construct_family(4)
        assert bd.n == 3
        assert bd.group_spec.rank == 9
        assert bd.group_spec.torsion_orders == (2, 2)

    def test_point_roster(self):
        bd = construct_family(3)
        assert sorted(bd.points_c) == sorted(
            ["F1", "F2", "F3", "F1'", "F2'", "F3'", "F1_1", "F2_2", "F3_3",
             "F1''", "F2''", "F3''"]
        )
        assert list(bd.points_p1) == ["E1", "E2", "E3", "E4", "E5", "E6"]

    def test_all_points_have_distinct_classes(self):
        for n in (2, 3, 7):
            assert verify_smoothness(construct_family(n)).injective_points

    def test_halved_fiber_relation_holds(self):
        bd = construct_family(3)
        for i in (1, 2, 3):
            halved = bd.points_c[f"F{i}_{i}"]
            plain = bd.points_c[f"F{i}"]
            primed = bd.points_c[f"F{i}'"]
            assert 2 * halved == plain + primed

    def test_double_primed_fibers_share_a_double(self):
        bd = construct_family(3)
        doubles = {2 * bd.points_c[f"F{j}''"] for j in (1, 2, 3)}
        assert len(doubles) == 1

    def test_branch_layout(self):
        bd = construct_family(5)
        from z2covers.characters import CoverElement
        sizes = {str(s): len(bd.branch(s)) for s in bd.elements}
        assert sizes == {
            "001": 0, "010": 0, "011": 0,
            "100": 2, "101": 2, "110": 2, "111": 10,
        }

    def test_deterministic(self):
        assert dumps(construct_family(3)) == dumps(construct_family(3))

    def test_halving_choice_validation(self):
        with pytest.raises(ValueError):
            construct_family(3, (0, 1))
        with pytest.raises(ValueError):
            construct_family(3, (0, 1, 4))

    def test_halving_choice_moves_only_the_halved_fibers(self):
        plain = construct_family(3)
        variant = construct_family(3, (1, 0, 0))
        assert variant.points_c["F1_1"] != plain.points_c["F1_1"]
        assert variant.points_c["F1'"] == plain.points_c["F1'"]
        assert verify_relations(variant).ok
        assert verify_smoothness(variant).snc

    def test_all_halving_variants_verify(self):
        for choice in itertools.product(range(4), repeat=2):
            bd = construct_family(2, choice)
            assert verify_relations(bd).ok
            assert verify_smoothness(bd).snc

    def test_full_range_pipeline(self):
        from z2covers.invariants import canonical_map_degree, compute_invariants

        for n in range(2, 21):
            bd = construct_family(n)
            assert verify_relations(bd).ok
            assert verify_smoothness(bd).snc
            inv = compute_invariants(bd)
            assert (inv.k_squared, inv.p_g, inv.chi, inv.q) == (16 * n, 2 * n, 2 * n, 1)
            canonical = canonical_map_degree(bd)
            assert canonical.base_point_free is True
            if n >= 3:
                assert (canonical.degree, canonical.image_degree) == (8, 2 * n)
            else:
                assert (canonical.degree, canonical.image_degree) == (16, 2)


class TestEtale:
    def test_passes_both_verifiers(self):
        bd = construct_etale(3)
        assert verify_relations(bd).ok
        assert verify_smoothness(bd).snc

    def test_branch_is_empty(self):
        bd = construct_etale(3)
        assert bd.total_branch_class().is_zero()


class TestMutationSensitivity:
    def test_every_single_torsion_mutation_fails(self):
        bd = construct_family(3)
        mutants = list(single_torsion_mutations(bd))
        assert len(mutants) == 21
        for character, shift, mutant in mutants:
            report = verify_relations(mutant)
            assert not report.ok, f"mutation of L_{character} by {shift} slipped through"

    def test_mutants_differ_from_the_original(self):
        bd = construct_family(3)
        for character, _, mutant in single_torsion_mutations(bd):
            assert mutant.L[character] != bd.L[character]


def right_hand_class(bd, row):
    """The class of ``row``'s right-hand side, evaluated from the rows of G(3)."""
    (r,) = [r for r in generating_relations(3) if [f"L{r.chi_prime}", f"L{r.chi}"] == row["lhs"]]
    branch = {sigma: bd.branch_class_of(sigma) for sigma in bd.elements}
    return r.sides(bd.L, branch, SurfaceClass.zero(bd.group_spec))[1]


class TestRelationsTable:
    def test_right_hand_sides_match_the_expected_symbols(self):
        rows = relations_table(construct_family(3))
        assert [row["rhs"] for row in rows] == EXPECTED_RIGHT_HAND_SIDES
        assert all(row["equal"] for row in rows)

    def test_symbols_are_stable_across_n(self):
        bd = construct_family(5)
        rows = relations_table(bd)
        assert [row["rhs"] for row in rows] == EXPECTED_RIGHT_HAND_SIDES
        assert all(row["equal"] for row in rows)
        assert right_hand_class(bd, rows[0]).degree == 10

    def test_fourth_and_sixth_rows_agree_as_classes(self):
        bd = construct_family(3)
        rows = relations_table(bd)
        assert right_hand_class(bd, rows[3]) == right_hand_class(bd, rows[5])

    def test_middle_columns_list_the_contributing_terms(self):
        rows = relations_table(construct_family(3))
        assert rows[0]["middle"] == ["D100", "D101", "D110", "D111"]
        assert rows[1]["middle"] == ["D110", "D111", "L110"]
        assert rows[4]["middle"] == ["D111", "L011"]

    def test_mutated_data_renders_with_an_unequal_row(self):
        bd = construct_family(3)
        _, _, mutant = next(iter(single_torsion_mutations(bd)))
        rows = relations_table(mutant)
        assert any(not row["equal"] for row in rows)

    def test_non_family_data_rejected(self):
        with pytest.raises(ValueError):
            relations_table(construct_etale(3))

    def test_text_rendering_mentions_each_verdict(self):
        text = render_relations_table(relations_table(construct_family(3)))
        assert text.count("[equal]") == 6
