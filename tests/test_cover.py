"""Building data verification: relations, smoothness, generator completion."""

import itertools
import json

import pytest

from z2covers.abgroup import GroupSpec
from z2covers.characters import Character, CoverElement, nontrivial_characters, nontrivial_elements
from z2covers.cli import main
from z2covers.construction import construct_etale, construct_family, single_torsion_mutations
from z2covers.cover import (
    BuildingData,
    ConsistencyError,
    Fiber,
    branch_class,
    derive_from_generators,
    verify_relations,
    verify_smoothness,
)
from z2covers.picard import SurfaceClass
from z2covers.serialize import building_data_to_dict, dumps


def chi(s):
    return Character.from_string(s)


def sigma(s):
    return CoverElement.from_string(s)


def generators(bd):
    """The classes of the weight-one characters, the mapping completion takes."""
    return {c: bd.L[c] for c in bd.characters if c.mask.bit_count() == 1}


def torsion_shift(bd, character, t):
    shifted = dict(bd.L)
    shifted[character] = bd.L[character] + SurfaceClass(0, 0, t)
    return bd._replace(L=shifted)


class TestBranchClass:
    def test_two_elliptic_fibers(self):
        spec = GroupSpec(1, (2, 2))
        comps = [Fiber("E", "E1"), Fiber("E", "E2")]
        assert branch_class(comps, {}, spec) == SurfaceClass(2, 0, spec.zero())

    def test_empty_sum_is_zero(self):
        spec = GroupSpec(1, (2, 2))
        assert branch_class([], {}, spec).is_zero()

    def test_halving_pair_sums_to_twice_the_halved_class(self):
        spec = GroupSpec(2, ())
        g1 = spec.free_generator(0)
        h1 = spec.free_generator(1)
        points_c = {"F1": h1, "F1'": 2 * g1 - h1}
        comps = [Fiber("F", "F1"), Fiber("F", "F1'")]
        assert branch_class(comps, points_c, spec) == SurfaceClass(0, 2, 2 * g1)


class TestVerifyRelations:
    def test_family_data_passes_all_pairs(self):
        report = verify_relations(construct_family(3))
        assert report.ok
        assert report.pairs_checked == 28
        assert report.failures == ()
        assert report.trivial_characters == ()

    def test_wrong_torsion_in_one_class_is_detected(self):
        bd = construct_family(3)
        spec = bd.group_spec
        # replace the torsion of L_110 with the other generator
        mutated = dict(bd.L)
        mutated[chi("110")] = SurfaceClass(2, 0, spec.torsion_generator(1))
        report = verify_relations(bd._replace(L=mutated))
        assert not report.ok
        failing = {(str(f.chi), str(f.chi_prime)) for f in report.failures}
        assert ("010", "100") in failing or ("100", "010") in failing

    def test_unbalanced_diagonals_fail(self):
        spec = GroupSpec(0, (2, 2))
        same = SurfaceClass(1, 1, spec.zero())
        bd = BuildingData(spec, {}, (), {c: same for c in nontrivial_characters(3)}, {})
        report = verify_relations(bd)
        assert not report.ok
        assert report.failures

    def test_trivial_class_is_a_distinct_failure_kind(self):
        spec = GroupSpec(0, (2, 2, 2))
        L = {
            c: SurfaceClass(0, 0, spec.element((), c.bits))
            for c in nontrivial_characters(3)
        }
        L[chi("111")] = SurfaceClass.zero(spec)
        report = verify_relations(BuildingData(spec, {}, (), L, {}))
        assert not report.ok
        assert report.trivial_characters == (chi("111"),)

    def test_report_order_is_lexicographic(self):
        bd = construct_family(3)
        spec = bd.group_spec
        mutated = torsion_shift(bd, chi("100"), spec.torsion_generator(0))
        report = verify_relations(mutated)
        pairs = [(str(f.chi), str(f.chi_prime)) for f in report.failures]
        assert pairs == sorted(pairs)


def nodal_double_cover():
    """k = 1, L_1 = E + (1, g) and D_1 = E1 + E2 + F_2g + F_0 on a rank-2 model.

    2 L_1 = D_1 holds and the branch locus is SNC, but each E fiber meets
    each F fiber inside the one branch divisor: the double cover has four
    A_1 singularities.
    """
    spec = GroupSpec(2, ())
    g = spec.free_generator(0)
    points_c = {"P": 2 * g, "Q": spec.zero()}
    points_p1 = ("E1", "E2")
    L = {chi("1"): SurfaceClass(1, 1, g)}
    fibers = [Fiber("E", "E1"), Fiber("E", "E2"), Fiber("F", "P"), Fiber("F", "Q")]
    D = {sigma("1"): tuple(fibers)}
    return BuildingData(spec, points_c, points_p1, L, D)


def moved_rational_fiber():
    """Family n = 3 with one F fiber moved from 111 to 100, beside elliptic fibers."""
    bd = construct_family(3)
    d = dict(bd.D)
    moved, *rest = d[sigma("111")]
    d[sigma("111")], d[sigma("100")] = tuple(rest), d[sigma("100")] + (moved,)
    return bd._replace(D=d)


def repeated_component():
    """Family n = 3 with the first E fiber repeated in the branch over 101."""
    bd = construct_family(3)
    d = dict(bd.D)
    d[sigma("101")] = (Fiber("E", bd.points_p1[0]), d[sigma("101")][1])
    return bd._replace(D=d)


def two_points_of_one_class():
    """Two registered points P, Q of one degree-zero class."""
    spec = GroupSpec(1, (2, 2))
    p = spec.free_generator(0)
    L = {c: SurfaceClass(1, 0, spec.zero()) for c in nontrivial_characters(3)}
    return BuildingData(spec, {"P": p, "Q": p}, (), L, {})


class TestVerifySmoothness:
    def test_family_data_is_smooth(self):
        report = verify_smoothness(construct_family(3))
        assert report.reduced and report.snc and report.injective_points
        assert report.independent_crossings

    def test_crossing_fibers_over_one_sigma_are_a_defect(self):
        bd = nodal_double_cover()
        assert verify_relations(bd).ok
        report = verify_smoothness(bd)
        assert report.reduced and report.snc and report.injective_points
        assert not report.independent_crossings

    def test_the_nodal_cover_fails_verification(self, tmp_path, capsys):
        path = tmp_path / "nodal.bd.json"
        path.write_text(dumps(nodal_double_cover()))
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "snc=True" in out and "independent_crossings=False" in out
        assert "invariants:" not in out
        assert main(["verify", str(path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["smoothness"]["independent_crossings"] is False
        assert report["invariants"] is None and report["canonical_map"] is None

    def test_a_rational_fiber_moved_beside_elliptic_ones_is_a_defect(self):
        report = verify_smoothness(moved_rational_fiber())
        assert report.snc and not report.independent_crossings

    def test_component_repeated_across_branches_breaks_reducedness(self):
        report = verify_smoothness(repeated_component())
        assert not report.reduced
        assert not report.snc

    def test_equal_degree_zero_classes_break_injectivity(self):
        report = verify_smoothness(two_points_of_one_class())
        assert not report.injective_points
        assert not report.snc
        assert report.reduced


@pytest.mark.parametrize(
    "bd",
    [
        construct_family(3),
        next(single_torsion_mutations(construct_family(3)))[2],
        construct_etale(3),
        nodal_double_cover(),
        moved_rational_fiber(),
        repeated_component(),
        two_points_of_one_class(),
    ],
    ids=["family-3", "mutant", "etale-3", "nodal", "moved-F", "repeated", "one-class"],
)
def test_verify_states_invariants_exactly_for_the_data_it_accepts(bd, tmp_path, capsys):
    path = tmp_path / "case.bd.json"
    path.write_text(dumps(bd))
    code = main(["verify", str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert (report["invariants"] is not None) == (code == 0)
    assert (report["canonical_map"] is not None) == (code == 0)


class TestDeriveFromGenerators:
    def test_family_generators_recover_the_full_table(self):
        bd = construct_family(3)
        derived = derive_from_generators(
            generators(bd),
            dict(bd.D),
            group_spec=bd.group_spec,
            points_c=dict(bd.points_c),
            points_p1=bd.points_p1,
        )
        assert dict(derived.L) == dict(bd.L)
        assert verify_relations(derived).ok

    def test_branch_keys_outside_the_nontrivial_elements_are_dropped(self):
        bd = construct_family(3)
        stray = (Fiber("E", "E1"),)
        branch = {**bd.D, sigma("000"): stray, sigma("10"): stray}
        derived = derive_from_generators(
            generators(bd),
            branch,
            group_spec=bd.group_spec,
            points_c=dict(bd.points_c),
            points_p1=bd.points_p1,
        )
        assert derived == bd

    def test_missing_branch_breaks_a_diagonal(self):
        bd = construct_family(3)
        d = dict(bd.D)
        d[sigma("111")] = ()
        with pytest.raises(ConsistencyError) as info:
            derive_from_generators(
                generators(bd),
                d,
                group_spec=bd.group_spec,
                points_c=dict(bd.points_c),
                points_p1=bd.points_p1,
            )
        assert "diagonal" in str(info.value)
        assert info.value.failures

    def test_exhaustive_search_over_the_smallest_torsion_model(self):
        # over pic0 = Z/2 x Z/2 with four elliptic-fiber pairs, every choice
        # of torsion twists for the three generators completes consistently
        spec = GroupSpec(0, (2, 2))
        p1 = tuple(f"E{i}" for i in range(1, 9))
        fibers = [Fiber("E", label) for label in p1]
        branch = {
            sigma("100"): (fibers[0], fibers[1]),
            sigma("101"): (fibers[2], fibers[3]),
            sigma("110"): (fibers[4], fibers[5]),
            sigma("111"): (fibers[6], fibers[7]),
        }
        found = []
        for alpha, beta, gamma in itertools.product(spec.elements(), repeat=3):
            try:
                bd = derive_from_generators(
                    {
                        chi("100"): SurfaceClass(4, 0, alpha),
                        chi("010"): SurfaceClass(2, 0, beta),
                        chi("001"): SurfaceClass(2, 0, gamma),
                    },
                    branch,
                    group_spec=spec,
                    points_p1=p1,
                )
            except ConsistencyError:
                continue
            found.append(bd)
        assert len(found) == 64
        for bd in found:
            assert verify_relations(bd).ok

    @pytest.mark.parametrize(
        "bd",
        [construct_etale(k) for k in range(1, 6)] + [construct_family(n) for n in (2, 3, 8)],
        ids=[f"etale-{k}" for k in range(1, 6)] + [f"family-{n}" for n in (2, 3, 8)],
    )
    def test_completion_rebuilds_every_class_for_any_k(self, bd):
        derived = derive_from_generators(
            generators(bd),
            dict(bd.D),
            group_spec=bd.group_spec,
            points_c=dict(bd.points_c),
            points_p1=bd.points_p1,
        )
        assert derived.n == bd.n
        assert dict(derived.L) == dict(bd.L)

    @pytest.mark.parametrize(
        "keys",
        [
            (),
            ("100", "010"),
            ("100", "010", "011"),
            ("100", "010", "001", "110"),
            ("1000", "0100", "0010"),
            ("10", "010", "001"),
            tuple(str(c) for c in nontrivial_characters(4)[:9]),  # k = 9 > 8
        ],
        ids=["none", "one-missing", "weight-two", "one-extra", "of-a-larger-group", "mixed", "nine"],
    )
    def test_generators_must_be_the_weight_one_characters_of_one_group(self, keys):
        spec = GroupSpec(0, (2, 2))
        classes = {chi(k): SurfaceClass(2, 0, spec.zero()) for k in keys}
        with pytest.raises(ValueError, match="weight-one|between 1 and 8"):
            derive_from_generators(classes, {}, group_spec=spec)

    @pytest.mark.parametrize("key", [str, sigma], ids=["string", "CoverElement"])
    def test_generators_keyed_by_anything_but_characters_are_refused(self, key):
        bd = construct_etale(3)
        by_other = {key(str(c)): cls for c, cls in generators(bd).items()}
        with pytest.raises(ValueError):
            derive_from_generators(by_other, {}, group_spec=bd.group_spec)


def _invertible_mod2_matrices():
    mats = []
    for bits in itertools.product((0, 1), repeat=9):
        m = (bits[0:3], bits[3:6], bits[6:9])
        det = (
            m[0][0] * (m[1][1] * m[2][2] + m[1][2] * m[2][1])
            + m[0][1] * (m[1][0] * m[2][2] + m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] + m[1][1] * m[2][0])
        ) % 2
        if det:
            mats.append(m)
    return mats


def _matvec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) % 2 for i in range(3))


def _cofactor_mod2(m):
    # over F_2 the inverse transpose of an invertible matrix is its cofactor matrix
    def minor(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        return (
            m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
            + m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
        ) % 2
    return tuple(tuple(minor(i, j) for j in range(3)) for i in range(3))


class TestStructuralProperties:
    def test_relations_invariant_under_group_automorphisms(self):
        bd = construct_family(3)
        mats = _invertible_mod2_matrices()
        assert len(mats) == 168
        for m in mats:
            char_matrix = _cofactor_mod2(m)
            relabeled_l = {
                Character(_matvec(char_matrix, c.bits)): bd.L[c] for c in bd.characters
            }
            relabeled_d = {
                CoverElement(_matvec(m, s.bits)): bd.D[s] for s in bd.elements
            }
            relabeled = BuildingData(
                bd.group_spec, dict(bd.points_c), bd.points_p1, relabeled_l, relabeled_d
            )
            assert verify_relations(relabeled).ok

    def test_removing_all_branches_breaks_a_diagonal(self):
        bd = construct_family(3)
        report = verify_relations(bd._replace(D={}))
        assert not report.ok
        assert any(f.chi == f.chi_prime for f in report.failures)


class TestBuildingDataShape:
    def test_missing_character_rejected(self):
        spec = GroupSpec(0, (2, 2))
        L = {c: SurfaceClass(1, 0, spec.zero()) for c in nontrivial_characters(3)[:-1]}
        with pytest.raises(ValueError):
            BuildingData(spec, {}, (), L, {})

    def test_component_over_unregistered_point_rejected(self):
        spec = GroupSpec(1, (2, 2))
        L = {c: SurfaceClass(1, 0, spec.zero()) for c in nontrivial_characters(3)}
        stray = Fiber("F", "ghost")
        with pytest.raises(ValueError):
            BuildingData(spec, {}, (), L, {sigma("100"): (stray,)})

    @pytest.mark.parametrize(
        "fiber,message",
        [
            (
                Fiber("F", "E1"),
                "malformed building data: component over unregistered elliptic-curve point 'E1'",
            ),
            (
                Fiber("E", "F1"),
                "malformed building data: component over unregistered rational-curve point 'F1'",
            ),
            (Fiber("X", "E1"), "malformed building data: unknown component kind 'X'"),
            (
                Fiber("E", "ghost"),
                "malformed building data: component over unregistered rational-curve point 'ghost'",
            ),
            (
                Fiber("F", "ghost"),
                "malformed building data: component over unregistered elliptic-curve point 'ghost'",
            ),
        ],
        ids=["F-over-a-P1-point", "E-over-a-C-point", "unknown-kind", "E-nowhere", "F-nowhere"],
    )
    def test_a_fiber_must_lie_over_a_point_registered_for_its_kind(
        self, fiber, message, tmp_path, capsys
    ):
        bd = construct_family(2)
        d = dict(bd.D)
        d[sigma("011")] = (fiber,)
        with pytest.raises(ValueError):
            bd._replace(D=d)
        doc = building_data_to_dict(bd)
        doc["D"]["011"] = [{"kind": fiber.kind, "label": fiber.label}]
        path = tmp_path / "unregistered.bd.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "keys,message",
        [
            ((), "no characters present"),
            (("100", "010", "001", "110", "101", "011", "111", "10"), "characters of mixed bit length"),
        ],
        ids=["empty", "mixed-length"],
    )
    def test_the_characters_fix_n_or_are_refused(self, keys, message, tmp_path, capsys):
        bd = construct_family(2)
        zero = SurfaceClass.zero(bd.group_spec)
        with pytest.raises(ValueError, match=message):
            BuildingData(bd.group_spec, {}, (), {chi(k): zero for k in keys}, {})
        doc = building_data_to_dict(bd)
        doc["L"] = {k: doc["L"]["100"] for k in keys}
        path = tmp_path / "characters.bd.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 3
        assert capsys.readouterr().err == f"error: malformed building data: {message}\n"

    @pytest.mark.parametrize("key", [str, sigma], ids=["string", "CoverElement"])
    def test_classes_keyed_by_anything_but_characters_are_refused(self, key):
        bd = construct_etale(3)
        with pytest.raises(ValueError, match="keyed by characters"):
            BuildingData(bd.group_spec, {}, (), {key(str(c)): cls for c, cls in bd.L.items()}, {})

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_n_is_read_from_the_characters(self, k):
        assert construct_etale(k).n == k

    def test_missing_branch_indices_read_as_empty(self):
        bd = construct_family(3)
        assert bd.branch(sigma("010")) == ()
        assert set(bd.D) == set(nontrivial_elements(3))

    def test_class_over_wrong_model_rejected(self):
        spec = GroupSpec(0, (2, 2))
        other = GroupSpec(1, (2, 2))
        L = {c: SurfaceClass(1, 0, spec.zero()) for c in nontrivial_characters(3)}
        L[chi("111")] = SurfaceClass(1, 0, other.zero())
        with pytest.raises(ValueError):
            BuildingData(spec, {}, (), L, {})
