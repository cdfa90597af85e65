"""Building data verification: relations, smoothness, generator completion."""

import itertools
import json
from dataclasses import replace

import pytest

from z2covers.abgroup import GroupSpec
from z2covers.characters import Character, CoverElement, nontrivial_characters, nontrivial_elements
from z2covers.cli import main
from z2covers.construction import construct_family
from z2covers.cover import (
    BuildingData,
    ConsistencyError,
    EllipticFiber,
    RationalFiber,
    branch_class,
    derive_from_generators,
    verify_relations,
    verify_smoothness,
)
from z2covers.picard import CurveClass, PointOnC, PointOnP1, SurfaceClass
from z2covers.serialize import dumps


def chi(s):
    return Character.from_string(s)


def sigma(s):
    return CoverElement.from_string(s)


def torsion_shift(bd, character, t):
    shifted = dict(bd.L)
    shifted[character] = bd.L[character] + SurfaceClass(0, CurveClass(0, t))
    return replace(bd, L=shifted)


class TestBranchClass:
    def test_two_elliptic_fibers(self):
        spec = GroupSpec(1, (2, 2))
        comps = [EllipticFiber(PointOnP1("E1")), EllipticFiber(PointOnP1("E2"))]
        assert branch_class(comps, spec) == SurfaceClass(2, CurveClass.zero(spec))

    def test_empty_sum_is_zero(self):
        spec = GroupSpec(1, (2, 2))
        assert branch_class([], spec).is_zero()

    def test_halving_pair_sums_to_twice_the_halved_class(self):
        spec = GroupSpec(2, ())
        g1 = spec.free_generator(0)
        h1 = spec.free_generator(1)
        comps = [
            RationalFiber(PointOnC("F1", h1)),
            RationalFiber(PointOnC("F1'", 2 * g1 - h1)),
        ]
        assert branch_class(comps, spec) == SurfaceClass(0, CurveClass(2, 2 * g1))


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
        mutated[chi("110")] = SurfaceClass(2, CurveClass(0, spec.torsion_generator(1)))
        report = verify_relations(replace(bd, L=mutated))
        assert not report.ok
        failing = {(str(f.chi), str(f.chi_prime)) for f in report.failures}
        assert ("010", "100") in failing or ("100", "010") in failing

    def test_unbalanced_diagonals_fail(self):
        spec = GroupSpec(0, (2, 2))
        same = SurfaceClass(1, CurveClass(1, spec.zero()))
        bd = BuildingData(3, spec, {}, (), {c: same for c in nontrivial_characters(3)}, {})
        report = verify_relations(bd)
        assert not report.ok
        assert report.failures

    def test_trivial_class_is_a_distinct_failure_kind(self):
        spec = GroupSpec(0, (2, 2, 2))
        L = {
            c: SurfaceClass(0, CurveClass(0, spec.element((), c.bits)))
            for c in nontrivial_characters(3)
        }
        L[chi("111")] = SurfaceClass.zero(spec)
        report = verify_relations(BuildingData(3, spec, {}, (), L, {}))
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
    points_c = {"P": PointOnC("P", 2 * g), "Q": PointOnC("Q", spec.zero())}
    points_p1 = (PointOnP1("E1"), PointOnP1("E2"))
    L = {chi("1"): SurfaceClass(1, CurveClass(1, g))}
    fibers = [*map(EllipticFiber, points_p1), *map(RationalFiber, points_c.values())]
    D = {sigma("1"): tuple(fibers)}
    return BuildingData(1, spec, points_c, points_p1, L, D)


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
        assert "K^2=-4" in out
        assert main(["verify", str(path), "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["smoothness"]["independent_crossings"] is False

    def test_a_rational_fiber_moved_beside_elliptic_ones_is_a_defect(self):
        bd = construct_family(3)
        d = dict(bd.D)
        moved, *rest = d[sigma("111")]
        d[sigma("111")], d[sigma("100")] = tuple(rest), d[sigma("100")] + (moved,)
        report = verify_smoothness(replace(bd, D=d))
        assert report.snc and not report.independent_crossings

    def test_component_repeated_across_branches_breaks_reducedness(self):
        bd = construct_family(3)
        e1 = EllipticFiber(bd.points_p1[0])
        d = dict(bd.D)
        d[sigma("101")] = (e1, d[sigma("101")][1])
        report = verify_smoothness(replace(bd, D=d))
        assert not report.reduced
        assert not report.snc

    def test_equal_degree_zero_classes_break_injectivity(self):
        spec = GroupSpec(1, (2, 2))
        p = spec.free_generator(0)
        points = {"P": PointOnC("P", p), "Q": PointOnC("Q", p)}
        L = {c: SurfaceClass(1, CurveClass.zero(spec)) for c in nontrivial_characters(3)}
        report = verify_smoothness(BuildingData(3, spec, points, (), L, {}))
        assert not report.injective_points
        assert not report.snc
        assert report.reduced


class TestDeriveFromGenerators:
    def test_family_generators_recover_the_full_table(self):
        bd = construct_family(3)
        derived = derive_from_generators(
            bd.L[chi("100")],
            bd.L[chi("010")],
            bd.L[chi("001")],
            dict(bd.D),
            group_spec=bd.group_spec,
            points_c=dict(bd.points_c),
            points_p1=bd.points_p1,
        )
        assert dict(derived.L) == dict(bd.L)
        assert verify_relations(derived).ok

    def test_missing_branch_breaks_a_diagonal(self):
        bd = construct_family(3)
        d = dict(bd.D)
        d[sigma("111")] = ()
        with pytest.raises(ConsistencyError) as info:
            derive_from_generators(
                bd.L[chi("100")],
                bd.L[chi("010")],
                bd.L[chi("001")],
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
        p1 = tuple(PointOnP1(f"E{i}") for i in range(1, 9))
        branch = {
            sigma("100"): (EllipticFiber(p1[0]), EllipticFiber(p1[1])),
            sigma("101"): (EllipticFiber(p1[2]), EllipticFiber(p1[3])),
            sigma("110"): (EllipticFiber(p1[4]), EllipticFiber(p1[5])),
            sigma("111"): (EllipticFiber(p1[6]), EllipticFiber(p1[7])),
        }
        found = []
        for alpha, beta, gamma in itertools.product(spec.elements(), repeat=3):
            try:
                bd = derive_from_generators(
                    SurfaceClass(4, CurveClass(0, alpha)),
                    SurfaceClass(2, CurveClass(0, beta)),
                    SurfaceClass(2, CurveClass(0, gamma)),
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
                3, bd.group_spec, dict(bd.points_c), bd.points_p1, relabeled_l, relabeled_d
            )
            assert verify_relations(relabeled).ok

    def test_removing_all_branches_breaks_a_diagonal(self):
        bd = construct_family(3)
        report = verify_relations(replace(bd, D={}))
        assert not report.ok
        assert any(f.chi == f.chi_prime for f in report.failures)


class TestBuildingDataShape:
    def test_missing_character_rejected(self):
        spec = GroupSpec(0, (2, 2))
        L = {c: SurfaceClass(1, CurveClass.zero(spec)) for c in nontrivial_characters(3)[:-1]}
        with pytest.raises(ValueError):
            BuildingData(3, spec, {}, (), L, {})

    def test_component_over_unregistered_point_rejected(self):
        spec = GroupSpec(1, (2, 2))
        L = {c: SurfaceClass(1, CurveClass.zero(spec)) for c in nontrivial_characters(3)}
        stray = RationalFiber(PointOnC("ghost", spec.zero()))
        with pytest.raises(ValueError):
            BuildingData(3, spec, {}, (), L, {sigma("100"): (stray,)})

    def test_missing_branch_indices_read_as_empty(self):
        bd = construct_family(3)
        assert bd.branch(sigma("010")) == ()
        assert set(bd.D) == set(nontrivial_elements(3))

    def test_class_over_wrong_model_rejected(self):
        spec = GroupSpec(0, (2, 2))
        other = GroupSpec(1, (2, 2))
        L = {c: SurfaceClass(1, CurveClass.zero(spec)) for c in nontrivial_characters(3)}
        L[chi("111")] = SurfaceClass(1, CurveClass.zero(other))
        with pytest.raises(ValueError):
            BuildingData(3, spec, {}, (), L, {})
