"""Elliptic-curve oracle: enumeration, group law, realization of the model."""

import functools
import itertools
import json
import math
import random

import pytest

from z2covers import curve_oracle
from z2covers.abgroup import GroupSpec
from z2covers.characters import Character, CoverElement, nontrivial_characters
from z2covers.cli import main
from z2covers.construction import construct_family, single_torsion_mutations
from z2covers.cover import BuildingData, Fiber, verify_relations
from z2covers.curve_oracle import (
    Assignment,
    CurveOverFp,
    INFINITY,
    find_assignment,
    is_prime,
    realize,
)
from z2covers.picard import SurfaceClass
from z2covers.serialize import dumps


def naive_point_count(p, a, b):
    """Independent recount by scanning all (x, y) pairs."""
    count = 1
    for x in range(p):
        for y in range(p):
            if (y * y - (x * x * x + a * x + b)) % p == 0:
                count += 1
    return count


def two_torsion_points(curve):
    """Solutions of 2P = O, found without the group law: O and the points with y = 0."""
    return tuple(pt for pt in curve.points() if pt is INFINITY or pt[1] == 0)


class TestCurveBasics:
    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_singular_curve_rejected(self):
        with pytest.raises(ValueError):
            CurveOverFp(5, 0, 0)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            CurveOverFp(9, 1, 1)

    @pytest.mark.parametrize("p", [5, 7])
    def test_point_count_matches_naive_scan(self, p):
        curve = CurveOverFp(p, -1, 0)
        assert curve.order() == naive_point_count(p, -1, 0)
        assert curve.order() == 8

    def test_full_two_torsion_when_the_cubic_splits(self):
        curve = CurveOverFp(7, -1, 0)
        assert len(two_torsion_points(curve)) == 4

    @pytest.mark.parametrize("p,a,b", [(7, -1, 0), (11, -1, 0), (13, 2, 3), (19, -1, 0), (23, 1, 1)])
    def test_full_two_torsion_forces_order_divisible_by_four(self, p, a, b):
        curve = CurveOverFp(p, a, b)
        if len(two_torsion_points(curve)) == 4:
            assert curve.order() % 4 == 0


class TestGroupLaw:
    def setup_method(self):
        self.curve = CurveOverFp(7, -1, 0)

    def test_infinity_is_neutral(self):
        for point in self.curve.points():
            assert self.curve.add(point, INFINITY) == point
            assert self.curve.add(INFINITY, point) == point

    def test_opposite_points_cancel(self):
        for point in self.curve.points():
            assert self.curve.add(point, self.curve.negate(point)) == INFINITY

    def test_doubling_a_two_torsion_point_gives_infinity(self):
        for point in two_torsion_points(self.curve):
            assert self.curve.add(point, point) == INFINITY

    def test_associativity_on_random_triples(self):
        curve = CurveOverFp(499, -1, 0)
        points = curve.points()
        rng = random.Random(7)
        for _ in range(60):
            p1, p2, p3 = (points[rng.randrange(len(points))] for _ in range(3))
            left = curve.add(curve.add(p1, p2), p3)
            right = curve.add(p1, curve.add(p2, p3))
            assert left == right

    def test_scale_matches_repeated_addition(self):
        point = next(pt for pt in self.curve.points() if pt is not INFINITY)
        running = INFINITY
        for k in range(10):
            assert self.curve.scale(k, point) == running
            running = self.curve.add(running, point)
        assert self.curve.scale(-3, point) == self.curve.negate(self.curve.scale(3, point))

    def test_group_order_annihilates_every_point(self):
        n = self.curve.order()
        for point in self.curve.points():
            assert self.curve.scale(n, point) == INFINITY


# One curve per (p, a, b) for the group-structure tests, so the curve at 2351
# enumerates its points and orders once for both tests that read it.
_shared_curve = functools.cache(CurveOverFp)


MORE_CURVES = [(11, -1, 0), (13, 2, 3), (23, 1, 1), (29, 0, 7)]


@pytest.mark.parametrize("p,a,b", MORE_CURVES)
class TestGroupLawOnMoreCurves:
    """The group law over whole addition tables, beyond y^2 = x^3 - x at 7:
    Z/2 x Z/6 at 11, then three cyclic groups, the last with a = 0, b != 0."""

    def test_addition_table_is_an_abelian_group_law(self, p, a, b):
        curve = _shared_curve(p, a, b)
        points = curve.points()
        table = {(p1, p2): curve.add(p1, p2) for p1 in points for p2 in points}
        for p1 in points:
            assert table[p1, INFINITY] == table[INFINITY, p1] == p1
            assert {table[p1, p2] for p2 in points} == set(points)
            for p2 in points:
                assert table[p1, p2] == table[p2, p1]
                for p3 in points:
                    assert table[table[p1, p2], p3] == table[p1, table[p2, p3]]

    def test_point_order_matches_naive_orbit(self, p, a, b):
        curve = _shared_curve(p, a, b)
        for point in curve.points():
            running, order = point, 1
            while running != INFINITY:
                running = curve.add(running, point)
                order += 1
            assert curve.point_order(point) == order

    def test_scale_matches_repeated_addition(self, p, a, b):
        curve = _shared_curve(p, a, b)
        for point in curve.points():
            running = INFINITY
            for k in range(curve.order() + 2):
                assert curve.scale(k, point) == running
                running = curve.add(running, point)
            running = INFINITY
            for k in range(1, 4):
                running = curve.add(running, curve.negate(point))
                assert curve.scale(-k, point) == running


class TestGroupStructure:
    # y^2 = x^3 - x at small primes and at the eight primes of the benchmark's
    # oracle cycle, and y^2 = x^3 + 2x + 3 over F_1009, whose group is cyclic.
    @pytest.mark.parametrize(
        "p,a,b",
        [
            *((p, -1, 0) for p in (7, 11, 499, 1123, 1399, 1567, 1831, 2083, 2351, 2647, 2851)),
            (1009, 2, 3),
        ],
    )
    def test_invariant_factors_multiply_to_the_order(self, p, a, b):
        curve = _shared_curve(p, a, b)
        n, (d1, d2) = curve.group_structure()
        assert d1 * d2 == n
        assert d2 % d1 == 0
        assert any(curve.point_order(pt) == d2 for pt in curve.points())
        for point in curve.points():
            assert curve.scale(d2, point) == INFINITY

    def test_the_first_forty_orders_fall_short_of_the_exponent_at_2351(self):
        """Why 2351 is among the curves above: an exponent read off the first
        40 point orders would be too small there.  This supersingular curve
        with full 2-torsion has group Z/2 x Z/1176."""
        curve = _shared_curve(2351, -1, 0)
        assert curve.group_structure() == (2352, (2, 1176))
        assert math.lcm(*(curve.point_order(pt) for pt in curve.points()[:40])) < 1176

    def test_point_order_matches_naive_orbit(self):
        curve = CurveOverFp(7, -1, 0)
        for point in curve.points():
            running, order = point, 1
            while running != INFINITY:
                running = curve.add(running, point)
                order += 1
            assert curve.point_order(point) == order

    def test_enumeration_bound(self):
        with pytest.raises(ValueError, match="too large for exhaustive enumeration"):
            CurveOverFp(10_007, -1, 0)


class TestRealization:
    def setup_method(self):
        self.bd = construct_family(3)
        self.curve = CurveOverFp(2003, -1, 0)
        self.assignment = find_assignment(self.bd, self.curve)

    def test_valid_data_realizes_cleanly(self):
        report = realize(self.bd, self.curve, self.assignment)
        assert report.ok
        assert report.relations_checked == 28
        assert report.injective
        assert report.torsion_faithful

    def test_every_mutation_is_rejected_on_the_curve(self):
        for _, _, mutant in single_torsion_mutations(self.bd):
            report = realize(mutant, self.curve, self.assignment)
            assert not report.ok
            assert report.relation_failures

    def test_torsion_image_of_wrong_order_is_an_error(self):
        small = CurveOverFp(7, -1, 0)
        order_four = next(
            pt for pt in small.points() if small.point_order(pt) == 4
        )
        order_two = next(
            pt for pt in small.points() if small.point_order(pt) == 2
        )
        bd = construct_family(2)
        assignment = Assignment((INFINITY,) * 5, (order_four, order_two))
        with pytest.raises(ValueError):
            realize(bd, small, assignment)

    def test_collapsing_everything_to_infinity_reports_collisions(self):
        spec = self.bd.group_spec
        assignment = Assignment(
            (INFINITY,) * spec.rank, (INFINITY,) * len(spec.torsion_orders)
        )
        report = realize(self.bd, self.curve, assignment)
        assert not report.ok
        assert not report.injective
        assert report.collisions
        assert not report.torsion_faithful

    def test_point_off_the_curve_is_an_error(self):
        bad = Assignment(
            ((1, 1),) * self.bd.group_spec.rank,
            self.assignment.torsion_points,
        )
        with pytest.raises(ValueError):
            realize(self.bd, self.curve, bad)

    @pytest.mark.parametrize("dx,dy", [(1123, 0), (0, 1123), (-1123, 0)])
    def test_unreduced_coordinates_are_off_the_curve(self, dx, dy):
        curve = CurveOverFp(1123, -1, 0)
        found = find_assignment(self.bd, curve)
        point = found.free_points[0]
        unreduced = (point[0] + dx, point[1] + dy)
        # The group law compares raw coordinates, so the alias meets its point
        # as a chord with a zero denominator, which add refuses.
        with pytest.raises(ValueError):
            curve.add(unreduced, point)
        assert not curve.contains(unreduced)
        bad = found._replace(free_points=(unreduced, *found.free_points[1:]))
        with pytest.raises(ValueError, match="is not on"):
            realize(self.bd, curve, bad)

    @pytest.mark.parametrize("side", ["free_points", "torsion_points"])
    def test_an_assignment_one_image_short_is_an_error(self, side):
        """The first test to reach realize's shape refusals at curve_oracle.py:257
        (free images) and :259 (torsion images)."""
        spec = self.bd.group_spec
        count, kind = {
            "free_points": (spec.rank, "free"),
            "torsion_points": (len(spec.torsion_orders), "torsion"),
        }[side]
        short = self.assignment._replace(**{side: getattr(self.assignment, side)[:-1]})
        with pytest.raises(ValueError, match=f"^need {count} {kind}-generator images$"):
            realize(self.bd, self.curve, short)

    def test_small_cyclic_factor_is_refused(self):
        small = CurveOverFp(11, -1, 0)
        with pytest.raises(ValueError):
            find_assignment(self.bd, small)


def model_failures(bd):
    return tuple((f.chi, f.chi_prime) for f in verify_relations(bd).failures)


# Independent witnesses y^2 = x^3 - d^2 x, at five of the benchmark's oracle
# primes, keyed by p.
WITNESS_D = {1123: 1, 2851: 1, 1567: 2, 2083: 3, 2647: 5}


@functools.cache
def witness(p):
    d = WITNESS_D[p]
    return CurveOverFp(p, -d * d, 0)


class TestSoundness:
    """The curve fails exactly the relations the model fails."""

    @pytest.mark.parametrize("p", WITNESS_D)
    @pytest.mark.parametrize("n", [3, 12])
    def test_every_mutant_fails_on_the_curve_as_in_the_model(self, n, p):
        curve = witness(p)
        bd = construct_family(n)
        assert realize(bd, curve, find_assignment(bd, curve)).ok
        for _, _, mutant in single_torsion_mutations(bd):
            report = realize(mutant, curve, find_assignment(mutant, curve))
            assert report.relation_failures == model_failures(mutant)
            assert report.relation_failures and not report.ok

    def test_a_draw_that_masks_a_broken_relation_is_skipped(self, monkeypatch):
        # L_100 shifted by g1 + g2 - h1 (free indices 0, 1 and 3 of the n = 3
        # family); the first draw sends that shift, and so every broken
        # relation's difference, to O while the registered points stay distinct.
        bd = construct_family(3)
        spec = bd.group_spec
        shift = SurfaceClass(0, 0, spec.element((1, 1, 0, -1, 0, 0, 0), (0, 0)))
        chi = Character.from_string("100")
        mutant = bd._replace(L={**bd.L, chi: bd.L[chi] + shift})
        curve = CurveOverFp(2003, -1, 0)
        script = [5, 7, 21, 12, 30, 40, 100]  # 5 + 7 - 12 = 0

        class Scripted(random.Random):
            def randrange(self, *args):
                return script.pop(0) if script else super().randrange(*args)

        generator = next(pt for pt in curve.points() if curve.point_order(pt) == 1002)
        found = find_assignment(bd, curve)
        masking = Assignment(
            tuple(curve.scale(c, generator) for c in script), found.torsion_points
        )
        masked = realize(mutant, curve, masking)
        assert masked.injective and masked.torsion_faithful and masked.ok
        assert model_failures(mutant)

        monkeypatch.setattr(curve_oracle.random, "Random", Scripted)
        assignment = find_assignment(mutant, curve)
        assert not script and assignment != masking
        report = realize(mutant, curve, assignment)
        assert report.relation_failures == model_failures(mutant) and not report.ok

    def test_the_curve_judges_mutants_the_model_is_stubbed_to_pass(self, monkeypatch):
        """The model's failures only rule out draws that would mend a broken
        relation: with none reported, each mutant still gets a draw and the
        curve still fails it on its own arithmetic."""
        curve = CurveOverFp(2003, -1, 0)

        def passing(bd):
            return verify_relations(bd)._replace(failures=())

        monkeypatch.setattr(curve_oracle, "verify_relations", passing)
        for _, _, mutant in single_torsion_mutations(construct_family(3)):
            report = realize(mutant, curve, find_assignment(mutant, curve))
            assert report.relation_failures and not report.ok


def fermat_add(curve, p1, p2):
    """The group law with each slope inverted by Fermat's little theorem,
    d^(p-2) = d^-1, a reference for the exact inverse of CurveOverFp.add."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    p = curve.p
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and (y1 + y2) % p == 0:
        return INFINITY
    if p1 == p2:
        slope = (3 * x1 * x1 + curve.a) * pow(2 * y1, p - 2, p) % p
    else:
        slope = (y2 - y1) * pow((x2 - x1) % p, p - 2, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


class FermatCurve(CurveOverFp):
    add = fermat_add


class TestExactInverse:
    """add inverts each slope exactly; on reduced points of the curve it is the
    Fermat group law, and it refuses the zero denominator that law hid."""

    @pytest.mark.parametrize("p,a,b", MORE_CURVES)
    def test_add_matches_the_fermat_law_on_every_ordered_pair(self, p, a, b):
        curve = _shared_curve(p, a, b)
        points = curve.points()
        for p1, p2 in itertools.product(points, repeat=2):
            assert curve.add(p1, p2) == fermat_add(curve, p1, p2)

    @pytest.mark.parametrize("p", [1123, 2083])
    def test_the_oracle_stages_match_the_fermat_law_on_the_family_and_its_mutants(self, p):
        curve, reference = witness(p), FermatCurve(p, -WITNESS_D[p] ** 2, 0)
        assert curve.group_structure() == reference.group_structure()
        bd = construct_family(3)
        mutants = [mutant for _, _, mutant in single_torsion_mutations(bd)]
        assert len(mutants) == 21
        for data in (bd, *mutants):
            assignment = find_assignment(data, curve)
            assert assignment == find_assignment(data, reference)
            assert realize(data, curve, assignment) == realize(data, reference, assignment)

    def test_a_zero_denominator_is_refused(self):
        # Neither point is on y^2 = x^3 + x + 1; the Fermat law read
        # pow(0, p - 2, p) = 0 as the slope's inverse and returned (9, 9).
        curve = CurveOverFp(11, 1, 1)
        assert fermat_add(curve, (1, 2), (1, 3)) == (9, 9)
        with pytest.raises(ValueError):
            curve.add((1, 2), (1, 3))

    def test_a_raw_x_alias_is_refused(self):
        curve = CurveOverFp(11, 1, 1)
        for x, y in curve.points()[1:]:
            with pytest.raises(ValueError):
                curve.add((x + curve.p, y), (x, y))


def shared_class_family():
    """Family n = 3 with F1' given the class of F1."""
    bd = construct_family(3)
    return bd._replace(points_c={**bd.points_c, "F1'": bd.points_c["F1"]})


SHARED = "points 'F1' and \"F1'\" share one class in the model, so no curve keeps them apart"


class TestSharedClass:
    """Two registered points of one class have one image on every curve, so
    the oracle refuses them, naming the first pair, before any draw."""

    def test_refused_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("find_assignment drew generator images")

        monkeypatch.setattr(curve_oracle.random, "Random", no_draws)
        with pytest.raises(ValueError) as refused:
            find_assignment(shared_class_family(), witness(1123))
        assert str(refused.value) == SHARED

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_prints_the_reason_and_exits_1(self, fmt, tmp_path, capsys):
        # The model rejects the data (injective_points=False), and the gate
        # decides before the oracle: a verification failure, not a usage error.
        path = tmp_path / "shared.bd.json"
        path.write_text(dumps(shared_class_family()))
        assert main(["verify", str(path), "--oracle", "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)["oracle"] == {"error": SHARED}
        else:
            assert f"\noracle: error: {SHARED}\n" in out


class TestPigeonhole:
    """A model with more registered points than the curve has points cannot
    keep them apart, so the oracle refuses it, with both counts, before any
    draw."""

    @pytest.mark.parametrize("n,p,points,order", [(8, 23, 27, 24), (32, 11, 99, 12)])
    def test_refused_before_any_draw(self, n, p, points, order, monkeypatch):
        def no_draws(*args):
            raise AssertionError("find_assignment drew generator images")

        monkeypatch.setattr(curve_oracle.random, "Random", no_draws)
        with pytest.raises(ValueError) as refused:
            find_assignment(construct_family(n), CurveOverFp(p, -1, 0))
        assert str(refused.value) == (
            f"the model registers {points} points but the curve has only {order}, "
            "so no assignment keeps them apart"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_prints_the_reason_and_exits_2(self, fmt, tmp_path, capsys):
        reason = ("the model registers 27 points but the curve has only 24, "
                  "so no assignment keeps them apart")
        path = tmp_path / "family8.bd.json"
        path.write_text(dumps(construct_family(8)))
        argv = ["verify", str(path), "--oracle", "--oracle-prime", "23", "--format", fmt]
        assert main(argv) == 2
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)["oracle"] == {"error": reason}
        else:
            assert f"\noracle: error: {reason}\n" in out


def etale_with(n, extra):
    """construct_etale(n) in a model with the further torsion factors ``extra``."""
    spec = GroupSpec(0, (2,) * n + extra)
    L = {
        chi: SurfaceClass(0, 0, spec.element((), chi.bits + (0,) * len(extra)))
        for chi in nontrivial_characters(n)
    }
    return BuildingData(spec, {}, (), L, {})


def one_character(orders):
    """A Z/2 cover over the torsion group Z/m_1 + ... with one branch pair."""
    spec = GroupSpec(0, orders)
    chi, sigma = Character.from_string("1"), CoverElement.from_string("1")
    return BuildingData(spec, {}, ("E1", "E2"), {chi: SurfaceClass(1, 0, spec.zero())},
                        {sigma: (Fiber("E", "E1"), Fiber("E", "E2"))})


def faithful_prime_by_prime(curve, spec, torsion_points):
    """The model's torsion embeds: every element of prime order in the product
    of the Z/m maps to O only if it is zero, summed with the curve's own group
    law."""
    orders = spec.torsion_orders
    for t in itertools.product(*map(range, orders)):
        order = math.lcm(*(m // math.gcd(k, m) for k, m in zip(t, orders)))
        if order > 1 and all(order % q for q in range(2, order)):
            image = INFINITY
            for k, point in zip(t, torsion_points):
                image = curve.add(image, curve.scale(k, point))
            if image is INFINITY:
                return False
    return True


def first_faithful_of_the_full_product(curve, spec):
    """The first faithful candidate over all points of each order, or None."""
    orders = spec.torsion_orders
    of_order = {m: [pt for pt in curve.points() if curve.point_order(pt) == m]
                for m in set(orders)}
    candidates = itertools.product(*(of_order[m] for m in orders))
    return next((c for c in candidates if faithful_prime_by_prime(curve, spec, c)), None)


EMBED = "curve torsion cannot embed the model's torsion subgroup"


class TestTorsionSearch:
    """The torsion search never enumerates the model's 2-torsion, and tries one
    point per tuple of lines <(m/ℓ)·P>."""

    curve = CurveOverFp(2003, -1, 0)  # Z/2 x Z/1002: four 2-torsion points

    @pytest.fixture
    def searched(self, monkeypatch):
        """Fail fast where the search would run for hours: any call to
        two_torsion(), or more than 50 candidates tried.  Yields the candidates
        tried."""
        def refused(spec):
            raise AssertionError(f"enumerating the 2-torsion of {spec.torsion_orders}")

        faithful, tried = curve_oracle._torsion_faithful, []

        def capped(curve, orders, torsion_points):
            tried.append(torsion_points)
            if len(tried) > 50:
                raise AssertionError("more than 50 torsion candidates tried")
            return faithful(curve, orders, torsion_points)

        monkeypatch.setattr(GroupSpec, "two_torsion", refused)
        monkeypatch.setattr(curve_oracle, "_torsion_faithful", capped)
        return tried

    def test_more_two_torsion_than_the_curve_is_refused_unsearched(self, searched):
        bd = etale_with(3, (2,) * 19)
        with pytest.raises(ValueError, match=EMBED):
            find_assignment(bd, self.curve)
        assert searched == []
        order_two = two_torsion_points(self.curve)[1]
        report = realize(bd, self.curve, Assignment((), (order_two,) * 22))
        assert not report.torsion_faithful and not report.ok

    def test_more_three_torsion_than_the_curve_is_refused_unsearched(self, searched):
        bd = etale_with(2, (3,) * 30)  # the curve's 3-torsion is Z/3
        with pytest.raises(ValueError, match=EMBED):
            find_assignment(bd, self.curve)
        assert searched == []

    def test_two_order_three_generators_embed_in_full_three_torsion(self, searched):
        curve = CurveOverFp(1021, 0, 1)  # Z/12 x Z/84: E[3] = Z/3 x Z/3
        bd = etale_with(2, (3, 3))
        assignment = find_assignment(bd, curve)
        p, q = assignment.torsion_points[2:]
        assert q not in (p, curve.negate(p))
        assert realize(bd, curve, assignment).ok

    def test_two_generators_of_order_516_with_one_image_are_refused_at_once(self, searched):
        curve = CurveOverFp(1031, -1, 0)  # Z/2 x Z/516: 336 points of order 516
        with pytest.raises(ValueError, match=EMBED):
            find_assignment(one_character((516, 516)), curve)
        assert len(searched) <= 9

    def test_the_family_on_a_cyclic_curve_is_refused_after_one_candidate(self, searched):
        curve = CurveOverFp(1031, 2, 3)  # Z/1060: one point of order 2
        with pytest.raises(ValueError, match=EMBED):
            find_assignment(construct_family(3), curve)
        assert len(searched) <= 1

    def test_a_torsion_order_with_no_point_on_the_curve_is_refused(self, searched):
        """The first test to reach find_assignment's refusal at curve_oracle.py:330:
        y^2 = x^3 - x over F_1039 has 1040 = 2^4 * 5 * 13 points, none of order 3."""
        curve = CurveOverFp(1039, -1, 0)
        assert curve.order() == 1040
        with pytest.raises(ValueError, match="^curve has no point of order 3$"):
            find_assignment(one_character((3,)), curve)
        assert searched == []

    @pytest.mark.parametrize("p, a, b, extra, embeds", [
        *((2003, -1, 0, extra, True) for extra in [(3,), (6,), (2, 3)]),
        # Z/2 x Z/1002: E[3] is Z/3, so two generators of order 3 | m cannot embed
        *((2003, -1, 0, extra, False) for extra in [(3, 6), (6, 3, 3)]),
        *((1031, -1, 0, extra, True) for extra in [(4,), (4, 3), (12,)]),
        *((1031, -1, 0, extra, False) for extra in [(2, 4), (2, 12)]),  # three even orders
        # Z/12 x Z/84: E[3] is Z/3 x Z/3, so two generators of order 3 | m embed
        *((1021, 0, 1, extra, True) for extra in [(3, 3), (3, 6), (3, 12)]),
        (1021, 0, 1, (3, 3, 3), False),
    ])
    def test_the_first_faithful_candidate_of_the_full_product_is_found(
        self, p, a, b, extra, embeds
    ):
        curve = CurveOverFp(p, a, b)
        bd = etale_with(1, extra)
        first = first_faithful_of_the_full_product(curve, bd.group_spec)
        assert (first is not None) == embeds
        if first is None:
            with pytest.raises(ValueError, match=EMBED):
                find_assignment(bd, curve)
        else:
            assert find_assignment(bd, curve).torsion_points == first

    @pytest.mark.parametrize("orders, tried", [((4, 4), 1), ((12, 12), 0)])
    def test_refused_where_no_candidate_of_the_full_product_is_faithful(
        self, orders, tried, request
    ):
        """Every point of order 4 on Z/2 x Z/516 has one image (m/2)·P, so the
        search tries one candidate where the full product has 16.  Two orders
        12 need two independent points of order 3, but E[3] is Z/3, so they are
        refused before any search where the full product has 64 candidates."""
        curve = CurveOverFp(1031, -1, 0)
        bd = one_character(orders)
        assert first_faithful_of_the_full_product(curve, bd.group_spec) is None
        searched = request.getfixturevalue("searched")
        with pytest.raises(ValueError, match=EMBED):
            find_assignment(bd, curve)
        assert len(searched) == tried


class TestTorsionFaithful:
    """_torsion_faithful reads only the images (m/ℓ)·P; the reference evaluates
    every element of prime order of the model's torsion on the curve."""

    @pytest.mark.parametrize("p, a, b", [(1031, -1, 0), (1031, 2, 3), (23, 1, 1), (1021, 0, 1)])
    def test_matches_every_element_of_prime_order_on_every_assignment(self, p, a, b):
        curve = CurveOverFp(p, a, b)
        killed_by = functools.cache(
            lambda m: [pt for pt in curve.points() if curve.scale(m, pt) is INFINITY])
        three_even = half_is_o = 0
        for orders in [(2,), (4,), (2, 2), (2, 4), (4, 4), (6, 12), (2, 2, 2), (3,), (2, 3),
                       (3, 3), (3, 3, 3), (3, 9)]:
            bd = one_character(orders)
            for points in itertools.product(*map(killed_by, orders)):
                got = curve_oracle._torsion_faithful(curve, orders, points)
                want = faithful_prime_by_prime(curve, bd.group_spec, points)
                assert got == want, (orders, points)
                if sum(m % 2 == 0 for m in orders) == 3:
                    assert not got
                    three_even += 1
                half_is_o += any(m % 2 == 0 and curve.scale(m // 2, pt) is INFINITY
                                 for m, pt in zip(orders, points))
        assert three_even and half_is_o


def odd_torsion_family():
    """Family n = 2 over Z^5 + Z/2 + Z/2 + Z/3 + Z/3, with F1, F1' shifted by
    +-t3 and F2, F2' by +-t4, so each F_i + F_i' and every relation stay as
    they were."""
    bd = construct_family(2)
    spec = GroupSpec(5, (2, 2, 3, 3))
    t3, t4 = spec.torsion_generator(2), spec.torsion_generator(3)

    def lift(x):
        return spec.element(x.free, x.tors + (0, 0))

    shift = {"F1": t3, "F1'": -t3, "F2": t4, "F2'": -t4}
    points_c = {label: lift(x) + shift.get(label, spec.zero()) for label, x in bd.points_c.items()}
    L = {chi: SurfaceClass(cls.a, cls.degree, lift(cls.pic0)) for chi, cls in bd.L.items()}
    return BuildingData(spec, points_c, bd.points_p1, L, bd.D)


class TestOddTorsion:
    """The curve's E[3] is Z/3 x Z/3, so the two order-3 generators go to
    independent points and t3 - t4 does not map to O: a relation broken by
    t3 - t4 alone is judged on the curve, and fails there as in the model."""

    curve = ["--oracle", "--oracle-prime", "1021", "--oracle-a", "0", "--oracle-b", "1"]

    def verify(self, bd, tmp_path, *options):
        path = tmp_path / "odd.bd.json"
        path.write_text(dumps(bd))
        return main(["verify", str(path), *self.curve, *options])

    def test_the_accepted_data_passes_the_oracle(self, tmp_path, capsys):
        assert self.verify(odd_torsion_family(), tmp_path) == 0
        assert "oracle: curve order 1008, factors [12, 84], ok" in capsys.readouterr().out

    def test_a_break_by_odd_torsion_alone_never_passes(self, tmp_path, capsys):
        bd = odd_torsion_family()
        t3, t4 = bd.group_spec.torsion_generator(2), bd.group_spec.torsion_generator(3)
        L = dict(bd.L)
        L[Character.from_string("110")] += SurfaceClass(0, 0, t3 - t4)
        broken = bd._replace(L=L)
        assert self.verify(broken, tmp_path) == 1
        out = capsys.readouterr().out
        assert "relations: FAIL" in out
        assert "oracle: curve order 1008, factors [12, 84], FAIL" in out
        assert self.verify(broken, tmp_path, "--format", "json") == 1
        failing = [[str(chi), str(other)] for chi, other in model_failures(broken)]
        assert failing
        assert json.loads(capsys.readouterr().out)["oracle"]["relation_failures"] == failing
