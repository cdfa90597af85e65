"""The linear-time paths against brute-force references, and counts that bound their work.

``serialize.dumps`` writes the canonical text itself; the reference is the
standard library's ``json.dumps(sort_keys=True, indent=2)``.
``verify_smoothness`` makes one pass over sets; the reference compares every
pair.  ``CurveOverFp.point_order`` is computed once per point; the reference
assignment search tests each order without reading any stored order.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2covers import curve_oracle, serialize
from z2covers.abgroup import GroupElement, GroupSpec
from z2covers.characters import nontrivial_characters, nontrivial_elements
from z2covers.construction import construct_etale, construct_family, single_torsion_mutations
from z2covers.cover import (
    BuildingData,
    EllipticFiber,
    RationalFiber,
    SmoothnessReport,
    verify_smoothness,
)
from z2covers.curve_oracle import INFINITY, Assignment, CurveOverFp, _Realizer, find_assignment
from z2covers.picard import CurveClass, PointOnC, PointOnP1, SurfaceClass


def reference_dumps(bd):
    return json.dumps(serialize.building_data_to_dict(bd), sort_keys=True, indent=2) + "\n"


def relabel(bd, suffix):
    """The same data with ``suffix`` appended to every point label."""
    points_c = {
        label + suffix: PointOnC(label + suffix, point.aj) for label, point in bd.points_c.items()
    }

    def component(comp):
        if isinstance(comp, RationalFiber):
            return RationalFiber(points_c[comp.label + suffix])
        return EllipticFiber(PointOnP1(comp.label + suffix))

    points_p1 = tuple(PointOnP1(point.label + suffix) for point in bd.points_p1)
    D = {sigma: tuple(map(component, comps)) for sigma, comps in bd.D.items()}
    return BuildingData(bd.n, bd.group_spec, points_c, points_p1, bd.L, D)


# Quotes, backslashes, control and non-ASCII characters all need escaping.
AWKWARD = st.one_of(
    st.sampled_from(['"', "\\", 'q"uo\\te', "é", " ", "\n\t", "\x7f", "🜁"]),
    st.text(max_size=4),
)


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(["family", "etale", "mutant"]))
    if kind == "etale":
        bd = construct_etale(draw(st.integers(3, 7)))
    else:
        n = draw(st.integers(2, 64 if kind == "family" else 8))
        bd = construct_family(n, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        if kind == "mutant":
            mutants = list(single_torsion_mutations(bd))
            bd = mutants[draw(st.integers(0, len(mutants) - 1))][2]
    return relabel(bd, draw(AWKWARD)) if draw(st.booleans()) else bd


@settings(max_examples=40, deadline=None)
@given(documents())
def test_dumps_matches_the_standard_encoder(bd):
    text = serialize.dumps(bd)
    assert text == reference_dumps(bd)
    assert serialize.loads(text) == bd


def test_dumps_never_reaches_the_pure_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python encoder was used")

    cases = [construct_family(8), relabel(construct_etale(4), 'q"é\\'), construct_family(2)]
    expected = [reference_dumps(bd) for bd in cases]
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"a": [1]}, indent=2)
    assert [serialize.dumps(bd) for bd in cases] == expected


# -- smoothness ---------------------------------------------------------------


def reference_smoothness(bd):
    """Compare every pair of components and every pair of points."""
    components = [(c.kind, c.label) for sigma in bd.elements for c in bd.branch(sigma)]
    reduced = all(
        components[i] != components[j]
        for i in range(len(components))
        for j in range(i + 1, len(components))
    )
    points = sorted(bd.points_c.values(), key=lambda p: p.label)
    injective = all(
        points[i].aj != points[j].aj for i in range(len(points)) for j in range(i + 1, len(points))
    )
    return SmoothnessReport(reduced, reduced and injective, injective)


@st.composite
def crowded_data(draw):
    """Data whose points often share a class and whose components often repeat."""
    n = draw(st.integers(1, 3))
    spec = GroupSpec(draw(st.integers(0, 2)), (2,))
    classes = [
        spec.element(draw(st.lists(st.integers(-1, 1), min_size=spec.rank, max_size=spec.rank)),
                     (draw(st.integers(0, 1)),))
        for _ in range(draw(st.integers(1, 3)))
    ]
    points_c = {
        f"F{i}": PointOnC(f"F{i}", draw(st.sampled_from(classes)))
        for i in range(draw(st.integers(0, 6)))
    }
    points_p1 = tuple(PointOnP1(f"E{i}") for i in range(draw(st.integers(0, 3))))
    pool = [RationalFiber(p) for p in points_c.values()] + [EllipticFiber(p) for p in points_p1]
    D = {}
    if pool:
        for sigma in nontrivial_elements(n):
            D[sigma] = tuple(draw(st.lists(st.sampled_from(pool), max_size=3)))
    L = {chi: SurfaceClass(1, CurveClass.zero(spec)) for chi in nontrivial_characters(n)}
    return BuildingData(n, spec, points_c, points_p1, L, D)


@settings(max_examples=200, deadline=None)
@given(crowded_data())
def test_smoothness_matches_the_all_pairs_reference(bd):
    assert verify_smoothness(bd) == reference_smoothness(bd)


def test_smoothness_compares_at_most_once_per_point(monkeypatch):
    bd = construct_family(64)
    calls = 0
    original = GroupElement.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(GroupElement, "__eq__", counting_eq)
    report = verify_smoothness(bd)
    assert report.snc
    assert calls <= len(bd.points_c) == 195


# -- the oracle's point orders ------------------------------------------------

# Eight primes p = 3 (mod 4) across [1000, 3000]; y^2 = x^3 - d^2 x is then
# supersingular with group Z/2 x Z/((p + 1)/2).
ORACLE_PRIMES = (1123, 1399, 1567, 1831, 2083, 2351, 2647, 2851)


def has_order(curve, point, m):
    """m.P = O, and (m/q).P != O for every prime q dividing m."""
    if not curve.scale(m, point).is_infinity:
        return False
    primes = [q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q))]
    return all(not curve.scale(m // q, point).is_infinity for q in primes)


def reference_assignment(bd, curve, seed=0, attempts=400):
    """find_assignment's by-order scan, testing each order on its own."""
    spec = bd.group_spec
    _, (_, d2) = curve.group_structure()
    by_order = {m: [pt for pt in curve.points() if has_order(curve, pt, m)]
                for m in set(spec.torsion_orders)}
    torsion_points = next(
        candidate
        for candidate in itertools.product(*(by_order[m] for m in spec.torsion_orders))
        if all(
            _Realizer(curve, Assignment((INFINITY,) * spec.rank, candidate))(t).is_infinity
            == t.is_zero()
            for t in spec.two_torsion()
        )
    )
    generator = next(pt for pt in curve.points() if has_order(curve, pt, d2))
    rng = random.Random(seed)
    ajs = [pt.aj for pt in bd.points_c.values()]
    for _ in range(attempts):
        multipliers = [rng.randrange(1, d2) for _ in range(spec.rank)]
        assignment = Assignment(tuple(curve.scale(c, generator) for c in multipliers),
                                torsion_points)
        images = [_Realizer(curve, assignment)(aj) for aj in ajs]
        if len(set(images)) == len(images):
            return assignment
    raise AssertionError("the reference found no assignment")


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_find_assignment_matches_the_by_order_scan_and_computes_each_order_once(
    p, monkeypatch
):
    rng = random.Random(p)
    d = rng.randrange(1, p)
    bd = construct_family(3, [rng.randrange(4) for _ in range(3)])
    computed = 0
    factor = curve_oracle._prime_factors

    def counting_factors(n):  # called once per point order actually computed
        nonlocal computed
        computed += 1
        return factor(n)

    monkeypatch.setattr(curve_oracle, "_prime_factors", counting_factors)
    curve = CurveOverFp(p, -d * d, 0)
    curve.group_structure()
    assignment = find_assignment(bd, curve)
    assert computed <= curve.order()
    monkeypatch.undo()
    assert assignment == reference_assignment(bd, CurveOverFp(p, -d * d, 0))
