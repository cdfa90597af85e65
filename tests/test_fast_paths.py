"""The linear-time paths against brute-force references, and counts that bound their work.

``GroupElement`` stores only its nonzero free coordinates; the reference is
dense tuple arithmetic.  ``serialize.dumps`` writes the canonical text
itself; the reference is the standard library's
``json.dumps(sort_keys=True, indent=2)``.
``verify_smoothness`` makes one pass over sets; the reference compares every
pair.  ``CurveOverFp.point_order`` is computed once per point; the reference
assignment search tests each order without reading any stored order.
``cli.main`` builds its parser once per process; the reference is a fresh
``python -m z2covers`` process per call.  The command line's JSON reports
go through ``serialize.canonical_json``; the reference is again ``json.dumps``.
"""

import argparse
import itertools
import json
import operator
import os
import pathlib
import random
import subprocess
import sys
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2covers import characters, cli, curve_oracle, serialize
from z2covers.abgroup import GroupElement, GroupSpec, halvings
from z2covers.cli import main
from z2covers.characters import nontrivial_characters, nontrivial_elements
from z2covers.construction import construct_etale, construct_family, single_torsion_mutations
from z2covers.cover import (
    BuildingData,
    EllipticFiber,
    RationalFiber,
    SmoothnessReport,
    verify_relations,
    verify_smoothness,
)
from z2covers.curve_oracle import INFINITY, Assignment, CurveOverFp, _Realizer, find_assignment
from z2covers.invariants import canonical_map_degree, compute_invariants
from z2covers.picard import CurveClass, PointOnC, PointOnP1, SurfaceClass

ROOT = pathlib.Path(__file__).resolve().parent.parent


# -- sparse group elements ----------------------------------------------------

# Mostly zeros, as in the family, with small, negative and very large values.
COORDINATES = st.one_of(st.just(0), st.integers(-6, 6), st.integers(-(2**80), 2**80))


@st.composite
def specs(draw):
    return GroupSpec(draw(st.integers(0, 12)), draw(st.lists(st.integers(2, 6), max_size=3)))


def dense_parts(draw, spec):
    """Unreduced dense coordinates of an element of ``spec``."""
    free = draw(st.lists(COORDINATES, min_size=spec.rank, max_size=spec.rank))
    tors = [draw(st.integers(-20, 20)) for _ in spec.torsion_orders]
    return tuple(free), tuple(tors)


class Dense:
    """The reference model: every coordinate stored, torsion reduced."""

    def __init__(self, spec, free, tors):
        self.spec, self.free = spec, tuple(free)
        self.tors = tuple(t % m for t, m in zip(tors, spec.torsion_orders))

    def __add__(self, other):
        return Dense(self.spec, map(operator.add, self.free, other.free),
                     map(operator.add, self.tors, other.tors))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k):
        return Dense(self.spec, (k * a for a in self.free), (k * a for a in self.tors))

    def halvings(self):
        if any(a % 2 for a in self.free):
            return []
        per_coord = [[y for y in range(m) if (2 * y - t) % m == 0]
                     for t, m in zip(self.tors, self.spec.torsion_orders)]
        half = tuple(a // 2 for a in self.free)
        return [Dense(self.spec, half, combo) for combo in itertools.product(*per_coord)]


def coords(ref):
    return ref.free, ref.tors


def same(x, ref):
    """``x`` equals the reference, and its terms are canonical."""
    indices = [i for i, _ in x.terms]
    return (
        x.free == ref.free
        and x.tors == ref.tors
        and indices == sorted(set(indices))
        and all(v != 0 for _, v in x.terms)
    )


@st.composite
def element_pairs(draw):
    spec = draw(specs())
    return spec, dense_parts(draw, spec), dense_parts(draw, spec)


@settings(max_examples=300, deadline=None)
@given(element_pairs(), st.integers(-7, 7))
def test_sparse_elements_match_the_dense_reference(case, k):
    spec, (xf, xt), (yf, yt) = case
    x, y = spec.element(xf, xt), spec.element(yf, yt)
    rx, ry = Dense(spec, xf, xt), Dense(spec, yf, yt)
    assert same(x, rx) and same(y, ry)
    assert spec.element(x.free, x.tors) == x
    assert same(x + y, rx + ry)
    assert same(x - y, rx + -ry)
    assert same(-x, -rx)
    assert same(k * x, rx.scale(k)) and same(x * k, rx.scale(k)) and same(0 * x, rx.scale(0))
    assert x.is_zero() == (not any(rx.free) and not any(rx.tors))
    assert x.l1_free() == sum(map(abs, rx.free))
    assert (x == y) == (coords(rx) == coords(ry))
    assert hash(x - y + y) == hash(x) and x - y + y == x
    assert (x + x == y + y) == (coords(rx + rx) == coords(ry + ry))
    for z, rz in ((x + y, rx + ry), (x + x, rx + rx)):
        found, expected = halvings(z), sorted(rz.halvings(), key=lambda e: e.tors)
        assert len(found) == len(expected)
        assert all(same(h, r) for h, r in zip(found, expected))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_group_sum_matches_a_left_fold(data):
    spec = data.draw(specs())
    parts = [dense_parts(data.draw, spec) for _ in range(data.draw(st.integers(0, 6)))]
    xs = [spec.element(*p) for p in parts]
    dense_zero = Dense(spec, (0,) * spec.rank, (0,) * len(spec.torsion_orders))
    assert same(spec.sum(xs), reduce(operator.add, [Dense(spec, *p) for p in parts], dense_zero))
    assert spec.sum(xs) == reduce(operator.add, xs, spec.zero())
    assert spec.sum(iter(xs)) == spec.sum(xs)


def test_a_dense_positional_construction_fails_loudly():
    spec = GroupSpec(3, (2,))
    with pytest.raises(TypeError):
        GroupElement(spec, (1, 0, 0), (3,))


def test_group_sum_refuses_another_group():
    spec = GroupSpec(2, (2,))
    with pytest.raises(ValueError):
        spec.sum([spec.zero(), GroupSpec(2, (3,)).zero()])


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
def arbitrary_data(draw):
    """Random shapes, rank 0 included, with large and negative coordinates."""
    spec = draw(specs())
    n = draw(st.integers(1, 3))

    def element():
        return spec.element(*dense_parts(draw, spec))

    points_c = {f"P{i}": PointOnC(f"P{i}", element()) for i in range(draw(st.integers(0, 4)))}
    points_p1 = tuple(PointOnP1(f"E{i}") for i in range(draw(st.integers(0, 2))))
    L = {
        chi: SurfaceClass(draw(st.integers(-3, 3)), CurveClass(draw(st.integers(-3, 3)), element()))
        for chi in nontrivial_characters(n)
    }
    pool = [RationalFiber(p) for p in points_c.values()] + [EllipticFiber(p) for p in points_p1]
    D = {}
    if pool:
        for sigma in nontrivial_elements(n):
            D[sigma] = tuple(draw(st.lists(st.sampled_from(pool), max_size=2)))
    return BuildingData(n, spec, points_c, points_p1, L, D)


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(["family", "etale", "mutant", "arbitrary"]))
    if kind == "arbitrary":
        bd = draw(arbitrary_data())
    elif kind == "etale":
        bd = construct_etale(draw(st.integers(3, 7)))
    else:
        n = draw(st.integers(2, 64 if kind == "family" else 8))
        bd = construct_family(n, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        if kind == "mutant":
            mutants = list(single_torsion_mutations(bd))
            bd = mutants[draw(st.integers(0, len(mutants) - 1))][2]
    return relabel(bd, draw(AWKWARD)) if draw(st.booleans()) else bd


@settings(max_examples=80, deadline=None)
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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_matches_the_standard_encoder(value):
    assert serialize.canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_reports_never_reach_the_pure_python_encoder(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python encoder was used")

    family, mutant = tmp_path / "family3.json", tmp_path / "mutant.json"
    mutated = next(single_torsion_mutations(construct_family(3)))[2]
    family.write_text(serialize.dumps(construct_family(3)))
    mutant.write_text(serialize.dumps(mutated))
    runs = [
        (["verify", str(family), "--oracle", "--format", "json"], 0),
        (["verify", str(mutant), "--format", "json"], 1),
        (["table", str(mutant), "--format", "json"], 1),
        (["sweep", "2..6", "--format", "json"], 0),
    ]
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"a": [1]}, indent=2)
    outputs = []
    for argv, code in runs:
        assert main(argv) == code
        outputs.append(capsys.readouterr().out)
    monkeypatch.undo()
    for text in outputs:
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert outputs[1] == json.dumps(cli.verify_report(mutated), sort_keys=True, indent=2) + "\n"


# -- linearity guards: what the family path may not do -----------------------


def test_the_verify_path_never_builds_a_bit_tuple(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a bit tuple was built")

    paths = []
    mutant = next(single_torsion_mutations(construct_family(3)))[2]
    for name, bd in [("family8", construct_family(8)), ("etale5", construct_etale(5)),
                     ("mutant", mutant)]:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(serialize.dumps(bd))
    monkeypatch.setattr(characters._BitVector, "bits", property(refuse))
    for path in paths:
        for argv in (["verify", str(path)], ["verify", str(path), "--oracle", "--format", "json"]):
            assert main(argv) in (0, 1, 2)
    assert main(["table", str(paths[0])]) == 0


def test_invariants_add_k_y_once_per_character(monkeypatch):
    bd = construct_family(22)
    assert bd.verification.ok
    adds = 0
    original = SurfaceClass.__add__

    def counting_add(self, other):
        nonlocal adds
        adds += 1
        return original(self, other)

    monkeypatch.setattr(SurfaceClass, "__add__", counting_add)
    compute_invariants(bd)
    assert canonical_map_degree(bd).degree == 8
    assert adds == 7 + 1 + 1  # L_chi + K_Y per character, S = 2 K_Y + B, one canonical generator


def test_the_family_path_never_reads_dense_coordinates(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("dense free coordinates were read")

    monkeypatch.setattr(GroupElement, "free", property(refuse))
    family, small = tmp_path / "family64.json", tmp_path / "family3.json"
    assert main(["construct", "--n", "64", "--out", str(family)]) == 0
    assert main(["construct", "--n", "3", "--out", str(small)]) == 0
    capsys.readouterr()
    assert main(["verify", str(family), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["canonical_map"]["degree"] == 8
    assert main(["verify", str(small), "--oracle", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"]["ok"]


def elements_created(n, monkeypatch):
    """GroupElement instances built while verifying family member n."""
    bd = construct_family(n)
    created = 0
    init = GroupElement.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal created
        created += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupElement, "__init__", counting_init)
    assert bd.verification.ok
    compute_invariants(bd)
    assert canonical_map_degree(bd).degree == 8
    monkeypatch.undo()
    return created


def test_verification_builds_as_many_elements_at_every_n(monkeypatch):
    assert elements_created(16, monkeypatch) == elements_created(64, monkeypatch)


# -- fixed cost per job: the shared parser and one signed sum per relation ---


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    built = []  # the index of the main() call during which each parser was made
    calls = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(calls)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    path = str(tmp_path / "family3.json")
    for argv in (
        ["construct", "--n", "3", "--out", path],
        ["verify", path],
        ["verify", path, "--format", "json"],
        ["table", path],
        ["sweep", "2..3"],
    ):
        assert main(argv) == 0
        calls += 1
    assert len(built) <= 5 and set(built) <= {0}  # the root parser and its 4 subparsers


@pytest.mark.parametrize("n", [3, 22])
def test_each_relation_is_decided_by_one_sum(n, monkeypatch):
    bd = construct_family(n)
    sums = 0
    original = GroupSpec.sum

    def counting_sum(self, elements):
        nonlocal sums
        sums += 1
        return original(self, elements)

    monkeypatch.setattr(GroupSpec, "sum", counting_sum)
    report = verify_relations(bd)
    assert report.ok and report.pairs_checked == 28
    assert sums <= 7 + 28  # one per branch class, then one per relation


def test_the_shared_parser_answers_like_a_fresh_process(tmp_path, monkeypatch, capsys):
    """Each call in one process against ``python -m z2covers`` with the same argv."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this width
    family, repeated = str(tmp_path / "family3.json"), str(tmp_path / "repeated.json")
    text = serialize.dumps(construct_family(3))
    wrong = json.dumps({"a": 4, "degree": 3, "pic0": {"free": [0] * 7, "tors": [0, 0]}})
    with open(repeated, "w", encoding="utf-8") as handle:
        handle.write(text.replace('"L": {', '"L": {"100": ' + wrong + ",", 1))
    sequence = [
        ["construct", "--n", "3", "--out", family],
        ["construct", "--n", "2", "--halving", "1,3"],
        ["verify", family],
        ["verify", family, "--format", "json"],
        ["construct", "--n", "3", "--halving", "9,9"],  # exit 2 from the command
        ["verify", family, "--format", "yaml"],  # exit 2 from argparse
        ["verify", family, "--oracle", "--format", "json"],
        ["verify", repeated],  # exit 3
        ["table", family],
        ["table", family, "--format", "json"],
        ["sweep", "2..5"],
        ["sweep", "2..4", "--format", "json"],
        ["construct"],  # exit 2 from argparse
    ]
    in_process = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((captured.out, captured.err, code))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
    fresh = []
    for argv in sequence:
        result = subprocess.run(
            [sys.executable, "-m", "z2covers", *argv], capture_output=True, text=True, env=env,
            cwd=tmp_path, timeout=120,
        )
        fresh.append((result.stdout, result.stderr, result.returncode))
    assert [code for _, _, code in fresh] == [0, 0, 0, 0, 2, 2, 0, 3, 0, 0, 0, 0, 2]
    for argv, mine, theirs in zip(sequence, in_process, fresh):
        assert mine == theirs, argv


# -- smoothness ---------------------------------------------------------------


def reference_smoothness(bd):
    """Compare every pair of components and every pair of points.

    Two fiber components meet in a node exactly when their kinds differ;
    the node is a defect when both components lie over the same sigma.
    """
    placed = [(sigma, c.kind, c.label) for sigma in bd.elements for c in bd.branch(sigma)]
    pairs = [(placed[i], placed[j]) for i in range(len(placed)) for j in range(i + 1, len(placed))]
    reduced = all(x[1:] != y[1:] for x, y in pairs)
    nodes = [(x, y) for x, y in pairs if x[1] != y[1]]
    independent = all(x[0] != y[0] for x, y in nodes)
    points = sorted(bd.points_c.values(), key=lambda p: p.label)
    injective = all(
        points[i].aj != points[j].aj for i in range(len(points)) for j in range(i + 1, len(points))
    )
    return SmoothnessReport(reduced, reduced and injective, injective, independent)


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
