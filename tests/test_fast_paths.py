"""The linear-time paths against brute-force references, and counts that bound their work.

``GroupElement`` stores only its nonzero free coordinates; the reference is
dense tuple arithmetic.  ``serialize.dumps`` writes the canonical text
itself; the reference is the standard library's
``json.dumps(sort_keys=True, indent=2)``.
``verify_smoothness`` makes one pass over sets; the reference compares every
pair.  ``CurveOverFp.points_by_order`` orders each pair of opposite points
once and factors the group order once; the references take the lcm of every
order and test each order on its own, without reading the table.
``find_assignment`` evaluates each draw with ``realize``, so a count bounds
its draws on the family and its mutants; a count of
``CurveOverFp.add`` calls bounds the work of each oracle stage.
``cli.main`` builds its parser once per process; the reference is a fresh
``python -m z2covers`` process per call.  The command line's JSON reports
go through ``serialize.canonical_json``; the reference is again ``json.dumps``.
``import z2covers`` never reaches ``dataclasses`` or ``inspect``, which with
the dataclass decorators were the largest part of the package's import.
"""

import argparse
import functools
import itertools
import json
import math
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

from z2covers import characters, cli, cover, curve_oracle, serialize
from z2covers.abgroup import GroupElement, GroupSpec, halvings
from z2covers.cli import main
from z2covers.characters import nontrivial_characters, nontrivial_elements
from z2covers.construction import (
    construct_etale,
    construct_family,
    relations_table,
    single_torsion_mutations,
)
from z2covers.cover import (
    BuildingData,
    Fiber,
    SmoothnessReport,
    verify_relations,
    verify_smoothness,
)
from z2covers.curve_oracle import INFINITY, Assignment, CurveOverFp, find_assignment, realize
from z2covers.invariants import canonical_map_degree, compute_invariants
from z2covers.picard import SurfaceClass

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
    points_c = {label + suffix: aj for label, aj in bd.points_c.items()}
    points_p1 = tuple(label + suffix for label in bd.points_p1)
    D = {
        sigma: tuple(Fiber(fiber.kind, fiber.label + suffix) for fiber in fibers)
        for sigma, fibers in bd.D.items()
    }
    return BuildingData(bd.group_spec, points_c, points_p1, bd.L, D)


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

    points_c = {f"P{i}": element() for i in range(draw(st.integers(0, 4)))}
    points_p1 = tuple(f"E{i}" for i in range(draw(st.integers(0, 2))))
    L = {
        chi: SurfaceClass(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), element())
        for chi in nontrivial_characters(n)
    }
    pool = [Fiber("F", label) for label in points_c] + [Fiber("E", label) for label in points_p1]
    D = {}
    if pool:
        for sigma in nontrivial_elements(n):
            D[sigma] = tuple(draw(st.lists(st.sampled_from(pool), max_size=2)))
    return BuildingData(spec, points_c, points_p1, L, D)


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
    new = GroupElement.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal created
        created += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(GroupElement, "__new__", counting_new)
    assert bd.verification.ok
    compute_invariants(bd)
    assert canonical_map_degree(bd).degree == 8
    monkeypatch.undo()
    return created


def test_verification_builds_as_many_elements_at_every_n(monkeypatch):
    assert elements_created(16, monkeypatch) == elements_created(64, monkeypatch)


# -- fixed costs: the import, the shared parser and one sum per relation -----


def test_importing_the_package_never_reaches_dataclasses_or_inspect():
    probe = (
        "import sys; before = set(sys.modules); import z2covers; "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == []


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
    assert sums == 7 + 2 * 7  # one per branch class, then one per side of each row of G


@pytest.mark.parametrize("n", [3, 200])
def test_the_table_forms_the_verifiers_branch_classes_and_d111_alone(n, monkeypatch):
    bd = construct_family(n)
    formed, evaluated = 0, 0
    branch_class_of, branch_sum = BuildingData.branch_class_of, cover.Relation.branch_sum

    def counting_class(self, sigma):
        nonlocal formed
        formed += 1
        return branch_class_of(self, sigma)

    def counting_sum(self, *args, **kwargs):
        nonlocal evaluated
        evaluated += 1
        return branch_sum(self, *args, **kwargs)

    monkeypatch.setattr(BuildingData, "branch_class_of", counting_class)
    monkeypatch.setattr(cover.Relation, "branch_sum", counting_sum)
    assert all(row["equal"] for row in relations_table(bd))
    assert formed == 7 + 1  # one per D_sigma in the verifier, then D_111 for the table's unit
    assert evaluated == 7  # each row of G once, all of them in the verifier


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
    points = [bd.points_c[label] for label in sorted(bd.points_c)]
    injective = all(
        points[i] != points[j] for i in range(len(points)) for j in range(i + 1, len(points))
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
    points_c = {f"F{i}": draw(st.sampled_from(classes)) for i in range(draw(st.integers(0, 6)))}
    points_p1 = tuple(f"E{i}" for i in range(draw(st.integers(0, 3))))
    pool = [Fiber("F", label) for label in points_c] + [Fiber("E", label) for label in points_p1]
    D = {}
    if pool:
        for sigma in nontrivial_elements(n):
            D[sigma] = tuple(draw(st.lists(st.sampled_from(pool), max_size=3)))
    L = {chi: SurfaceClass(1, 0, spec.zero()) for chi in nontrivial_characters(n)}
    return BuildingData(spec, points_c, points_p1, L, D)


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
    if curve.scale(m, point) is not INFINITY:
        return False
    primes = [q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q))]
    return all(curve.scale(m // q, point) is not INFINITY for q in primes)


@functools.cache
def points_of_order(p, a, b, m):
    """The points of order m on y^2 = x^3 + ax + b over F_p, in the order
    ``points()`` lists them, each order tested on its own."""
    curve = CurveOverFp(p, a, b)
    return [pt for pt in curve.points() if has_order(curve, pt, m)]


@pytest.mark.parametrize(
    "p,a,b", [*((p, -1, 0) for p in (7, 11, 499, *ORACLE_PRIMES)), (1009, 2, 3)]
)
def test_the_table_of_orders_matches_the_scan_by_order_and_the_lcm(p, a, b):
    """The curves of ``TestGroupStructure``: y^2 = x^3 - x at eleven primes, and
    the cyclic y^2 = x^3 + 2x + 3 over F_1009, whose group is Z/1068."""
    curve = CurveOverFp(p, a, b)
    n, exponent = curve.order(), math.lcm(*map(curve.point_order, curve.points()))
    assert curve.group_structure() == (n, (n // exponent, exponent))
    table = curve.points_by_order
    assert table == {m: tuple(points_of_order(p, a, b, m)) for m in table}
    assert sum(map(len, table.values())) == n


def reference_assignment(bd, curve, seed=0, attempts=400):
    """find_assignment's by-order scan, testing each order on its own, and the
    first candidate under which no element of prime order of the model's
    torsion maps to O.  A draw is accepted when the registered points stay
    apart and the curve fails every relation the model fails."""
    spec = bd.group_spec

    def phi(assignment, element):
        total = INFINITY
        images = (*assignment.free_points, *assignment.torsion_points)
        for k, point in zip((*element.free, *element.tors), images):
            total = curve.add(total, curve.scale(k, point))
        return total

    _, (_, d2) = curve.group_structure()
    by_order = {m: points_of_order(curve.p, curve.a, curve.b, m) for m in spec.torsion_orders}

    def prime_order(t):
        order = math.lcm(*(m // math.gcd(k, m) for k, m in zip(t, spec.torsion_orders)))
        return order > 1 and all(order % q for q in range(2, order))

    of_prime_order = [spec.element((0,) * spec.rank, t)
                      for t in itertools.product(*map(range, spec.torsion_orders))
                      if prime_order(t)]
    torsion_points = next(
        candidate
        for candidate in itertools.product(*(by_order[m] for m in spec.torsion_orders))
        if all(phi(Assignment((INFINITY,) * spec.rank, candidate), t) is not INFINITY
               for t in of_prime_order)
    )
    generator = points_of_order(curve.p, curve.a, curve.b, d2)[0]
    failed = {(f.chi, f.chi_prime) for f in verify_relations(bd).failures}
    rng = random.Random(seed)
    ajs = list(bd.points_c.values())
    for _ in range(attempts):
        multipliers = [rng.randrange(1, d2) for _ in range(spec.rank)]
        assignment = Assignment(tuple(curve.scale(c, generator) for c in multipliers),
                                torsion_points)
        images = [phi(assignment, aj) for aj in ajs]
        if len(set(images)) == len(images) and failed <= set(
                realize(bd, curve, assignment).relation_failures):
            return assignment
    raise AssertionError("the reference found no assignment")


def count_orders_and_factorings(curve, monkeypatch):
    """The ``point_order`` calls (orders computed) and the factorings of the
    group order N from here on, counted in the dict returned."""
    counts = {"orders": 0, "factorings": 0}
    point_order, factor = CurveOverFp.point_order, curve_oracle._prime_factors

    def counting_order(self, *args):
        counts["orders"] += 1
        return point_order(self, *args)

    def counting_factors(n):
        counts["factorings"] += n == curve.order()
        return factor(n)

    monkeypatch.setattr(CurveOverFp, "point_order", counting_order)
    monkeypatch.setattr(curve_oracle, "_prime_factors", counting_factors)
    return counts


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_find_assignment_matches_the_by_order_scan_and_computes_each_order_once(
    p, monkeypatch
):
    rng = random.Random(p)
    d = rng.randrange(1, p)
    bd = construct_family(3, [rng.randrange(4) for _ in range(3)])
    curve = CurveOverFp(p, -d * d, 0)
    counts = count_orders_and_factorings(curve, monkeypatch)
    curve.group_structure()
    assignment = find_assignment(bd, curve)
    assert 0 < counts["orders"] <= curve.order()
    assert counts["factorings"] == 1
    monkeypatch.undo()
    assert assignment == reference_assignment(bd, CurveOverFp(p, -d * d, 0))


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_find_assignment_matches_the_by_order_scan_on_the_family_and_its_mutants(p):
    """The points grouped by order keep the order of ``points()``, so each
    search takes the assignment the scan per order takes."""
    d = random.Random(p).randrange(1, p)
    curve = CurveOverFp(p, -d * d, 0)
    for n in (3, 8):
        bd = construct_family(n)
        mutants = [mutant for _, _, mutant in single_torsion_mutations(bd)]
        assert len(mutants) == 21
        for data in (bd, *mutants):
            assert find_assignment(data, curve) == reference_assignment(data, curve)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_point_orders_are_computed_once_per_pair_of_opposite_points(p, monkeypatch):
    d = random.Random(-p).randrange(1, p)
    curve = CurveOverFp(p, -d * d, 0)
    counts = count_orders_and_factorings(curve, monkeypatch)
    curve.group_structure()
    find_assignment(construct_family(3), curve)
    # N = 1 + #(points with y = 0) + 2 * #(pairs P != -P), at most 3 points with y = 0
    assert 0 < 2 * counts["orders"] <= curve.order() + 4
    assert counts["factorings"] == 1


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_ordering_every_point_factors_the_group_order_once(p, monkeypatch):
    d = random.Random(p).randrange(1, p)
    curve = CurveOverFp(p, -d * d, 0)
    counts = count_orders_and_factorings(curve, monkeypatch)
    orders = [curve.point_order(point) for point in curve.points()]
    assert counts["orders"] == len(orders) == curve.order()
    assert counts["factorings"] == 1


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_find_assignment_draws_at_most_twice_on_the_family_and_its_mutants(p, monkeypatch):
    d = random.Random(p).randrange(1, p)
    curve = CurveOverFp(p, -d * d, 0)
    calls = 0

    class Counted(random.Random):
        def randrange(self, *args):
            nonlocal calls
            calls += 1
            return super().randrange(*args)

    monkeypatch.setattr(curve_oracle.random, "Random", Counted)
    for n in (3, 8):
        bd = construct_family(n)
        for data in (bd, *(mutant for _, _, mutant in single_torsion_mutations(bd))):
            calls = 0
            find_assignment(data, curve)
            assert calls <= 2 * data.group_spec.rank  # one randrange per free generator


def test_each_oracle_stage_makes_at_most_its_add_calls(monkeypatch):
    """Family n = 8 on y^2 = x^3 - x over F_2351, whose group is Z/2 x Z/1176:
    each stage makes at most the add calls it makes with the torsion read
    prime by prime through the images (m/ℓ)·P, and with scale making no
    doubling past its top bit."""
    calls = 0
    add = CurveOverFp.add

    def counting_add(curve, p1, p2):
        nonlocal calls
        calls += 1
        return add(curve, p1, p2)

    monkeypatch.setattr(CurveOverFp, "add", counting_add)
    bd, curve = construct_family(8), CurveOverFp(2351, -1, 0)
    curve.group_structure()
    assert calls <= 64_935
    calls = 0
    assignment = find_assignment(bd, curve)
    assert calls <= 531
    calls = 0
    realize(bd, curve, assignment)
    assert calls <= 291
