"""Value semantics: every value type is immutable, and the gated ones check on every replace.

The value types are named tuples, so a value equals the plain tuple of its
fields and unpacks like one; characters and group elements of Z_2^n are
the exception, since a character never equals the element of the same bits.
"""

import copy
import pickle

import pytest

from z2covers import (
    Character,
    CoverElement,
    CurveOverFp,
    Fiber,
    GroupSpec,
    SurfaceClass,
    canonical_map_degree,
    compute_invariants,
    construct_family,
    find_assignment,
    map_analysis,
    realize,
    single_torsion_mutations,
    verify_relations,
    verify_smoothness,
)
from z2covers.cover import generating_relations


@pytest.fixture(scope="module")
def values():
    """One instance of every value type, keyed by its type's name."""
    bd = construct_family(3)
    mutant = next(single_torsion_mutations(bd))[2]
    curve = CurveOverFp(2003, -1, 0)
    assignment = find_assignment(bd, curve)
    cls = bd.L[Character.from_string("100")]
    found = [
        bd.group_spec, cls.pic0, cls, bd.D[CoverElement.from_string("100")][0],
        generating_relations(3)[0], verify_relations(mutant).failures[0], verify_relations(bd),
        verify_smoothness(bd), assignment, realize(bd, curve, assignment),
        compute_invariants(bd), canonical_map_degree(bd), map_analysis(cls), bd,
        Character.from_string("100"), CoverElement.from_string("100"),
    ]
    return {type(value).__name__: value for value in found}


def test_every_value_type_is_covered(values):
    assert len(values) == 16


@pytest.mark.parametrize("name", [
    "GroupSpec", "GroupElement", "SurfaceClass", "Fiber", "Relation", "RelationFailure",
    "VerificationReport", "SmoothnessReport", "Assignment", "RealizationReport",
    "CoverInvariants", "CanonicalMapReport", "MapReport", "BuildingData",
    "Character", "CoverElement",
])
def test_every_value_refuses_attribute_assignment(values, name):
    value = values[name]
    field = getattr(value, "_fields", ("n",))[0]
    before = getattr(value, field)
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attribute, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before and not hasattr(value, "extra")


def test_building_data_keeps_its_memos_while_refusing_assignment():
    bd = construct_family(3)
    report = verify_relations(bd)
    with pytest.raises(AttributeError):
        bd.verification = None
    assert verify_relations(bd) is report and compute_invariants(bd) is compute_invariants(bd)


def test_replacing_building_data_runs_the_shape_gate():
    bd = construct_family(3)
    stray = {CoverElement.from_string("100"): (Fiber("E", "nowhere"),)}
    with pytest.raises(ValueError, match="unregistered rational-curve point 'nowhere'"):
        bd._replace(D=stray)
    with pytest.raises(ValueError, match="exactly the nontrivial characters"):
        bd._replace(L=dict(list(bd.L.items())[1:]))
    mutant = bd._replace(L={**bd.L, Character.from_string("100"): bd.L[Character.from_string("010")]})
    assert type(mutant.L).__name__ == "mappingproxy" and not verify_relations(mutant).ok
    assert verify_relations(bd).ok  # the memo is per instance; a replace starts afresh


def test_replacing_a_spec_or_invariants_runs_their_checks():
    with pytest.raises(ValueError):
        GroupSpec(2, (2,))._replace(rank=-1)
    assert GroupSpec(2)._replace(torsion_orders=[4, 2]).torsion_orders == (4, 2)
    invariants = compute_invariants(construct_family(3))
    with pytest.raises(ValueError, match="surface identity"):
        invariants._replace(q=invariants.q + 1)
    again = invariants._replace(h0_by_character=dict(invariants.h0_by_character))
    assert again == invariants and type(again.h0_by_character).__name__ == "mappingproxy"


def test_a_value_is_the_tuple_of_its_fields_but_a_bit_vector_is_not():
    spec = GroupSpec(1, (2,))
    pic0 = spec.free_generator(0)
    cls = SurfaceClass(1, 2, pic0)
    a, degree, class_pic0 = cls
    assert cls == (1, 2, pic0) and (a, degree, class_pic0) == (cls.a, cls.degree, cls.pic0)
    assert Fiber("E", "E1") == ("E", "E1") and GroupSpec(1, (2,)) == (1, (2,))
    chi, sigma = Character.from_string("10"), CoverElement.from_string("10")
    assert chi != (2, 2) and not isinstance(chi, tuple) and not isinstance(sigma, tuple)
    with pytest.raises(TypeError):
        tuple(chi)


def test_values_survive_copy_and_pickle():
    bd = construct_family(2)
    cls = bd.L[Character.from_string("100")]
    for value in (bd.group_spec, cls.pic0, cls, Fiber("F", "F1"), Character.from_string("011"),
                  CoverElement.from_string("011"), verify_smoothness(bd)):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value) and hash(twin) == hash(value)
