"""Canonical file format: round trips, determinism, malformed input."""

import json

import pytest

from z2covers.construction import construct_etale, construct_family
from z2covers.cover import verify_relations
from z2covers.serialize import (
    FormatError,
    building_data_from_dict,
    building_data_to_dict,
    dumps,
    loads,
)


def test_round_trip_preserves_the_data():
    bd = construct_family(3)
    again = loads(dumps(bd))
    assert again == bd


def test_round_trip_is_byte_identical():
    for bd in (construct_family(2), construct_family(3, (1, 0, 2)), construct_etale(3)):
        text = dumps(bd)
        assert dumps(loads(text)) == text


def test_document_shape():
    doc = building_data_to_dict(construct_family(3))
    assert doc["schema_version"] == 1
    assert doc["group_spec"] == {"rank": 7, "torsion": [2, 2]}
    assert set(doc["L"]) == {"001", "010", "011", "100", "101", "110", "111"}
    assert len(doc["points_p1"]) == 6
    entry = doc["L"]["100"]
    assert set(entry) == {"a", "degree", "pic0"}
    assert set(entry["pic0"]) == {"free", "tors"}
    assert doc["D"]["100"] == [{"kind": "E", "label": "E1"}, {"kind": "E", "label": "E2"}]
    # empty branch indices are written explicitly
    assert doc["D"]["001"] == []


def test_missing_branch_indices_are_read_as_empty():
    doc = building_data_to_dict(construct_family(3))
    del doc["D"]["001"], doc["D"]["010"], doc["D"]["011"]
    bd = building_data_from_dict(doc)
    assert verify_relations(bd).ok


def test_loaded_data_verifies_like_the_original():
    bd = construct_family(4)
    assert verify_relations(loads(dumps(bd))).ok


def test_unsupported_schema_version_rejected():
    doc = building_data_to_dict(construct_family(3))
    doc["schema_version"] = 99
    with pytest.raises(FormatError):
        building_data_from_dict(doc)


def test_invalid_json_rejected():
    with pytest.raises(FormatError):
        loads("{not json")


def test_unknown_component_kind_rejected():
    doc = building_data_to_dict(construct_family(3))
    doc["D"]["100"][0]["kind"] = "X"
    with pytest.raises(FormatError):
        building_data_from_dict(doc)


def test_component_over_unknown_point_rejected():
    doc = building_data_to_dict(construct_family(3))
    doc["D"]["111"][0]["label"] = "nowhere"
    with pytest.raises(FormatError):
        building_data_from_dict(doc)


@pytest.mark.parametrize("kind", ["E", "F"])
@pytest.mark.parametrize("label", [["E1"], 1, None], ids=["list", "int", "null"])
def test_non_string_component_label_rejected(kind, label):
    doc = building_data_to_dict(construct_family(3))
    doc["D"]["100"][0] = {"kind": kind, "label": label}
    with pytest.raises(FormatError, match="^branch component labels must be JSON strings$"):
        loads(json.dumps(doc))


def test_mixed_character_lengths_rejected():
    doc = building_data_to_dict(construct_family(3))
    doc["L"]["10"] = doc["L"]["100"]
    with pytest.raises(FormatError):
        building_data_from_dict(doc)


def test_non_object_document_rejected():
    with pytest.raises(FormatError):
        building_data_from_dict([1, 2, 3])


def test_emission_is_sorted_and_newline_terminated():
    text = dumps(construct_family(3))
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


# Integer fields take JSON integers only.  Each encoding below writes the
# right value in another JSON type, which the parser must refuse, not convert.
NOT_INTEGERS = [float, str, lambda v: v + 0.9, bool]
ENCODING_IDS = ["float", "string", "fraction", "bool"]


def _assert_rejected(doc):
    with pytest.raises(FormatError):
        loads(json.dumps(doc))


@pytest.mark.parametrize("encode", NOT_INTEGERS, ids=ENCODING_IDS)
def test_rank_must_be_an_integer(encode):
    doc = building_data_to_dict(construct_family(3))
    doc["group_spec"]["rank"] = encode(doc["group_spec"]["rank"])
    _assert_rejected(doc)


@pytest.mark.parametrize("encode", NOT_INTEGERS, ids=ENCODING_IDS)
def test_torsion_orders_must_be_integers(encode):
    doc = building_data_to_dict(construct_family(3))
    doc["group_spec"]["torsion"][1] = encode(doc["group_spec"]["torsion"][1])
    _assert_rejected(doc)


@pytest.mark.parametrize("encode", NOT_INTEGERS, ids=ENCODING_IDS)
def test_a_must_be_an_integer(encode):
    doc = building_data_to_dict(construct_family(3))
    doc["L"]["110"]["a"] = encode(doc["L"]["110"]["a"])
    _assert_rejected(doc)


@pytest.mark.parametrize("encode", NOT_INTEGERS, ids=ENCODING_IDS)
def test_degree_must_be_an_integer(encode):
    doc = building_data_to_dict(construct_family(3))
    doc["L"]["100"]["degree"] = encode(doc["L"]["100"]["degree"])
    _assert_rejected(doc)


@pytest.mark.parametrize("encode", NOT_INTEGERS, ids=ENCODING_IDS)
@pytest.mark.parametrize("where", ["points_c", "L"])
def test_tors_entries_must_be_integers(encode, where):
    doc = building_data_to_dict(construct_family(3))
    tors = doc["points_c"]["F1"]["tors"] if where == "points_c" else doc["L"]["110"]["pic0"]["tors"]
    tors[0] = encode(tors[0])
    _assert_rejected(doc)


# Free coordinates are checked once per list.  JSON's float tokens, NaN and
# Infinity never reach the checks: the parser refuses them outright.
NOT_FREE_INTEGERS = NOT_INTEGERS + [
    lambda v: None,
    lambda v: float("nan"),
    lambda v: float("inf"),
    lambda v: float("-inf"),
    lambda v: [v],
]
FREE_ENCODING_IDS = ENCODING_IDS + ["null", "nan", "infinity", "minus-infinity", "list"]


@pytest.mark.parametrize("encode", NOT_FREE_INTEGERS, ids=FREE_ENCODING_IDS)
@pytest.mark.parametrize("where", ["points_c", "L"])
def test_free_entries_must_be_integers(encode, where):
    doc = building_data_to_dict(construct_family(3))
    free = doc["points_c"]["F1"]["free"] if where == "points_c" else doc["L"]["110"]["pic0"]["free"]
    free[3] = encode(free[3])
    _assert_rejected(doc)


@pytest.mark.parametrize("free, tors", [
    ([True, 0, 0, 0, 0], (0, 0)),
    ([0, 0, 1.0, 0, 0], (0, 0)),
    ([0, 0, 0, 0, -2.0], (0, 1)),
    ([0, 0, 0, 0, 0], (1.0, 0)),
])
def test_an_element_refuses_a_coordinate_that_dumps_could_not_write(free, tors):
    # True and 1.0 equal 1, but json writes them as true and 1.0, which loads refuses.
    spec = construct_family(2).group_spec
    with pytest.raises(ValueError, match="must be integers"):
        spec.element(free, tors)


def test_zero_coordinates_of_any_type_leave_data_that_round_trips():
    bd = construct_family(2)
    point = bd.group_spec.element([False, 0.0, 1, 0, 0], (False, 0))
    assert point == bd.group_spec.free_generator(2)
    text = dumps(bd._replace(points_c={**bd.points_c, "F9": point}))
    assert dumps(loads(text)) == text


@pytest.mark.parametrize("token", ["1.0", "1e0", "NaN", "Infinity", "-Infinity"])
def test_float_tokens_are_refused_by_the_parser(token):
    text = dumps(construct_family(2)).replace('"schema_version": 1', f'"schema_version": {token}')
    with pytest.raises(FormatError, match="no floats"):
        loads(text)


# Every object carries exactly its keys, and every list and object sits
# where the format puts one.  Each edit below once parsed and verified.
def _add_key(path):
    def edit(doc):
        target = doc
        for step in path:
            target = target[step]
        target["extra"] = 0
    return edit


def _set(path, value):
    def edit(doc):
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return edit


def _drop(path):
    def edit(doc):
        target = doc
        for step in path[:-1]:
            target = target[step]
        del target[path[-1]]
    return edit


MALFORMED_SHAPES = {
    "unknown key at the top level": _add_key(()),
    "unknown key in group_spec": _add_key(("group_spec",)),
    "unknown key in a points_c element": _add_key(("points_c", "F1")),
    "unknown key in an L class": _add_key(("L", "100")),
    "unknown key in a pic0": _add_key(("L", "100", "pic0")),
    "unknown key in a component ref": _add_key(("D", "100", 0)),
    "missing key in an L class": _drop(("L", "100", "a")),
    "missing key in a component ref": _drop(("D", "111", 0, "label")),
    "D entry as an empty string": _set(("D", "001"), ""),
    "D entry as an empty object": _set(("D", "001"), {}),
    "D entry as a string": _set(("D", "100"), "E1"),
    "D entry as null": _set(("D", "001"), None),
    "component ref as a string": _set(("D", "100", 0), "E1"),
    "component ref as a list": _set(("D", "100", 0), ["E", "E1"]),
    "points_p1 entry as a number": _set(("points_p1", 0), 1),
    "points_p1 as a string": _set(("points_p1",), "E1E2E3E4E5E6"),
    "free as an object": _set(("points_c", "F1", "free"), {}),
    "tors as a string": _set(("points_c", "F1", "tors"), "00"),
    "points_c as a list": _set(("points_c",), []),
    "schema_version as true": _set(("schema_version",), True),
}


@pytest.mark.parametrize("edit", MALFORMED_SHAPES.values(), ids=MALFORMED_SHAPES.keys())
def test_malformed_shapes_are_refused(edit):
    doc = building_data_to_dict(construct_family(3))
    edit(doc)
    _assert_rejected(doc)


# A repeated key must be refused: json.loads alone keeps its last copy, so a
# wrong first copy followed by the right one used to verify.  Each case names
# the object, the repeated key and the wrong value written first.
REPEATED_KEYS = {
    "top level": ((), "points_p1", ["X1"]),
    "group_spec": (("group_spec",), "rank", 99),
    "points_c": (("points_c",), "F1", {"free": [0] * 7, "tors": [0, 0]}),
    "L": (("L",), "100", {"a": 4, "degree": 3, "pic0": {"free": [0] * 7, "tors": [0, 0]}}),
    "D": (("D",), "100", []),
    "group element": (("L", "100", "pic0"), "tors", [1, 1]),
    "component ref": (("D", "100", 0), "label", "E9"),
}


def _text_with_repeat(doc, path, key, first):
    """The JSON text of ``doc`` with ``key`` of the object at ``path`` written
    twice: ``first`` before the document's own value."""
    target = doc
    for step in path:
        target = target[step]

    def write(value):
        if isinstance(value, dict):
            items = list(value.items())
            if value is target:
                items.insert(0, (key, first))
            return "{" + ", ".join(f"{json.dumps(k)}: {write(v)}" for k, v in items) + "}"
        if isinstance(value, list):
            return "[" + ", ".join(map(write, value)) + "]"
        return json.dumps(value)

    return write(doc)


@pytest.mark.parametrize("case", REPEATED_KEYS.values(), ids=REPEATED_KEYS.keys())
def test_repeated_keys_are_refused(case):
    bd = construct_family(3)
    text = _text_with_repeat(building_data_to_dict(bd), *case)
    assert building_data_from_dict(json.loads(text)) == bd  # the last copy is the right one
    with pytest.raises(FormatError, match=f"repeated key {case[1]!r}"):
        loads(text)


# A bit-string key is ASCII 0/1 only.  int() reads any Unicode digit, and
# int(s, 2) also skips "_" and surrounding whitespace, so each key below
# once stood for a real index: a wrong L class written before the right one,
# or an empty D entry after the real one, replaced it without a word.
def _torsion_class(a, degree, tors):
    return {"a": a, "degree": degree, "pic0": {"free": [0] * 7, "tors": tors}}


NON_ASCII_KEYS = {
    "L fullwidth 1": ("L", "１00", _torsion_class(4, 3, [0, 0])),
    "L arabic-indic 1": ("L", "1١0", _torsion_class(0, 0, [1, 1])),
    "L underscore": ("L", "0_1", _torsion_class(0, 0, [1, 0])),
    "L leading space": ("L", " 10", _torsion_class(0, 0, [0, 1])),
    "D fullwidth 1": ("D", "１00", []),
    "D arabic-indic 1": ("D", "1١0", []),
    "D underscore": ("D", "1_1", []),
    "D trailing tab": ("D", "111\t", []),
}


@pytest.mark.parametrize("case", NON_ASCII_KEYS.values(), ids=NON_ASCII_KEYS.keys())
def test_bit_string_keys_are_ascii_only(case):
    section, key, value = case
    doc = building_data_to_dict(construct_family(3))
    doc[section] = {key: value, **doc[section]} if section == "L" else {**doc[section], key: value}
    with pytest.raises(FormatError, match="ASCII bits"):
        loads(json.dumps(doc))
