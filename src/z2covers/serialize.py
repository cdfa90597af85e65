"""Canonical JSON file format for building data.

A building-data document is a single JSON object:

    {
      "schema_version": 1,
      "group_spec": {"rank": 7, "torsion": [2, 2]},
      "points_c":   {"F1": {"free": [...], "tors": [...]}, ...},
      "points_p1":  ["E1", "E2", ...],
      "L": {"100": {"a": 3, "degree": 3, "pic0": {"free": ..., "tors": ...}}, ...},
      "D": {"100": [{"kind": "E", "label": "E1"}, ...], "001": [], ...}
    }

Characters and group elements are keyed by their bit strings.  Emission is
canonical: keys sorted, two-space indent, trailing newline, every branch
index present even when empty.  Parsing tolerates missing branch indices
(read as empty) and rejects everything else malformed with FormatError:
every object must carry exactly its keys, each of them once; rank, torsion
orders, a, degree, free and tors entries must be JSON integers; and no
float, NaN or Infinity is accepted anywhere.

:func:`dumps` writes the canonical text itself, byte for byte what
``json.dumps(doc, sort_keys=True, indent=2)`` writes; :func:`canonical_json`
does the same for any JSON value, such as the command line's reports.  A group element is
written from its nonzero free coordinates: each run of zeros between them
is a slice of one block of zero lines, so the Python work per element is
O(nonzeros) although the text stays dense.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from functools import lru_cache
from typing import Any, Callable

from .abgroup import GroupElement, GroupSpec
from .characters import Character, CoverElement
from .cover import BranchComponent, BuildingData, EllipticFiber, RationalFiber
from .picard import CurveClass, PointOnC, PointOnP1, SurfaceClass

# The C function json.dumps calls to quote a str (ensure_ascii is its default).
_quote = json.encoder.encode_basestring_ascii

SCHEMA_VERSION = 1

_DOCUMENT_KEYS = frozenset({"schema_version", "group_spec", "points_c", "points_p1", "L", "D"})
_GROUP_SPEC_KEYS = frozenset({"rank", "torsion"})
_ELEMENT_KEYS = frozenset({"free", "tors"})
_CLASS_KEYS = frozenset({"a", "degree", "pic0"})
_COMPONENT_KEYS = frozenset({"kind", "label"})


class FormatError(ValueError):
    """The document does not follow the building-data file format."""


def _integer(value: Any, field: str) -> int:
    if type(value) is not int:  # bool, float and str are refused, not converted
        raise FormatError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _object(value: Any, what: str, keys: frozenset[str] | None = None) -> dict:
    """``value`` itself, once it is a JSON object with exactly ``keys`` (any
    keys when None)."""
    if type(value) is not dict:
        raise FormatError(f"{what} must be a JSON object, got {value!r:.60}")
    if keys is not None and value.keys() != keys:
        raise FormatError(f"{what} must have the keys {sorted(keys)}, got {sorted(value)}")
    return value


def _array(value: Any, what: str) -> list:
    if type(value) is not list:
        raise FormatError(f"{what} must be a JSON array, got {value!r:.60}")
    return value


def element_to_dict(element: GroupElement) -> dict[str, Any]:
    return {"free": list(element.free), "tors": list(element.tors)}


def element_from_dict(doc: Any, spec: GroupSpec) -> GroupElement:
    doc = _object(doc, "group element", _ELEMENT_KEYS)
    free = _array(doc["free"], "free")
    if operator.countOf(map(type, free), int) != len(free):  # one C-level pass; bool is not int
        bad = next(v for v in free if type(v) is not int)
        raise FormatError(f"free coordinates must be JSON integers, got {bad!r}")
    tors = tuple(_integer(t, "tors") for t in _array(doc["tors"], "tors"))
    try:
        return spec.element(free, tors)
    except ValueError as exc:
        raise FormatError(f"bad group element: {exc}") from exc


def _surface_class(cls: SurfaceClass, element: Callable[[GroupElement], Any]) -> dict[str, Any]:
    return {"a": cls.a, "degree": cls.c.degree, "pic0": element(cls.c.pic0)}


def surface_class_to_dict(cls: SurfaceClass) -> dict[str, Any]:
    return _surface_class(cls, element_to_dict)


def surface_class_from_dict(doc: Any, spec: GroupSpec) -> SurfaceClass:
    doc = _object(doc, "surface class", _CLASS_KEYS)
    return SurfaceClass(
        _integer(doc["a"], "a"),
        CurveClass(_integer(doc["degree"], "degree"), element_from_dict(doc["pic0"], spec)),
    )


def _document(bd: BuildingData, element: Callable[[GroupElement], Any]) -> dict[str, Any]:
    """The document tree, with each group element as ``element`` renders it."""

    def component_ref(comp: BranchComponent) -> dict[str, str]:
        return {"kind": comp.kind, "label": comp.label}

    return {
        "schema_version": SCHEMA_VERSION,
        "group_spec": {
            "rank": bd.group_spec.rank,
            "torsion": list(bd.group_spec.torsion_orders),
        },
        "points_c": {label: element(point.aj) for label, point in bd.points_c.items()},
        "points_p1": [point.label for point in bd.points_p1],
        "L": {str(chi): _surface_class(cls, element) for chi, cls in bd.L.items()},
        "D": {
            str(sigma): [component_ref(c) for c in comps]
            for sigma, comps in bd.D.items()
        },
    }


def building_data_to_dict(bd: BuildingData) -> dict[str, Any]:
    return _document(bd, element_to_dict)


def building_data_from_dict(doc: Any) -> BuildingData:
    doc = _object(doc, "document")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version {version!r}")
    if doc.keys() != _DOCUMENT_KEYS:
        raise FormatError(
            f"document must have the keys {sorted(_DOCUMENT_KEYS)}, got {sorted(doc)}"
        )
    group_spec = _object(doc["group_spec"], "group_spec", _GROUP_SPEC_KEYS)
    try:
        spec = GroupSpec(
            _integer(group_spec["rank"], "rank"),
            tuple(_integer(m, "torsion order") for m in _array(group_spec["torsion"], "torsion")),
        )
        points_c = {
            label: PointOnC(label, element_from_dict(entry, spec))
            for label, entry in _object(doc["points_c"], "points_c").items()
        }
        p1_labels = _array(doc["points_p1"], "points_p1")
        if not set(map(type, p1_labels)) <= {str}:
            raise FormatError("points_p1 entries must be JSON strings")
        points_p1 = tuple(map(PointOnP1, p1_labels))
        L = {
            Character.from_string(key): surface_class_from_dict(entry, spec)
            for key, entry in _object(doc["L"], "L").items()
        }
        if not L:
            raise FormatError("no characters present")
        lengths = {chi.n for chi in L}
        if len(lengths) != 1:
            raise FormatError("characters of mixed bit length")
        (n,) = lengths

        def component(ref: Any) -> BranchComponent:
            ref = _object(ref, "branch component", _COMPONENT_KEYS)
            kind, label = ref["kind"], ref["label"]
            if kind == "E":
                return EllipticFiber(PointOnP1(label))
            if kind == "F":
                if label not in points_c:
                    raise FormatError(f"branch component over unknown point {label!r}")
                return RationalFiber(points_c[label])
            raise FormatError(f"unknown component kind {kind!r}")

        D = {
            CoverElement.from_string(key): tuple(map(component, _array(refs, f"D[{key!r}]")))
            for key, refs in _object(doc["D"], "D").items()
        }
        return BuildingData(n, spec, points_c, points_p1, L, D)
    except FormatError:
        raise
    except (TypeError, KeyError, ValueError, AttributeError) as exc:
        raise FormatError(f"malformed building data: {exc}") from exc


@lru_cache(maxsize=8)
def _zero_lines(sep: str, count: int) -> str:
    """``count`` zero entries of an indented integer list, each followed by ``sep``."""
    return ("0" + sep) * count


def _encode_element(x: GroupElement, pad: str, out: list[str]) -> None:
    """Append the canonical text of ``{"free": x.free, "tors": x.tors}``;
    ``pad`` is the indentation of the line it starts on."""
    inner = pad + "  "
    sep = ",\n" + inner + "  "
    free = ""
    if x.spec.rank:
        zeros, width = _zero_lines(sep, x.spec.rank), len(sep) + 1
        entries, done = [], 0
        for i, v in x.terms:  # the zeros before each term are a slice of the block
            entries.append(zeros[: (i - done) * width])
            entries.append(f"{v}{sep}")
            done = i + 1
        entries.append(zeros[: (x.spec.rank - done) * width])
        free = "".join(entries)[: -len(sep)]
    tors = sep.join(map(str, x.tors))
    out.append(
        f'{{\n{inner}"free": {_list(free, inner)},\n{inner}"tors": {_list(tors, inner)}\n{pad}}}'
    )


def _list(entries: str, pad: str) -> str:
    """A list of the already separated ``entries``, its brackets on lines at ``pad``."""
    return f"[\n{pad}  {entries}\n{pad}]" if entries else "[]"


def _encode(value: Any, pad: str, out: list[str]) -> None:
    """Append the canonical text of ``value`` to ``out``; ``pad`` is the
    indentation of the line the value starts on."""
    if type(value) is GroupElement:
        _encode_element(value, pad, out)
        return
    if type(value) is dict and value:
        brackets, items = "{}", ((_quote(key) + ": ", value[key]) for key in sorted(value))
    elif type(value) is list and value:
        brackets, items = "[]", (("", item) for item in value)
    elif type(value) is str:
        out.append(_quote(value))
        return
    elif type(value) is int:
        out.append(str(value))
        return
    else:  # any other scalar, or an empty list or object
        out.append(json.dumps(value))
        return
    inner = pad + "  "
    sep = brackets[0] + "\n"
    for prefix, item in items:
        out.append(sep + inner + prefix)
        _encode(item, inner, out)
        sep = ",\n"
    out.append(f"\n{pad}{brackets[1]}")


def canonical_json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + "\n"``, without the pure-Python encoder."""
    out: list[str] = []
    _encode(value, "", out)
    out.append("\n")
    return "".join(out)


def dumps(bd: BuildingData) -> str:
    return canonical_json(_document(bd, lambda element: element))


def _refuse(token: str) -> None:
    raise FormatError(f"{token} is not a JSON integer; the format has no floats")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The object of ``pairs``; json.loads alone would keep the last of a repeated key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise FormatError(f"repeated key {repeated!r} in one JSON object")
    return obj


def loads(text: str) -> BuildingData:
    try:
        doc = json.loads(
            text, object_pairs_hook=_unique_keys, parse_float=_refuse, parse_constant=_refuse
        )
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    return building_data_from_dict(doc)


def save(bd: BuildingData, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(bd))


def load(path: str) -> BuildingData:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
