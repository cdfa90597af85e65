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

Characters and group elements are keyed by their bit strings.  The data in
memory has the same shape: ``points_c`` maps labels to group elements,
``points_p1`` is the tuple of labels, and each entry of D is a
``Fiber(kind, label)``, so reading and writing convert only group elements,
classes and bit strings.  Emission is canonical: keys sorted, two-space
indent, trailing newline, every branch index present even when empty.  Parsing tolerates missing branch indices
(read as empty) and rejects everything else malformed with FormatError:
every object must carry exactly its keys, each of them once; rank, torsion
orders, a, degree, free and tors entries must be JSON integers; and no
float, NaN or Infinity is accepted anywhere.  A file that cannot be read,
is not UTF-8, or has integers or nesting beyond what ``json.loads`` takes
is a FormatError too.  Beyond this JSON shape the data is checked once, by
:class:`BuildingData`, and its ValueError reads "malformed building data: ...".

:func:`dumps` writes the canonical text itself, byte for byte what
``json.dumps(doc, sort_keys=True, indent=2)`` writes; :func:`canonical_json`
does the same for any JSON value, such as the command line's reports, which
:func:`plain` makes of the verdicts.  A group element is written from its
nonzero free coordinates: each run of k zeros between them is one string
repeated k times, so the Python work per element is O(nonzeros) although
the text stays dense.
"""

from __future__ import annotations

import json
import operator
import sys
from collections import Counter
from collections.abc import Mapping
from typing import Any

from .abgroup import GroupElement, GroupSpec
from .characters import Character, CoverElement
from .cover import BuildingData, Fiber
from .picard import SurfaceClass

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


def surface_class_from_dict(doc: Any, spec: GroupSpec) -> SurfaceClass:
    doc = _object(doc, "surface class", _CLASS_KEYS)
    return SurfaceClass(
        _integer(doc["a"], "a"),
        _integer(doc["degree"], "degree"),
        element_from_dict(doc["pic0"], spec),
    )


def plain(verdict: Any) -> Any:
    """``verdict`` as JSON values: a group element as in the file, a Z₂ⁿ vector as its bit
    string, a named tuple by field name (so a surface class as in the file), a mapping with
    string keys, any other tuple as a list."""
    if type(verdict) is GroupElement:
        return {"free": list(verdict.free), "tors": list(verdict.tors)}
    if isinstance(verdict, (Character, CoverElement)):
        return str(verdict)
    if isinstance(verdict, Mapping):
        return {str(key): plain(value) for key, value in verdict.items()}
    if isinstance(verdict, tuple):
        if hasattr(verdict, "_fields"):
            return {name: plain(value) for name, value in zip(verdict._fields, verdict)}
        return [plain(value) for value in verdict]
    return verdict


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
            label: element_from_dict(entry, spec)
            for label, entry in _object(doc["points_c"], "points_c").items()
        }
        points_p1 = _array(doc["points_p1"], "points_p1")
        if not set(map(type, points_p1)) <= {str}:
            raise FormatError("points_p1 entries must be JSON strings")
        L = {
            Character.from_string(key): surface_class_from_dict(entry, spec)
            for key, entry in _object(doc["L"], "L").items()
        }

        def fiber(ref: Any) -> Fiber:
            ref = _object(ref, "branch component", _COMPONENT_KEYS)
            if type(ref["label"]) is not str:
                raise FormatError("branch component labels must be JSON strings")
            return Fiber(ref["kind"], ref["label"])

        D = {
            CoverElement.from_string(key): tuple(map(fiber, _array(refs, f"D[{key!r}]")))
            for key, refs in _object(doc["D"], "D").items()
        }
        return BuildingData(spec, points_c, points_p1, L, D)
    except FormatError:
        raise
    except (TypeError, KeyError, ValueError, AttributeError) as exc:
        raise FormatError(f"malformed building data: {exc}") from exc


def _encode_element(x: GroupElement, pad: str, out: list[str]) -> None:
    """Append the canonical text of ``{"free": x.free, "tors": x.tors}``;
    ``pad`` is the indentation of the line it starts on."""
    inner = pad + "  "
    sep = ",\n" + inner + "  "
    free = ""
    if x.spec.rank:
        zero = "0" + sep
        entries, done = [], 0
        for i, v in x.terms:  # the run of zeros before each term, then the term
            entries.append(zero * (i - done))
            entries.append(f"{v}{sep}")
            done = i + 1
        entries.append(zero * (x.spec.rank - done))
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
    doc = {
        "schema_version": SCHEMA_VERSION,
        "group_spec": {
            "rank": bd.group_spec.rank,
            "torsion": list(bd.group_spec.torsion_orders),
        },
        "points_c": dict(bd.points_c),
        "points_p1": list(bd.points_p1),
        "L": {
            str(chi): {"a": cls.a, "degree": cls.degree, "pic0": cls.pic0}
            for chi, cls in bd.L.items()
        },
        "D": {
            str(sigma): [{"kind": fiber.kind, "label": fiber.label} for fiber in fibers]
            for sigma, fibers in bd.D.items()
        },
    }
    return canonical_json(doc)  # _encode writes each GroupElement itself


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
    except FormatError:
        raise
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # the interpreter's digit limit; its text advises a Python call
        limit = sys.get_int_max_str_digits()
        raise FormatError(f"an integer has more than {limit} digits") from exc
    return building_data_from_dict(doc)


def load(path: str) -> BuildingData:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(str(exc)) from exc
    return loads(text)
