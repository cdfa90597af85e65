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
(read as empty) and rejects everything else malformed with FormatError;
rank, torsion orders, a, degree, free and tors entries must be JSON
integers, and no float, NaN or Infinity is accepted anywhere.

:func:`dumps` writes the canonical text itself, byte for byte what
``json.dumps(doc, sort_keys=True, indent=2)`` writes, but each flat list of
integers (every ``free`` and ``tors``) in one C-level join: the standard
library's indenting encoder is pure Python and walks those lists one
integer at a time.
"""

from __future__ import annotations

import json
from typing import Any

from .abgroup import GroupElement, GroupSpec
from .characters import Character, CoverElement
from .cover import BranchComponent, BuildingData, EllipticFiber, RationalFiber
from .picard import CurveClass, PointOnC, PointOnP1, SurfaceClass

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """The document does not follow the building-data file format."""


def _integer(value: Any, field: str) -> int:
    if type(value) is not int:  # bool, float and str are refused, not converted
        raise FormatError(f"{field} must be a JSON integer, got {value!r}")
    return value


def element_to_dict(element: GroupElement) -> dict[str, Any]:
    return {"free": list(element.free), "tors": list(element.tors)}


def element_from_dict(doc: Any, spec: GroupSpec) -> GroupElement:
    try:
        free = tuple(doc["free"])
        if not set(map(type, free)) <= {int}:  # one C-level pass; bool is not int here
            bad = next(v for v in free if type(v) is not int)
            raise FormatError(f"free coordinates must be JSON integers, got {bad!r}")
        return spec.element(free, tuple(_integer(t, "tors") for t in doc["tors"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise FormatError(f"bad group element: {exc}") from exc


def surface_class_to_dict(cls: SurfaceClass) -> dict[str, Any]:
    return {
        "a": cls.a,
        "degree": cls.c.degree,
        "pic0": element_to_dict(cls.c.pic0),
    }


def surface_class_from_dict(doc: Any, spec: GroupSpec) -> SurfaceClass:
    try:
        return SurfaceClass(
            _integer(doc["a"], "a"),
            CurveClass(_integer(doc["degree"], "degree"), element_from_dict(doc["pic0"], spec)),
        )
    except (TypeError, KeyError) as exc:
        raise FormatError(f"bad surface class: {exc}") from exc


def building_data_to_dict(bd: BuildingData) -> dict[str, Any]:
    def component_ref(comp: BranchComponent) -> dict[str, str]:
        return {"kind": comp.kind, "label": comp.label}

    return {
        "schema_version": SCHEMA_VERSION,
        "group_spec": {
            "rank": bd.group_spec.rank,
            "torsion": list(bd.group_spec.torsion_orders),
        },
        "points_c": {
            label: element_to_dict(point.aj) for label, point in bd.points_c.items()
        },
        "points_p1": [point.label for point in bd.points_p1],
        "L": {str(chi): surface_class_to_dict(cls) for chi, cls in bd.L.items()},
        "D": {
            str(sigma): [component_ref(c) for c in comps]
            for sigma, comps in bd.D.items()
        },
    }


def building_data_from_dict(doc: Any) -> BuildingData:
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version {doc.get('schema_version')!r}")
    try:
        spec = GroupSpec(
            _integer(doc["group_spec"]["rank"], "rank"),
            tuple(_integer(m, "torsion order") for m in doc["group_spec"]["torsion"]),
        )
        points_c = {
            label: PointOnC(label, element_from_dict(entry, spec))
            for label, entry in doc["points_c"].items()
        }
        points_p1 = tuple(PointOnP1(label) for label in doc["points_p1"])
        L = {
            Character.from_string(key): surface_class_from_dict(entry, spec)
            for key, entry in doc["L"].items()
        }
        if not L:
            raise FormatError("no characters present")
        lengths = {chi.n for chi in L}
        if len(lengths) != 1:
            raise FormatError("characters of mixed bit length")
        (n,) = lengths

        def component(ref: Any) -> BranchComponent:
            kind, label = ref["kind"], ref["label"]
            if kind == "E":
                return EllipticFiber(PointOnP1(label))
            if kind == "F":
                if label not in points_c:
                    raise FormatError(f"branch component over unknown point {label!r}")
                return RationalFiber(points_c[label])
            raise FormatError(f"unknown component kind {kind!r}")

        D = {
            CoverElement.from_string(key): tuple(component(ref) for ref in refs)
            for key, refs in doc["D"].items()
        }
        return BuildingData(n, spec, points_c, points_p1, L, D)
    except FormatError:
        raise
    except (TypeError, KeyError, ValueError, AttributeError) as exc:
        raise FormatError(f"malformed building data: {exc}") from exc


def _encode(value: Any, pad: str, out: list[str]) -> None:
    """Append the canonical text of ``value`` to ``out``; ``pad`` is the
    indentation of the line the value starts on."""
    if type(value) is dict and value:
        brackets, items = "{}", ((json.dumps(key) + ": ", value[key]) for key in sorted(value))
    elif type(value) is list and value:
        if set(map(type, value)) <= {int}:  # every free and tors list: one C-level join
            inner = pad + "  "
            out.append(f"[\n{inner}" + f",\n{inner}".join(map(str, value)) + f"\n{pad}]")
            return
        brackets, items = "[]", (("", item) for item in value)
    else:  # a scalar, or an empty list or object
        out.append(json.dumps(value))
        return
    inner = pad + "  "
    sep = brackets[0] + "\n"
    for prefix, item in items:
        out.append(sep + inner + prefix)
        _encode(item, inner, out)
        sep = ",\n"
    out.append(f"\n{pad}{brackets[1]}")


def dumps(bd: BuildingData) -> str:
    out: list[str] = []
    _encode(building_data_to_dict(bd), "", out)
    out.append("\n")
    return "".join(out)


def _refuse(token: str) -> None:
    raise FormatError(f"{token} is not a JSON integer; the format has no floats")


def loads(text: str) -> BuildingData:
    try:
        doc = json.loads(text, parse_float=_refuse, parse_constant=_refuse)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    return building_data_from_dict(doc)


def save(bd: BuildingData, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(bd))


def load(path: str) -> BuildingData:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
