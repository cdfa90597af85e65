"""Every single edit of a valid document is refused, fails, or leaves what the verdicts read.

An edit adds or subtracts 1 at one integer of the document, flips one
fiber's kind, or drops one fiber, copies it to another σ or moves it there.
Each edited file goes through ``verify`` and ``table`` in-process: ``table``
exits 0 exactly when ``verify`` does, and each verdict, ``verify``'s and that
of every row ``table`` renders, is checked against the all-pairs references of
the relations and of smoothness.
"""

import json

import pytest

from test_fast_paths import reference_smoothness
from test_relations import reference_verify
from z2covers.characters import Character
from z2covers.cli import main
from z2covers.construction import construct_etale, construct_family
from z2covers.serialize import FormatError, dumps, loads


def single_edits(doc):
    """Yield ``(where, text)`` for each single edit of the document tree ``doc``:
    ``where`` is the path of the integer or fiber edited, ``text`` the edited
    document.  ``doc`` is edited in place and restored before the next edit."""

    def integers(node, path):
        for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
            if type(value) is int:
                yield node, (*path, key)
            elif isinstance(value, (dict, list)):
                yield from integers(value, (*path, key))

    for node, where in list(integers(doc, ())):
        for delta in (1, -1):
            node[where[-1]] += delta
            yield where, json.dumps(doc)
            node[where[-1]] -= delta
    D = doc["D"]
    for sigma, fibers in D.items():
        for j, fiber in enumerate(fibers):
            where = ("D", sigma, j)
            kind = fiber["kind"]
            fiber["kind"] = "F" if kind == "E" else "E"
            yield where, json.dumps(doc)
            fiber["kind"] = kind
            del fibers[j]
            yield where, json.dumps(doc)
            fibers.insert(j, fiber)
            for other in D:
                if other != sigma:
                    D[other].append(fiber)
                    yield where, json.dumps(doc)  # copied
                    del fibers[j]
                    yield where, json.dumps(doc)  # moved
                    fibers.insert(j, fiber)
                    D[other].pop()


def accepted_by_the_references(bd):
    smooth = reference_smoothness(bd)
    if not (smooth.snc and smooth.independent_crossings):
        return False
    _, failures, trivial = reference_verify(bd)
    return not failures and not trivial


@pytest.mark.parametrize(
    "bd", [construct_family(3), construct_family(8), construct_etale(3)],
    ids=["family3", "family8", "etale3"],
)
def test_every_single_edit_is_refused_fails_or_touches_an_unnamed_point(tmp_path, capsys, bd):
    doc = json.loads(dumps(bd))
    named = {fiber["label"] for fibers in doc["D"].values() for fiber in fibers}
    path = tmp_path / "edited.bd.json"
    exits, rendered = [], 0
    for where, text in single_edits(doc):
        path.write_text(text, encoding="utf-8")
        try:
            verified = main(["verify", str(path)])
            capsys.readouterr()
            tabled = main(["table", str(path), "--format", "json"])
        except Exception as exc:  # a traceback is never an answer
            raise AssertionError(f"the edit at {where} raised") from exc
        table = capsys.readouterr().out
        exits.append(verified)
        assert (tabled == 0) == (verified == 0), (
            f"table exits {tabled} and verify {verified} on the edit at {where}")
        try:
            edited = loads(text)
        except FormatError:
            assert verified == tabled == 3, where
            continue
        assert verified == (0 if accepted_by_the_references(edited) else 1), where
        if tabled in (0, 1):  # rendered: each row's verdict is the reference's on its pair
            failed = {frozenset(failure[:2]) for failure in reference_verify(edited)[1]}
            for row in json.loads(table)["rows"]:
                pair = frozenset(Character.from_string(term[1:]) for term in row["lhs"])
                assert row["equal"] == (pair not in failed), (where, row)
            rendered += 1
        if verified == 0:
            assert where[0] == "points_c" and where[1] not in named, where
    assert exits.count(1) > 0 and exits.count(3) > 0
    if bd.points_c:
        assert exits.count(0) > 0  # edits of points no fiber names are read by no verdict
        assert rendered > exits.count(0)  # the table renders accepted and failed edits
