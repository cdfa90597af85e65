"""Known-answer checker: compares what the CLI said with what workloads.py expects.

It runs outside the timed region.  The only program code it calls is the
round trip dumps(loads(text)) == text, which is itself one of the checks.
"""

from __future__ import annotations

import json

from z2covers.serialize import dumps, loads

from workloads import Expect


def problems(expect: Expect, codes: list[int], output: str, doc_text: str | None) -> list[str]:
    """Every way the job's result differs from the known answer; empty if none.

    ``output`` is the stdout of the job's last step, a ``verify --format
    json`` report.  ``doc_text`` is the document the job read.
    """
    found = []
    if tuple(codes) != expect.exit_codes:
        found.append(f"exit codes {codes}, expected {list(expect.exit_codes)}")
    try:
        report = json.loads(output)
    except json.JSONDecodeError:
        return found + ["verify did not print a JSON report"]

    def differs(what: str, got, want) -> None:
        if got != want:
            found.append(f"{what} = {got!r}, expected {want!r}")

    relations = report["relations"]
    differs("relations.ok", relations["ok"], expect.ok)
    differs("relations.pairs_checked", relations["pairs_checked"], expect.pairs_checked)
    differs("failing pairs", len(relations["failures"]), expect.failures)
    differs("smoothness.snc", report["smoothness"]["snc"], True)

    invariants = report["invariants"]
    if expect.invariants is None:
        differs("invariants", invariants, None)
    elif invariants is None:
        found.append("invariants missing")
    else:
        got = tuple(invariants[key] for key in ("k_squared", "p_g", "chi", "q"))
        differs("(K^2, p_g, chi, q)", got, expect.invariants)

    canonical = report["canonical_map"] or {}
    want = expect.canonical
    got = (canonical["degree"], canonical["image_degree"]) if canonical.get("degree") else None
    differs("(canonical degree, image degree)", got, want)

    if expect.oracle is not None:
        oracle = report.get("oracle") or {"error": "no oracle section"}
        if "error" in oracle:
            found.append(f"oracle error: {oracle['error']}")
        else:
            order, factors, ok = expect.oracle
            differs("oracle.order", oracle["order"], order)
            differs("oracle.invariant_factors", tuple(oracle["invariant_factors"]), factors)
            differs("oracle.ok", oracle["ok"], ok)
            differs("oracle.relations_checked", oracle["relations_checked"], expect.pairs_checked)

    if expect.round_trip:
        if doc_text is None:
            found.append("no document to round-trip")
        elif dumps(loads(doc_text)) != doc_text:
            found.append("dumps(loads(text)) differs from text")
    return found
