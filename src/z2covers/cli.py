"""Command line surface: construct, verify, table, sweep.

Exit codes are a stable contract: 0 success, 1 verification failure or
oracle FAIL, 2 usage error (an --out that cannot be written, an oracle that
cannot run on the given curve for data the gate accepts, or a table of data
without the family's shape), 3 an input file that cannot be read or parsed.
A report is built as JSON values and written by one writer: as one JSON
document with a schema_version field and sorted keys, or as text.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Any, Callable

from . import serialize
from .construction import construct_family, relations_table, render_relations_table
from .cover import BuildingData, verify_relations, verify_smoothness
from .curve_oracle import CurveOverFp, find_assignment, realize
from .invariants import canonical_map_degree, compute_invariants

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3

REPORT_SCHEMA_VERSION = 1


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` to the file ``out`` or stdout; a usage error if ``out`` cannot be written."""
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _fail(f"cannot write --out: {exc}", EXIT_USAGE)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _report(args: argparse.Namespace, doc: dict[str, Any], text: Callable[[dict], str]) -> int:
    """Write the report ``doc`` as --format asks (``text`` renders it) with :func:`_emit`."""
    return _emit(serialize.canonical_json(doc) if args.format == "json" else text(doc), args.out)


def cmd_construct(args: argparse.Namespace) -> int:
    if args.n < 2:
        return _fail("--n must be at least 2", EXIT_USAGE)
    halving = None
    if args.halving is not None:
        try:
            halving = [int(part) for part in args.halving.split(",")]
        except ValueError:
            return _fail("--halving must be a comma-separated list of integers", EXIT_USAGE)
    try:
        bd = construct_family(args.n, halving)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    code = _emit(serialize.dumps(bd), args.out)
    if args.out and code == EXIT_OK:
        print(f"wrote building data for n = {args.n} to {args.out}")
    return code


def verify_report(bd: BuildingData) -> dict[str, Any]:
    """The verify report and the one acceptance gate: ``verify``, ``table`` and
    ``sweep`` pass exactly the data it gives invariants.  Only accepted data
    (the relations hold, the branch locus is SNC and its crossings
    independent) get invariants and a canonical map: the formulas describe a
    smooth cover."""
    relations, smoothness = verify_relations(bd), verify_smoothness(bd)
    report: dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "relations": relations,
        "smoothness": smoothness,
        "invariants": None,
        "canonical_map": None,
    }
    if relations.ok and smoothness.snc and smoothness.independent_crossings:
        report["invariants"] = compute_invariants(bd)
        try:
            report["canonical_map"] = canonical_map_degree(bd)
        except ValueError as exc:
            report["canonical_map"] = {"note": str(exc)}
    return serialize.plain(report)


def _render_verify_text(report: dict[str, Any]) -> str:
    lines = []
    rel = report["relations"]
    lines.append(f"relations: {'ok' if rel['ok'] else 'FAIL'} ({rel['pairs_checked']} pairs)")
    for failure in rel["failures"]:
        lines.append(f"  pair L{failure['chi']} + L{failure['chi_prime']} violated")
    for chi in rel["trivial_characters"]:
        lines.append(f"  L{chi} is the zero class")
    sm = report["smoothness"]
    keys = ("reduced", "snc", "injective_points", "independent_crossings")
    lines.append("smoothness: " + " ".join(f"{key}={sm[key]}" for key in keys))
    inv = report["invariants"]
    if inv:
        lines.append(
            f"invariants: K^2={inv['k_squared']} p_g={inv['p_g']} "
            f"chi(O)={inv['chi']} q={inv['q']}"
        )
    cm = report["canonical_map"]
    if cm:
        if cm.get("degree") is not None:
            lines.append(
                f"canonical map: degree={cm['degree']} image_degree={cm['image_degree']} "
                f"base_point_free={cm['base_point_free']}"
            )
        else:
            lines.append(f"canonical map: {cm.get('note')}")
    oracle = report.get("oracle")
    if oracle:
        if "error" in oracle:
            lines.append(f"oracle: error: {oracle['error']}")
        else:
            lines.append(
                f"oracle: curve order {oracle['order']}, factors {oracle['invariant_factors']}, "
                f"{'ok' if oracle['ok'] else 'FAIL'}"
            )
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        bd = serialize.load(args.file)
    except serialize.FormatError as exc:
        return _fail(str(exc), EXIT_PARSE)
    report = verify_report(bd)
    if args.oracle:
        try:
            curve = CurveOverFp(args.oracle_prime, args.oracle_a, args.oracle_b)
            order, factors = curve.group_structure()
            assignment = find_assignment(bd, curve)
            result = realize(bd, curve, assignment)
            header = {"prime": curve.p, "a": curve.a, "b": curve.b, "order": order,
                      "invariant_factors": list(factors)}
            report["oracle"] = header | serialize.plain(result)
        except ValueError as exc:
            report["oracle"] = {"error": str(exc)}
    written = _report(args, report, _render_verify_text)
    if written != EXIT_OK:
        return written
    if report["invariants"] is None:  # the gate decides before the oracle
        return EXIT_VERIFICATION
    oracle = report.get("oracle", {"ok": True})
    if "error" in oracle:
        return EXIT_USAGE
    return EXIT_OK if oracle["ok"] else EXIT_VERIFICATION


def cmd_table(args: argparse.Namespace) -> int:
    try:
        bd = serialize.load(args.file)
    except serialize.FormatError as exc:
        return _fail(str(exc), EXIT_PARSE)
    try:
        rows = relations_table(bd)
    except ValueError as exc:  # the file parses, but its data is not of the family
        return _fail(str(exc), EXIT_USAGE)
    doc = {"schema_version": REPORT_SCHEMA_VERSION, "rows": rows}
    written = _report(args, doc, lambda doc: render_relations_table(doc["rows"]) + "\n")
    accepted = verify_report(bd)["invariants"] is not None
    return written or (EXIT_OK if accepted else EXIT_VERIFICATION)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        lo_text, hi_text = args.range.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        return _fail("range must look like 3..10", EXIT_USAGE)
    if not 2 <= lo <= hi <= 64:
        return _fail("need 2 <= min <= max <= 64", EXIT_USAGE)
    rows = []
    for n in range(lo, hi + 1):
        report = verify_report(construct_family(n))
        inv, cm = report["invariants"], report["canonical_map"]
        if inv is None:
            return _fail(f"family member n = {n} fails verification", EXIT_VERIFICATION)
        rows.append({"n": n} | {key: inv[key] for key in ("k_squared", "p_g", "q")}
                    | {key: cm[key] for key in ("image_degree", "degree", "base_point_free")})
    doc = {"schema_version": REPORT_SCHEMA_VERSION, "rows": rows}
    return _report(args, doc, _render_sweep_text)


def _render_sweep_text(doc: dict[str, Any]) -> str:
    lines = ["   n    K^2    p_g   q   deg(Im)  degree  bpf"]
    for row in doc["rows"]:
        lines.append(
            f"{row['n']:>4} {row['k_squared']:>6} {row['p_g']:>6} "
            f"{row['q']:>3} {row['image_degree']:>9} {row['degree']:>7}  "
            f"{str(row['base_point_free']).lower()}"
        )
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2covers",
        description="Construct and verify Z2^n covers of P1 x (elliptic curve).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="emit building data for the family")
    p_construct.add_argument("--n", type=int, required=True, help="number of halved fibers (>= 2)")
    p_construct.add_argument("--halving", help="comma-separated 2-torsion choices, one per fiber (0..3)")
    p_construct.add_argument("--out", help="output path (default: stdout)")
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="verify a building-data file")
    p_verify.add_argument("file")
    p_verify.add_argument("--oracle", action="store_true", help="re-check on a concrete curve")
    p_verify.add_argument("--oracle-prime", type=int, default=2003)
    p_verify.add_argument("--oracle-a", type=int, default=-1)
    p_verify.add_argument("--oracle-b", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="render the six relations among the generator classes")
    p_table.add_argument("file")
    p_table.set_defaults(func=cmd_table)

    p_sweep = sub.add_parser("sweep", help="invariants across a range of n")
    p_sweep.add_argument("range", help="inclusive range, e.g. 3..10")
    p_sweep.set_defaults(func=cmd_sweep)

    for reporter in (p_verify, p_table, p_sweep):
        reporter.add_argument("--format", choices=("text", "json"), default="text")
        reporter.add_argument("--out", help="write the report here instead of stdout")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call.

    Parsing leaves it unchanged, and argparse looks up ``sys.stdout`` and
    ``sys.stderr`` when it prints, so sharing it changes no output.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
