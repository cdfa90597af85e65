"""Command line surface: construct, verify, table, sweep.

Exit codes are a stable contract: 0 success, 1 verification failure or
oracle FAIL, 2 usage error or an oracle that cannot run on the given curve,
3 file parse error.  Machine-readable reports are single JSON documents
with a schema_version field and deterministic key order.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Any

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


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_construct(args: argparse.Namespace) -> int:
    if args.n < 2:
        return _fail("--n must be at least 2", EXIT_USAGE)
    halving = None
    if args.halving:
        try:
            halving = [int(part) for part in args.halving.split(",")]
        except ValueError:
            return _fail("--halving must be a comma-separated list of integers", EXIT_USAGE)
    try:
        bd = construct_family(args.n, halving)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    text = serialize.dumps(bd)
    _emit(text, args.out)
    if args.out:
        print(f"wrote building data for n = {args.n} to {args.out}")
    return EXIT_OK


def verify_report(bd: BuildingData) -> dict[str, Any]:
    relations = verify_relations(bd)
    smoothness = verify_smoothness(bd)
    report: dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "relations": {
            "ok": relations.ok,
            "pairs_checked": relations.pairs_checked,
            "failures": [
                {
                    "chi": str(f.chi),
                    "chi_prime": str(f.chi_prime),
                    "lhs": serialize.surface_class_to_dict(f.lhs),
                    "rhs": serialize.surface_class_to_dict(f.rhs),
                }
                for f in relations.failures
            ],
            "trivial_characters": [str(chi) for chi in relations.trivial_characters],
        },
        "smoothness": {
            "reduced": smoothness.reduced,
            "snc": smoothness.snc,
            "injective_points": smoothness.injective_points,
        },
        "invariants": None,
        "canonical_map": None,
    }
    if relations.ok:
        invariants = compute_invariants(bd)
        report["invariants"] = {
            "k_squared": invariants.k_squared,
            "p_g": invariants.p_g,
            "chi": invariants.chi,
            "q": invariants.q,
            "h0_by_character": {
                str(chi): value for chi, value in invariants.h0_by_character.items()
            },
        }
        try:
            cm = canonical_map_degree(bd)
            report["canonical_map"] = {
                "factors_through_cover": cm.factors_through_cover,
                "degree": cm.degree,
                "image_degree": cm.image_degree,
                "base_point_free": cm.base_point_free,
                "note": cm.note,
            }
        except ValueError as exc:
            report["canonical_map"] = {"note": str(exc)}
    return report


def _render_verify_text(report: dict[str, Any]) -> str:
    lines = []
    rel = report["relations"]
    lines.append(f"relations: {'ok' if rel['ok'] else 'FAIL'} ({rel['pairs_checked']} pairs)")
    for failure in rel["failures"]:
        lines.append(f"  pair L{failure['chi']} + L{failure['chi_prime']} violated")
    for chi in rel["trivial_characters"]:
        lines.append(f"  L{chi} is the zero class")
    sm = report["smoothness"]
    lines.append(
        "smoothness: "
        f"reduced={sm['reduced']} snc={sm['snc']} injective_points={sm['injective_points']}"
    )
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
    except (OSError, serialize.FormatError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    report = verify_report(bd)
    if args.oracle:
        try:
            curve = CurveOverFp(args.oracle_prime, args.oracle_a, args.oracle_b)
            order, factors = curve.group_structure()
            assignment = find_assignment(bd, curve)
            result = realize(bd, curve, assignment)
            report["oracle"] = {
                "prime": curve.p,
                "a": curve.a,
                "b": curve.b,
                "order": order,
                "invariant_factors": list(factors),
                "ok": result.ok,
                "relations_checked": result.relations_checked,
                "relation_failures": [
                    [str(chi), str(chi_prime)]
                    for chi, chi_prime in result.relation_failures
                ],
                "injective": result.injective,
                "torsion_faithful": result.torsion_faithful,
            }
        except ValueError as exc:
            report["oracle"] = {"error": str(exc)}
    if args.format == "json":
        _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(_render_verify_text(report), args.out)
    oracle = report.get("oracle", {"ok": True})
    if "error" in oracle:
        return EXIT_USAGE
    passed = report["relations"]["ok"] and report["smoothness"]["snc"] and oracle["ok"]
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_table(args: argparse.Namespace) -> int:
    try:
        bd = serialize.load(args.file)
    except (OSError, serialize.FormatError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    try:
        rows = relations_table(bd)
    except ValueError as exc:
        return _fail(str(exc), EXIT_PARSE)
    if args.format == "json":
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "rows": [
                {
                    "lhs": list(row.lhs_terms),
                    "middle": list(row.middle_terms),
                    "rhs": row.rhs_symbol,
                    "equal": row.equal,
                }
                for row in rows
            ],
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(render_relations_table(rows) + "\n", args.out)
    return EXIT_OK if all(row.equal for row in rows) else EXIT_VERIFICATION


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
        bd = construct_family(n)
        invariants = compute_invariants(bd)
        cm = canonical_map_degree(bd)
        rows.append(
            {
                "n": n,
                "k_squared": invariants.k_squared,
                "p_g": invariants.p_g,
                "q": invariants.q,
                "image_degree": cm.image_degree,
                "degree": cm.degree,
                "base_point_free": cm.base_point_free,
            }
        )
    if args.format == "json":
        doc = {"schema_version": REPORT_SCHEMA_VERSION, "rows": rows}
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = ["   n    K^2    p_g   q   deg(Im)  degree  bpf"]
        for row in rows:
            lines.append(
                f"{row['n']:>4} {row['k_squared']:>6} {row['p_g']:>6} "
                f"{row['q']:>3} {row['image_degree']:>9} {row['degree']:>7}  "
                f"{str(row['base_point_free']).lower()}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


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
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", help="write the report here instead of stdout")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="render the six defining relations")
    p_table.add_argument("file")
    p_table.add_argument("--format", choices=("text", "json"), default="text")
    p_table.add_argument("--out")
    p_table.set_defaults(func=cmd_table)

    p_sweep = sub.add_parser("sweep", help="invariants across a range of n")
    p_sweep.add_argument("range", help="inclusive range, e.g. 3..10")
    p_sweep.add_argument("--format", choices=("text", "json"), default="text")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)
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
