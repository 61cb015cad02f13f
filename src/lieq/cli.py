"""Command-line surface: validate, product, centers, capability, verify, catalog.

Inputs are algebra files or ``catalog:<name>``. Exit codes: 0 success (or all
checks verified), 1 a check failed, 2 usage or parse error. Output is
deterministic; ``--format json`` is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from lieq.capability import center_report, coincidence_check
from lieq.errors import LieqError, ValidationError
from lieq.exactlin import dense, describe_factors, ring_name
from lieq.io_catalog import Catalog, report_json, resolve_input, serialize
from lieq.qtensor import q_exterior_product, q_tensor_product
from lieq.verify import SuiteReport, run_suite, single_algebra_pairs


def _parse_q_list(text: str) -> list:
    out = []
    for part in text.split(","):
        q = int(part)
        if q < 0:
            raise argparse.ArgumentTypeError("q must be non-negative")
        out.append(q)
    return out


def _emit(args, payload_json: str, payload_text: str) -> None:
    body = payload_json if args.format == "json" else payload_text
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body if body.endswith("\n") else body + "\n")
    else:
        sys.stdout.write(body if body.endswith("\n") else body + "\n")


def cmd_validate(args) -> int:
    # the algebra is certified when built; a failure exits 1 from main
    g = resolve_input(args.input)
    lines = [
        f"algebra: {g.name}",
        f"ring: {ring_name(g.base_modulus)}",
        f"invariant factors: {list(g.orders)}",
        "validation: ok",
    ]
    payload = {
        "schema_version": 1, "kind": "validate", "algebra": g.name,
        "ok": True, "issues": [], "invariant_factors": list(g.orders),
    }
    _emit(args, json.dumps(payload, sort_keys=True, indent=2), "\n".join(lines))
    return 0


def cmd_product(args) -> int:
    g = resolve_input(args.input)
    results_text = []
    results_json = []
    for q in args.q:
        build = q_tensor_product if args.kind == "tensor" else q_exterior_product
        prod = build(g, None, q)
        names = prod.symbol_names()
        factors = list(prod.invariant_factors())
        lines = [
            f"{g.name}: {args.kind} square at q={q}",
            f"invariant factors: {factors}   ({describe_factors(factors)})",
            f"symbols: {' '.join(names)}",
            "brackets:",
        ]
        table = []
        for (s, t), row in sorted(prod._br.items()):
            combo = " + ".join(f"{c}*{names[k]}" for k, c in row)
            lines.append(f"  [{names[s]}, {names[t]}] = {combo}")
            table.append({"left": names[s], "right": names[t],
                          "value": list(dense(row, prod.nsym))})
        if not table:
            lines.append("  (all zero)")
        results_text.append("\n".join(lines))
        results_json.append({
            "q": q, "kind": args.kind, "invariant_factors": factors,
            "symbols": names, "brackets": table,
        })
    payload = {"schema_version": 1, "kind": "product", "algebra": g.name,
               "results": results_json}
    _emit(args, json.dumps(payload, sort_keys=True, indent=2),
          "\n\n".join(results_text))
    return 0


def cmd_centers(args) -> int:
    g = resolve_input(args.input)
    texts = []
    payloads = []
    for q in args.q:
        rep = center_report(g, q)
        payloads.append(rep.to_json_dict())
        rows = [
            ("center", rep.center), ("q_center", rep.q_center),
            ("tensor_center", rep.tensor_center),
            ("exterior_center", rep.exterior_center),
            ("ellis_tensor_center", rep.ellis_tensor_center),
            ("ellis_exterior_center", rep.ellis_exterior_center),
        ]
        lines = [f"{g.name} at q={q}:"]
        for label, sub in rows:
            lines.append(f"  {label:24s} {list(sub.invariant_factors)}")
        lines.append(f"  q_capable: {rep.q_capable.value} "
                     f"(theorem_backed={rep.q_capable.theorem_backed})")
        lines.append(f"  strongly_q_capable: {rep.strongly_q_capable.value} "
                     f"(theorem_backed={rep.strongly_q_capable.theorem_backed})")
        texts.append("\n".join(lines))
    payload = {"schema_version": 1, "kind": "centers-sweep", "reports": payloads}
    _emit(args, json.dumps(payload, sort_keys=True, indent=2), "\n\n".join(texts))
    return 0


def cmd_capability(args) -> int:
    g = resolve_input(args.input)
    lines = []
    payloads = []
    for q in args.q:
        rep = center_report(g, q)
        coin = coincidence_check(g, q)
        lines.append(
            f"{g.name} q={q}: q_capable={rep.q_capable.value} "
            f"strongly_q_capable={rep.strongly_q_capable.value} "
            f"theorem_backed={rep.q_capable.theorem_backed} "
            f"lambda_q_torsion_free={rep.flags['lambda_q_torsion_free']}")
        payloads.append({
            "q": q,
            "q_capable": rep.q_capable.to_json_dict(),
            "strongly_q_capable": rep.strongly_q_capable.to_json_dict(),
            "flags": rep.flags,
            "coincidence": {
                "hypothesis_met": coin.hypothesis_met,
                "equal": coin.equal,
            },
        })
    payload = {"schema_version": 1, "kind": "capability", "algebra": g.name,
               "results": payloads}
    _emit(args, json.dumps(payload, sort_keys=True, indent=2), "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    if args.input == "catalog":
        entries = Catalog.default_entries()
        pairs = None
    else:
        g = resolve_input(args.input)
        entries = [(g.name, g)]
        pairs = single_algebra_pairs(g.name, g)
    results = run_suite(entries, qs=tuple(args.q), include_oracle=args.oracle,
                        right_exact_pairs=pairs)
    suite = SuiteReport(results)
    lines = [r.line() for r in results]
    lines.append(f"{'ALL CHECKS PASSED' if suite.ok else 'CHECKS FAILED'}: "
                 f"{sum(r.ok for r in results)}/{len(results)}")
    _emit(args, report_json(suite), "\n".join(lines))
    return 0 if suite.ok else 1


def cmd_catalog(args) -> int:
    lines = []
    payload = []
    for name in Catalog.names():
        g = Catalog.get(name)
        ring = ring_name(g.base_modulus)
        lines.append(f"{name:16s} rank={g.rank} over {ring} "
                     f"factors={list(g.orders)}")
        payload.append({"name": name, "ring": ring, "rank": g.rank,
                        "invariant_factors": list(g.orders)})
    _emit(args, json.dumps({"schema_version": 1, "kind": "catalog",
                            "entries": payload}, sort_keys=True, indent=2),
          "\n".join(lines))
    return 0


def cmd_show(args) -> int:
    g = resolve_input(args.input)
    _emit(args, json.dumps({"schema_version": 1, "kind": "algebra",
                            "text": serialize(g)}, sort_keys=True, indent=2),
          serialize(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieq",
        description="Non-abelian q-tensor/q-exterior products, centers and "
                    "capability of finitely presented Lie algebras over Z "
                    "and Z/m, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_q=True, default_q="0,1,2,3,4,6"):
        p.add_argument("input", help="algebra file path or catalog:<name>")
        if with_q:
            p.add_argument("--q", type=_parse_q_list, default=_parse_q_list(default_q),
                           help=f"comma-separated q values (default {default_q})")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report to this path")

    p = sub.add_parser("validate", help="parse and validate an algebra")
    common(p, with_q=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("product", help="invariant factors and bracket table "
                                       "of a q-tensor/q-exterior square")
    common(p, default_q="0")
    p.add_argument("--kind", choices=("tensor", "exterior"), default="tensor")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("centers", help="all six centers with verdicts")
    common(p)
    p.set_defaults(func=cmd_centers)

    p = sub.add_parser("capability", help="capability verdicts and flags")
    common(p)
    p.set_defaults(func=cmd_capability)

    p = sub.add_parser("verify", help="run the theorem suite on an algebra "
                                      "or the whole catalog")
    p.add_argument("input", nargs="?", default="catalog",
                   help="algebra file, catalog:<name>, or 'catalog' (default)")
    p.add_argument("--q", type=_parse_q_list, default=_parse_q_list("0,1,2,3,4,6"))
    p.add_argument("--oracle", action="store_true",
                   help="include the brute-force oracle cross-checks")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list built-in algebras")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("show", help="print the canonical text form")
    common(p, with_q=False)
    p.set_defaults(func=cmd_show)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    except (LieqError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
