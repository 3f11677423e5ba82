"""Command-line surface: verify, table, export."""

from __future__ import annotations

import argparse
import json
import sys

from . import coxeter, digraph, voltage
from .autos import UHReport
from .verify import SELECTORS, run_verification


def _sample_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanopencils",
        description="Build and verify the ordered-pencil digraph, its "
        "unordered quotient graph, and its Z7 voltage presentation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run named check suites")
    v.add_argument("selector", nargs="?", default="all", choices=SELECTORS)
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--output", default=None, help="write the report here")
    v.add_argument(
        "--sample",
        type=_sample_count,
        default=100,
        help="homogeneity extensions to sample; 0 checks all 63504 pairs",
    )
    v.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("table", help="print the base-0 adjacency rows and golden diff")
    t.add_argument("--output", default=None)

    e = sub.add_parser("export", help="emit graphs as dot or json")
    e.add_argument("target", choices=("coxeter", "digraph", "quotient"))
    e.add_argument("--format", choices=("dot", "json"), default="json")
    e.add_argument("--output", default=None, help="file path, stdout otherwise")
    return parser


def _emit(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(args.selector, sample=args.sample, seed=args.seed)
    if args.format == "json":
        if args.selector == "uh":
            uh = report.uh_report or UHReport(
                False, 0, (), 0, "extension check did not run"
            )
            payload = uh.to_json_dict()
        else:
            payload = report.to_json_dict()
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = report.format_text() + "\n"
    code = _emit(text, args.output)
    return code or (0 if report.passed else 1)


def _cmd_table(args) -> int:
    d = digraph.build_d()
    diffs = digraph.golden_sublist_diff(d)
    lines = [digraph.format_table(d), ""]
    if diffs:
        lines.append(f"diff against golden table ({len(diffs)} entries):")
        lines.extend(
            f"  {sym} slot {pos}: expected {e}, got {g}" for sym, pos, e, g in diffs
        )
    else:
        lines.append("diff against golden table: empty")
    code = _emit("\n".join(lines) + "\n", args.output)
    return code or (0 if not diffs else 1)


def _cmd_export(args) -> int:
    if args.target == "digraph":
        d = digraph.build_d()
        text = digraph.to_dot(d) if args.format == "dot" else digraph.to_json(d)
    elif args.target == "coxeter":
        g = coxeter.build_coxeter()
        text = coxeter.to_dot(g) if args.format == "dot" else coxeter.to_json(g)
    else:
        d = digraph.build_d()
        vg = voltage.quotient(d, voltage.z7_action(d))
        text = voltage.to_dot(vg) if args.format == "dot" else voltage.to_json(vg)
    return _emit(text, args.output)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "table":
        return _cmd_table(args)
    return _cmd_export(args)


if __name__ == "__main__":
    sys.exit(main())
