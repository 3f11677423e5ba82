"""Command-line surface: verify, table, export."""

from __future__ import annotations

import argparse
import sys

from . import coxeter, digraph, voltage
from .autos import UHReport
from .verify import SELECTORS, run_verification


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
    # ignored: the benchmark's argv (bench/workloads.cli_argv) still passes them
    v.add_argument("--sample", type=int, help=argparse.SUPPRESS)
    v.add_argument("--seed", type=int, help=argparse.SUPPRESS)

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


def _json(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _cmd_verify(args) -> int:
    report = run_verification(args.selector)
    if args.format == "json":
        if args.selector == "uh":
            uh = report.uh_report or UHReport(
                False, 0, (), 0, "extension check did not run"
            )
            payload = uh.to_json_dict()
        else:
            payload = report.to_json_dict()
        text = _json(payload)
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
        module, graph = digraph, digraph.build_d()
    elif args.target == "coxeter":
        module, graph = coxeter, coxeter.build_coxeter()
    else:
        d = digraph.build_d()
        module, graph = voltage, voltage.quotient(d, voltage.z7_action(d))
    if args.format == "dot":
        return _emit(module.to_dot(graph), args.output)
    return _emit(_json(module.to_json_dict(graph)), args.output)


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
