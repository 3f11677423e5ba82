"""Command-line surface: verify, table, export."""

from __future__ import annotations

import sys

from . import autos, coxeter, digraph, voltage
from .pencils import vertex_table
from .verify import SELECTORS, run_verification


# Each level's arguments: the positional, without dashes, then the options;
# each takes one of its choices, an int or any string. Then the defaults
# (a positional without one is required) and the help, whose first
# paragraph is the usage. Level "" reads the command. --sample and --seed
# are ints, ignored and left out of the help: the benchmark's argv
# (bench/workloads.cli_argv) still passes them.
_LEVELS = {
    "": ({"command": ("verify", "table", "export")}, {}, """\
usage: fanopencils [-h] {verify,table,export} ...

Build and verify the ordered-pencil digraph, its unordered quotient graph, and
its Z7 voltage presentation.

positional arguments:
  {verify,table,export}
    verify              run named check suites
    table               print the base-0 adjacency rows and golden diff
    export              emit graphs as dot or json

options:
  -h, --help            show this help message and exit
"""),
    "verify": (
        {"selector": SELECTORS, "--format": ("text", "json"), "--output": str,
         "--sample": int, "--seed": int},
        {"selector": "all", "format": "text"}, """\
usage: fanopencils verify [-h] [--format {text,json}] [--output OUTPUT]
                          [{all,digraph,cycles,uh,voltage,coxeter}]

positional arguments:
  {all,digraph,cycles,uh,voltage,coxeter}

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --output OUTPUT       write the report here
"""),
    "table": ({"--output": str}, {}, """\
usage: fanopencils table [-h] [--output OUTPUT]

options:
  -h, --help       show this help message and exit
  --output OUTPUT
"""),
    "export": (
        {"target": ("coxeter", "digraph", "quotient"), "--format": ("dot", "json"),
         "--output": str},
        {"format": "json"}, """\
usage: fanopencils export [-h] [--format {dot,json}] [--output OUTPUT]
                          {coxeter,digraph,quotient}

positional arguments:
  {coxeter,digraph,quotient}

options:
  -h, --help            show this help message and exit
  --format {dot,json}
  --output OUTPUT       file path, stdout otherwise
"""),
}


class _Exit(Exception):
    """Parsing ends: (0, help for stdout) or (2, usage error for stderr)."""


def _error(level: str, msg: str) -> _Exit:
    usage = _LEVELS[level][2].split("\n\n")[0]
    return _Exit(2, f"{usage}\nfanopencils{level and ' '}{level}: error: {msg}\n")


def _flag(level: str, arg: str) -> tuple[str, str | None] | None:
    """None for a positional, else the option arg names on level ("" for
    an unknown one) and its value after "=" (None without one)."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    flags = ["-h", "--help", *(k for k in _LEVELS[level][0] if k[0] == "-")]
    head, eq, tail = arg.partition("=")
    found = [head] if head in flags else [f for f in flags if f.startswith(head)]
    if len(found) > 1:
        raise _error(level, f"ambiguous option: {arg} could match {', '.join(found)}")
    if found:
        return found[0], tail if eq else None
    if arg[1] == "h":
        return "-h", arg[2:]
    number = arg[1:].replace(".", "", 1)  # a negative number is a positional
    return None if number.isdecimal() and arg[-1] != "." or " " in arg else ("", None)


def _check(level: str, name: str, value: str, kind):
    if isinstance(kind, tuple) and value not in kind:
        listed = ", ".join(map(repr, kind))
        raise _error(level, f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    try:
        return int(value) if kind is int else value
    except ValueError:
        raise _error(level, f"argument {name}: invalid int value: {value!r}") from None


def _parse(argv: list[str]) -> dict:
    """The command argv names and its values, read as argparse read them:
    --opt value and --opt=value, unique prefixes of long options, options
    on either side of the positional, -h/--help on each level, and "--"
    ending the options. Raises _Exit for help and usage errors."""
    values, extras, level, args = {"output": None}, [], "", list(argv)
    while True:
        spec, defaults, help_text = _LEVELS[level]
        values.update(defaults)
        positional = next((k for k in spec if k[0] != "-"), None)
        # "--" ends the options; on the top level only a last one does, and
        # any other is read as the command
        end = args.index("--") if level and "--" in args else len(args) - (args[-1:] == ["--"])
        kinds = [_flag(level, a) for a in args[:end]] + [None] * (len(args) - end)
        taken, i = None, 0  # taken: the index of the positional's value
        while i < len(args):
            arg, kind = args[i], kinds[i]
            if i == end and positional and taken in (None, i - 1):
                pass  # a "--" next to the positional is dropped
            elif kind is None and positional and taken is None:
                values[positional], taken = _check(level, positional, arg, spec[positional]), i
                if not level:
                    break
            elif kind is None or not kind[0]:
                extras.append(arg)
            elif kind[0] in ("-h", "--help"):
                flag, value = kind
                if flag == "-h" and value:  # -hh is -h -h
                    value = value.lstrip("h") or None
                if value is not None:
                    raise _error(level, f"argument -h/--help: ignored explicit argument {value!r}")
                raise _Exit(0, help_text)
            else:
                flag, value = kind
                if value is None:
                    i += 1
                    if i in (len(args), end) or kinds[i] is not None:
                        raise _error(level, f"argument {flag}: expected one argument")
                    value = args[i]
                values[flag[2:]] = _check(level, flag, value, spec[flag])
            i += 1
        if positional and taken is None and positional not in defaults:
            raise _error(level, f"the following arguments are required: {positional}")
        if level:
            break
        level, args = values["command"], args[i + 1 :]
    if extras:
        raise _error("", f"unrecognized arguments: {' '.join(extras)}")
    return values


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
    """The report as text or JSON.  `verify uh --format json` writes
    the extension certificate's record (autos.UHReport) instead:
    {"pass", "aut_order", "failures"}, with at most one failure, a
    {"cycle", "cycle2", "rotation"} triple, and aut_order the order the
    certificate proves (0 when it is incomplete).  When the extension
    check raised, that is the empty record's payload,
    {"pass": false, "aut_order": 0, "failures": []}."""
    report = run_verification(args["selector"])
    if args["format"] == "text":
        text = report.format_text() + "\n"
    elif args["selector"] != "uh":
        text = _json(report.to_json_dict())
    else:
        uh = report.uh_report or autos.UHReport(False, 0, (), 0, "")
        failures = [{"cycle": c, "cycle2": c2, "rotation": r} for c, c2, r in uh.failures]
        text = _json({"pass": uh.passed, "aut_order": uh.aut_order, "failures": failures})
    code = _emit(text, args["output"])
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
    code = _emit("\n".join(lines) + "\n", args["output"])
    return code or (0 if not diffs else 1)


def _cmd_export(args) -> int:
    """One graph as JSON or as Graphviz text, from its vertex names and
    its edges, (u, w, label) triples with label None on the undirected
    Coxeter graph."""
    if args["target"] == "coxeter":
        head = "graph coxeter"
        # "[base,bc,...]": each entry b of the line beside its companion c
        names = [
            f"[{v.base},{','.join(f'{b}{c}' for b, c in zip(v.line, v.thirds))}]"
            for v in coxeter.cox_vertices()
        ]
        edges = [(u, w, None) for u, w in coxeter.edges(coxeter.build_coxeter())]
        payload = {"vertices": names, "edges": [[u, w] for u, w, _ in edges]}
    elif args["target"] == "digraph":
        head, d, names = "digraph pencils", digraph.build_d(), list(vertex_table())
        # each out-list of D holds its three arcs in label order
        edges = [(u, w, k) for (u, w), k in zip(d.arcs(), digraph.LABELS * d.n)]
        payload = {
            "vertices": names,
            "arcs": [{"from": u, "to": w, "label": k} for u, w, k in edges],
            "cycles": [[names[v] for v in cyc] for cyc in digraph.enumerate_4cycles(d)],
        }
    else:
        d, syms = digraph.build_d(), list(vertex_table())
        vg = voltage.quotient(d, voltage.z7_action(d))
        head, edges = "digraph quotient", vg.arcs
        names = [syms[fibre[0]] for fibre in vg.fibres]
        payload = {
            "reps": names,
            "arcs": [{"from": u, "to": w, "voltage": v} for u, w, v in edges],
        }
    if args["format"] == "json":
        return _emit(_json(payload), args["output"])
    lines = [f"{head} {{"]
    lines += (f'  {i} [label="{name}"];' for i, name in enumerate(names))
    for u, w, k in edges:
        lines.append(f"  {u} -- {w};" if k is None else f"  {u} -> {w} [label={k}];")
    return _emit("\n".join(lines) + "\n}\n", args["output"])


def main(argv=None) -> int:
    """Run the command argv names.  The exit status is 0 on overall pass
    and after help, 1 on a failed check, a golden-table diff or an
    unwritable output path, and 2 on a usage error."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Exit as stop:
        code, text = stop.args
        (sys.stderr if code else sys.stdout).write(text)
        return code
    if args["command"] == "verify":
        return _cmd_verify(args)
    if args["command"] == "table":
        return _cmd_table(args)
    return _cmd_export(args)

