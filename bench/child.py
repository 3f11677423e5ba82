"""One repetition of a workload in a fresh interpreter.

    python3 bench/child.py setup
    python3 bench/child.py verdict <workload> <seed> <trace 0|1>

Run from the root of a source checkout with `src` on PYTHONPATH.  The
`setup` form only times the import of the package.  The `verdict` form
also times one verdict and checks it against the known answer; for
fault_injection the damaged graph's out-lists arrive on stdin as JSON.
Each time is taken twice: as wall seconds and rescaled to the reference
CPU speed (bench/speed.py).  Prints one JSON object as its last line of
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys

import spans
import workloads
from speed import SpeedClock


def _import_package() -> SpeedClock:
    with SpeedClock() as clock:
        import fanopencils  # noqa: F401
        import fanopencils.cli  # noqa: F401

    where = os.path.dirname(os.path.abspath(fanopencils.__file__))
    expected = os.path.abspath(os.path.join("src", "fanopencils"))
    if where != expected:
        raise SystemExit(f"imported fanopencils from {where}, not {expected}")
    return clock


def _verdict(workload: str, seed: int, tracer: spans.Tracer | None):
    """Time one verdict; returns (clock, why it is wrong or None)."""
    from fanopencils import cli, digraph, verify

    if workload == "fault_injection":
        d = digraph.Digraph(json.load(sys.stdin))
    else:
        argv = workloads.cli_argv(workload, seed)
    out = io.StringIO()
    code = None
    if tracer is not None:
        tracer.install()
    clock = SpeedClock()
    try:
        with clock:
            if workload == "fault_injection":
                payload = verify.run_verification("all", d=d).to_json_dict()
            else:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
    except Exception as exc:  # a raised verdict is a counted failure
        return clock, f"raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.restore()
    if workload != "fault_injection":
        try:
            payload = json.loads(out.getvalue())
        except ValueError:
            return clock, f"output is not JSON: {out.getvalue()[:200]!r}"
    return clock, workloads.wrong_answer(workload, code, payload)


def main(argv: list[str]) -> dict:
    imported = _import_package()
    result = {"import_s": imported.ref_s, "import_wall_s": imported.wall_s}
    if argv[0] == "setup":
        return result
    workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    tracer = spans.Tracer() if trace else None
    clock, result["error"] = _verdict(workload, seed, tracer)
    result["verdict_s"], result["verdict_wall_s"] = clock.ref_s, clock.wall_s
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report = tracer.last.get("verify.run_verification")
        uh = getattr(report, "uh_report", None)
        result.update(
            calls=tracer.calls,
            self_s=tracer.self_s,
            returned=tracer.returned,
            direct_checked=uh.direct_checked if uh is not None else None,
        )
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
