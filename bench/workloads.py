"""The benchmark's workloads and the known answers each verdict must give.

The answers come from the paper's claims, not from running the program:
D passes every check, |Aut D| = 1008, and a two-arc swap of D breaks
both the free Z7 translation action and the arc partition into 4-cycles.
"""

from __future__ import annotations

WORKLOADS = ("verify_all", "uh_exhaustive", "fault_injection")

# The 28 checks of `verify all`, in suite order.
CHECK_NAMES = (
    "digraph.counts",
    "digraph.degrees",
    "digraph.golden_rows",
    "digraph.strongly_connected",
    "digraph.no_short_circuits",
    "digraph.trace_oracle",
    "digraph.symbol_grid",
    "cycles.count",
    "cycles.arc_partition",
    "cycles.label_orbits",
    "cycles.known_example",
    "cycles.vertex_incidence",
    "uh.aut_order",
    "uh.known_subgroups",
    "uh.vertex_transitive",
    "uh.flag_regular",
    "uh.extensions",
    "voltage.action",
    "voltage.quotient_shape",
    "voltage.round_trip",
    "voltage.closure",
    "voltage.cycle_orbits",
    "coxeter.counts",
    "coxeter.cubic_connected",
    "coxeter.girth",
    "coxeter.distance_regular",
    "coxeter.automorphisms",
    "coxeter.alignment_consistency",
)

# Checks that must fail on every two-arc swap of D.
FAULT_MUST_FAIL = ("voltage.action", "cycles.arc_partition")

AUT_ORDER = 1008


def cli_argv(workload: str, seed: int) -> list[str]:
    if workload == "verify_all":
        return ["verify", "all", "--format", "json", "--seed", str(seed)]
    if workload == "uh_exhaustive":
        return ["verify", "uh", "--sample", "0", "--format", "json"]
    raise ValueError(f"{workload} is not a command-line workload")


def wrong_answer(workload: str, code: int | None, payload: dict) -> str | None:
    """Why a verdict disagrees with the known answer, or None if it agrees.

    `code` is the command's exit status (None for fault_injection, which
    calls run_verification directly) and `payload` its JSON report.
    """
    if workload == "uh_exhaustive":
        want = {"pass": True, "aut_order": AUT_ORDER, "failures": []}
        if code != 0 or payload != want:
            return f"exit {code}, report {payload}, expected exit 0 and {want}"
        return None
    names = tuple(c["name"] for c in payload.get("checks", ()))
    if names != CHECK_NAMES:
        return f"check names {names} differ from the {len(CHECK_NAMES)} expected"
    if workload == "verify_all":
        if code != 0 or payload.get("pass") is not True:
            return f"exit {code}, pass {payload.get('pass')}, expected exit 0 and pass"
        return None
    failed = [c for c in payload["checks"] if not c["pass"]]
    failed_names = {c["name"] for c in failed}
    if payload.get("pass") is not False:
        return "a damaged graph passed"
    missing = [n for n in FAULT_MUST_FAIL if n not in failed_names]
    if missing:
        return f"checks {missing} passed on a damaged graph"
    silent = [c["name"] for c in failed if not c["detail"]]
    if silent:
        return f"failed checks {silent} give no detail"
    return None


def call_count_errors(
    workload: str, calls: dict[str, int], direct_checked: int | None
) -> list[str]:
    """Cross-checks on one traced verdict's span counts.

    Each count is known from the workload itself, and several can only be
    reached through a name that one module imports from another (cli's
    run_verification, autos' cycle_arc_cover, voltage's is_automorphism),
    so a binding the tracer missed shows up as a wrong count.
    """
    fault = workload == "fault_injection"
    want = {
        "cli.main": 0 if fault else 1,
        "verify.run_verification": 1,
        "autos.automorphism_group.n168": 1,
        "autos.automorphism_group.n28": 0 if workload == "uh_exhaustive" else 1,
        "autos.extend_isomorphism": direct_checked,
    }
    errors = [
        f"{name} called {calls.get(name, 0)} times, expected {n}"
        for name, n in want.items()
        if calls.get(name, 0) != n
    ]
    # Reached only through autos' binding: the uh suite has no partition check.
    if workload == "uh_exhaustive" and not calls.get("digraph.cycle_arc_cover"):
        errors.append("digraph.cycle_arc_cover not seen through autos")
    # Reached only through voltage's binding: no extension runs on a swap.
    if fault and not calls.get("autos.is_automorphism"):
        errors.append("autos.is_automorphism not seen through voltage")
    return errors
