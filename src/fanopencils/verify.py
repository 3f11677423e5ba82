"""Named verification suites over the pencil digraph and its relatives.

Each check is a timed pass/fail with a short detail string; suites can
run alone or all together while sharing the expensive artifacts (the
digraph, the cycle census, the automorphism group).
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import cached_property

from . import autos, coxeter, digraph, golden, voltage
from .fano import TRANSLATION
from .pencils import symbol_grid, vertex_table


CheckResult = namedtuple("CheckResult", "name passed detail ms")


class VerificationReport(namedtuple("VerificationReport", "selector checks uh_report")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        """A plain dict for json: the selector, the overall pass, and each
        check's name, pass, detail and time in ms, the number the text
        shows.  Only the times differ between two runs."""
        return {
            "selector": self.selector,
            "pass": self.passed,
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail, "ms": c.ms}
                for c in self.checks
            ],
        }

    def format_text(self) -> str:
        """One `CHECK <suite>.<name>: PASS|FAIL (<ms>ms)` line per check,
        its time to two decimals and a failed check's detail indented on
        the next line, then `OVERALL: PASS|FAIL`."""
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"CHECK {c.name}: {status} ({c.ms:.2f}ms)")
            if not c.passed and c.detail:
                lines.append(f"  {c.detail}")
        lines.append(f"OVERALL: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class Artifacts:
    """Lazily built shared objects, one instance per verification run;
    `d` and `cox` substitute prebuilt graphs for the built ones."""

    def __init__(self, d: digraph.Digraph | None, cox: digraph.Digraph | None):
        for name, g in (("d", d), ("cox", cox)):
            if g is not None:
                if not isinstance(g, digraph.Digraph):
                    raise TypeError(f"{name} must be a Digraph, not {type(g).__name__}")
                setattr(self, name, g)

    @cached_property
    def d(self) -> digraph.Digraph:
        return digraph.build_d()

    @cached_property
    def cycles(self):
        return digraph.enumerate_4cycles(self.d)

    @cached_property
    def cover(self):
        return digraph.cycle_arc_cover(self.d, self.cycles)

    @cached_property
    def group(self) -> autos.AutGroup:
        return autos.automorphism_group(self.d)

    @cached_property
    def uh(self) -> autos.UHReport:
        return autos.verify_c4uh(self.d, self.cycles, self.cover)

    @cached_property
    def _action(self) -> autos.Perm | voltage.InvalidAction:
        # the one build that can fail: its error is kept, so that a
        # failed action is built once and each later reader sees it
        try:
            return voltage.z7_action(self.d)
        except voltage.InvalidAction as e:
            return e

    @property
    def action(self) -> autos.Perm:
        if isinstance(self._action, voltage.InvalidAction):
            raise self._action
        return self._action

    @cached_property
    def quotient(self) -> voltage.VoltageGraph:
        return voltage.quotient(self.d, self.action)

    @cached_property
    def cox(self) -> digraph.Digraph:
        return coxeter.build_coxeter()


def _check_digraph_counts(a: Artifacts):
    d = a.d
    ok = d.n == 168 and d.arc_count() == 504
    return ok, f"{d.n} vertices, {d.arc_count()} arcs"


def _check_digraph_degrees(a: Artifacts):
    d = a.d
    if d.n == 0:
        return False, "0 vertices"
    bad = [
        v
        for v in range(d.n)
        if len(d.out[v]) != 3
        or len(d.inn[v]) != 3
    ]
    if not bad:
        return True, "in = out = 3"
    v = bad[0]
    return False, (
        f"{len(bad)} vertices off degree 3; first: vertex {v}, "
        f"out-degree {len(d.out[v])}, in-degree {len(d.inn[v])}"
    )


def _check_digraph_golden(a: Artifacts):
    diffs = digraph.golden_sublist_diff(a.d)
    if diffs:
        shown = "; ".join(f"{s} slot {p}: {e} != {g}" for s, p, e, g in diffs[:6])
        detail = f"{len(diffs)} mismatches: {shown}"
        if a.d.n < 24:
            first = list(golden.ADJACENCY_ROWS)[a.d.n]
            detail = f"{a.d.n} vertices, so rows from {first} on are missing; {detail}"
        return False, detail
    return True, "24 base-0 rows match the embedded table"


def _check_digraph_connected(a: Artifacts):
    ok, (fwd, bwd) = digraph.strongly_connected(a.d)
    if ok:
        return True, "forward and reverse search reach all"
    return False, f"from vertex 0, {fwd} of {a.d.n} reached forward, {bwd} backward"


def _check_digraph_short(a: Artifacts):
    ok, circuit = digraph.check_no_short_circuits(a.d)
    if ok:
        return True, "no 1-, 2- or 3-circuits"
    shown = " -> ".join(map(str, circuit + circuit[:1]))
    return False, f"{len(circuit)}-circuit {shown}"


def _check_digraph_trace(a: Artifacts):
    ok, (t1, t2, t3) = digraph.short_circuit_matrix_check(a.d)
    if ok:
        return True, "tr A = tr A^2 = tr A^3 = 0"
    return False, f"tr A = {t1}, tr A^2 = {t2}, tr A^3 = {t3}"


def _check_digraph_grid(a: Artifacts):
    ok = symbol_grid() == golden.SYMBOL_GRID
    found = "24 translation classes labelled as expected" if ok else "grid mismatch"
    return ok, f"{found} (checks the notation tables, not the input graph)"


def _check_cycles_count(a: Artifacts):
    detail = f"{len(a.cycles)} oriented 4-cycles"
    if len(a.cycles) == 126:
        return True, detail
    _, bad, counts = a.cover
    arc = next((arc for arc in bad if arc in counts), None)
    if arc is None:
        return False, f"{detail}; they partition all {len(counts)} arcs"
    return False, f"{detail}; first: arc {arc[0]} -> {arc[1]} on {counts[arc]} cycles"


def _check_cycles_partition(a: Artifacts):
    ok, bad, _ = a.cover
    detail = "each arc on exactly one cycle" if ok else f"witnesses: {bad[:6]}"
    return ok, detail


def _check_cycles_orbits(a: Artifacts):
    try:
        per_label = digraph.step_orbit_cycles(a.d)
    except ValueError as e:
        return False, str(e)
    sizes = {lab: len(orbs) for lab, orbs in per_label.items()}
    all_len4 = all(len(c) == 4 for orbs in per_label.values() for c in orbs)
    agree = sorted(c for orbs in per_label.values() for c in orbs) == sorted(a.cycles)
    ok = all_len4 and sizes == {0: 42, 1: 42, 2: 42} and agree
    return ok, f"orbit counts per label {sizes}, census agreement {agree}"


def _check_cycles_example(a: Artifacts):
    table = vertex_table()
    canon = digraph.canonical_cycle(tuple(table[s] for s in golden.EXAMPLE_CYCLE))
    if canon in set(a.cycles):
        return True, f"known cycle {canon} present"
    # the census holds every 4-cycle, so an absent one lacks an arc
    arcs = zip(canon, canon[1:] + canon[:1])
    u, w = next((u, w) for u, w in arcs if u >= a.d.n or w not in a.d.out[u])
    return False, f"known cycle {canon} absent; first missing: arc {u} -> {w}"


def _check_cycles_incidence(a: Artifacts):
    per_vertex = [0] * a.d.n
    for cyc in a.cycles:
        for v in cyc:
            per_vertex[v] += 1
    bad = next((v for v, k in enumerate(per_vertex) if k != 3), None)
    if bad is None:
        return True, "every vertex on exactly 3 cycles"
    return False, (
        f"counts {sorted(set(per_vertex))}; first: vertex {bad} on {per_vertex[bad]} cycles"
    )


def _check_uh_order(a: Artifacts):
    search, certified = a.group.order, a.uh.aut_order
    return search == certified == 1008, (
        f"automorphism group order {search} by search, {certified} by certificate, "
        "expected 1008"
    )


# with the translation, an involution generates all 168 collineations
# (asserted in tests/test_autos.py)
INVOLUTION = (0, 1, 4, 3, 2, 6, 5)


def _check_uh_lifts(a: Artifacts):
    # a group lies inside another iff its generators do, and lifting is a
    # homomorphism: every collineation and the slot rotation lift to
    # automorphisms iff these three do
    lifts = {
        "translation": autos.induced_automorphism(TRANSLATION),
        f"involution {INVOLUTION}": autos.induced_automorphism(INVOLUTION),
        "slot rotation": autos.slot_rotation(),
    }
    why = ((name, digraph.arc_witness(a.d, p)) for name, p in lifts.items())
    bad = [f"{name} {reason}" for name, reason in why if reason is not None]
    detail = f"{3 - len(bad)} of 3 generator lifts are automorphisms"
    if bad:
        detail += f"; first failure: {bad[0]}"
    return not bad, detail


def _outside(orbits, name) -> str:
    """A failed orbit check's witness: the size of the first orbit and
    the least point outside it, shown by `name`."""
    if len(orbits) < 2:
        return ""
    least = name(min(orbits[1:])[0])
    return f"; the first has size {len(orbits[0])} and misses {least}"


def _check_uh_vertex_transitive(a: Artifacts):
    orbits = autos.vertex_orbits(a.group)
    witness = _outside(orbits, "vertex {}".format)
    return len(orbits) == 1, f"{len(orbits)} vertex orbits{witness}"


def _check_uh_extensions(a: Artifacts):
    return a.uh.passed, a.uh.detail


def _check_uh_flags(a: Artifacts):
    orbits = autos.arc_orbits(a.d, a.group)
    ok = len(orbits) == 1
    witness = _outside(orbits, lambda arc: "arc {} -> {}".format(*arc))
    return ok, f"{len(orbits)} arc orbits (arc-transitive iff 1 of size 504){witness}"


def _check_voltage_action(a: Artifacts):
    try:
        a.action
    except voltage.InvalidAction as e:
        return False, str(e)
    return True, "translation is a free order-7 automorphism"


def _check_voltage_shape(a: Artifacts):
    vg = a.quotient
    reps = [fibre[0] for fibre in vg.fibres]
    three_each = [i for i in range(len(reps)) for _ in range(3)]
    outs = sorted(r for r, _, _ in vg.arcs)
    degs_ok = outs == three_each == sorted(r2 for _, r2, _ in vg.arcs)
    src = reps.index(vertex_table()["124_0"])
    tgt = reps.index(vertex_table()["532_0"])  # the representative of 165_3's orbit
    example = (src, tgt, 3) in vg.arcs
    ok = len(reps) == 24 and len(vg.arcs) == 72 and degs_ok and example
    return ok, (
        f"{len(reps)} reps, {len(vg.arcs)} arcs, regular {degs_ok}, "
        f"arc 124_0 -> orbit of 165_3 at voltage 3: {example}"
    )


def _check_voltage_round_trip(a: Artifacts):
    lifted = voltage.derive_canonical(a.quotient).out
    if lifted == a.d.out:
        return True, "derived graph equals original"
    v = next(v for v, row in enumerate(lifted) if row != a.d.out[v])
    return False, (
        f"derived graph differs; first: vertex {v} derives {lifted[v]}, "
        f"original {a.d.out[v]}"
    )


def _check_voltage_sums(a: Artifacts):
    sums = voltage.projected_voltage_sums(a.d, a.cycles, a.quotient)
    bad = [i for i, s in enumerate(sums) if s != 0]
    if not bad:
        return True, "all 126 projected cycles close at voltage 0"
    first = bad[0]
    return False, (
        f"{len(bad)} cycles with nonzero sum; first: cycle {a.cycles[first]} "
        f"sums to {sums[first]}"
    )


def _check_voltage_orbits(a: Artifacts):
    orbs = voltage.cycle_orbits(a.cycles, a.action)
    sizes = sorted(len(o) for o in orbs)
    ok = len(orbs) == 18 and sizes == [7] * 18
    return ok, f"{len(orbs)} translation orbits of cycles, sizes {sorted(set(sizes))}"


def _check_cox_counts(a: Artifacts):
    g = a.cox
    edges = len(coxeter.edges(g))
    detail = f"{g.n} vertices, {edges} edges"
    one_sided = next(((u, w) for u, w in g.arcs() if w not in g.inn[u]), None)
    if one_sided is not None:
        detail += f"; first one-sided pair: {one_sided[0]} -> {one_sided[1]}"
    return g.n == 28 and edges == 42 and one_sided is None, detail


def _check_cox_cubic_connected(a: Artifacts):
    g = a.cox
    bad = next((v for v, r in enumerate(g.out) if len(r) != 3), None)
    conn = digraph.strongly_connected(g)[0]
    cubic = (
        "True" if bad is None else f"False (vertex {bad} has degree {len(g.out[bad])})"
    )
    return bad is None and conn, f"cubic {cubic}, connected {conn}"


def _check_cox_shortest_cycle(a: Artifacts):
    girth, witness = coxeter.girth_with_witness(a.cox)
    return girth == 7, f"girth {girth}, witness {witness}"


def _check_cox_dr(a: Artifacts):
    try:
        arr = coxeter.distance_regular_array(a.cox)
    except coxeter.NotDistanceRegular as e:
        return False, f"not distance-regular: {e}"
    return arr == coxeter.EXPECTED_ARRAY, f"intersection array {arr}"


def _check_cox_aut(a: Artifacts):
    group = autos.automorphism_group(a.cox)
    orbits = autos.vertex_orbits(group)
    ok = group.order == 336 and len(orbits) == 1
    witness = _outside(orbits, "vertex {}".format)
    return ok, f"order {group.order}, {len(orbits)} vertex orbits{witness}"


def _check_cox_consistency(a: Artifacts):
    return coxeter.projection(a.d, a.cox)


# a check's suite is the prefix of its name, before the dot
CHECKS = (
    ("digraph.counts", _check_digraph_counts),
    ("digraph.degrees", _check_digraph_degrees),
    ("digraph.golden_rows", _check_digraph_golden),
    ("digraph.strongly_connected", _check_digraph_connected),
    ("digraph.no_short_circuits", _check_digraph_short),
    ("digraph.trace_oracle", _check_digraph_trace),
    ("digraph.symbol_grid", _check_digraph_grid),
    ("cycles.count", _check_cycles_count),
    ("cycles.arc_partition", _check_cycles_partition),
    ("cycles.label_orbits", _check_cycles_orbits),
    ("cycles.known_example", _check_cycles_example),
    ("cycles.vertex_incidence", _check_cycles_incidence),
    ("uh.aut_order", _check_uh_order),
    ("uh.known_subgroups", _check_uh_lifts),
    ("uh.vertex_transitive", _check_uh_vertex_transitive),
    ("uh.flag_regular", _check_uh_flags),
    ("uh.extensions", _check_uh_extensions),
    ("voltage.action", _check_voltage_action),
    ("voltage.quotient_shape", _check_voltage_shape),
    ("voltage.round_trip", _check_voltage_round_trip),
    ("voltage.closure", _check_voltage_sums),
    ("voltage.cycle_orbits", _check_voltage_orbits),
    ("coxeter.counts", _check_cox_counts),
    ("coxeter.cubic_connected", _check_cox_cubic_connected),
    ("coxeter.girth", _check_cox_shortest_cycle),
    ("coxeter.distance_regular", _check_cox_dr),
    ("coxeter.automorphisms", _check_cox_aut),
    ("coxeter.alignment_consistency", _check_cox_consistency),
)

SELECTORS = ("all", *dict.fromkeys(name.split(".")[0] for name, _ in CHECKS))


def run_verification(
    selector: str = "all",
    d: digraph.Digraph | None = None,
    cox: digraph.Digraph | None = None,
) -> VerificationReport:
    """Run one suite or all of them and collect timed check results.

    The homogeneity check always covers all 63504 cycle-to-cycle maps.
    `d` and `cox` substitute prebuilt (or deliberately damaged) graphs;
    anything but a Digraph given for them raises TypeError.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    arts = Artifacts(d, cox)
    results = []
    for name, fn in CHECKS:
        if selector in ("all", name.split(".")[0]):
            t0 = time.perf_counter()
            try:
                ok, detail = fn(arts)
            except voltage.InvalidAction:
                ok, detail = False, "needs the Z7 action, and voltage.action failed"
            except Exception as e:
                ok, detail = False, f"raised {type(e).__name__}: {e}"
            ms = round((time.perf_counter() - t0) * 1000, 2)
            results.append(CheckResult(name, bool(ok), detail, ms))
    # the extension report, when the uh suite built it without raising
    return VerificationReport(selector, tuple(results), vars(arts).get("uh"))
