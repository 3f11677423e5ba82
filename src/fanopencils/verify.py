"""Named verification suites over the pencil digraph and its relatives.

Each check is a timed pass/fail with a short detail string; suites can
run alone or all together while sharing the expensive artifacts (the
digraph, the cycle census, the automorphism group).
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple

from . import autos, coxeter, digraph, golden, voltage
from .pencils import compact, format_long, parse_compact, symbol_grid, vertex_index


CheckResult = namedtuple("CheckResult", "name passed detail ms")


class VerificationReport(
    namedtuple("VerificationReport", "selector checks uh_report", defaults=(None,))
):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "selector": self.selector,
            "pass": self.passed,
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail, "ms": c.ms}
                for c in self.checks
            ],
        }

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"CHECK {c.name}: {status} ({c.ms}ms)")
            if not c.passed and c.detail:
                lines.append(f"  {c.detail}")
        lines.append(f"OVERALL: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class _built_once:
    """Like functools.cached_property, but a build that raises is cached
    too: the same exception is raised again to every later reader, so a
    failing artifact is built once per run."""

    def __init__(self, build):
        self.build = build
        self.name = build.__name__

    def __get__(self, arts, owner=None):
        if arts is None:
            return self
        if self.name not in arts._built:
            try:
                arts._built[self.name] = (True, self.build(arts))
            except Exception as exc:
                arts._built[self.name] = (False, exc)
        ok, value = arts._built[self.name]
        if not ok:
            raise value
        return value


class Artifacts:
    """Lazily built shared objects, one instance per verification run;
    `d` and `cox` substitute prebuilt graphs for the built ones."""

    def __init__(self, d: digraph.Digraph | None, cox: digraph.Digraph | None):
        self._d = d
        self._cox = cox
        self._built: dict[str, tuple[bool, object]] = {}

    @_built_once
    def d(self) -> digraph.Digraph:
        return self._d if self._d is not None else digraph.build_d()

    @_built_once
    def cycles(self):
        return digraph.enumerate_4cycles(self.d)

    @_built_once
    def group(self) -> autos.AutGroup:
        return autos.automorphism_group(self.d)

    @_built_once
    def uh(self) -> autos.UHReport:
        return autos.verify_c4uh(self.d, self.cycles)

    @_built_once
    def action(self) -> autos.Perm:
        return voltage.z7_action(self.d)

    @_built_once
    def cox(self) -> digraph.Digraph:
        return self._cox if self._cox is not None else coxeter.build_coxeter()


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
        or len(set(d.out[v])) != 3
        or len(d.inn[v]) != 3
        or len(set(d.inn[v])) != 3
    ]
    if not bad:
        return True, "in = out = 3"

    def degree(row) -> str:
        repeat = "" if len(set(row)) == len(row) else " with a repeat"
        return f"{len(row)}{repeat}"

    v = bad[0]
    return False, (
        f"{len(bad)} vertices off degree 3; first: vertex {v}, "
        f"out-degree {degree(d.out[v])}, in-degree {degree(d.inn[v])}"
    )


def _check_digraph_golden(a: Artifacts):
    diffs = digraph.golden_sublist_diff(a.d)
    if diffs:
        shown = "; ".join(f"{s} slot {p}: {e} != {g}" for s, p, e, g in diffs[:6])
        detail = f"{len(diffs)} mismatches: {shown}"
        if a.d.n < 24:
            first = golden.ROW_ORDER[a.d.n]
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
    got = symbol_grid()
    ok = got == golden.SYMBOL_GRID
    return ok, "24 translation classes labelled as expected" if ok else "grid mismatch"


def _check_cycles_count(a: Artifacts):
    return len(a.cycles) == 126, f"{len(a.cycles)} oriented 4-cycles"


def _check_cycles_partition(a: Artifacts):
    ok, bad = digraph.cycle_arc_cover(a.d, a.cycles)
    detail = "each arc on exactly one cycle" if ok else f"witnesses: {bad[:6]}"
    return ok, detail


def _check_cycles_orbits(a: Artifacts):
    per_label = digraph.step_orbit_cycles(a.d)
    sizes = {lab: len(orbs) for lab, orbs in per_label.items()}
    all_len4 = all(
        len(c) == 4 for orbs in per_label.values() for c in orbs
    )
    union = sorted(c for orbs in per_label.values() for c in orbs)
    ok = all_len4 and sizes == {0: 42, 1: 42, 2: 42} and union == sorted(a.cycles)
    return ok, f"orbit counts per label {sizes}, census agreement {union == sorted(a.cycles)}"


def _check_cycles_example(a: Artifacts):
    idx = [vertex_index(parse_compact(s)) for s in golden.EXAMPLE_CYCLE]
    canon = digraph.canonical_cycle(tuple(idx))
    present = canon in set(a.cycles)
    long_ok = tuple(
        format_long(parse_compact(s)) for s in golden.EXAMPLE_CYCLE
    ) == golden.EXAMPLE_CYCLE_LONG
    ok = present and long_ok
    return ok, f"known cycle present {present}, long-form rendering {long_ok}"


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


# x -> x + 1 and an involution: together they generate all 168 collineations
TRANSLATION = (1, 2, 3, 4, 5, 6, 0)
INVOLUTION = (0, 1, 4, 3, 2, 6, 5)


def _check_uh_lifts(a: Artifacts):
    # a group lies inside another iff its generators do, and lifting is a
    # homomorphism: every collineation and the slot rotation lift to
    # automorphisms iff these three do
    lifts = {
        "translation": autos.induced_automorphism(TRANSLATION),
        f"involution {INVOLUTION}": autos.induced_automorphism(INVOLUTION),
        "slot rotation": autos.lift_vertex_map(autos.rotate_slots),
    }
    bad = [name for name, p in lifts.items() if not autos.is_automorphism(a.d, p)]
    points = [TRANSLATION, INVOLUTION]
    generated = len(digraph.orbits([tuple(range(7))], points, autos.compose)[0])
    detail = (
        f"{3 - len(bad)} of 3 generator lifts are automorphisms; translation and "
        f"involution generate {generated} collineations"
    )
    if bad:
        detail += f"; first failure: {autos.arc_witness(a.d, bad[0], lifts[bad[0]])}"
    return not bad and generated == 168, detail


def _check_uh_vertex_transitive(a: Artifacts):
    orbits = autos.vertex_orbits(a.group)
    return len(orbits) == 1, f"{len(orbits)} vertex orbits"


def _check_uh_extensions(a: Artifacts):
    return a.uh.passed, a.uh.detail


def _check_uh_flags(a: Artifacts):
    orbits = autos.arc_orbits(a.d, a.group)
    ok = len(orbits) == 1 and len(orbits[0]) == a.d.arc_count()
    return ok, f"{len(orbits)} arc orbits (arc-transitive iff 1 of size 504)"


def _check_voltage_action(a: Artifacts):
    try:
        a.action
    except voltage.InvalidAction as e:
        return False, str(e)
    return True, "translation is a free order-7 automorphism"


def _check_voltage_shape(a: Artifacts):
    vg = voltage.quotient(a.d, a.action)
    degs_ok = all(
        vg.out_degree(i) == 3 and vg.in_degree(i) == 3 for i in range(len(vg.reps))
    )
    src = vg.reps.index("124_0")
    tgt = vg.reps.index(compact(_rep_of_symbol("165_3")))
    example = (src, tgt, 3) in vg.arcs
    ok = len(vg.reps) == 24 and len(vg.arcs) == 72 and degs_ok and example
    return ok, (
        f"{len(vg.reps)} reps, {len(vg.arcs)} arcs, regular {degs_ok}, "
        f"arc 124_0 -> orbit of 165_3 at voltage 3: {example}"
    )


def _rep_of_symbol(sym: str):
    from .pencils import translate

    v = parse_compact(sym)
    return translate(v, (-v.base) % 7)


def _check_voltage_round_trip(a: Artifacts):
    lifted = voltage.derive_canonical(a.d, a.action)
    same = lifted == a.d
    loop = voltage.derive(voltage.VoltageGraph(("o",), ((0, 0, 1),)))
    loop_ok = loop.out == tuple((((m + 1) % 7),) for m in range(7))
    ok = same and loop_ok
    detail = f"derived graph equals original {same}, single loop lifts to a 7-cycle {loop_ok}"
    if not same:
        v = next(v for v in range(a.d.n) if lifted.out[v] != a.d.out[v])
        detail += f"; first: vertex {v} derives {lifted.out[v]}, original {a.d.out[v]}"
    return ok, detail


def _check_voltage_sums(a: Artifacts):
    sums = voltage.projected_voltage_sums(a.d, a.cycles, a.action)
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


def _check_cox_girth(a: Artifacts):
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
    return ok, f"order {group.order}, {len(orbits)} vertex orbits"


def _check_cox_consistency(a: Artifacts):
    g = a.cox
    verts = coxeter.cox_vertices()
    mismatch = [
        (i, j)
        for i, j in itertools.combinations(range(len(verts)), 2)
        if coxeter.cox_adjacent(verts[i], verts[j]) != (j in g.out[i])
    ]
    if not mismatch:
        return True, "alignment adjacency equals closed form on all 378 pairs"
    return False, f"{len(mismatch)} disagreeing pairs; first: {mismatch[0]}"


SUITES = {
    "digraph": [
        ("digraph.counts", _check_digraph_counts),
        ("digraph.degrees", _check_digraph_degrees),
        ("digraph.golden_rows", _check_digraph_golden),
        ("digraph.strongly_connected", _check_digraph_connected),
        ("digraph.no_short_circuits", _check_digraph_short),
        ("digraph.trace_oracle", _check_digraph_trace),
        ("digraph.symbol_grid", _check_digraph_grid),
    ],
    "cycles": [
        ("cycles.count", _check_cycles_count),
        ("cycles.arc_partition", _check_cycles_partition),
        ("cycles.label_orbits", _check_cycles_orbits),
        ("cycles.known_example", _check_cycles_example),
        ("cycles.vertex_incidence", _check_cycles_incidence),
    ],
    "uh": [
        ("uh.aut_order", _check_uh_order),
        ("uh.known_subgroups", _check_uh_lifts),
        ("uh.vertex_transitive", _check_uh_vertex_transitive),
        ("uh.flag_regular", _check_uh_flags),
        ("uh.extensions", _check_uh_extensions),
    ],
    "voltage": [
        ("voltage.action", _check_voltage_action),
        ("voltage.quotient_shape", _check_voltage_shape),
        ("voltage.round_trip", _check_voltage_round_trip),
        ("voltage.closure", _check_voltage_sums),
        ("voltage.cycle_orbits", _check_voltage_orbits),
    ],
    "coxeter": [
        ("coxeter.counts", _check_cox_counts),
        ("coxeter.cubic_connected", _check_cox_cubic_connected),
        ("coxeter.girth", _check_cox_girth),
        ("coxeter.distance_regular", _check_cox_dr),
        ("coxeter.automorphisms", _check_cox_aut),
        ("coxeter.alignment_consistency", _check_cox_consistency),
    ],
}

SELECTORS = ("all", *SUITES)


def run_verification(
    selector: str = "all",
    d: digraph.Digraph | None = None,
    cox: digraph.Digraph | None = None,
) -> VerificationReport:
    """Run one suite or all of them and collect timed check results.

    The homogeneity check always covers all 63504 cycle-to-cycle maps.
    `d` and `cox` substitute prebuilt (or deliberately damaged) graphs.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    names = SUITES if selector == "all" else (selector,)
    arts = Artifacts(d, cox)
    results = []
    for suite in names:
        for name, fn in SUITES[suite]:
            t0 = time.perf_counter()
            try:
                ok, detail = fn(arts)
            except Exception as e:
                ok, detail = False, f"raised {type(e).__name__}: {e}"
            ms = int(round((time.perf_counter() - t0) * 1000))
            results.append(CheckResult(name, bool(ok), detail, ms))
    # the extension report, when the uh suite built it without raising
    built, uh = arts._built.get("uh", (False, None))
    return VerificationReport(selector, tuple(results), uh if built else None)
