"""End-to-end acceptance: the headline structural claims, each as one
exact check, plus a mutation pass showing every suite catches a single
retargeted arc with a located witness."""

import importlib
import random
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanopencils import autos as autos_mod
from fanopencils import cli
from fanopencils import coxeter as cox_mod
from fanopencils import digraph as digraph_mod
from fanopencils import voltage as voltage_mod
from fanopencils.autos import (
    arc_orbits,
    induced_automorphism,
    verify_c4uh,
)
from fanopencils.digraph import (
    Digraph,
    build_d,
    check_no_short_circuits,
    cycle_arc_cover,
    enumerate_4cycles,
    golden_sublist_diff,
    label_permutations,
    short_circuit_matrix_check,
    step_orbit_cycles,
    strongly_connected,
)
from fanopencils.golden import ADJACENCY_ROWS, EXAMPLE_CYCLE
from fanopencils.pencils import enumerate_vertices
from fanopencils.digraph import canonical_cycle
from fanopencils.verify import CHECKS, run_verification
from fanopencils.voltage import cycle_orbits, derive_canonical, quotient
from helpers import (
    closure,
    collineations,
    damage_corpus,
    lift_pencil_map,
    parse_compact,
    retarget_lists,
    translate,
    two_copies,
    vertex_index,
    with_retargeted_arc,
)


def _ok(n, name):
    print(f"criterion {n} ({name}): PASS")


def test_criterion_01_vertex_arc_census(d):
    assert d.n == 168
    assert d.arc_count() == 504
    assert all(len(d.out[v]) == 3 and len(set(d.out[v])) == 3 for v in range(d.n))
    assert all(len(d.inn[v]) == 3 and len(set(d.inn[v])) == 3 for v in range(d.n))
    _ok(1, "168 vertices, 504 arcs, in = out = 3")


def test_criterion_02_golden_table(d):
    assert len(ADJACENCY_ROWS) == 24
    assert all(len(row) == 3 for row in ADJACENCY_ROWS.values())
    assert golden_sublist_diff(d) == []
    _ok(2, "base-0 sub-list matches the published table, order included")


def test_criterion_03_no_short_circuits(d):
    assert check_no_short_circuits(d) == (True, ())
    assert short_circuit_matrix_check(d) == (True, (0, 0, 0))
    _ok(3, "no 2- or 3-circuits, direct search and trace oracle")


def test_criterion_04_strong_connectivity(d):
    assert strongly_connected(d) == (True, (168, 168))
    _ok(4, "single strong component")


def test_criterion_05_cycle_census(d, cycles):
    assert len(cycles) == 126
    ok, witnesses, _ = cycle_arc_cover(d, cycles)
    assert ok, witnesses
    per_label = step_orbit_cycles(d)
    union = sorted(c for orbs in per_label.values() for c in orbs)
    assert union == sorted(cycles)
    example = canonical_cycle(
        tuple(vertex_index(parse_compact(s)) for s in EXAMPLE_CYCLE)
    )
    assert example in set(cycles)
    _ok(5, "126 arc-disjoint oriented 4-cycles, census = orbit decomposition")


def test_criterion_06_step_permutation_law(d):
    per_label = step_orbit_cycles(d)
    for lab, perm in label_permutations(d).items():
        assert sorted(perm) == list(range(d.n))
        assert len(per_label[lab]) == 42
        assert all(len(c) == 4 for c in per_label[lab])
    _ok(6, "each label map is a permutation with 42 orbits of length 4")


def test_criterion_07_ultrahomogeneity(d, cycles, group):
    rep = verify_c4uh(d, cycles, cycle_arc_cover(d, cycles))
    assert rep.passed
    assert len(arc_orbits(d, group)) == 1
    assert rep.failures == ()
    # two extensions of cycle 0 carry its first arc onto all 504 arcs
    assert rep.direct_checked == 2
    _ok(7, "every cycle-to-cycle rotation extends to an automorphism")


def test_criterion_08_symmetry_floor(d, group):
    assert group.order == 1008
    elements = closure(group.generators, d.n)
    for s in collineations():
        assert induced_automorphism(s) in elements
    for t in range(7):
        assert lift_pencil_map(lambda v: translate(v, t)) in elements
    _ok(8, f"|Aut| = {group.order}, with all known lifts")


def test_criterion_09_voltage_round_trip(d, cycles, action):
    vg = quotient(d, action)
    assert len(vg.fibres) == 24
    assert len(vg.arcs) == 72
    assert derive_canonical(vg) == d
    orbs = cycle_orbits(cycles, action)
    assert len(orbs) == 18
    assert all(len(o) == 7 for o in orbs)
    _ok(9, "quotient 24/72, derived graph identical, 18 cycle orbits of 7")


def test_criterion_10_coxeter_validation(cox, cox_group):
    assert cox.n == 28
    assert len(cox_mod.edges(cox)) == 42
    assert all(len(r) == 3 for r in cox.out)
    assert strongly_connected(cox)[0]
    girth, witness = cox_mod.girth_with_witness(cox)
    assert girth == 7 and len(witness) == 7
    assert cox_mod.distance_regular_array(cox) == ((3, 2, 2, 1), (1, 1, 1, 2))
    assert cox_group.order == 336
    report = run_verification("coxeter", cox=cox)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    _ok(10, "28/42 cubic, connected, girth 7, DR {3,2,2,1;1,1,1,2}, |Aut| 336")


def test_criterion_11_fault_injection(d, cox):
    target = 0 if d.out[2][0] != 0 else 1
    broken = with_retargeted_arc(d, 2, 0, target)
    row_sym = "".join(map(str, enumerate_vertices()[2].line)) + "_0"

    rep = run_verification("digraph", d=broken)
    assert not rep.passed
    golden = next(c for c in rep.checks if c.name == "digraph.golden_rows")
    assert not golden.passed and row_sym in golden.detail
    # vertex 0 gains the retargeted arc, its old target loses it
    degrees = next(c for c in rep.checks if c.name == "digraph.degrees")
    assert not degrees.passed
    assert degrees.detail == (
        "2 vertices off degree 3; first: vertex 0, out-degree 3, in-degree 4"
    )

    rep = run_verification("cycles", d=broken)
    assert not rep.passed
    part = next(c for c in rep.checks if c.name == "cycles.arc_partition")
    count = next(c for c in rep.checks if c.name == "cycles.count")
    assert not (part.passed and count.passed)
    assert part.detail or count.detail

    rep = run_verification("uh", d=broken)
    assert not rep.passed
    flag = next(c for c in rep.checks if c.name == "uh.flag_regular")
    assert not flag.passed and "arc orbits" in flag.detail

    # two disjoint copies of D: 504 divides the group order, which is
    # 2 * 1008^2, so only the exact order catches it
    rep = run_verification("uh", d=two_copies(d))
    order = next(c for c in rep.checks if c.name == "uh.aut_order")
    assert not order.passed
    assert order.detail == (
        "automorphism group order 2032128 by search, 0 by certificate, expected 1008"
    )

    # the empty digraph: the trivial group, so the order check names it
    rep = run_verification("uh", d=Digraph([]))
    order = next(c for c in rep.checks if c.name == "uh.aut_order")
    assert not order.passed
    assert order.detail == (
        "automorphism group order 1 by search, 0 by certificate, expected 1008"
    )
    ext = next(c for c in rep.checks if c.name == "uh.extensions")
    assert not ext.passed and ext.detail == "no oriented 4-cycles"
    assert not any(c.detail.startswith("raised") for c in rep.checks)

    rep = run_verification("voltage", d=broken)
    assert not rep.passed
    act = next(c for c in rep.checks if c.name == "voltage.action")
    assert not act.passed and act.detail.startswith("translation maps arc ")

    rows = [list(r) for r in cox.out]
    rows[3][1] = 0 if rows[3][1] != 0 else 1
    broken_cox = Digraph(sorted(r) for r in rows)
    rep = run_verification("coxeter", cox=broken_cox)
    assert not rep.passed
    align = next(c for c in rep.checks if c.name == "coxeter.alignment_consistency")
    failed = [c for c in rep.checks if not c.passed]
    assert failed
    assert not align.passed or any(c.detail for c in failed)
    # row 3 lists 0 in place of 12: 3 -> 0 is one-sided, and D's arc
    # 2 -> 77 still aligns 3 with 12
    counts = next(c for c in rep.checks if c.name == "coxeter.counts")
    assert not counts.passed
    assert counts.detail == "28 vertices, 41 edges; first one-sided pair: 3 -> 0"
    assert not align.passed
    assert align.detail == "arc 2 -> 77 aligns 3 -> 12, not an edge"
    aut = next(c for c in rep.checks if c.name == "coxeter.automorphisms")
    assert not aut.passed
    assert aut.detail == (
        "order 2, 16 vertex orbits; the first has size 1 and misses vertex 1"
    )
    dr = next(c for c in rep.checks if c.name == "coxeter.distance_regular")
    assert not dr.passed
    assert dr.detail == (
        "not distance-regular: from vertex 1, vertex 3 at distance 4 has c_4 = 1, not 2"
    )

    rows = [list(r) for r in cox.out]
    del rows[3][1]
    rep = run_verification("coxeter", cox=Digraph(sorted(r) for r in rows))
    cubic = next(c for c in rep.checks if c.name == "coxeter.cubic_connected")
    assert not cubic.passed
    assert cubic.detail == "cubic False (vertex 3 has degree 2), connected True"
    _ok(11, "every suite fails with a located witness on one retargeted arc")


def test_lift_checks_name_the_broken_arc(d):
    # arc 9 -> 54 retargeted to 9 -> 0: the translation carries the new
    # arc onto a pair that is not an arc, and both checks that lift it
    # name that arc; a graph of the wrong size names both sizes. The
    # label-0 map now sends 9 where it already sends 142
    details = {
        c.name: c.detail
        for c in run_verification("all", d=with_retargeted_arc(d, 9, 2, 0)).checks
    }
    assert details["voltage.action"] == "translation maps arc 9 -> 0 to 38 -> 29, not an arc"
    assert details["uh.known_subgroups"] == (
        "0 of 3 generator lifts are automorphisms; first failure: translation "
        "maps arc 9 -> 0 to 38 -> 29, not an arc"
    )
    assert details["cycles.vertex_incidence"] == "counts [2, 3]; first: vertex 9 on 2 cycles"
    assert details["cycles.count"] == "125 oriented 4-cycles; first: arc 9 -> 0 on 0 cycles"
    assert details["cycles.label_orbits"] == "label 0 maps both 9 and 142 to vertex 0"
    # the group of the damaged graph is trivial, so each orbit is one point
    assert details["uh.vertex_transitive"] == (
        "168 vertex orbits; the first has size 1 and misses vertex 1"
    )
    assert details["uh.flag_regular"] == (
        "504 arc orbits (arc-transitive iff 1 of size 504); "
        "the first has size 1 and misses arc 0 -> 135"
    )
    small = run_verification("uh", d=Digraph([[1], [2], [0]]))
    lifts = next(c for c in small.checks if c.name == "uh.known_subgroups")
    assert lifts.detail.endswith(
        "first failure: translation acts on 168 vertices, the digraph has 3"
    )


def test_orbit_checks_name_a_point_outside_the_first_orbit(d):
    # D with a directed 3-cycle beside it: D's vertices and arcs form one
    # orbit each, and the 3-cycle's another
    n = d.n
    rows = d.out + ((n + 1,), (n + 2,), (n,))
    details = {c.name: c.detail for c in run_verification("uh", d=Digraph(rows)).checks}
    assert details["uh.vertex_transitive"] == (
        "2 vertex orbits; the first has size 168 and misses vertex 168"
    )
    assert details["uh.flag_regular"] == (
        "2 arc orbits (arc-transitive iff 1 of size 504); "
        "the first has size 504 and misses arc 168 -> 169"
    )
    # passing details stay as they were
    on_d = {c.name: c.detail for c in run_verification("uh", d=d).checks}
    assert on_d["uh.vertex_transitive"] == "1 vertex orbits"
    assert on_d["uh.flag_regular"] == "1 arc orbits (arc-transitive iff 1 of size 504)"


def test_every_check_reads_its_input(d, cox):
    # each check fails on some input of the fixed corpus, with a detail
    # of its own rather than an exception; digraph.symbol_grid reads the
    # notation tables only, so no input moves it. A check added later is
    # held to the same
    names = {name for name, _ in CHECKS}
    failed = set()
    raised = []
    for label, kwargs in damage_corpus(d, cox):
        for c in run_verification("all", **kwargs).checks:
            if not c.passed:
                failed.add(c.name)
                if c.detail.startswith("raised"):
                    raised.append((label, c.name, c.detail))
    assert not raised
    assert sorted(names - failed) == ["digraph.symbol_grid"]


# the checks that read the vertex ids of the construction, not only the
# graph: each fails on a correct copy of D whose vertices are renumbered
CONSTRUCTION_CHECKS = (
    "digraph.golden_rows",
    "cycles.known_example",
    "uh.known_subgroups",
    "voltage.action",
    "voltage.quotient_shape",
    "voltage.round_trip",
    "voltage.closure",
    "voltage.cycle_orbits",
    "coxeter.alignment_consistency",
)


@pytest.mark.parametrize("seed", range(3))
def test_relabelled_d_fails_only_the_construction_checks(d, cycles, details_on_d, seed):
    # a metamorphic property (Chen, Cheung & Yiu 1998): renumbering the
    # vertices of D changes no claim, so every other check passes with
    # D's detail, except that uh.extensions names its root arc, the first
    # arc of cycle 0, by the new census
    new = list(range(d.n))
    random.Random(seed).shuffle(new)
    rows = [None] * d.n
    for u, row in enumerate(d.out):
        rows[new[u]] = [new[w] for w in row]
    h = Digraph(rows)
    checks = run_verification("all", d=h).checks
    assert [c.name for c in checks if not c.passed] == list(CONSTRUCTION_CHECKS)
    roots = ["fix arc {} -> {},".format(*g[0][:2]) for g in (cycles, enumerate_4cycles(h))]
    assert roots[0] in details_on_d["uh.extensions"]
    for c in checks:
        if c.name not in CONSTRUCTION_CHECKS:
            assert c.detail == details_on_d[c.name].replace(*roots), c.name


def test_readme_check_table_lists_every_check_in_order():
    # only the table under "## Checks" is read: the prose also names
    # functions, such as digraph.closed_walks, in the same form
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("\n## Checks\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert {len(cells) for cells in rows} == {3}
    assert [name.strip("`") for name, _, _ in rows] == [name for name, _ in CHECKS]
    marked = [name.strip("`") for name, _, mark in rows if mark == "yes"]
    assert marked == list(CONSTRUCTION_CHECKS)


def test_readme_names_and_command_lines_resolve():
    # a rename in src must reach the README: each backticked dotted name
    # outside the code blocks is a check or an attribute of a fanopencils
    # module (a .py file name aside), and each command line without a
    # shell variable parses
    text = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    checks = {name for name, _ in CHECKS}
    unresolved = []
    for dotted in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", prose):
        module, *path = dotted.split(".")
        if dotted in checks or path == ["py"]:
            continue
        try:
            obj = importlib.import_module(f"fanopencils.{module}")
            for name in path:
                obj = getattr(obj, name)
        except (ImportError, AttributeError):
            unresolved.append(dotted)
    assert unresolved == []
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("fanopencils ") and "$" not in line
    ]
    assert commands
    for argv in commands:
        try:
            cli._parse(argv)
        except cli._Exit as stop:
            pytest.fail(f"{argv}: {stop.args}")


@st.composite
def small_digraphs(draw):
    """Digraphs on 0-7 vertices with out-degree 0-4, loops allowed."""
    n = draw(st.integers(0, 7))
    row = st.lists(st.integers(0, n - 1), max_size=4, unique=True) if n else st.just([])
    return Digraph(draw(st.lists(row, min_size=n, max_size=n)))


@given(g=small_digraphs())
@example(g=Digraph([]))
def test_no_check_raises_on_small_digraphs(d, g):
    # every check answers an arbitrary small digraph, given as D or as
    # the Coxeter graph, with a detail of its own rather than an exception
    for kwargs in ({"d": g}, {"d": d, "cox": g}):
        for c in run_verification("all", **kwargs).checks:
            assert not c.detail.startswith("raised"), (kwargs, c.name, c.detail)


# the functions that build the shared artifacts of one run
ARTIFACT_BUILDS = (
    (digraph_mod, "build_d"),
    (digraph_mod, "enumerate_4cycles"),
    (digraph_mod, "cycle_arc_cover"),
    (autos_mod, "verify_c4uh"),
    (voltage_mod, "z7_action"),
    (voltage_mod, "quotient"),
    (cox_mod, "build_coxeter"),
)


@pytest.mark.parametrize("given", ["nothing", "retargeted d", "d and cox"])
def test_each_artifact_is_built_at_most_once(d, cox, given, monkeypatch):
    calls = dict.fromkeys((name for _, name in ARTIFACT_BUILDS), 0)
    for module, name in ARTIFACT_BUILDS:

        def counted(*args, build=getattr(module, name), name=name):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(module, name, counted)
    broken = with_retargeted_arc(d, 4, 0, 0 if d.out[4][0] != 0 else 1)
    kwargs = {
        "nothing": {},
        "retargeted d": {"d": broken},
        "d and cox": {"d": d, "cox": cox},
    }[given]
    run_verification("all", **kwargs)
    assert all(k <= 1 for k in calls.values()), calls
    # a given graph is never rebuilt
    assert calls["build_d"] == ("d" not in kwargs), calls
    assert calls["build_coxeter"] == ("cox" not in kwargs), calls
    # the retargeted d has no Z7 action, so its quotient is never built
    assert calls["quotient"] == (given != "retargeted d"), calls
    assert given != "nothing" or set(calls.values()) == {1}, calls


def test_known_example_names_the_missing_arc(d):
    # the example cycle is (5, 152, 7, 154) by vertex ids; its arc
    # 7 -> 154 retargeted, and the empty digraph, which lacks every arc
    broken = with_retargeted_arc(d, 7, d.out[7].index(154), 0)
    for g, arc in ((broken, "7 -> 154"), (Digraph([]), "5 -> 152")):
        check = next(
            c for c in run_verification("cycles", d=g).checks
            if c.name == "cycles.known_example"
        )
        assert not check.passed
        assert check.detail == (
            f"known cycle (5, 152, 7, 154) absent; first missing: arc {arc}"
        )


def test_cycle_count_says_when_the_cycles_still_partition_the_arcs(d):
    # a directed 4-cycle beside D: one cycle too many, yet every arc lies
    # on exactly one cycle
    n = d.n
    rows = d.out + ((n + 1,), (n + 2,), (n + 3,), (n,))
    rep = run_verification("cycles", d=Digraph(rows))
    count = next(c for c in rep.checks if c.name == "cycles.count")
    assert not count.passed
    assert count.detail == "127 oriented 4-cycles; they partition all 508 arcs"


D = build_d()


def _retargeted(retargets):
    broken = D
    for u, slot, target in retargets:
        broken = with_retargeted_arc(broken, u, slot, target)
    return broken


# one or two out-list entries of D pointed at other vertices
retargeted_graphs = retarget_lists(D).map(_retargeted)


@pytest.fixture(scope="module")
def details_on_d(d):
    return {c.name: c.detail for c in run_verification("all", d=d).checks}


@settings(max_examples=30)
# the two-arc swap (167, 77, 146, 82), which leaves two 2-circuits
@example(_retargeted([(167, 1, 82), (146, 1, 77)]))
# two disjoint copies of D: not strongly connected
@example(two_copies(D))
@given(retargeted_graphs)
def test_criterion_11_random_faults(details_on_d, broken):
    assume(sorted(broken.arcs()) != sorted(D.arcs()))
    rep = run_verification("all", d=broken)
    assert not rep.passed
    act = next(c for c in rep.checks if c.name == "voltage.action")
    assert not act.passed
    for c in rep.checks:
        if not c.passed:
            assert c.detail != details_on_d[c.name], c.name
