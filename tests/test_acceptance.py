"""End-to-end acceptance: the headline structural claims, each as one
exact check, plus a mutation pass showing every suite catches a single
retargeted arc with a located witness."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanopencils import coxeter as cox_mod
from fanopencils.autos import (
    arc_orbits,
    induced_automorphism,
    lift_vertex_map,
    verify_c4uh,
)
from fanopencils.digraph import (
    Digraph,
    build_d,
    check_no_short_circuits,
    cycle_arc_cover,
    golden_sublist_diff,
    label_permutations,
    short_circuit_matrix_check,
    step_orbit_cycles,
    strongly_connected,
)
from fanopencils.fano import collineations
from fanopencils.golden import ADJACENCY_ROWS, EXAMPLE_CYCLE
from fanopencils.pencils import enumerate_vertices, parse_compact, translate, vertex_index
from fanopencils.digraph import canonical_cycle
from fanopencils.verify import run_verification
from fanopencils.voltage import cycle_orbits, derive_canonical, quotient
from helpers import closure, two_copies, with_retargeted_arc


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
    ok, witnesses = cycle_arc_cover(d, cycles)
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
    rep = verify_c4uh(d, cycles)
    assert rep.passed
    assert len(arc_orbits(d, group)) == 1
    assert rep.failures == ()
    # two extensions of cycle 0 carry its first arc onto all 504 arcs
    assert rep.direct_checked == 2
    assert set(rep.to_json_dict()) == {"pass", "aut_order", "failures"}
    _ok(7, "every cycle-to-cycle rotation extends to an automorphism")


def test_criterion_08_symmetry_floor(d, group):
    assert group.order == 1008
    elements = closure(group.generators, d.n)
    for s in collineations():
        assert induced_automorphism(s) in elements
    for t in range(7):
        assert lift_vertex_map(lambda v: translate(v, t)) in elements
    _ok(8, f"|Aut| = {group.order}, with all known lifts")


def test_criterion_09_voltage_round_trip(d, cycles, action):
    vg = quotient(d, action)
    assert len(vg.reps) == 24
    assert len(vg.arcs) == 72
    assert derive_canonical(d, action) == d
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
    # row 3 lists 0 in place of 12: 3 -> 0 is one-sided, and the
    # alignment rule still joins 3 and 12
    counts = next(c for c in rep.checks if c.name == "coxeter.counts")
    assert not counts.passed
    assert counts.detail == "28 vertices, 41 edges; first one-sided pair: 3 -> 0"
    assert not align.passed
    assert align.detail == "1 disagreeing pairs; first: (3, 12)"
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
    # name that arc; a graph of the wrong size names both sizes
    details = {
        c.name: c.detail
        for c in run_verification("all", d=with_retargeted_arc(d, 9, 2, 0)).checks
    }
    assert details["voltage.action"] == "translation maps arc 9 -> 0 to 38 -> 29, not an arc"
    assert details["uh.known_subgroups"] == (
        "0 of 3 generator lifts are automorphisms; translation and involution "
        "generate 168 collineations; first failure: translation maps arc 9 -> 0 "
        "to 38 -> 29, not an arc"
    )
    assert details["cycles.vertex_incidence"] == "counts [2, 3]; first: vertex 9 on 2 cycles"
    small = run_verification("uh", d=Digraph([[1], [2], [0]]))
    lifts = next(c for c in small.checks if c.name == "uh.known_subgroups")
    assert lifts.detail.endswith(
        "first failure: translation acts on 168 vertices, the digraph has 3"
    )


D = build_d()


def _retargeted(retargets):
    broken = D
    for u, slot, target in retargets:
        broken = with_retargeted_arc(broken, u, slot, target)
    return broken


# one or two out-list entries of D pointed at arbitrary vertices
retargeted_graphs = st.lists(
    st.tuples(st.integers(0, 167), st.integers(0, 2), st.integers(0, 167)),
    min_size=1,
    max_size=2,
    unique_by=lambda r: r[:2],
).map(_retargeted)


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
