import pytest

from fanopencils import verify
from fanopencils.autos import lift_vertex_map, rotate_slots
from fanopencils.digraph import Digraph, build_d
from fanopencils.pencils import enumerate_vertices, compact, parse_compact, translate, vertex_index
from fanopencils.voltage import (
    ORDER,
    InvalidAction,
    VoltageGraph,
    action_orbits,
    cycle_orbits,
    derive,
    derive_canonical,
    projected_voltage_sums,
    quotient,
    to_dot,
    to_json_dict,
    validate_action,
    z7_action,
)
from helpers import with_retargeted_arc

VERTS = enumerate_vertices()


def test_action_is_valid(d, action):
    validate_action(d, action)  # must not raise
    assert ORDER == 7
    p = tuple(range(d.n))
    for _ in range(7):
        p = tuple(action[x] for x in p)
    assert p == tuple(range(d.n))


def test_action_matches_translation(d, action):
    for i in (0, 23, 95, 167):
        assert action[i] == vertex_index(translate(VERTS[i], 1))


def test_identity_action_rejected(d):
    with pytest.raises(InvalidAction):
        validate_action(d, tuple(range(d.n)))


def test_order_three_automorphism_rejected(d):
    # the slot rotation passes the automorphism check but has order 3
    rotation = lift_vertex_map(rotate_slots)
    with pytest.raises(InvalidAction, match="orbit of 0 has 3 points, not 7"):
        validate_action(d, rotation)


def test_non_automorphism_rejected(d):
    perm = list(range(d.n))
    perm[0], perm[1] = 1, 0
    with pytest.raises(InvalidAction):
        validate_action(d, tuple(perm))


def test_wrong_size_rejected(d):
    with pytest.raises(InvalidAction):
        validate_action(d, tuple(range(10)))


def test_wrong_size_names_both_counts():
    with pytest.raises(
        InvalidAction, match="^generator acts on 168 vertices, the digraph has 3$"
    ):
        z7_action(Digraph([[1], [2], [0]]))


def test_retargeted_graph_rejects_translation(d):
    target = 0 if d.out[4][0] != 0 else 1
    broken = with_retargeted_arc(d, 4, 0, target)
    with pytest.raises(InvalidAction):
        z7_action(broken)


def test_failed_action_is_built_once(d, monkeypatch):
    calls = []

    def counted(graph):
        calls.append(graph)
        return z7_action(graph)

    monkeypatch.setattr(verify.voltage, "z7_action", counted)
    broken = with_retargeted_arc(d, 4, 0, 0 if d.out[4][0] != 0 else 1)
    rep = verify.run_verification("voltage", d=broken)
    assert len(calls) == 1
    assert len(rep.checks) == 5 and not any(c.passed for c in rep.checks)
    reasons = {c.detail.removeprefix("raised InvalidAction: ") for c in rep.checks}
    assert len(reasons) == 1


def test_verify_all_validates_the_action_once(monkeypatch):
    # z7_action validates; quotient and derive_canonical take its result
    calls = []

    def counted(graph, gen):
        calls.append(gen)
        return validate_action(graph, gen)

    monkeypatch.setattr(verify.voltage, "validate_action", counted)
    assert verify.run_verification("all").passed
    assert len(calls) == 1


def test_orbit_structure(d, action):
    reps, rep_of, layer = action_orbits(action, d.n)
    assert len(reps) == 24
    assert reps == list(range(24))  # base-0 vertices come first canonically
    assert all(layer[r] == 0 for r in reps)
    for v in range(d.n):
        assert layer[v] == VERTS[v].base
        assert VERTS[rep_of[v]] == translate(VERTS[v], (-VERTS[v].base) % 7)


def test_quotient_shape(d, action):
    vg = quotient(d, action)
    assert len(vg.reps) == 24
    assert len(vg.arcs) == 72
    assert vg.reps == tuple(compact(v) for v in VERTS[:24])
    for i in range(24):
        assert vg.out_degree(i) == 3
        assert vg.in_degree(i) == 3
    for (r, r2, volt) in vg.arcs:
        assert 0 <= volt < 7


def test_quotient_voltages_read_off_target_bases(d, action):
    vg = quotient(d, action)
    k = 0
    for i in range(24):
        for w in d.out[i]:
            r, r2, volt = vg.arcs[k]
            assert r == i
            assert volt == VERTS[w].base
            assert vg.reps[r2] == compact(translate(VERTS[w], (-VERTS[w].base) % 7))
            k += 1


def test_published_example_arc(d, action):
    # the arc leaving 124_0 toward the vertex written 165_3 projects to
    # a quotient arc of voltage 3 ending at that vertex's representative
    vg = quotient(d, action)
    src = vg.reps.index("124_0")
    w = parse_compact("165_3")
    assert vertex_index(w) in d.out[vertex_index(parse_compact("124_0"))]
    tgt_rep = compact(translate(w, (-w.base) % 7))
    assert tgt_rep == "532_0"
    assert (src, vg.reps.index(tgt_rep), 3) in vg.arcs


def test_round_trip_exact(d, action):
    assert derive_canonical(d, action) == d


def test_round_trip_names_first_differing_vertex(d):
    # vertex 5's out-list rotated by one slot keeps every arc, so the
    # action stays valid; vertex 5 represents its orbit, and its
    # rotation is lifted onto the translates, the first of them 33
    rows = [list(r) for r in d.out]
    rows[5] = rows[5][1:] + rows[5][:1]
    rep = verify.run_verification("voltage", d=Digraph(rows))
    trip = next(c for c in rep.checks if c.name == "voltage.round_trip")
    assert not trip.passed
    assert trip.detail == (
        "derived graph equals original False, single loop lifts to a 7-cycle True; "
        "first: vertex 33 derives (50, 121, 8), original (8, 50, 121)"
    )


def test_derive_rejects_nothing_but_matches_block_structure(d, action):
    vg = quotient(d, action)
    lifted = derive(vg)
    assert lifted.n == 168
    assert lifted.arc_count() == 504
    # block (r, 0) row mirrors the rep's quotient arcs
    first = [(r2 * 7 + volt) for (r, r2, volt) in vg.arcs if r == 0]
    assert list(lifted.out[0]) == first


def test_single_loop_lifts_to_seven_cycle():
    vg = VoltageGraph(("o",), ((0, 0, 1),))
    lifted = derive(vg)
    assert lifted.n == 7
    assert lifted.out == tuple(((m + 1) % 7,) for m in range(7))


def test_zero_voltage_loop_lifts_to_fixed_points():
    lifted = derive(VoltageGraph(("o",), ((0, 0, 0),)))
    assert lifted.out == tuple((m,) for m in range(7))


def test_cycle_voltage_sums_close(d, cycles, action):
    sums = projected_voltage_sums(d, cycles, action)
    assert len(sums) == 126
    assert set(sums) == {0}
    # vertex 5's out-list rotated by one slot: the arc set and so the
    # translation survive, but its orbit's slots no longer agree
    rows = [list(r) for r in d.out]
    rows[5] = rows[5][1:] + rows[5][:1]
    rotated = Digraph(rows)
    validate_action(rotated, action)
    assert sum(1 for s in projected_voltage_sums(rotated, cycles, action) if s) == 18
    closure = next(
        c
        for c in verify.run_verification("voltage", d=rotated).checks
        if c.name == "voltage.closure"
    )
    assert not closure.passed
    assert closure.detail == (
        "18 cycles with nonzero sum; first: cycle (6, 95, 13, 91) sums to 2"
    )


def test_cycle_orbits_18_by_7(cycles, action):
    orbs = cycle_orbits(cycles, action)
    assert len(orbs) == 18
    assert all(len(o) == 7 for o in orbs)
    assert sorted(c for o in orbs for c in o) == sorted(cycles)


def test_json_export(d, action):
    vg = quotient(d, action)
    payload = to_json_dict(vg)
    assert set(payload) == {"reps", "arcs"}
    assert len(payload["reps"]) == 24
    assert len(payload["arcs"]) == 72
    assert payload["arcs"][0].keys() == {"from", "to", "voltage"}
    fresh = build_d()
    assert payload == to_json_dict(quotient(fresh, z7_action(fresh)))


def test_dot_export(d, action):
    vg = quotient(d, action)
    dot = to_dot(vg)
    assert dot.startswith("digraph quotient")
    assert dot.count("->") == 72
