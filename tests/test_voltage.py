import json

import pytest

from fanopencils import verify
from fanopencils.digraph import build_d, with_retargeted_arc
from fanopencils.pencils import enumerate_vertices, compact, parse_compact, translate, vertex_index
from fanopencils.voltage import (
    GroupAction,
    InvalidAction,
    VoltageGraph,
    action_orbits,
    cycle_orbits,
    derive,
    derive_canonical,
    projected_voltage_sums,
    quotient,
    to_dot,
    to_json,
    validate_action,
    z7_action,
)

VERTS = enumerate_vertices()


def test_action_is_valid(d, action):
    validate_action(d, action)  # must not raise
    assert action.order == 7
    p = tuple(range(d.n))
    for _ in range(7):
        p = tuple(action.generator[x] for x in p)
    assert p == tuple(range(d.n))


def test_action_matches_translation(d, action):
    for i in (0, 23, 95, 167):
        assert action.generator[i] == vertex_index(translate(VERTS[i], 1))


def test_identity_action_rejected(d):
    with pytest.raises(InvalidAction):
        validate_action(d, GroupAction(tuple(range(d.n)), 7))


def test_non_automorphism_rejected(d):
    perm = list(range(d.n))
    perm[0], perm[1] = 1, 0
    with pytest.raises(InvalidAction):
        validate_action(d, GroupAction(tuple(perm), 7))


def test_wrong_size_rejected(d):
    with pytest.raises(InvalidAction):
        validate_action(d, GroupAction(tuple(range(10)), 7))


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


def test_cycle_orbits_18_by_7(cycles, action):
    orbs = cycle_orbits(cycles, action)
    assert len(orbs) == 18
    assert all(len(o) == 7 for o in orbs)
    assert sorted(c for o in orbs for c in o) == sorted(cycles)


def test_json_export(d, action):
    vg = quotient(d, action)
    payload = json.loads(to_json(vg))
    assert set(payload) == {"reps", "arcs"}
    assert len(payload["reps"]) == 24
    assert len(payload["arcs"]) == 72
    assert payload["arcs"][0].keys() == {"from", "to", "voltage"}
    assert to_json(vg) == to_json(quotient(build_d()))


def test_dot_export(d, action):
    vg = quotient(d, action)
    dot = to_dot(vg)
    assert dot.startswith("digraph quotient")
    assert dot.count("->") == 72
