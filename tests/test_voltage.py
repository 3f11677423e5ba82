import json

import pytest

from fanopencils import verify
from fanopencils.cli import main
from fanopencils.digraph import Digraph, build_d
from fanopencils.pencils import enumerate_vertices, compact
from fanopencils.voltage import (
    ORDER,
    InvalidAction,
    VoltageGraph,
    cycle_orbits,
    derive_canonical,
    projected_voltage_sums,
    quotient,
    z7_action,
)
from helpers import (
    parse_compact,
    translate,
    two_copies,
    vertex_index,
    with_retargeted_arc,
)

VERTS = enumerate_vertices()

# the detail of a voltage check that needs the action once it failed
NEEDS_ACTION = "needs the Z7 action, and voltage.action failed"


def test_action_is_valid(d, action):
    assert z7_action(d) == action  # must not raise
    assert ORDER == 7
    p = tuple(range(d.n))
    for _ in range(7):
        p = tuple(action[x] for x in p)
    assert p == tuple(range(d.n))


def test_action_matches_translation(d, action):
    for i in (0, 23, 95, 167):
        assert action[i] == vertex_index(translate(VERTS[i], 1))


def test_non_automorphism_rejected(d):
    # D with vertices 0 and 1 exchanged: the same graph, but the
    # translation of the pencils no longer maps its arcs onto arcs
    swap = {0: 1, 1: 0}
    rows = [None] * d.n
    for u, row in enumerate(d.out):
        rows[swap.get(u, u)] = [swap.get(w, w) for w in row]
    with pytest.raises(InvalidAction, match="^translation maps arc "):
        z7_action(Digraph(rows))


def test_wrong_size_rejected(d):
    with pytest.raises(
        InvalidAction, match="^translation acts on 168 vertices, the digraph has 336$"
    ):
        z7_action(two_copies(d))


def test_wrong_size_names_both_counts():
    with pytest.raises(
        InvalidAction, match="^translation acts on 168 vertices, the digraph has 3$"
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
    # voltage.action gives the reason once; the four checks that need the
    # action name the check that failed instead of repeating it
    assert rep.checks[0].detail.startswith("translation maps arc ")
    assert {c.detail for c in rep.checks[1:]} == {NEEDS_ACTION}


def test_checks_after_a_failed_action_name_it(d):
    # arc 9 -> 54 retargeted to 9 -> 0, and a 3-vertex graph
    for broken, reason in (
        (
            with_retargeted_arc(d, 9, 2, 0),
            "translation maps arc 9 -> 0 to 38 -> 29, not an arc",
        ),
        (
            Digraph([[1], [2], [0]]),
            "translation acts on 168 vertices, the digraph has 3",
        ),
    ):
        rep = verify.run_verification("voltage", d=broken)
        assert {c.name: (c.passed, c.detail) for c in rep.checks} == {
            "voltage.action": (False, reason),
            "voltage.quotient_shape": (False, NEEDS_ACTION),
            "voltage.round_trip": (False, NEEDS_ACTION),
            "voltage.closure": (False, NEEDS_ACTION),
            "voltage.cycle_orbits": (False, NEEDS_ACTION),
        }


def test_orbit_structure(d, action):
    fibres = quotient(d, action).fibres
    assert len(fibres) == 24
    assert [f[0] for f in fibres] == list(range(24))  # base-0 vertices come first
    assert sorted(v for f in fibres for v in f) == list(range(d.n))
    for fibre in fibres:
        for layer, v in enumerate(fibre):
            assert layer == VERTS[v].base
            assert VERTS[fibre[0]] == translate(VERTS[v], (-VERTS[v].base) % 7)


def test_quotient_shape(d, action):
    vg = quotient(d, action)
    assert len(vg.fibres) == 24
    assert len(vg.arcs) == 72
    assert [f[0] for f in vg.fibres] == list(range(24))  # the base-0 vertices
    three_each = [i for i in range(24) for _ in range(3)]
    assert sorted(r for r, _, _ in vg.arcs) == three_each
    assert sorted(r2 for _, r2, _ in vg.arcs) == three_each
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
            assert VERTS[vg.fibres[r2][0]] == translate(VERTS[w], (-VERTS[w].base) % 7)
            k += 1


def test_published_example_arc(d, action):
    # the arc leaving 124_0 toward the vertex written 165_3 projects to
    # a quotient arc of voltage 3 ending at that vertex's representative
    vg = quotient(d, action)
    reps = [f[0] for f in vg.fibres]
    src = vertex_index(parse_compact("124_0"))
    w = parse_compact("165_3")
    assert vertex_index(w) in d.out[src]
    tgt_rep = translate(w, (-w.base) % 7)
    assert compact(tgt_rep) == "532_0"
    assert (reps.index(src), reps.index(vertex_index(tgt_rep)), 3) in vg.arcs


def test_round_trip_exact(d, action):
    assert derive_canonical(quotient(d, action)) == d


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
        "derived graph differs; first: vertex 33 derives (50, 121, 8), "
        "original (8, 50, 121)"
    )


def test_single_loop_lifts_to_seven_cycle():
    vg = VoltageGraph(((0, 0, 1),), (tuple(range(7)),))
    lifted = derive_canonical(vg)
    assert lifted.n == 7
    assert lifted.out == tuple(((m + 1) % 7,) for m in range(7))


def test_zero_voltage_loop_lifts_to_fixed_points():
    lifted = derive_canonical(VoltageGraph(((0, 0, 0),), (tuple(range(7)),)))
    assert lifted.out == tuple((m,) for m in range(7))


def test_cycle_voltage_sums_close(d, cycles, action):
    sums = projected_voltage_sums(d, cycles, quotient(d, action))
    assert len(sums) == 126
    assert set(sums) == {0}
    # vertex 5's out-list rotated by one slot: the arc set and so the
    # translation survive, but its orbit's slots no longer agree
    rows = [list(r) for r in d.out]
    rows[5] = rows[5][1:] + rows[5][:1]
    rotated = Digraph(rows)
    assert z7_action(rotated) == action
    assert sum(1 for s in projected_voltage_sums(rotated, cycles, quotient(rotated, action)) if s) == 18
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


def _export(capsys, fmt: str) -> str:
    assert main(["export", "quotient", "--format", fmt]) == 0
    return capsys.readouterr().out


def test_json_export(d, action, capsys):
    vg = quotient(d, action)
    payload = json.loads(_export(capsys, "json"))
    assert set(payload) == {"reps", "arcs"}
    # each quotient vertex is named by its representative, a base-0 vertex
    assert payload["reps"] == [compact(v) for v in VERTS[:24]]
    assert len(payload["arcs"]) == 72
    assert payload["arcs"][0].keys() == {"from", "to", "voltage"}
    assert [tuple(a.values()) for a in payload["arcs"]] == list(vg.arcs)
    assert json.loads(_export(capsys, "json")) == payload


def test_dot_export(capsys):
    dot = _export(capsys, "dot")
    assert dot.startswith("digraph quotient")
    assert dot.count("->") == 72
