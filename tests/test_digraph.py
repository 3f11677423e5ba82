import json
import re
from operator import getitem

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanopencils.digraph import (
    LABELS,
    Digraph,
    arc_label,
    build_d,
    canonical_cycle,
    check_no_short_circuits,
    closed_walks,
    cycle_arc_cover,
    format_table,
    golden_sublist_diff,
    image_rows,
    label_permutations,
    orbits,
    short_circuit_matrix_check,
    step_orbit_cycles,
    strongly_connected,
)
from fanopencils.cli import main
from fanopencils.golden import ADJACENCY_ROWS, EXAMPLE_CYCLE
from fanopencils.pencils import (
    Pencil,
    compact,
    enumerate_vertices,
    pencil_index,
    vertex_table,
)
from fanopencils.verify import run_verification
from helpers import (
    adjacency_matrix,
    parse_compact,
    retarget_lists,
    step,
    two_copies,
    vertex_index,
    with_retargeted_arc,
)

VERTS = enumerate_vertices()
vertices = st.sampled_from(VERTS)


def test_census(d):
    assert d.n == 168
    assert d.arc_count() == 504


def test_degree_three_everywhere(d):
    for v in range(d.n):
        assert len(d.out[v]) == 3 and len(set(d.out[v])) == 3
        assert len(d.inn[v]) == 3 and len(set(d.inn[v])) == 3


def test_no_self_loops_or_repeats(d):
    for v in range(d.n):
        assert v not in d.out[v]


@given(vertices, st.sampled_from(LABELS))
def test_step_produces_labelled_arc(v, lab):
    w = step(v, lab)
    assert w != v
    assert arc_label(v, w) == lab


@given(vertices, st.sampled_from(LABELS))
def test_step_orbit_length_four(v, lab):
    w = v
    for _ in range(4):
        w = step(w, lab)
    assert w == v
    assert step(v, lab) != v and step(step(v, lab), lab) != v


def test_arc_label_rejects_non_arcs(d):
    # vertices two steps apart are never arc-joined (no 2-circuits either)
    v = VERTS[0]
    w = step(step(v, 1), 2)
    assert arc_label(v, w) is None
    assert arc_label(v, v) is None


def test_out_lists_follow_label_order(d):
    for i, v in enumerate(VERTS):
        assert d.out[i] == tuple(vertex_index(step(v, lab)) for lab in LABELS)


def test_build_constructs_only_the_168_vertices(monkeypatch):
    built = []
    init = Pencil.__init__

    def counted(self, base, line):
        built.append((base, line))
        init(self, base, line)

    caches = (enumerate_vertices, vertex_table, pencil_index)
    monkeypatch.setattr(Pencil, "__init__", counted)
    for f in caches:
        f.cache_clear()
    try:
        build_d()
    finally:
        for f in caches:
            f.cache_clear()
    assert len(built) <= 168, len(built)


def test_an_image_outside_the_table_names_its_vertex():
    index = dict(pencil_index())
    missing = step(VERTS[5], 2)
    del index[missing.base, missing.line]
    with pytest.raises(ValueError, match=r"^vertex 5 steps to \(.*\), not a vertex$"):
        image_rows(VERTS, index)


def test_golden_rows_match_exactly(d):
    assert golden_sublist_diff(d) == []
    assert tuple(compact(v) for v in enumerate_vertices()[:24]) == tuple(ADJACENCY_ROWS)


def test_golden_rows_locate_missing_rows_and_foreign_targets(d):
    # three vertices: the check names the first row the graph lacks
    rep = run_verification("digraph", d=Digraph([[1], [2], [0]]))
    golden = next(c for c in rep.checks if c.name == "digraph.golden_rows")
    assert not golden.passed
    assert golden.detail.startswith(
        "3 vertices, so rows from 165_0 on are missing; 72 mismatches: "
        "124_0 slot 0: 165_3 != 142_0; 124_0 slot 1: 325_6 != missing"
    )
    # a 169th vertex, targeted from row 124_0: outside the table
    rows = [list(row) for row in d.out] + [[0]]
    rows[0][1] = 168
    rep = run_verification("digraph", d=Digraph(rows))
    golden = next(c for c in rep.checks if c.name == "digraph.golden_rows")
    assert not golden.passed
    assert golden.detail == "1 mismatches: 124_0 slot 1: 325_6 != vertex 168 (not a pencil)"


def test_table_contains_published_rows(d):
    text = format_table(d)
    assert "124_0 : 165_3, 325_6, 364_5" in text
    assert "651_0 : 643_2, 253_4, 241_3" in text
    assert len(text.splitlines()) == 24
    assert [ln.split(" :")[0] for ln in text.splitlines()] == list(ADJACENCY_ROWS)


def test_row_symbols_cover_all_base_zero_vertices():
    assert set(ADJACENCY_ROWS) == {f"{''.join(map(str, v.line))}_0" for v in VERTS[:24]}


def test_strong_connectivity(d):
    assert strongly_connected(d) == (True, (168, 168))
    assert strongly_connected(Digraph(d.inn)) == (True, (168, 168))
    assert strongly_connected(two_copies(d)) == (False, (168, 168))


def test_no_short_circuits_two_ways(d):
    assert check_no_short_circuits(d) == (True, ())
    assert short_circuit_matrix_check(d) == (True, (0, 0, 0))


def test_trace_oracle_catches_injected_two_circuit(d):
    # retarget one arc to point straight back at an in-neighbour
    u = d.inn[0][0]
    broken = with_retargeted_arc(d, 0, 0, u)
    assert short_circuit_matrix_check(broken) == (False, (0, 2, 0))
    assert check_no_short_circuits(broken) == (False, (0, u))


def _integer_power_traces(g: Digraph) -> tuple[int, int, int]:
    a = adjacency_matrix(g)
    return tuple(int(np.trace(np.linalg.matrix_power(a, k))) for k in (1, 2, 3))


def test_trace_oracle_counts_three_circuits(d):
    # close the path 0 -> v -> w into a 3-circuit
    v = d.out[0][0]
    w = d.out[v][0]
    broken = with_retargeted_arc(d, w, 0, 0)
    ok, traces = short_circuit_matrix_check(broken)
    assert not ok and traces[2] > 0
    assert traces == _integer_power_traces(broken)


@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, max(n - 1, 0)), max_size=4, unique=True),
            min_size=n,
            max_size=n,
        ).map(Digraph)
    ),
    st.sets(st.integers(1, 9), min_size=1).map(sorted),
)
def test_closed_walks_are_diagonals_of_matrix_powers(g, lengths):
    # loops and empty out-lists; a length list that skips powers returns
    # only the asked diagonals
    a = adjacency_matrix(g)
    want = [np.diag(np.linalg.matrix_power(a, k)).tolist() for k in lengths]
    assert closed_walks(g, lengths) == want


def test_trace_oracle_counts_past_int8():
    # the complete digraph on 40 vertices: n(n-1) closed 2-walks and
    # n(n-1)(n-2) closed 3-walks, far past what an int8 count can hold
    n = 40
    complete = Digraph([[w for w in range(n) if w != u] for u in range(n)])
    assert short_circuit_matrix_check(complete) == (
        False,
        (0, n * (n - 1), n * (n - 1) * (n - 2)),
    )


@settings(max_examples=20)
# one or two out-list entries of D pointed at other vertices, which may
# add loops and short circuits
@given(retarget_lists(build_d()))
def test_trace_oracle_matches_integer_powers(d, retargets):
    # the packed-row traces against exact int64 matrix powers
    g = d
    for u, slot, target in retargets:
        g = with_retargeted_arc(g, u, slot, target)
    want = _integer_power_traces(g)
    assert short_circuit_matrix_check(g) == (want == (0, 0, 0), want)


def test_cycle_census_is_126(d, cycles):
    assert len(cycles) == 126
    assert len(set(cycles)) == 126
    for cyc in cycles:
        assert len(set(cyc)) == 4
        assert cyc[0] == min(cyc)
        for k in range(4):
            assert arc_label(VERTS[cyc[k]], VERTS[cyc[(k + 1) % 4]]) is not None


def test_cycles_partition_arcs(d, cycles):
    ok, witnesses, _ = cycle_arc_cover(d, cycles)
    assert ok, witnesses


def test_cover_names_the_non_arcs_a_cycle_uses():
    # the directed 4-cycle 0 -> 1 -> 2 -> 3 -> 0, given the cycle
    # (0, 1, 3, 2): three of its steps are not arcs, and three arcs are
    # left uncovered
    ok, witnesses, counts = cycle_arc_cover(Digraph([[1], [2], [3], [0]]), [(0, 1, 3, 2)])
    assert not ok
    assert witnesses == [(1, 2), (1, 3), (2, 0), (2, 3), (3, 0), (3, 2)]
    assert counts == {(0, 1): 1, (1, 2): 0, (2, 3): 0, (3, 0): 0}


def test_step_orbits_agree_with_census(d, cycles):
    per_label = step_orbit_cycles(d)
    assert set(per_label) == set(LABELS)
    for orbs in per_label.values():
        assert len(orbs) == 42
        assert all(len(c) == 4 for c in orbs)
    union = sorted(c for orbs in per_label.values() for c in orbs)
    assert union == sorted(cycles)


@given(
    st.integers(1, 40).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)
    )
)
def test_orbits_partition_and_close(gens):
    n = len(gens[0])
    orbs = orbits(range(n), gens, getitem)
    assert sorted(x for o in orbs for x in o) == list(range(n))
    assert [o[0] for o in orbs] == sorted(min(o) for o in orbs)
    for o in orbs:
        for g in gens:
            assert {g[x] for x in o} == set(o)
    if len(gens) == 1:
        (g,) = gens
        for o in orbs:
            assert [g[x] for x in o] == list(o[1:] + o[:1])


def test_label_maps_are_permutations(d):
    for lab, perm in label_permutations(d).items():
        assert sorted(perm) == list(range(d.n))


def test_short_out_list_names_its_vertex():
    d = Digraph([[1], [2], [0]])
    with pytest.raises(ValueError, match=r"^vertex 0 has no slot 1 \(label 2\)"):
        label_permutations(d)
    rep = run_verification("all", d=d)
    orbs = next(c for c in rep.checks if c.name == "cycles.label_orbits")
    assert orbs.detail == "vertex 0 has no slot 1 (label 2): out-list (1,)"
    assert not any("IndexError" in c.detail for c in rep.checks)


def test_degrees_fail_on_the_empty_digraph():
    rep = run_verification("digraph", d=Digraph([]))
    deg = next(c for c in rep.checks if c.name == "digraph.degrees")
    assert not deg.passed and deg.detail == "0 vertices"


def test_known_cycle_present(cycles):
    idx = tuple(vertex_index(parse_compact(s)) for s in EXAMPLE_CYCLE)
    assert canonical_cycle(idx) in set(cycles)


def test_canonical_cycle_rotations():
    assert canonical_cycle((3, 1, 2, 9)) == (1, 2, 9, 3)
    assert canonical_cycle((1, 2, 9, 3)) == (1, 2, 9, 3)


def test_retargeted_arc_located_by_golden_diff(d):
    target = 0 if d.out[5][1] != 0 else 1
    broken = with_retargeted_arc(d, 5, 1, target)
    diffs = golden_sublist_diff(broken)
    assert diffs
    syms = {(sym, pos) for sym, pos, _, _ in diffs}
    verts = enumerate_vertices()
    assert (f"{''.join(map(str, verts[5].line))}_0", 1) in syms


def _export(capsys, fmt: str) -> str:
    assert main(["export", "digraph", "--format", fmt]) == 0
    return capsys.readouterr().out


def test_json_export_round_trips(d, capsys):
    payload = json.loads(_export(capsys, "json"))
    assert payload["vertices"] == list(vertex_table())
    assert len(payload["vertices"]) == 168
    assert len(payload["arcs"]) == 504
    assert len(payload["cycles"]) == 126
    assert payload["arcs"][0].keys() == {"from", "to", "label"}
    assert [(a["from"], a["to"]) for a in payload["arcs"]] == list(d.arcs())
    assert [a["label"] for a in payload["arcs"]] == list(LABELS) * 168
    # byte determinism is pinned by test_cli.EXPORT_SHA256
    assert json.loads(_export(capsys, "json")) == payload


def test_dot_export(capsys):
    text = _export(capsys, "dot")
    assert text.startswith("digraph")
    assert text.count("->") == 504
    assert _export(capsys, "dot") == text


def test_digraph_equality_semantics(d):
    assert d == build_d()
    assert d != with_retargeted_arc(d, 0, 0, d.out[1][0])


@pytest.mark.parametrize("bad", [-1, 3, 1.0, "1", None, True])
def test_out_of_range_target_rejected(bad):
    # a negative entry must not be read as an index from the end, nor a
    # float, string or bool as the vertex it equals
    with pytest.raises(ValueError, match=f"vertex 0 has out-neighbour {re.escape(repr(bad))},"):
        Digraph([[1, bad], [0], []])


def test_repeated_out_neighbour_rejected(d):
    # an out-list names each out-neighbour once: a repeat would be read
    # as one arc by some routines and as two by others
    for rows in ([[1, 1], [0]], [[1, 2, 1], [0], [0]]):
        with pytest.raises(ValueError, match="^vertex 0 lists out-neighbour 1 twice$"):
            Digraph(rows)
    with pytest.raises(ValueError, match="^vertex 1 lists out-neighbour 1 twice$"):
        Digraph([[0, 1], [1, 1]])
    # entries are checked in row order, each for its type and range
    # before it is compared with the entries before it
    for bad in (1.0, True, 5):
        message = f"vertex 0 has out-neighbour {bad!r}, not a vertex 0..1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Digraph([[1, bad, 1], [0]])
    with pytest.raises(ValueError, match="^vertex 0 lists out-neighbour 1 twice$"):
        Digraph([[1, 1, 5], [0]])
    with pytest.raises(
        ValueError, match="^vertex 1 has out-list 0, not a list or tuple$"
    ):
        Digraph([[1], 0, [1, 1]])
    # a loop and a pair of opposite arcs are single arcs
    assert Digraph([[0, 1], [0]]).arc_count() == 3
    # a retarget onto an out-neighbour that the row already lists too
    w = d.out[4][1]
    with pytest.raises(ValueError, match=f"^vertex 4 lists out-neighbour {w} twice$"):
        with_retargeted_arc(d, 4, 0, w)


@pytest.mark.parametrize("bad", [{0: "x"}, {0, 2}, None, 5, "0"])
def test_out_list_that_is_no_list_or_tuple_rejected(bad):
    # a dict row must not be read as its keys, a set's iteration order
    # as slot order, or a string as its characters
    with pytest.raises(
        ValueError, match=f"^vertex 1 has out-list {re.escape(repr(bad))}, not a list or tuple$"
    ):
        Digraph([[1], bad, [0]])
