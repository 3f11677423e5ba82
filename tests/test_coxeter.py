import itertools
import json

import pytest

from fanopencils import coxeter, verify
from fanopencils.coxeter import (
    EXPECTED_ARRAY,
    CoxVertex,
    build_coxeter,
    cox_adjacent,
    cox_neighbors,
    cox_vertices,
    distance_matrix,
    distance_regular_array,
    edges,
    girth_with_witness,
    orderings,
    to_dot,
    to_json,
)
from fanopencils.digraph import Digraph, arc_label, strongly_connected
from fanopencils.verify import run_verification


def test_vertex_universe():
    verts = cox_vertices()
    assert len(verts) == 28
    assert len(set(verts)) == 28
    for v in verts:
        assert v.base not in v.line


def test_vertex_validation():
    with pytest.raises(ValueError):
        CoxVertex(0, (2, 1, 4))  # not sorted
    with pytest.raises(ValueError):
        CoxVertex(1, (1, 2, 4))  # base on line


def test_pencil_and_label():
    v = CoxVertex(0, (1, 2, 4))
    assert v.pencil() == ((1, 3), (2, 6), (4, 5))
    assert v.label() == "[0,13,26,45]"


def test_counts_and_regularity(cox):
    assert cox.n == 28
    assert len(edges(cox)) == 42
    assert all(len(r) == 3 for r in cox.out)
    assert all(len(set(r)) == 3 for r in cox.out)


def test_connected_and_diameter(cox):
    assert strongly_connected(cox)[0]
    assert max(max(row) for row in distance_matrix(cox)) == 4


def test_girth_seven_with_valid_witness(cox):
    girth, witness = girth_with_witness(cox)
    assert girth == 7
    assert len(witness) == 7 and len(set(witness)) == 7
    for k in range(7):
        assert witness[(k + 1) % 7] in cox.out[witness[k]]


def test_distance_regular_array(cox):
    assert distance_regular_array(cox) == EXPECTED_ARRAY


def test_closed_form_neighbors_example():
    v = CoxVertex(0, (1, 2, 4))
    expected = {
        CoxVertex(3, (1, 5, 6)),
        CoxVertex(6, (2, 3, 5)),
        CoxVertex(5, (3, 4, 6)),
    }
    assert set(cox_neighbors(v)) == expected


def test_alignment_rule_agrees_with_closed_form(cox):
    # the arc-projection semantics and the companion-swap formula must
    # define the same 42 edges
    verts = cox_vertices()
    for i, j in itertools.combinations(range(cox.n), 2):
        assert cox_adjacent(verts[i], verts[j]) == (j in cox.out[i])


def test_adjacency_equals_alignment_brute_force():
    # oracle: all 6 x 6 orderings of both pencils, arcs in both directions
    verts = cox_vertices()
    for p, q in itertools.product(verts, repeat=2):
        brute = any(
            arc_label(u, w) is not None or arc_label(w, u) is not None
            for u in orderings(p)
            for w in orderings(q)
        )
        assert cox_adjacent(p, q) == brute, (p, q)


def test_alignment_check_budget(monkeypatch):
    # one arc_label call per ordering and label, 28 * 6 * 3 = 504; trying
    # every ordering pair makes 24326
    calls = []

    def counted(u, w):
        calls.append((u, w))
        return arc_label(u, w)

    monkeypatch.setattr(coxeter, "arc_label", counted)
    coxeter._arc_targets.cache_clear()
    try:
        ok, detail = verify._check_cox_consistency(verify.Artifacts(None, None, 100, 0))
    finally:
        coxeter._arc_targets.cache_clear()
    assert ok, detail
    assert len(calls) <= 504, len(calls)


def test_adjacency_is_irreflexive_and_symmetric(cox):
    verts = cox_vertices()
    for v in verts[:6]:
        assert not cox_adjacent(v, v)
    for i in range(0, cox.n, 5):
        for j in cox.out[i]:
            assert cox_adjacent(verts[j], verts[i])


def test_translation_is_a_graph_automorphism(cox):
    verts = cox_vertices()
    index = {v: i for i, v in enumerate(verts)}
    perm = [
        index[CoxVertex((v.base + 1) % 7, tuple(sorted((q + 1) % 7 for q in v.line)))]
        for v in verts
    ]
    for u in range(cox.n):
        assert sorted(perm[w] for w in cox.out[u]) == list(cox.out[perm[u]])


def test_validation_report(cox, cox_group):
    report = run_verification("coxeter", cox=cox)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    names = [c.name for c in report.checks]
    assert names == [
        "coxeter.counts",
        "coxeter.cubic_connected",
        "coxeter.girth",
        "coxeter.distance_regular",
        "coxeter.automorphisms",
        "coxeter.alignment_consistency",
    ]
    assert cox_group.order == 336


def test_validation_locates_retargeted_edge(cox):
    rows = [list(r) for r in cox.out]
    swap = 0 if rows[3][1] != 0 else 1
    rows[3][1] = swap
    broken = Digraph(sorted(r) for r in rows)
    report = run_verification("coxeter", cox=broken)
    assert not report.passed
    assert [c for c in report.checks if not c.passed]


def test_exports(cox):
    payload = json.loads(to_json(cox))
    assert len(payload["vertices"]) == 28
    assert len(payload["edges"]) == 42
    assert payload["vertices"][0] == "[0,13,26,45]"
    dot = to_dot(cox)
    assert dot.startswith("graph coxeter")
    assert dot.count(" -- ") == 42
    assert to_json(cox) == to_json(build_coxeter())
