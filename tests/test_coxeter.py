import itertools
from collections import Counter

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
    to_dot,
    to_json_dict,
)
from fanopencils.digraph import Digraph, arc_label, strongly_connected
from fanopencils.pencils import DVertex, enumerate_vertices
from fanopencils.verify import run_verification

from helpers import with_retargeted_arc


def projected_pairs(d):
    """How often each Coxeter pair is the alignment of an arc of d."""
    verts = enumerate_vertices()
    return Counter(cox_adjacent(verts[u], verts[w]) for u, w in d.arcs())


def orderings(v: CoxVertex) -> list[DVertex]:
    """The six ordered pencils refining an unordered one."""
    return [DVertex(v.base, t) for t in itertools.permutations(v.line)]


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
    with pytest.raises(ValueError, match="base out of range: 9"):
        CoxVertex(9, (1, 2, 4))
    with pytest.raises(TypeError):
        CoxVertex(0, [1, 2, 4])  # a list, not a 3-tuple


def test_vertex_equals_only_its_own_type():
    v = CoxVertex(0, (1, 2, 4))
    assert v == CoxVertex(0, (1, 2, 4)) and len({v, CoxVertex(0, (1, 2, 4))}) == 1
    assert v != DVertex(0, (1, 2, 4))
    assert repr(v) == "CoxVertex(base=0, line=(1, 2, 4))"


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


def test_alignment_rule_agrees_with_closed_form(d, cox):
    # the arc projection and the companion-swap formula must define the
    # same 42 edges, each direction the image of 6 of the 504 arcs
    assert projected_pairs(d) == Counter({arc: 6 for arc in cox.arcs()})


def test_adjacency_equals_alignment_brute_force(d):
    # oracle: an ordered pair of pencils is projected iff some ordering
    # of the first has an arc to some ordering of the second, over all
    # 6 x 6 orderings
    projected = set(projected_pairs(d))
    verts = cox_vertices()
    for (i, p), (j, q) in itertools.product(enumerate(verts), repeat=2):
        brute = any(
            arc_label(u, w) is not None for u in orderings(p) for w in orderings(q)
        )
        assert ((i, j) in projected) == brute, (p, q)


def test_alignment_check_budget(monkeypatch):
    # one arc_label call per arc of D, 504; trying every ordering pair
    # of every pencil pair makes 24326
    calls = []

    def counted(u, w):
        calls.append((u, w))
        return arc_label(u, w)

    monkeypatch.setattr(coxeter, "arc_label", counted)
    ok, detail = verify._check_cox_consistency(verify.Artifacts(None, None))
    assert ok, detail
    assert len(calls) <= 504, len(calls)


def test_adjacency_is_irreflexive_and_symmetric(d):
    # an arc never aligns a pencil with itself, its reverse is no arc,
    # and yet both directions of every projected pair are projected
    verts = enumerate_vertices()
    for v in verts[:6]:
        assert cox_adjacent(v, v) is None
    for u in range(0, d.n, 5):
        for w in d.out[u]:
            i, j = cox_adjacent(verts[u], verts[w])
            assert i != j
            assert cox_adjacent(verts[w], verts[u]) is None
    projected = set(projected_pairs(d))
    assert {(j, i) for i, j in projected} == projected


def test_alignment_check_reads_the_input_digraph(d):
    # arc 9's slot 2 retargeted to vertex 0: the closed-form graph is
    # untouched, so only the projection of D can see it
    rep = run_verification("coxeter", d=with_retargeted_arc(d, 9, 2, 0))
    failed = {c.name: c.detail for c in rep.checks if not c.passed}
    assert failed == {
        "coxeter.alignment_consistency": "arc 9 -> 0 breaks the arc equations"
    }
    rep = run_verification("coxeter", d=Digraph([[1], [2], [0]]))
    align = rep.checks[-1]
    assert not align.passed and align.detail == "D has 3 vertices, not 168"


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
    payload = to_json_dict(cox)
    assert len(payload["vertices"]) == 28
    assert len(payload["edges"]) == 42
    assert payload["vertices"][0] == "[0,13,26,45]"
    dot = to_dot(cox)
    assert dot.startswith("graph coxeter")
    assert dot.count(" -- ") == 42
    assert payload == to_json_dict(build_coxeter())
