import itertools
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanopencils import autos, coxeter, digraph, verify
from fanopencils.autos import automorphism_group, vertex_orbits
from fanopencils.cli import main
from fanopencils.coxeter import (
    EXPECTED_ARRAY,
    NotDistanceRegular,
    build_coxeter,
    cox_adjacent,
    cox_vertices,
    distance_regular_array,
    edges,
    girth_with_witness,
)
from fanopencils.digraph import Digraph, arc_label, bfs, strongly_connected
from fanopencils.pencils import Pencil, enumerate_vertices
from fanopencils.verify import run_verification

from helpers import array_by_sums, cox_neighbors, girth_per_edge, with_retargeted_arc


def projected_pairs(d):
    """How often each Coxeter pair is the alignment of an arc of d."""
    verts = enumerate_vertices()
    return Counter(cox_adjacent(verts[u], verts[w]) for u, w in d.arcs())


def orderings(v: Pencil) -> list[Pencil]:
    """The six ordered pencils refining an unordered one."""
    return [Pencil(v.base, t) for t in itertools.permutations(v.line)]


def test_vertex_universe():
    verts = cox_vertices()
    assert len(verts) == 28
    assert len(set(verts)) == 28
    for v in verts:
        assert v.base not in v.line
        assert v.line == tuple(sorted(v.line))


def _export(capsys, fmt: str) -> str:
    assert main(["export", "coxeter", "--format", fmt]) == 0
    return capsys.readouterr().out


def test_pencil_and_label(capsys):
    # a vertex is named "[base,bc,...]": each entry b of the line beside
    # its companion c, the third point of the line through the base and b
    names = json.loads(_export(capsys, "json"))["vertices"]
    assert len(names) == 28
    assert cox_vertices()[0] == Pencil(0, (1, 2, 4))
    assert names[0] == "[0,13,26,45]"
    for v, name in zip(cox_vertices(), names):
        base, *pairs = name.strip("[]").split(",")
        assert int(base) == v.base
        assert [(int(b), int(c)) for b, c in pairs] == list(zip(v.line, v.thirds))


def test_counts_and_regularity(cox):
    assert cox.n == 28
    assert len(edges(cox)) == 42
    assert all(len(r) == 3 for r in cox.out)
    assert all(len(set(r)) == 3 for r in cox.out)
    assert cox.out == cox.inn


def test_connected_and_diameter(cox):
    assert strongly_connected(cox)[0]
    assert max(max(bfs(cox.out, v)) for v in range(cox.n)) == 4


def test_girth_seven_with_valid_witness(cox):
    girth, witness = girth_with_witness(cox)
    assert girth == 7
    assert len(witness) == 7 and len(set(witness)) == 7
    for k in range(7):
        assert witness[(k + 1) % 7] in cox.out[witness[k]]


def test_distance_regular_array(cox):
    assert distance_regular_array(cox) == EXPECTED_ARRAY


def simple_graph(n, edge_list):
    """The symmetric digraph of an undirected graph, rows ascending."""
    rows = [[] for _ in range(n)]
    for u, w in edge_list:
        rows[u].append(w)
        rows[w].append(u)
    return Digraph(sorted(r) for r in rows)


def array_or_message(f, g):
    try:
        return f(g)
    except NotDistanceRegular as e:
        return str(e)


PETERSEN = simple_graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)
HEAWOOD = simple_graph(
    14,
    [(i, (i + 1) % 14) for i in range(14)]
    + [(i, (i + 5) % 14) for i in range(0, 14, 2)],
)
# name: (graph, girth, intersection array or the NotDistanceRegular
# message, None where not pinned)
NAMED_GRAPHS = {
    "petersen": (PETERSEN, 5, ((3, 2), (1, 1))),
    "heawood": (HEAWOOD, 6, ((3, 2, 2), (1, 1, 3))),
    "k4": (simple_graph(4, itertools.combinations(range(4), 2)), 3, ((3,), (1,))),
    **{
        f"c{n}": (simple_graph(n, [(i, (i + 1) % n) for i in range(n)]), n, None)
        for n in range(3, 9)
    },
    "tree": (simple_graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (4, 5)]), None, None),
    "empty": (Digraph([]), None, "the graph has no vertices"),
}


def check_girth(g):
    """The girth equals the per-edge oracle's, and the witness is a cycle
    of that length in the simple graph under g: distinct vertices, each
    consecutive pair and the closing pair adjacent."""
    girth, witness = girth_with_witness(g)
    assert girth == girth_per_edge(g)[0]
    if girth is not None:
        assert len(witness) == len(set(witness)) == girth
        for k, u in enumerate(witness):
            w = witness[(k + 1) % girth]
            assert w in g.out[u] or u in g.out[w], (witness, u, w)


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_girth_and_array_equal_the_oracles_on_named_graphs(name):
    g, girth, array = NAMED_GRAPHS[name]
    check_girth(g)
    assert girth_with_witness(g)[0] == girth
    if girth is None:
        assert girth_with_witness(g) == (None, ())
    got = array_or_message(distance_regular_array, g)
    assert got == array_or_message(array_by_sums, g)
    if array is not None:
        assert got == array


def test_girth_and_array_equal_the_oracles_on_the_coxeter_graph(cox):
    check_girth(cox)
    assert distance_regular_array(cox) == array_by_sums(cox) == EXPECTED_ARRAY


def test_girth_reads_the_simple_graph_under_a_digraph():
    # loops and a pair of opposite arcs close no cycle, and a one-way
    # triangle is the triangle 0 - 1 - 2
    assert girth_with_witness(Digraph([[0, 1], [0], [2]])) == (None, ())
    assert girth_with_witness(Digraph([[1], [2], [0]])) == (3, (0, 1, 2))


def damaged_coxeter_graphs(cox):
    """Every single-edge deletion, 40 seeded degree-preserving edge swaps
    (u - w and x - y become u - y and x - w), and 9 one-sided arc
    deletions of the Coxeter graph."""
    es = edges(cox)
    for e in es:
        yield simple_graph(cox.n, [f for f in es if f != e])
    rng = random.Random(0)
    swaps = 0
    while swaps < 40:
        (u, w), (x, y) = rng.sample(es, 2)
        new = {tuple(sorted(p)) for p in ((u, y), (x, w))}
        if len({u, w, x, y}) < 4 or new & set(es):
            continue
        kept = [f for f in es if f not in ((u, w), (x, y))]
        yield simple_graph(cox.n, kept + [(u, y), (x, w)])
        swaps += 1
    for u, w in es[::5]:
        rows = [list(r) for r in cox.out]
        rows[u].remove(w)
        yield Digraph(rows)


def test_girth_and_array_equal_the_oracles_on_damaged_coxeter_graphs(cox):
    graphs = list(damaged_coxeter_graphs(cox))
    assert len(graphs) == 42 + 40 + 9
    for g in graphs:
        check_girth(g)
        got = array_or_message(distance_regular_array, g)
        assert got == array_or_message(array_by_sums, g)


def scans(g, roots=None):
    """The girth, its witness, and the array or NotDistanceRegular
    message, each scan run from `roots`."""
    array = array_or_message(lambda h: distance_regular_array(h, roots), g)
    return girth_with_witness(g, roots), array


def orbit_firsts(g) -> list[int]:
    """The least vertex of each orbit of the automorphism group of g."""
    return [o[0] for o in vertex_orbits(automorphism_group(g))]


def test_orbit_scans_equal_the_full_scans(cox):
    # the Coxeter graph, its 91 damaged copies and the named graphs: one
    # root per orbit of the automorphism group gives every answer and
    # message the scan of every vertex gives
    named = (g for g, _, _ in NAMED_GRAPHS.values())
    graphs = [cox, *damaged_coxeter_graphs(cox), *named]
    assert len(graphs) == 103
    fewer = 0
    for g in graphs:
        roots = orbit_firsts(g)
        assert scans(g, roots) == scans(g), g.out
        fewer += len(roots) < g.n
    # the Coxeter graph is vertex-transitive: one root does
    assert orbit_firsts(cox) == [0]
    assert fewer == 98


@st.composite
def small_symmetric_digraphs(draw):
    """Simple graphs on 0-8 vertices as symmetric digraphs: circulants,
    which are vertex-transitive, two copies of a random graph, and random
    graphs."""
    kind = draw(st.sampled_from(["circulant", "two copies", "random"]))
    n = draw(st.integers(0, 8 if kind != "two copies" else 4))
    if kind == "circulant":
        jumps = draw(st.sets(st.integers(1, max(n // 2, 1))))
        pairs = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps}
        return simple_graph(n, [(u, w) for u, w in pairs if u != w])
    pairs = list(itertools.combinations(range(n), 2))
    es = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if kind == "two copies":
        return simple_graph(2 * n, es + [(u + n, w + n) for u, w in es])
    return simple_graph(n, es)


@given(g=small_symmetric_digraphs())
def test_orbit_scans_equal_the_full_scans_on_small_symmetric_graphs(g):
    assert scans(g, orbit_firsts(g)) == scans(g)


def test_closed_form_neighbors_example():
    v = Pencil(0, (1, 2, 4))
    expected = {
        Pencil(3, (1, 5, 6)),
        Pencil(6, (2, 3, 5)),
        Pencil(5, (3, 4, 6)),
    }
    assert set(cox_neighbors(v)) == expected


def test_build_follows_the_object_closed_form(cox):
    verts = cox_vertices()
    index = {v: i for i, v in enumerate(verts)}
    for i, v in enumerate(verts):
        assert cox.out[i] == tuple(sorted(index[w] for w in cox_neighbors(v)))


def test_build_constructs_only_the_28_vertices(monkeypatch):
    built = []
    init = Pencil.__init__

    def counted(self, base, line):
        built.append((base, line))
        init(self, base, line)

    monkeypatch.setattr(Pencil, "__init__", counted)
    cox_vertices.cache_clear()
    coxeter._cox_index.cache_clear()
    try:
        build_coxeter()
    finally:
        cox_vertices.cache_clear()
        coxeter._cox_index.cache_clear()
    assert len(built) <= 28, len(built)


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


def test_alignment_check_names_an_edge_no_arc_aligns(d, cox):
    # the Coxeter graph with the extra edge 0 -- 1: D aligns 6 arcs onto
    # every other directed edge and none onto 0 -> 1
    rows = [list(r) for r in cox.out]
    assert 1 not in rows[0]
    rows[0].append(1)
    rows[1].append(0)
    assert coxeter.projection(d, Digraph(sorted(r) for r in rows)) == (
        False,
        "edge 0 -> 1 is aligned by 0 arcs, not 6",
    )


def test_array_names_an_unreachable_vertex():
    with pytest.raises(NotDistanceRegular, match="^from vertex 0, vertex 2 is unreachable$"):
        distance_regular_array(Digraph([[1], [0], [3], [2]]))


def test_translation_is_a_graph_automorphism(cox):
    verts = cox_vertices()
    index = {v: i for i, v in enumerate(verts)}
    perm = [
        index[Pencil((v.base + 1) % 7, tuple(sorted((q + 1) % 7 for q in v.line)))]
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


def test_validation_walks_the_orbits_once_and_rechecks_no_generator(cox_group):
    # one vertex_orbits call roots the girth and array scans and counts
    # the orbits; the search's leaf test is the one place a generator is
    # proved an automorphism, once for each kept leaf, so no other caller
    # reaches arc_witness
    leaf_test = digraph.is_automorphism.__code__
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_back.f_code is not leaf_test:
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = run_verification("coxeter")
    finally:
        sys.setprofile(previous)
    assert report.passed
    assert calls[autos.vertex_orbits.__code__] == 1
    assert calls[digraph.arc_witness.__code__] == 0
    assert calls[leaf_test] == len(cox_group.generators) == 4


def test_validation_locates_retargeted_edge(cox):
    rows = [list(r) for r in cox.out]
    swap = 0 if rows[3][1] != 0 else 1
    rows[3][1] = swap
    broken = Digraph(sorted(r) for r in rows)
    report = run_verification("coxeter", cox=broken)
    assert not report.passed
    assert [c for c in report.checks if not c.passed]


def test_exports(cox, capsys):
    payload = json.loads(_export(capsys, "json"))
    assert len(payload["vertices"]) == 28
    assert len(payload["edges"]) == 42
    assert "[0,13,26,45]" in payload["vertices"]
    assert payload["edges"] == [list(e) for e in edges(cox)]
    dot = _export(capsys, "dot")
    assert dot.startswith("graph coxeter")
    assert dot.count(" -- ") == 42
    assert json.loads(_export(capsys, "json")) == payload
