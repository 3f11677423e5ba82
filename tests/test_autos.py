
import gc
import hashlib
import itertools
import random
import sys
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanopencils import autos, coxeter, verify
from fanopencils.autos import (
    ARC_STABILIZER,
    _closed_walk_colours,
    _pin_map,
    _refine,
    arc_orbits,
    automorphism_group,
    extend_isomorphism,
    extensions,
    induced_automorphism,
    lift_vertex_map,
    slot_rotation,
    verify_c4uh,
    vertex_orbits,
)
from fanopencils.digraph import (
    Digraph,
    arc_witness,
    build_d,
    canonical_cycle,
    cycle_arc_cover,
    enumerate_4cycles,
    is_automorphism,
    orbits,
)
from fanopencils.fano import NotALine
from fanopencils.golden import EXAMPLE_CYCLE
from fanopencils.pencils import Pencil, enumerate_vertices
from helpers import (
    adjacency_matrix,
    automorphism_per_vertex,
    closure,
    collineations,
    compose,
    damage_corpus,
    full_round_refine,
    inverse,
    lift_pencil_map,
    parse_compact,
    retarget_lists,
    rotate_slots,
    swap_slots,
    translate,
    two_copies,
    vertex_index,
    with_retargeted_arc,
)


@pytest.fixture(scope="module")
def elements(d, group):
    """Every automorphism of D, as a set: the membership oracle."""
    return closure(group.generators, d.n)


def test_identity_and_junk_permutations(d):
    ident = tuple(range(d.n))
    assert is_automorphism(d, ident)
    swapped = list(ident)
    swapped[0], swapped[1] = 1, 0
    assert not is_automorphism(d, tuple(swapped))
    assert not is_automorphism(d, ident[:-1])
    # entries equal to the ints 0..n-1 but not ints are refused by type:
    # 1.0 == 1 and True == 1, so both maps would pass the arc test
    for g, perm in ((d, tuple(map(float, ident))), (Digraph([[1], [0]]), (False, True))):
        assert not is_automorphism(g, perm)
        assert arc_witness(g, perm) == f"is not a permutation of 0..{g.n - 1}"
    # a map that does not permute is named before any arc is looked at,
    # and the first arc whose image is not an arc names a permutation
    assert arc_witness(Digraph([[], []]), (0, 0)) == "is not a permutation of 0..1"
    assert arc_witness(Digraph([[1], []]), (0, 0)) == "is not a permutation of 0..1"
    witness = arc_witness(Digraph([[1], []]), (1, 0))
    assert witness == "maps arc 0 -> 1 to 1 -> 0, not an arc"


# small digraphs with loops and uneven out-lists, and candidate maps of
# any length with repeated or out-of-range entries
small_digraphs = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n - 1), max_size=3, unique=True), min_size=n, max_size=n
    ).map(Digraph)
)


@given(small_digraphs, st.data())
def test_arc_test_agrees_with_the_per_vertex_test(d, data):
    perm = data.draw(
        st.one_of(
            st.permutations(range(d.n)),
            st.lists(st.integers(0, d.n), min_size=d.n - 1, max_size=d.n + 1),
        )
    )
    assert is_automorphism(d, perm) == automorphism_per_vertex(d, perm)
    assert is_automorphism(d, perm) == (arc_witness(d, perm) is None)


def test_arc_test_agrees_on_d(d, group):
    perms = [*group.generators, slot_rotation(), tuple(range(d.n))]
    perms += [p[1:] + p[:1] for p in perms]
    for perm in perms:
        assert is_automorphism(d, perm) == automorphism_per_vertex(d, perm)


def test_slot_rotation_by_table_equals_the_one_by_one_lift():
    assert slot_rotation() == lift_pencil_map(rotate_slots)
    # the slot swap is one lift_vertex_map call too
    swap = lift_vertex_map(lambda b, line: (b, line[:1] + line[:0:-1]))
    assert swap == lift_pencil_map(swap_slots)


def test_lift_names_an_image_that_is_not_a_vertex():
    with pytest.raises(NotALine, match=r"^\(0, \(1, 2\)\) is not a vertex$"):
        lift_vertex_map(lambda b, line: (b, line[:2]))
    # the first image that is not a vertex is named, whatever the reason:
    # a float at vertex 0 (124_0) before an unknown image at vertex 5
    bad = {(0, (1, 2, 4)): (0.0, (1, 2, 4)), (0, (2, 3, 5)): (9, (9, 9, 9))}
    with pytest.raises(NotALine, match=r"^\(0\.0, \(1, 2, 4\)\) is not a vertex$"):
        lift_vertex_map(lambda b, line: bad.get((b, line), (b, line)))
    # the first pencil, 124_0, is the first to go onto its own line
    with pytest.raises(NotALine, match=r"^\(1, \(1, 2, 4\)\) is not a vertex$"):
        lift_vertex_map(lambda b, line: (line[0], line))
    # an entry equal to a point without being an int does not name it
    with pytest.raises(NotALine, match=r"^\(0\.0, \(1, 2, 4\)\) is not a vertex$"):
        lift_vertex_map(lambda b, line: (float(b), line))
    with pytest.raises(NotALine, match=r"^\(0, \(True, 2, 4\)\) is not a vertex$"):
        lift_vertex_map(lambda b, line: (b, (line[0] == 1 or line[0], *line[1:])))
    # an unhashable image is not a vertex either
    with pytest.raises(NotALine, match=r"^\(0, \[1, 2, 4\]\) is not a vertex$"):
        lift_vertex_map(lambda b, line: (b, list(line)))
    with pytest.raises(NotALine, match=r"^\[0, \(1, 2, 4\)\] is not a vertex$"):
        lift_vertex_map(lambda b, line: [b, line])


def test_compose_inverse():
    p = (2, 0, 1)
    q = (1, 2, 0)
    assert compose(p, q) == (0, 1, 2)
    assert inverse(p) == q


def test_collineation_lifts_are_automorphisms(d):
    for s in collineations()[:25]:
        assert is_automorphism(d, induced_automorphism(s))
    # the lift agrees with lifting each vertex one at a time
    for s in collineations():
        one_by_one = lift_pencil_map(
            lambda v: Pencil(s[v.base], tuple(s[q] for q in v.line))
        )
        assert induced_automorphism(s) == one_by_one


def test_bad_lifts_are_rejected():
    not_collineation = (1, 0, 2, 3, 4, 5, 6)
    assert not_collineation not in collineations()
    # the first vertex, 124_0, goes to base 1 and 024, not a line
    with pytest.raises(NotALine, match=r"^\(1, \(0, 2, 4\)\) is not a vertex$"):
        induced_automorphism(not_collineation)
    with pytest.raises(NotALine):
        induced_automorphism((0, 0, 1, 2, 3, 4, 5))
    with pytest.raises(NotALine):
        induced_automorphism(collineations()[0] + (7,))
    # a point is an int: False and 0.0 equal 0 but are not read as it
    for bad in ((1, 2, 3, 4, 5, 6, False), (1, 2, 3, 4, 5, 6, 0.0)):
        with pytest.raises(NotALine, match="is not a permutation of the 7 points"):
            induced_automorphism(bad)


def test_slot_maps_are_automorphisms(d):
    rot = lift_pencil_map(rotate_slots)
    swp = lift_pencil_map(swap_slots)
    assert is_automorphism(d, rot)
    assert is_automorphism(d, swp)
    assert compose(rot, compose(rot, rot)) == tuple(range(d.n))
    assert compose(swp, swp) == tuple(range(d.n))


def _small_point_generators():
    """A few collineations whose closure is the whole order-168 group."""
    gens = []
    closed = {tuple(range(7))}
    for s in sorted(collineations()):
        if s not in closed:
            gens.append(s)
            closed = closure(gens, 7)
            if len(closed) == 168:
                break
    assert len(closed) == 168
    return gens


def test_group_order_cross_checked_by_known_generators(d, group):
    # lower bound built from named automorphisms, independent of the search
    lifted = [induced_automorphism(s) for s in _small_point_generators()]
    lifted.append(lift_pencil_map(rotate_slots))
    lifted.append(lift_pencil_map(swap_slots))
    known = closure(lifted, d.n)
    assert len(known) == 1008
    assert len(known) == group.order
    assert known == closure(group.generators, d.n)
    assert group.order == 1008


def test_point_generators_close_to_all_collineations():
    # uh.known_subgroups lifts these two in place of all 168
    gens = [verify.TRANSLATION, verify.INVOLUTION]
    assert closure(gens, 7) == set(collineations())
    assert len(orbits([tuple(range(7))], gens, compose)[0]) == 168


def test_group_invariants(d, group):
    assert group.order == 1008
    assert group.order % d.n == 0
    for g in group.generators:
        assert is_automorphism(d, g)
        assert is_automorphism(d, inverse(g))
    assert len(closure(list(group.generators), d.n)) == group.order


def test_automorphisms_permute_the_projection_fibres(d, cox, elements):
    # every automorphism of D permutes the 28 fibres of the projection
    # onto the Coxeter graph (a fibre: the 6 orders of one antiflag); the
    # induced maps are the 168 collineations acting on antiflags, all
    # automorphisms of the Coxeter graph, and the kernel is the order-6
    # group of the slot rotation and the slot swap.  The lifted
    # collineations commute with both slot maps, so Aut D is S3 x
    # PSL(3,2): 1008 = 6 * 168
    swap = lift_vertex_map(lambda b, line: (b, line[:1] + line[:0:-1]))
    assert swap == lift_pencil_map(swap_slots)
    index = coxeter._cox_index()
    fibre = [index[v.base, v.line] for v in enumerate_vertices()]
    assert sorted(Counter(fibre).items()) == [(i, 6) for i in range(28)]
    induced, kernel = set(), set()
    for g in elements:
        image = {}
        for v, w in enumerate(g):
            assert image.setdefault(fibre[v], fibre[w]) == fibre[w]
        h = tuple(image[i] for i in range(28))
        assert is_automorphism(cox, h)
        induced.add(h)
        if h == tuple(range(28)):
            kernel.add(g)
    antiflags = coxeter.cox_vertices()
    antiflag_maps = {
        tuple(index[s[v.base], tuple(s[x] for x in v.line)] for v in antiflags)
        for s in collineations()
    }
    assert len(elements) == 1008
    assert induced == antiflag_maps and len(induced) == 168
    slot_maps = (slot_rotation(), swap)
    assert kernel == closure(slot_maps, d.n) and len(kernel) == 6
    for s in collineations():
        g = induced_automorphism(s)
        assert all(compose(g, k) == compose(k, g) for k in slot_maps)


def test_membership_rejects_non_automorphisms(d, group, elements):
    ident = tuple(range(d.n))
    assert ident in elements
    swapped = list(ident)
    swapped[0], swapped[1] = 1, 0
    assert tuple(swapped) not in elements
    assert ident[:-1] not in elements
    assert (0,) * d.n not in elements
    # the group agrees with the direct arc check on the named automorphisms
    lifts = [induced_automorphism(s) for s in collineations()]
    named = lifts + [
        lift_pencil_map(lambda v, t=t: translate(v, t)) for t in range(7)
    ]
    named += [lift_pencil_map(rotate_slots), lift_pencil_map(swap_slots)]
    for perm in named:
        assert is_automorphism(d, perm)
        assert perm in elements
    # and on near misses
    transposed = list(lifts[5])
    transposed[3], transposed[40] = transposed[40], transposed[3]
    shuffled = list(ident)
    random.Random(9).shuffle(shuffled)
    for perm in (tuple(transposed), tuple(shuffled), lifts[5] + (d.n,)):
        assert not is_automorphism(d, perm)
        assert perm not in elements


def test_stabilizer_chain_shape(d, group, elements):
    # the order is the product of the basic orbits, read here off the
    # whole group: the images of base[i] under the elements fixing base[:i]
    assert group.order == 1008
    lengths = []
    for i, b in enumerate(group.base):
        fixing = [g for g in elements if all(g[c] == c for c in group.base[:i])]
        lengths.append(len({g[b] for g in fixing}))
    assert lengths == [d.n, 6]
    assert lengths[0] * lengths[1] == group.order
    # the pointwise stabilizer of the base is trivial
    assert [g for g in elements if all(g[c] == c for c in group.base)] == [
        tuple(range(d.n))
    ]


def test_order_oracle_schreier_sims(group, cox_group):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for grp, order in ((group, 1008), (cox_group, 336)):
        gens = [combinatorics.Permutation(list(g)) for g in grp.generators]
        assert combinatorics.PermutationGroup(gens).order() == order


def _relabelled_cycle(n: int, seed: int) -> Digraph:
    label = list(range(n))
    random.Random(seed).shuffle(label)
    out = [[] for _ in range(n)]
    for i in range(n):
        out[label[i]].append(label[(i + 1) % n])
    return Digraph(out)


@pytest.mark.parametrize(
    "name, graph, order",
    [
        ("directed 168-cycle", lambda cox: _relabelled_cycle(168, 3), 168),
        ("coxeter", lambda cox: cox, 336),
        ("edgeless 8", lambda cox: Digraph([[] for _ in range(8)]), 40320),
        ("two copies of D", lambda cox: two_copies(build_d()), 2 * 1008**2),
    ],
)
def test_symmetric_input_search_budget(cox, name, graph, order):
    dg = graph(cox)
    grp = automorphism_group(dg)
    assert grp.order == order, name
    assert grp.nodes <= dg.n**2, (name, grp.nodes)
    assert grp.leaves <= grp.nodes
    assert all(is_automorphism(dg, g) for g in grp.generators)


def test_symmetric_searches_keep_their_shape(group, cox_group):
    # both graphs are vertex-transitive, so every vertex has the same
    # closed-walk counts and the starting colouring leaves both searches
    # alone; the search targets the largest cell, so D's basic orbits
    # are 168 and 6
    assert (group.nodes, group.leaves, group.base) == (7, 4, (0, 82))
    assert (cox_group.nodes, cox_group.leaves) == (8, 5)


@given(small_digraphs, st.data())
def test_group_and_extensions_agree_with_every_permutation(g, data):
    # both searches against all n! maps, on digraphs with loops: their
    # failed branches are reached here; with no pins the extension
    # search branches at the root over every image
    autos_all = [
        p for p in itertools.permutations(range(g.n)) if automorphism_per_vertex(g, p)
    ]
    assert automorphism_group(g).order == len(autos_all)
    vertex = st.integers(0, g.n - 1)
    pins = data.draw(st.dictionaries(vertex, vertex, min_size=0, max_size=3))
    pinned = [p for p in autos_all if all(p[u] == w for u, w in pins.items())]
    assert sorted(extensions(g, pins)) == pinned


def _symmetric(edge_list, n: int) -> Digraph:
    rows = [[] for _ in range(n)]
    for u, w in edge_list:
        rows[u].append(w)
        rows[w].append(u)
    return Digraph(sorted(r) for r in rows)


# C6 and two triangles: 2-regular, and every vertex lies on 6 closed
# 4-walks and 86 closed 8-walks, so neither the first colouring nor
# refinement separates the components
C6_AND_TRIANGLES = _symmetric(
    [(i, (i + 1) % 6) for i in range(6)]
    + [(o + i, o + (i + 1) % 3) for o in (6, 9) for i in range(3)],
    12,
)
# a simple digraph, in- and out-degree 2 everywhere
DEGREE_TWO = Digraph([(5, 6), (4, 5), (0, 7), (2, 4), (0, 1), (1, 3), (3, 7), (2, 6)])


def test_search_leaves_a_branch_whose_cell_sizes_differ():
    # a branch into the other component fails on its cell sizes.  Order
    # 12 * 72 = 864
    g = C6_AND_TRIANGLES
    assert set(_closed_walk_colours(g)) == {0}
    grp = automorphism_group(g)
    assert (grp.order, grp.nodes, grp.leaves) == (864, 39, 8)
    assert len(closure(grp.generators, g.n)) == 864


def test_search_leaves_a_subtree_without_an_automorphism(monkeypatch):
    # a branch at level 1 passes its cell sizes but none of its leaves is
    # an automorphism: refined, its four leaves are rejected, and
    # transferred, its four children find no map and count no leaf
    g = DEGREE_TWO
    grp = automorphism_group(g)
    assert (grp.order, grp.nodes, grp.leaves) == (4, 16, 3)
    refined = _without_transfers(monkeypatch, g)
    assert (refined.order, refined.nodes, refined.leaves) == (4, 16, 7)
    everything = itertools.permutations(range(g.n))
    assert sum(automorphism_per_vertex(g, p) for p in everything) == 4


def test_empty_digraph_has_the_trivial_group():
    grp = automorphism_group(Digraph([]))
    assert (grp.degree, grp.order, grp.base, grp.generators) == (0, 1, (), ())
    assert closure(grp.generators, 0) == {()}


def _two_arc_swaps(d: Digraph, seed: int, count: int) -> list[Digraph]:
    """Seeded degree-preserving two-arc swaps of d: arcs u1 -> t1 and
    u2 -> t2 become u1 -> t2 and u2 -> t1, kept only when the result has
    no loop and no parallel arc."""
    arcs = list(d.arcs())
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        (u1, t1), (u2, t2) = rng.sample(arcs, 2)
        if len({u1, t1, u2, t2}) < 4 or t2 in d.out[u1] or t1 in d.out[u2]:
            continue
        rows = [list(row) for row in d.out]
        rows[u1][rows[u1].index(t1)] = t2
        rows[u2][rows[u2].index(t2)] = t1
        out.append(Digraph(rows))
    return out


def test_closed_walk_colours_match_matrix_powers(d):
    # vertex 0 given five out-neighbours: its walk counts need a wider
    # field than those of a graph of maximum out-degree 3
    extra = [w for w in range(1, d.n) if w not in d.out[0]][:2]
    wide = Digraph([d.out[0] + tuple(extra), *d.out[1:]])
    # out-degrees 0 to 5: short out-lists read the zero row past their end
    uneven = Digraph([list(range(1, 1 + k)) for k in range(6)] + [[0, 2, 4]])
    # loops at 0 and 2, each a diagonal entry of the oracle's matrix
    loops = Digraph([[0, 1], [0], [2, 1]])
    graphs = (Digraph([]), Digraph([[]] * 5), uneven, loops, d, wide)
    for g in (*graphs, *_two_arc_swaps(d, seed=1, count=3)):
        a = adjacency_matrix(g)
        # out- and in-degrees, the row and column sums, then the walks
        keys = np.stack(
            [a.sum(1), a.sum(0), *(np.diag(np.linalg.matrix_power(a, k)) for k in (4, 8))],
            axis=1,
        )
        ranks = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
        assert _closed_walk_colours(g) == ranks.tolist()


# (base, nodes, leaves) of the search on each seed-5 swap; the base
# follows the canonical label order of the refinement, so this pins that
# order too
SEED5_SWAP_SEARCHES = [
    ((), 1, 1),
    ((), 1, 1),
    ((4,), 3, 2),
    ((), 1, 1),
    ((), 1, 1),
    ((), 1, 1),
    ((), 1, 1),
    ((91,), 3, 2),
    ((), 1, 1),
    ((24,), 4, 3),
    ((), 1, 1),
    ((), 1, 1),
    ((125,), 3, 2),
    ((), 1, 1),
    ((136,), 3, 2),
    ((), 1, 1),
    ((), 1, 1),
    ((), 1, 1),
    ((), 1, 1),
    ((), 1, 1),
]


# _refine calls of the search on each seed-5 swap: 0 where a derivation
# from the closed-walk colouring's singletons proves the group trivial,
# 1 for the root of the others (index 18 is trivial, but its colouring
# has no singleton to derive from); no swap refines below its root
SEED5_SWAP_REFINES = [0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0]


def test_near_asymmetric_search_budget(monkeypatch, d):
    # a swap changes the closed walks near it, so the closed-walk counts
    # split the first colouring and the search stays small; one of these
    # swaps takes 24 nodes when the search starts from 4-walk counts alone
    searches = []
    refines = []
    calls = _refines(monkeypatch)
    for swapped in _two_arc_swaps(d, seed=5, count=20):
        before = len(calls)
        grp = automorphism_group(swapped)
        refines.append(len(calls) - before)
        assert grp.nodes <= 16, grp.nodes
        assert all(is_automorphism(swapped, g) for g in grp.generators)
        assert len(closure(list(grp.generators), swapped.n)) == grp.order
        searches.append((grp.base, grp.nodes, grp.leaves))
    assert searches == SEED5_SWAP_SEARCHES
    assert refines == SEED5_SWAP_REFINES


def _cells(colors) -> set[frozenset]:
    """The set partition a colouring induces."""
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return set(map(frozenset, cells.values()))


def _relabelled(g: Digraph, seed: int) -> tuple[list[int], Digraph]:
    """A seeded permutation of range(g.n) and the copy of g it relabels."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    h = Digraph(
        [perm[w] for w in g.out[v]] for v in sorted(range(g.n), key=perm.__getitem__)
    )
    return perm, h


def _assert_refine_is_canonical(g: Digraph, seed: int, start=None):
    """_refine gives the set partition of the full-round oracle, and a
    copy of the input relabelled by a seeded permutation gives the same
    labels, moved along: from `start` (by default the closed-walk
    colouring), from the uniform one, and after every single
    individualization of a vertex in a non-singleton cell of the stable
    colouring from `start`."""
    perm, h = _relabelled(g, seed)
    start = _closed_walk_colours(g) if start is None else start
    stable = _refine(start, g)
    sizes = Counter(stable)
    cases = [(start, None), ([0] * g.n, None)]
    for v, c in enumerate(stable):
        if sizes[c] > 1:
            singled = list(stable)
            singled[v] = len(sizes)
            cases.append((singled, (v,)))
    for colors, moved in cases:
        got = _refine(colors, g, moved)
        assert _cells(got) == _cells(full_round_refine(colors, g)), moved
        colors_h = [0] * g.n
        for v, c in enumerate(colors):
            colors_h[perm[v]] = c
        moved_h = None if moved is None else tuple(perm[v] for v in moved)
        got_h = _refine(colors_h, h, moved_h)
        assert [got_h[perm[v]] for v in range(g.n)] == got, moved


# fixed small inputs: the path 0 -> 1 -> 2, whose ends get the count
# keys 1 * m + 0 and 0 * m + 1, which a key base m equal to the largest
# in-degree, 1, would not tell apart; a sink beside an isolated vertex,
# told apart by in-counts only; and two digraphs, one without loops,
# that a refinement leaves unstable from UNSTABLE_STARTS when it queues
# only the smaller parts of a cell still queued
SMALL = (
    Digraph([[1], [2], []]),
    Digraph([[], [], [0, 3, 4], [0, 2, 4], [2, 3]]),
    Digraph([[1], [], []]),
    Digraph([[], [0, 1], [0, 1, 2], [3]]),
)

# the colourings of those two by closed 4- and 8-walks alone, two cells
# each; their degrees split these further, so that _closed_walk_colours
# does not start from them
UNSTABLE_STARTS = ((SMALL[1], [0, 0, 1, 1, 1]), (SMALL[3], [0, 1, 1, 1]))


def test_refine_matches_full_rounds(d, cox):
    graphs = (d, cox, *_two_arc_swaps(d, seed=2, count=20), *SMALL)
    for seed, g in enumerate(graphs):
        _assert_refine_is_canonical(g, seed)
    for g, start in UNSTABLE_STARTS:
        _assert_refine_is_canonical(g, 0, start)


# out- and in-degree 2: two children at the last level have no transfer,
# so the search rules them out without refining them
UNTRANSFERABLE = Digraph([(5, 4), (2, 3), (3, 5), (1, 2), (0, 1), (4, 0)])


def _recorded_transfers(monkeypatch, g) -> list:
    """Patch autos._transfer to record, for each transfer on g, None or
    whether the map is an automorphism."""
    transfer = autos._transfer
    outcomes = []

    def recorded(*args):
        perm = transfer(*args)
        outcomes.append(perm if perm is None else is_automorphism(g, perm))
        return perm

    monkeypatch.setattr(autos, "_transfer", recorded)
    return outcomes


def _without_transfers(monkeypatch, g: Digraph) -> autos.AutGroup:
    """The group search on g refining every child at the last level, as
    it does when there is no derivation (the Coxeter graph)."""
    with monkeypatch.context() as m:
        m.setattr(autos, "_derivation", lambda *args: None)
        return automorphism_group(g)


def _assert_same_search(refined: autos.AutGroup, transferred: autos.AutGroup):
    """The same group, base and nodes; a transfer that finds no map is
    no leaf, where its refined leaf was one, so leaves can only drop."""
    assert refined._replace(leaves=0) == transferred._replace(leaves=0)
    assert refined.leaves >= transferred.leaves


def test_transfer_is_exact(monkeypatch, d, group, cox, cox_group):
    # every child at the last level refined gives the same group, base
    # and nodes as the transfers do: a failed transfer rules out only a
    # child whose refined leaf would not be kept
    assert _without_transfers(monkeypatch, d) == group
    _assert_same_search(_without_transfers(monkeypatch, cox), cox_group)
    graphs = (
        *_two_arc_swaps(d, seed=5, count=20),
        *SMALL,
        UNTRANSFERABLE,
        C6_AND_TRIANGLES,
        DEGREE_TWO,
        Digraph([]),
        Digraph([[] for _ in range(8)]),
        _relabelled_cycle(168, 3),
        two_copies(d),
    )
    for g in graphs:
        _assert_same_search(_without_transfers(monkeypatch, g), automorphism_group(g))


# Cayley(Z_n, S): vertex-transitive, and the first leaf of most of them
# transfers
circulants = st.integers(2, 30).flatmap(
    lambda n: st.sets(st.integers(1, n - 1), min_size=1, max_size=4).map(
        lambda s: Digraph([[(v + a) % n for a in sorted(s)] for v in range(n)])
    )
)


@given(circulants)
def test_transfer_is_exact_on_circulants(monkeypatch, g):
    _assert_same_search(_without_transfers(monkeypatch, g), automorphism_group(g))


def _without_shortcuts(monkeypatch, g: Digraph) -> autos.AutGroup:
    """The group search on g with no derivation from the closed-walk
    colouring's singletons alone: it refines its root colouring unless
    that has one colour."""
    derivation = autos._derivation

    def rooted(d, colors, b):
        return None if b is None else derivation(d, colors, b)

    with monkeypatch.context() as m:
        m.setattr(autos, "_derivation", rooted)
        return automorphism_group(g)


def _assert_shortcuts_are_exact(monkeypatch, g: Digraph, group: autos.AutGroup):
    """Skipping the root's refinement changes no field of the search:
    neither where the root derivation proves the group trivial, nor
    where the seed has one colour, which refining leaves as it is."""
    assert _without_shortcuts(monkeypatch, g) == group
    colors = _closed_walk_colours(g)
    if not any(colors):
        assert _refine(colors, g) == colors


# the directed 3-cycle with a tail 3 -> 0: its closed 4- and 8-walks are
# all 0 and its out-degree is 1 everywhere, but 0 has in-degree 2 and 3
# in-degree 0
TAILED_CYCLE = Digraph([[1], [2], [0], [0]])

# the same with the tail reversed, 0 -> 3: its in-degree is 1 everywhere,
# but 0 has out-degree 2 and 3 out-degree 0
REVERSED_TAIL = Digraph([[1, 3], [2], [0], []])

# the one arc 1 -> 0: no closed walks, and out- and in-degrees 0 and 1
ONE_ARC = Digraph([[], [0]])


def test_search_shortcuts_are_exact(monkeypatch, d, group, cox, cox_group):
    _assert_shortcuts_are_exact(monkeypatch, d, group)
    _assert_shortcuts_are_exact(monkeypatch, cox, cox_group)
    damaged = [g for _, kwargs in damage_corpus(d, cox) for g in kwargs.values()]
    graphs = (*_two_arc_swaps(d, seed=0, count=100), *damaged, TAILED_CYCLE, ONE_ARC)
    for g in graphs:
        _assert_shortcuts_are_exact(monkeypatch, g, automorphism_group(g))


@given(circulants)
def test_search_shortcuts_are_exact_on_circulants(monkeypatch, g):
    _assert_shortcuts_are_exact(monkeypatch, g, automorphism_group(g))


def test_degrees_let_the_root_derivation_prove_a_trivial_group(monkeypatch):
    # the walks give each of these one colour; the degrees split off
    # singletons, from which the root derivation proves the group
    # trivial, so the search refines nothing
    refined = _refines(monkeypatch)
    for g in (TAILED_CYCLE, ONE_ARC, REVERSED_TAIL):
        assert (automorphism_group(g), len(refined)) == (autos.AutGroup(g.n, (), 1, (), 1, 1), 0)


def _refines(monkeypatch) -> list:
    """Patch autos._refine to record one entry per call."""
    refine = autos._refine
    refined = []
    monkeypatch.setattr(autos, "_refine", lambda *args: refined.append(1) or refine(*args))
    return refined


def test_d_search_transfers_three_leaves(monkeypatch, d, group):
    # D's one-colour start is equitable, so its root is not refined; the
    # first path stops at the node whose derivation proves its leaf.
    # Level 0 tries first a child far from vertex 0 in the first path's
    # next colouring, whose generator completes the orbit of 168 with
    # the stabilizer's, so the search refines 2 colourings for its 7
    # nodes and transfers the other three leaves
    refined = _refines(monkeypatch)
    transfers = _recorded_transfers(monkeypatch, d)
    assert automorphism_group(d) == group
    assert (len(refined), transfers) == (2, [True] * 3)


def test_d_search_shape_does_not_depend_on_labels(monkeypatch, d):
    # the child order follows colours, not labels: in label order a
    # relabelling may first try a child in a proper block with base[0],
    # and then needs (9, 5) and 3 refines
    refined = _refines(monkeypatch)
    for seed in range(20):
        refined.clear()
        grp = automorphism_group(_relabelled(d, seed)[1])
        assert (grp.order, grp.nodes, grp.leaves, len(refined)) == (1008, 7, 4, 2), seed


def test_coxeter_search_transfers_its_last_level(monkeypatch, cox, cox_group):
    # elimination gives the Coxeter graph a derivation at its last level:
    # the first path refines 1 colouring below its equitable root and the
    # one branch at level 0 refines 1; three children at level 1 and one
    # below that branch are transferred, each to an automorphism
    refined = _refines(monkeypatch)
    transfers = _recorded_transfers(monkeypatch, cox)
    assert automorphism_group(cox) == cox_group
    assert (len(refined), transfers) == (2, [True] * 4)


def test_search_refuses_a_transfer_that_misses_the_branch(monkeypatch, d):
    # the identity is an automorphism, but it takes no branch's vertex
    # where the branch wants it, so every transfer is refused, and a
    # refused transfer rules its child out: no generator is found.  A
    # transfer that stops at a step rules its child out too, and the
    # child is not counted as a leaf: leaves counts only the transfers
    # that yield a map, here all 1008 identities or none
    for transfer, leaves in (
        (lambda *args: tuple(range(d.n)), 1008),
        (lambda *args: None, 1),
    ):
        monkeypatch.setattr(autos, "_transfer", transfer)
        grp = automorphism_group(d)
        assert (grp.order, grp.generators, grp.nodes, grp.leaves) == (1, (), 1177, leaves)


def test_search_rules_out_a_child_whose_transfer_fails(monkeypatch):
    # only the root is refined: its derivation proves the first leaf, and
    # the other children are transferred; the two that find no map are
    # not refined
    g = UNTRANSFERABLE
    refined = _refines(monkeypatch)
    transfers = _recorded_transfers(monkeypatch, g)
    grp = automorphism_group(g)
    assert (len(refined), transfers) == (1, [None, None, True])
    everything = itertools.permutations(range(g.n))
    assert grp.order == sum(automorphism_per_vertex(g, p) for p in everything)
    assert all(is_automorphism(g, p) for p in grp.generators)


# 0 -> 1, 4 -> 1, 4 -> 2, 2 -> 3, coloured B A A B S: from b = 0 and the
# singleton 4, 1 is the out-neighbour of 0, 2 the out-neighbour of 4 left
# once 1 is reached, and 3 the out-neighbour of 2
ELIMINATION = Digraph([[1], [], [3], [], [1, 2]])
ELIMINATION_COLOURS = [1, 0, 0, 1, 2]


def test_derivation_steps_by_elimination():
    g = ELIMINATION
    steps = autos._derivation(g, ELIMINATION_COLOURS, 0)
    # 4 -> 2 is a step although 4 has two out-neighbours coloured A
    assert steps == [(1, 0, g.out), (2, 4, g.out), (3, 2, g.out)]
    identity = autos._transfer(steps, ELIMINATION_COLOURS, 0, ELIMINATION_COLOURS, 0)
    assert identity == (0, 1, 2, 3, 4)


def test_derivation_from_the_singletons_alone():
    # the path 0 -> 1 -> 2 coloured B A A: from the singleton 0 alone, 1
    # is its one out-neighbour and 2 that of 1, so refining needs no
    # individualized vertex to be discrete
    g = Digraph([[1], [2], []])
    colours = [1, 0, 0]
    assert autos._derivation(g, colours, None) == [(1, 0, g.out), (2, 1, g.out)]
    assert sorted(_refine(colours, g)) == [0, 1, 2]
    # with no singleton there is nothing to derive from
    assert autos._derivation(g, [0, 0, 0], None) is None


def test_transfer_refuses_without_exactly_one_unused_candidate():
    g = ELIMINATION
    first = ELIMINATION_COLOURS
    steps = autos._derivation(g, first, 0)
    # 1 and 3 coloured A, 0 and 2 coloured B: 0 -> 0 takes 1 to 1, and
    # then 4's out-neighbours coloured A are 1 alone, already an image
    assert autos._transfer(steps, first, 0, [1, 0, 1, 0, 2], 0) is None
    # 0 singled out, 3 and 4 coloured B: 0 -> 4 leaves both of 4's
    # out-neighbours coloured A unused
    assert autos._transfer(steps, first, 0, [2, 0, 0, 1, 1], 4) is None


def test_transfer_steps_need_one_vertex_each():
    # the directed 3-cycle with vertex 0 singled out: from b = 1 and the
    # singleton 0, one step finds 2 as the out-neighbour of 1
    c3 = Digraph([[1], [2], [0]])
    first = [0, 1, 1]
    steps = autos._derivation(c3, first, 1)
    assert steps == [(2, 1, c3.out)]
    # a node coloured as the rotation moves the first: the rotation
    assert autos._transfer(steps, first, 1, [1, 1, 0], 0) == (2, 0, 1)
    # the out-neighbour of 1's image has the singleton's colour: no map
    assert autos._transfer(steps, first, 1, [1, 0, 1], 0) is None
    # with no arcs nothing but the roots is reached
    assert autos._derivation(Digraph([[], [], []]), first, 1) is None


def test_vertex_and_arc_transitivity(d, group):
    assert len(vertex_orbits(group)) == 1
    orbits = arc_orbits(d, group)
    assert len(orbits) == 1
    assert len(orbits[0]) == 504


def test_vertex_stabilizer_order(d, group):
    # orbit-stabilizer: |G_v| = |G| / |orbit of v|
    orbits = vertex_orbits(group)
    for v in (0, 31, 100):
        orbit = next(o for o in orbits if v in o)
        assert group.order // len(orbit) == group.order // d.n == 6


def test_extend_identity_pins(d):
    perm = extend_isomorphism(d, {0: 0, 1: 1, 2: 2, 3: 3})
    assert perm is not None
    assert perm[0] == 0 and perm[3] == 3
    assert is_automorphism(d, perm)


def test_extend_translation_between_cycle_and_its_shift(d, cycles):
    # a known cycle mapped onto its translate by 1 with no rotation
    idx = tuple(vertex_index(parse_compact(s)) for s in EXAMPLE_CYCLE)
    cyc = canonical_cycle(idx)
    assert cyc in set(cycles)
    shift = lift_pencil_map(lambda v: translate(v, 1))
    pins = {cyc[k]: shift[cyc[k]] for k in range(4)}
    perm = extend_isomorphism(d, pins)
    assert perm is not None
    assert is_automorphism(d, perm)
    for k in range(4):
        assert perm[cyc[k]] == shift[cyc[k]]


@settings(max_examples=50)
@given(i=st.integers(0, 125), j=st.integers(0, 125), r=st.integers(0, 3))
def test_extension_is_a_group_element(d, cycles, elements, i, j, r):
    pins = _pin_map(cycles, i, j, r)
    perm = extend_isomorphism(d, pins)
    assert perm is not None
    assert all(perm[u] == w for u, w in pins.items())
    assert is_automorphism(d, perm)
    assert perm in elements


def test_extend_across_components(d, cycles):
    # two disjoint copies of D: once one copy is mapped the frontier is
    # empty, and the search must restart from a vertex of the other copy
    n = d.n
    twice = Digraph(list(d.out) + [tuple(w + n for w in row) for row in d.out])
    a, b = cycles[0], cycles[5]
    for pins in ({v: v for v in a}, {a[k]: b[(k + 1) % 4] + n for k in range(4)}):
        perm = extend_isomorphism(twice, pins)
        assert perm is not None
        assert all(perm[u] == w for u, w in pins.items())
        assert is_automorphism(twice, perm)


def test_extend_backtracks_from_dead_branch(d, cycles, elements):
    # the third of the random.Random(1) pins that
    # test_extension_search_order_is_pinned draws: the first image tried
    # at one branch point is a dead end, so the search backtracks
    # and must restore the domains it narrowed there
    pins = _pin_map(cycles, 83, 48, 1)
    perm = extend_isomorphism(d, pins)
    assert perm is not None
    assert all(perm[u] == w for u, w in pins.items())
    assert perm in elements


# sha256 of the repr of the list of the 100 permutations that the
# pins of 100 random (cycle, cycle, rotation) triples, drawn by
# random.Random(1), extend to
SEED1_EXTENSIONS_SHA256 = (
    "decb24906f561da088cb084489897cf68248e3383c9d32657bd0e16fd38c3690"
)


def test_extension_search_order_is_pinned(d, cycles):
    # which automorphism a pin extends to depends on the branching order
    # (fewest images first, lowest vertex on ties, images in sorted
    # order)
    rng = random.Random(1)
    m = len(cycles)
    perms = []
    for _ in range(100):
        i, j, r = rng.randrange(m), rng.randrange(m), rng.randrange(4)
        perms.append(extend_isomorphism(d, _pin_map(cycles, i, j, r)))
    digest = hashlib.sha256(repr(perms).encode()).hexdigest()
    assert digest == SEED1_EXTENSIONS_SHA256


def test_certificate_search_stays_pruned(d, cycles):
    # calls of the search's two closures over D's certificate: 23 of
    # assign and 11 of branch, 10 and 5 of them in the enumeration of the
    # root cycle's stabilizer (36 and 19 with only the root arc pinned).
    # Deleting the taken-image pruning in assign (its "w is taken" block)
    # keeps every answer and the pinned order above, but raises them to
    # 106 and 56.  On D the reverse neighbourhood test in assign never
    # prunes, but on the two-arc swap 84 -> 44, 129 -> 11 (the fifth of
    # _two_arc_swaps(d, seed=1, count=5)) it does: the one search for
    # the pin 0 -> 5 finds nothing in exactly 190 and 94 calls, and in
    # 200 and 99 without that test
    codes = {c.co_name: c for c in extensions.__code__.co_consts if hasattr(c, "co_name")}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in (codes["assign"], codes["branch"]):
            calls[frame.f_code.co_name] += 1

    rows = [list(row) for row in d.out]
    rows[84][rows[84].index(44)] = 11
    rows[129][rows[129].index(11)] = 44
    swapped = Digraph(rows)
    sys.setprofile(profile)
    try:
        rep = verify_c4uh(d, cycles, cycle_arc_cover(d, cycles))
        on_d = dict(calls)
        calls.clear()
        found = next(extensions(swapped, {0: 5}), None)
    finally:
        sys.setprofile(None)
    assert rep.aut_order == 1008
    assert on_d == {"assign": 23, "branch": 11}
    assert found is None
    assert calls == {"assign": 190, "branch": 94}


def test_extension_frees_its_state_on_return(d, cycles):
    # the search keeps no reference cycle, so its domains and the copies
    # kept at its branch points go when the call returns, not at the next
    # cyclic collection
    gc.collect()
    gc.disable()
    try:
        for i, j, r in ((83, 48, 1), (0, 5, 2)):
            extend_isomorphism(d, _pin_map(cycles, i, j, r))
        assert gc.collect() == 0
    finally:
        gc.enable()


D = build_d()


def _retargeted(retargets) -> Digraph:
    g = D
    for u, slot, target in retargets:
        g = with_retargeted_arc(g, u, slot, target)
    return g


@settings(max_examples=25)
# a two-arc swap of D that an involution of D keeps: its group has order 4
@example(retargets=[(0, 0, 78), (1, 0, 79)], i=0, j=1, r=0)
@example(retargets=[(0, 0, 78), (1, 0, 79)], i=0, j=1, r=1)
@given(
    retargets=retarget_lists(D),
    i=st.integers(0, 125),
    j=st.none() | st.integers(0, 125),
    r=st.integers(0, 3),
)
def test_extension_agrees_with_group_on_damaged_graphs(retargets, i, j, r):
    # None exactly when no group element respects the pins; j=None pins
    # cycle i onto itself
    g = _retargeted(retargets)
    grp = automorphism_group(g)
    assume(grp.order <= 64)
    cyc = enumerate_4cycles(g)
    i %= len(cyc)
    j = i if j is None else j % len(cyc)
    pins = _pin_map(cyc, i, j, r)
    elements = closure(grp.generators, g.n)
    respecting = [h for h in elements if all(h[u] == w for u, w in pins.items())]
    perm = extend_isomorphism(g, pins)
    if not respecting:
        assert perm is None
    else:
        assert perm is not None
        assert all(perm[u] == w for u, w in pins.items())
        assert perm in elements


@settings(max_examples=25)
@given(retargets=retarget_lists(D), seed=st.integers(0, 2**32))
def test_refine_matches_full_rounds_on_damaged_graphs(retargets, seed):
    _assert_refine_is_canonical(_retargeted(retargets), seed)


def test_extend_fails_on_arc_to_non_arc(d):
    v = d.out[0][0]
    non_nbr = next(w for w in range(d.n) if w not in d.out[0] and w != 0)
    assert extend_isomorphism(d, {0: 0, v: non_nbr}) is None


def test_extend_fails_on_collapsing_pins(d):
    assert extend_isomorphism(d, {0: 5, 1: 5}) is None


@pytest.mark.parametrize(
    "pins, bad",
    [
        ({-1: 0}, "-1 -> 0"),
        ({0: -1}, "0 -> -1"),
        ({0: 3}, "0 -> 3"),
        ({0: 1, 4: 9, 5: 0}, "4 -> 9"),
        ({True: 2}, "True -> 2"),
        ({1.0: 2}, "1.0 -> 2"),
    ],
)
def test_extend_rejects_pins_outside_the_vertices(pins, bad):
    # a negative pin must not be read from the end, nor a large one raise
    # IndexError, nor a bool be read as 0 or 1, nor a float reach list
    # indexing; the error names the first bad pin
    c3 = Digraph([[1], [2], [0]])
    with pytest.raises(ValueError, match=f"pin {bad} is not in 0..2"):
        next(extensions(c3, pins))
    assert list(extensions(c3, {0: 2})) == [(2, 0, 1)]


def test_extend_fails_on_a_pin_against_a_forced_image():
    # on a directed triangle, 0 -> 0 forces 1 -> 1, so the pin 1 -> 2 fails
    assert list(extensions(Digraph([[1], [2], [0]]), {0: 0, 1: 2})) == []


def test_extend_fails_on_a_mapped_neighbour_that_is_not_adjacent():
    # 0 -> 1 with a loop at 1: mapping 0 to 1 maps the out-neighbour 1 of
    # the image back from 0, which is not an out-neighbour of 0
    assert list(extensions(Digraph([[1], [1]]), {0: 1})) == []


def test_uh_report_certificate(d, cycles, group):
    rep = verify_c4uh(d, cycles, cycle_arc_cover(d, cycles))
    assert rep.passed
    assert len(arc_orbits(d, group)) == 1
    assert rep.failures == ()
    # two extensions of cycle 0 carry its first arc onto all 504 arcs
    assert rep.direct_checked == 2
    assert rep.detail == (
        "2 extension runs from cycle 0 reach all 504 arcs, 0 failures; "
        "2 automorphisms fix arc 0 -> 79, so the order is 504 x 2 = 1008"
    )
    assert rep.aut_order == group.order


def test_uh_detects_retargeted_arc(d):
    target = 0 if d.out[9][2] != 0 else 1
    broken = with_retargeted_arc(d, 9, 2, target)
    cycles = enumerate_4cycles(broken)
    rep = verify_c4uh(broken, cycles, cycle_arc_cover(broken, cycles))
    assert not rep.passed and rep.aut_order == rep.direct_checked == 0
    # the count, 125, is the cycles.count check's to report
    assert rep.detail == "cycles do not partition the arcs; first: arc 9 -> 0"


def test_uh_gate_does_not_count_the_cycles(d):
    # two copies of D: 252 cycles partition the arcs, and the union is
    # C4-ultrahomogeneous, but more than 2 automorphisms fix an arc
    g = two_copies(d)
    cycles = enumerate_4cycles(g)
    rep = verify_c4uh(g, cycles, cycle_arc_cover(g, cycles))
    assert rep.passed and rep.aut_order == 0
    assert rep.detail.startswith(
        "3 extension runs from cycle 0 reach all 1008 arcs, 0 failures; "
        "more than 2 automorphisms fix arc 0 -> 79"
    )


def test_uh_stops_at_first_failure(monkeypatch, d, cycles):
    # with every extension failing, the runs stop at the first flag past
    # the root: cycle 0 onto itself, rotated once
    monkeypatch.setattr(autos, "extend_isomorphism", lambda d, pins: None)
    rep = verify_c4uh(d, cycles, cycle_arc_cover(d, cycles))
    assert not rep.passed
    assert rep.failures == ((0, 0, 1),)
    assert rep.direct_checked == 1
    assert rep.detail == "1 extension runs from cycle 0, 1 failure: (0, 0, 1) does not extend"
    # an orbit cut short certifies no order
    assert rep.aut_order == 0


def test_direct_checked_counts_extension_calls(monkeypatch, d, cycles):
    # bench/workloads.call_count_errors expects one extend_isomorphism
    # call per direct_checked in a traced run
    calls = []

    def counted(graph, pins):
        calls.append(pins)
        return extend_isomorphism(graph, pins)

    monkeypatch.setattr(autos, "extend_isomorphism", counted)
    rep = verify_c4uh(d, cycles, cycle_arc_cover(d, cycles))
    assert rep.passed
    assert len(calls) == rep.direct_checked


def test_pin_map_shape(cycles):
    pins = _pin_map(cycles, 0, 1, 2)
    assert len(pins) == 4
    assert set(pins) == set(cycles[0])
    assert set(pins.values()) == set(cycles[1])


def test_root_arc_stabilizer_certifies_the_order(d, cycles):
    # 2 automorphisms fix the root arc, so |Aut D| = 504 * 2 by
    # orbit-stabilizer, with no help from the group search; they are the
    # ones that fix the root cycle, the only 4-cycle through that arc
    u, w = cycles[0][:2]
    stab = list(extensions(d, {u: u, w: w}))
    assert len(stab) == ARC_STABILIZER == 2
    assert all(is_automorphism(d, g) and g[u] == u and g[w] == w for g in stab)
    assert list(extensions(d, _pin_map(cycles, 0, 0, 0))) == stab
    assert verify_c4uh(d, cycles, cycle_arc_cover(d, cycles)).aut_order == 1008


def test_stabilizer_enumeration_stops_past_the_bound():
    # 126 disjoint directed 4-cycles pass the structure gate, and the arc
    # stabilizer is huge: every other cycle can be moved and rotated; the
    # enumeration is cut at the first solution past ARC_STABILIZER
    g = Digraph([[4 * (v // 4) + (v + 1) % 4] for v in range(504)])
    cycles = enumerate_4cycles(g)
    assert len(cycles) == 126 and cycle_arc_cover(g, cycles)[0]
    u, w = cycles[0][:2]
    for pins in ({u: u, w: w}, _pin_map(cycles, 0, 0, 0)):
        stab = list(islice(extensions(g, pins), ARC_STABILIZER + 1))
        assert len(stab) == 3 and len(set(stab)) == 3
        assert all(is_automorphism(g, p) and p[u] == u and p[w] == w for p in stab)


def test_certificate_incomplete_past_the_stabilizer_bound(monkeypatch, d, cycles):
    # with the bound at 1, D's second root-arc automorphism is the extra
    # one: homogeneity still holds, but no order is certified
    monkeypatch.setattr(autos, "ARC_STABILIZER", 1)
    rep = verify_c4uh(d, cycles, cycle_arc_cover(d, cycles))
    assert rep.passed and rep.aut_order == 0
    assert rep.detail == (
        "2 extension runs from cycle 0 reach all 504 arcs, 0 failures; "
        "more than 1 automorphisms fix arc 0 -> 79; one moves vertex 4 to 13"
    )


def test_extension_generator_starts_with_extend_isomorphism(d, cycles):
    for i, j, r in ((0, 5, 2), (83, 48, 1)):
        pins = _pin_map(cycles, i, j, r)
        first, *rest = extensions(d, pins)
        assert first == extend_isomorphism(d, pins)
        # the pins map one arc onto another, which a coset of an arc
        # stabilizer does: 2 automorphisms
        assert len(rest) == 1 and rest[0] != first
