
import gc
import hashlib
import random
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanopencils import autos, verify
from fanopencils.autos import (
    ARC_STABILIZER,
    _closed_walk_colours,
    _pin_map,
    _refine,
    arc_orbits,
    automorphism_group,
    compose,
    extend_isomorphism,
    extensions,
    induced_automorphism,
    is_automorphism,
    lift_vertex_map,
    rotate_slots,
    verify_c4uh,
    vertex_orbits,
)
from fanopencils.digraph import (
    Digraph,
    build_d,
    canonical_cycle,
    cycle_arc_cover,
    enumerate_4cycles,
    orbits,
)
from fanopencils.fano import NotALine, collineations
from fanopencils.golden import EXAMPLE_CYCLE
from fanopencils.pencils import DVertex, parse_compact, translate, vertex_index
from helpers import (
    adjacency_matrix,
    closure,
    full_round_refine,
    inverse,
    swap_slots,
    two_copies,
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


def test_compose_inverse():
    p = (2, 0, 1)
    q = (1, 2, 0)
    assert compose(p, q) == (0, 1, 2)
    assert inverse(p) == q


def test_collineation_lifts_are_automorphisms(d):
    for s in collineations()[:25]:
        assert is_automorphism(d, induced_automorphism(s))
    # the table lookup agrees with lifting each vertex one at a time
    for s in collineations():
        one_by_one = lift_vertex_map(
            lambda v: DVertex(s[v.base], tuple(s[q] for q in v.line))
        )
        assert induced_automorphism(s) == one_by_one


def test_bad_lifts_are_rejected():
    not_collineation = (1, 0, 2, 3, 4, 5, 6)
    assert not_collineation not in collineations()
    with pytest.raises(NotALine):
        induced_automorphism(not_collineation)
    with pytest.raises(NotALine):
        induced_automorphism((0, 0, 1, 2, 3, 4, 5))
    with pytest.raises(NotALine):
        induced_automorphism(collineations()[0] + (7,))


def test_slot_maps_are_automorphisms(d):
    rot = lift_vertex_map(rotate_slots)
    swp = lift_vertex_map(swap_slots)
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
    lifted.append(lift_vertex_map(rotate_slots))
    lifted.append(lift_vertex_map(swap_slots))
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
        lift_vertex_map(lambda v, t=t: translate(v, t)) for t in range(7)
    ]
    named += [lift_vertex_map(rotate_slots), lift_vertex_map(swap_slots)]
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
    assert (group.nodes, group.leaves, group.base) == (11, 6, (0, 7))
    assert (cox_group.nodes, cox_group.leaves) == (8, 5)


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
    for g in (d, wide, *_two_arc_swaps(d, seed=1, count=3)):
        a = adjacency_matrix(g)
        walks = np.stack(
            [np.diag(np.linalg.matrix_power(a, k)) for k in (4, 8)], axis=1
        )
        ranks = np.unique(walks, axis=0, return_inverse=True)[1].ravel()
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


def test_near_asymmetric_search_budget(d):
    # a swap changes the closed walks near it, so the closed-walk counts
    # split the first colouring and the search stays small; one of these
    # swaps takes 24 nodes when the search starts from 4-walk counts alone
    searches = []
    for swapped in _two_arc_swaps(d, seed=5, count=20):
        grp = automorphism_group(swapped)
        assert grp.nodes <= 16, grp.nodes
        assert all(is_automorphism(swapped, g) for g in grp.generators)
        assert len(closure(list(grp.generators), swapped.n)) == grp.order
        searches.append((grp.base, grp.nodes, grp.leaves))
    assert searches == SEED5_SWAP_SEARCHES


def _assert_refine_matches_full_rounds(g: Digraph):
    """_refine agrees with the full-round oracle from the closed-walk
    colouring and after every single individualization of a vertex in a
    non-singleton cell of the stable colouring."""
    start = _closed_walk_colours(g)
    stable = _refine(start, g)
    assert stable == full_round_refine(start, g)
    sizes = Counter(stable)
    for v, c in enumerate(stable):
        if sizes[c] > 1:
            singled = list(stable)
            singled[v] = len(sizes)
            assert _refine(singled, g, (v,)) == full_round_refine(singled, g), v


def test_refine_matches_full_rounds(d, cox):
    for g in (d, cox, *_two_arc_swaps(d, seed=2, count=20)):
        _assert_refine_matches_full_rounds(g)


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
    shift = lift_vertex_map(lambda v: translate(v, 1))
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


def test_extension_frees_its_state_on_return(d, cycles):
    # the search keeps no reference cycle, so its domains and trail go
    # when the call returns, not at the next cyclic collection
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


# one or two out-list entries of D pointed at arbitrary vertices
retarget_lists = st.lists(
    st.tuples(st.integers(0, 167), st.integers(0, 2), st.integers(0, 167)),
    min_size=1,
    max_size=2,
    unique_by=lambda r: r[:2],
)


@settings(max_examples=25)
# a two-arc swap of D that an involution of D keeps: its group has order 4
@example(retargets=[(0, 0, 78), (1, 0, 79)], i=0, j=1, r=0)
@example(retargets=[(0, 0, 78), (1, 0, 79)], i=0, j=1, r=1)
@given(
    retargets=retarget_lists,
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
@given(retargets=retarget_lists)
def test_refine_matches_full_rounds_on_damaged_graphs(retargets):
    _assert_refine_matches_full_rounds(_retargeted(retargets))


def test_extend_fails_on_arc_to_non_arc(d):
    v = d.out[0][0]
    non_nbr = next(w for w in range(d.n) if w not in d.out[0] and w != 0)
    assert extend_isomorphism(d, {0: 0, v: non_nbr}) is None


def test_extend_fails_on_collapsing_pins(d):
    assert extend_isomorphism(d, {0: 5, 1: 5}) is None


def test_uh_report_certificate(d, cycles, group):
    rep = verify_c4uh(d, cycles)
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
    payload = rep.to_json_dict()
    assert set(payload) == {"pass", "aut_order", "failures"}
    assert payload["pass"] is True
    assert payload["failures"] == []


def test_uh_detects_retargeted_arc(d):
    target = 0 if d.out[9][2] != 0 else 1
    broken = with_retargeted_arc(d, 9, 2, target)
    rep = verify_c4uh(broken, enumerate_4cycles(broken))
    assert not rep.passed and rep.aut_order == 0
    assert rep.detail == (
        "125 oriented 4-cycles, expected 126; cycles do not partition the arcs (4 witnesses)"
    )


def test_uh_stops_at_first_failure(monkeypatch, d, cycles):
    # with every extension failing, the runs stop at the first flag past
    # the root: cycle 0 onto itself, rotated once
    monkeypatch.setattr(autos, "extend_isomorphism", lambda d, pins: None)
    rep = verify_c4uh(d, cycles)
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
    rep = verify_c4uh(d, cycles)
    assert rep.passed
    assert len(calls) == rep.direct_checked


def test_pin_map_shape(cycles):
    pins = _pin_map(cycles, 0, 1, 2)
    assert len(pins) == 4
    assert set(pins) == set(cycles[0])
    assert set(pins.values()) == set(cycles[1])


def test_root_arc_stabilizer_certifies_the_order(d, cycles):
    # 2 automorphisms fix the root arc, so |Aut D| = 504 * 2 by
    # orbit-stabilizer, with no help from the group search
    u, w = cycles[0][:2]
    stab = list(extensions(d, {u: u, w: w}))
    assert len(stab) == ARC_STABILIZER == 2
    assert all(is_automorphism(d, g) and g[u] == u and g[w] == w for g in stab)
    assert verify_c4uh(d, cycles).aut_order == 1008


def test_stabilizer_enumeration_stops_past_the_bound():
    # 126 disjoint directed 4-cycles pass the structure gate, and the arc
    # stabilizer is huge: every other cycle can be moved and rotated; the
    # enumeration is cut at the first solution past ARC_STABILIZER
    g = Digraph([[4 * (v // 4) + (v + 1) % 4] for v in range(504)])
    cycles = enumerate_4cycles(g)
    assert len(cycles) == 126 and cycle_arc_cover(g, cycles)[0]
    u, w = cycles[0][:2]
    stab = list(islice(extensions(g, {u: u, w: w}), ARC_STABILIZER + 1))
    assert len(stab) == 3 and len(set(stab)) == 3
    assert all(is_automorphism(g, p) and p[u] == u and p[w] == w for p in stab)


def test_certificate_incomplete_past_the_stabilizer_bound(monkeypatch, d, cycles):
    # with the bound at 1, D's second root-arc automorphism is the extra
    # one: homogeneity still holds, but no order is certified
    monkeypatch.setattr(autos, "ARC_STABILIZER", 1)
    rep = verify_c4uh(d, cycles)
    assert rep.passed and rep.aut_order == 0
    assert rep.detail.startswith(
        "2 extension runs from cycle 0 reach all 504 arcs, 0 failures; "
        "more than 1 automorphisms fix arc 0 -> 79; one moves vertex "
    )


def test_extension_generator_starts_with_extend_isomorphism(d, cycles):
    for i, j, r in ((0, 5, 2), (83, 48, 1)):
        pins = _pin_map(cycles, i, j, r)
        first, *rest = extensions(d, pins)
        assert first == extend_isomorphism(d, pins)
        # the pins map one arc onto another, which a coset of an arc
        # stabilizer does: 2 automorphisms
        assert len(rest) == 1 and rest[0] != first
