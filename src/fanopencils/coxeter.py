"""The 28-vertex graph on unordered pencils and its invariants.

A vertex is a base point together with a line avoiding it; equivalently
an unordered pencil of ordered lines through the base whose far entries
form a line.  The ordered digraph replaces these pencils by ordered
ones, so forgetting the order projects it onto this graph: each arc
aligns its two pencils entry for entry, lands on an edge, and each
direction of each edge is the image of 6 arcs.  The edges come from the
arc rule on the sorted pencil, its images read in any order.  The
expected invariants are those of the classical cubic distance-regular
graph of girth 7 on 28 vertices.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

from .digraph import Digraph, arc_label, bfs, image_rows
from .fano import lines_avoiding
from .pencils import Pencil, enumerate_vertices


@cache
def cox_vertices() -> tuple[Pencil, ...]:
    """All 28 vertices, lines sorted: bases, then line indices ascending."""
    return tuple(Pencil(b, l) for b in range(7) for l in lines_avoiding(b))


@cache
def _cox_index() -> dict[tuple[int, tuple[int, int, int]], int]:
    """(base, line in any of its 6 orders) -> index in cox_vertices()."""
    verts = enumerate(cox_vertices())
    return {(v.base, t): i for i, v in verts for t in permutations(v.line)}


def cox_adjacent(u: Pencil, w: Pencil) -> tuple[int, int] | None:
    """The alignment of one arc: the Coxeter indices of the unordered
    pencils of u and w when arc_label accepts u -> w, else None.

    Forgetting the order of the entries of an arc's two pencils aligns
    them entry for entry: aligned entries share one point each, and those
    points form the far line of the target.
    """
    if arc_label(u, w) is None:
        return None
    index = _cox_index()
    return index[u.base, u.line], index[w.base, w.line]


def projection(d: Digraph, cox: Digraph) -> tuple[bool, str]:
    """(ok, detail): ok iff d is on the 168 ordered pencils and forgetting
    their order carries its arcs onto the edges of cox, each direction of
    each edge the image of 6 arcs (504 = 84 * 6).  The detail names the
    first arc or edge that fails."""
    verts = enumerate_vertices()
    if d.n != len(verts):
        return False, f"D has {d.n} vertices, not {len(verts)}"
    hits = dict.fromkeys(cox.arcs(), 0)
    for u, w in d.arcs():
        pair = cox_adjacent(verts[u], verts[w])
        if pair is None:
            return False, f"arc {u} -> {w} breaks the arc equations"
        if pair not in hits:
            return False, f"arc {u} -> {w} aligns {pair[0]} -> {pair[1]}, not an edge"
        hits[pair] += 1
    for (i, j), k in sorted(hits.items()):
        if k != 6:
            return False, f"edge {i} -> {j} is aligned by {k} arcs, not 6"
    return True, f"{d.arc_count()} arcs align, 6 onto each of {len(hits)} directed edges"


def build_coxeter() -> Digraph:
    """The graph as a symmetric digraph: row i lists the neighbours of
    cox_vertices()[i], ascending.  Each entry b hands the base to the
    companion of b and keeps b while the other entries are replaced by
    their companions: digraph.image_rows on the sorted pencil."""
    return Digraph(sorted(row) for row in image_rows(cox_vertices(), _cox_index()))


def edges(g: Digraph) -> list[tuple[int, int]]:
    """The edges u -- w, as the arcs u -> w with u < w."""
    return sorted((u, w) for u, w in g.arcs() if u < w)


def girth_with_witness(g: Digraph):
    """Shortest cycle length and one witness cycle of the simple graph
    under g (arcs taken both ways, loops and repeats dropped), or
    (None, ()) if it has no cycle.

    A plain search runs from every vertex (Itai & Rodeh 1978), one layer
    at a time: an edge inside layer i closes a walk of length 2i + 1
    through the root, and a vertex reached from two vertices of layer i
    one of length 2i + 2.
    Each walk shorter than the best found so far is read back along the
    parents and kept; at the minimum it is a cycle, as a repeated vertex
    would close a shorter one.  Layers that cannot beat the best length
    found are skipped.
    """
    rows = [sorted(set(o).union(i) - {u}) for u, (o, i) in enumerate(zip(g.out, g.inn))]
    best, witness = g.n + 1, ()
    for v in range(g.n):
        dist, parent = [-1] * g.n, [-1] * g.n
        dist[v] = 0
        frontier, i = [v], 0
        while frontier and 2 * i + 1 < best:
            nxt = []
            for u in frontier:
                for w in rows[u]:
                    if dist[w] < 0:
                        dist[w], parent[w] = i + 1, u
                        nxt.append(w)
                    elif dist[w] >= i and i + dist[w] + 1 < best:
                        best = i + dist[w] + 1
                        up, down = [u], [w]
                        for path in up, down:
                            while path[-1] != v:
                                path.append(parent[path[-1]])
                        witness = tuple(up[::-1] + down[:-1])
            frontier, i = nxt, i + 1
    return (best, witness) if witness else (None, ())


class NotDistanceRegular(ValueError):
    """A graph whose intersection numbers depend on the vertex pair."""


def distance_regular_array(g: Digraph):
    """Intersection numbers (b_0..b_{d-1}; c_1..c_d).

    Raises NotDistanceRegular naming the first vertex u whose counts, as
    seen from a base vertex v, disagree with those of an earlier pair at
    the same distance, the first vertex v cannot reach, or a graph with
    no vertices.
    """
    if g.n == 0:
        raise NotDistanceRegular("the graph has no vertices")
    dist = [bfs(g.out, v) for v in range(g.n)]
    diam = max(max(row) for row in dist)
    # b_d = 0 and c_0 = 0 hold in every connected graph
    b = [None] * diam + [0]
    c = [0] + [None] * diam
    for v, dv in enumerate(dist):
        for u, i in enumerate(dv):
            if i < 0:
                raise NotDistanceRegular(f"from vertex {v}, vertex {u} is unreachable")
            up = down = 0
            for w in g.out[u]:
                if dv[w] == i + 1:
                    up += 1
                elif dv[w] == i - 1:
                    down += 1
            for name, counts, got in (("b", b, up), ("c", c, down)):
                if counts[i] is None:
                    counts[i] = got
                elif counts[i] != got:
                    raise NotDistanceRegular(
                        f"from vertex {v}, vertex {u} at distance {i} has "
                        f"{name}_{i} = {got}, not {counts[i]}"
                    )
    return tuple(b[:diam]), tuple(c[1:])


EXPECTED_ARRAY = ((3, 2, 2, 1), (1, 1, 1, 2))
