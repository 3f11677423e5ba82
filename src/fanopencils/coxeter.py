"""The 28-vertex graph on unordered pencils and its invariants.

A vertex is a base point together with a line avoiding it; equivalently
an unordered pencil of ordered lines through the base whose far entries
form a line.  Adjacency aligns the two pencils entry-for-entry so that
aligned entries share exactly one point, the shared points form a line,
and the alignment respects the written order of an arc of the ordered
digraph.  The expected invariants are those of the classical cubic
distance-regular graph of girth 7 on 28 vertices.
"""

from __future__ import annotations

import itertools
from functools import cache

from .digraph import LABELS, Digraph, arc_label, bfs, step
from .fano import line_index, lines_avoiding, third_point
from .pencils import DVertex, Pencil


class CoxVertex(Pencil):
    """Base point plus the (sorted) line of far entries of its pencil."""

    __slots__ = ()

    def __init__(self, base: int, line: tuple[int, int, int]):
        super().__init__(base, line)
        if line != tuple(sorted(line)):
            raise ValueError("line must be sorted")

    def pencil(self) -> tuple[tuple[int, int], ...]:
        """The (entry, companion) pairs, sorted by entry."""
        return tuple((b, third_point(self.base, b)) for b in self.line)

    def label(self) -> str:
        body = ",".join(f"{b}{c}" for b, c in self.pencil())
        return f"[{self.base},{body}]"


@cache
def cox_vertices() -> tuple[CoxVertex, ...]:
    """All 28 vertices: bases ascending, then line index ascending."""
    out = []
    for base in range(7):
        for l in sorted(lines_avoiding(base), key=line_index):
            out.append(CoxVertex(base, l))
    return tuple(out)


@cache
def orderings(v: CoxVertex) -> tuple[DVertex, ...]:
    """The six ordered pencils refining an unordered one, built once per
    pencil so that their `thirds` are computed once too."""
    return tuple(DVertex(v.base, t) for t in itertools.permutations(v.line))


@cache
def _arc_targets(v: CoxVertex) -> frozenset[CoxVertex]:
    """The pencils that some ordering of v has an arc of the ordered
    digraph to.

    arc_label's equations fix the target's base and line from the source
    and the label, and that target is step(u, label); so the 6 * 3 steps
    are the only candidates, and arc_label confirms each.
    """
    out = set()
    for u in orderings(v):
        for lab in LABELS:
            w = step(u, lab)
            if arc_label(u, w) is not None:
                out.add(CoxVertex(w.base, tuple(sorted(w.line))))
    return frozenset(out)


def cox_adjacent(p: CoxVertex, q: CoxVertex) -> bool:
    """Alignment test: some orderings of the two pencils form an arc.

    Two pencils are adjacent when some alignment of their entries is an
    arc of the ordered digraph in either direction; the aligned entries
    then intersect in one point each and those points form a line (the
    far line of the arc's target).
    """
    return q in _arc_targets(p) or p in _arc_targets(q)


def cox_neighbors(v: CoxVertex) -> tuple[CoxVertex, ...]:
    """Closed form: each entry b hands the base to the companion of b and
    keeps b while the other entries are replaced by their companions."""
    nbr = []
    for b in v.line:
        rest = [third_point(v.base, w) for w in v.line if w != b]
        nbr.append(CoxVertex(third_point(v.base, b), tuple(sorted([b] + rest))))
    return tuple(nbr)


def build_coxeter() -> Digraph:
    """The graph as a symmetric digraph: row i lists the neighbours of
    cox_vertices()[i], ascending."""
    verts = cox_vertices()
    index = {v: i for i, v in enumerate(verts)}
    g = Digraph(sorted(index[w] for w in cox_neighbors(v)) for v in verts)
    if g.out != g.inn:
        raise AssertionError("adjacency is not symmetric")
    return g


def edges(g: Digraph) -> list[tuple[int, int]]:
    """The edges u -- w, as the arcs u -> w with u < w."""
    return sorted((u, w) for u, w in g.arcs() if u < w)


def girth_with_witness(g: Digraph):
    """Shortest cycle length and one witness cycle.

    For every edge, the distance between its endpoints without that edge
    plus one bounds the girth; the minimum over edges attains it.
    """
    best = None
    witness = ()
    for u, w in edges(g):
        dist, parent = bfs(g.out, u, skip_edge=(u, w))
        if dist[w] < 0:
            continue
        if best is None or dist[w] + 1 < best:
            best = dist[w] + 1
            path = [w]
            cur = w
            while cur != u:
                cur = parent[cur]
                path.append(cur)
            witness = tuple(reversed(path))
    return best, witness


def distance_matrix(g: Digraph) -> list[list[int]]:
    return [bfs(g.out, v)[0] for v in range(g.n)]


class NotDistanceRegular(ValueError):
    """A graph whose intersection numbers depend on the vertex pair."""


def distance_regular_array(g: Digraph):
    """Intersection numbers (b_0..b_{d-1}; c_1..c_d).

    Raises NotDistanceRegular naming the first vertex u whose counts, as
    seen from a base vertex v, disagree with those of an earlier pair at
    the same distance, or the first vertex v cannot reach.
    """
    dist = distance_matrix(g)
    diam = max(max(row) for row in dist)
    # b_d = 0 and c_0 = 0 hold in every connected graph
    b = [None] * diam + [0]
    c = [0] + [None] * diam
    for v in range(g.n):
        for u in range(g.n):
            i = dist[v][u]
            if i < 0:
                raise NotDistanceRegular(f"from vertex {v}, vertex {u} is unreachable")
            up = sum(1 for w in g.out[u] if dist[v][w] == i + 1)
            down = sum(1 for w in g.out[u] if dist[v][w] == i - 1)
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


def to_json_dict(g: Digraph) -> dict:
    return {
        "vertices": [v.label() for v in cox_vertices()],
        "edges": [[u, w] for u, w in edges(g)],
    }


def to_dot(g: Digraph) -> str:
    lines = ["graph coxeter {"]
    for i, v in enumerate(cox_vertices()):
        lines.append(f'  {i} [label="{v.label()}"];')
    for u, w in edges(g):
        lines.append(f"  {u} -- {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
