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
import json
from dataclasses import dataclass
from functools import cache

from .digraph import Digraph, arc_label
from .fano import line_index, lines_avoiding, third_point
from .pencils import DVertex


@dataclass(frozen=True)
class CoxVertex:
    """Base point plus the (sorted) line of far entries of its pencil."""

    base: int
    line: tuple[int, int, int]

    def __post_init__(self):
        if self.line != tuple(sorted(self.line)):
            raise ValueError("line must be sorted")
        line_index(self.line)
        if self.base in self.line:
            raise ValueError(f"base {self.base} lies on {self.line}")

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


def cox_adjacent(p: CoxVertex, q: CoxVertex) -> bool:
    """Alignment test over all orderings of both pencils.

    Two pencils are adjacent when some alignment of their entries is an
    arc of the ordered digraph in either direction; the aligned entries
    then intersect in one point each and those points form a line (the
    far line of the arc's target).
    """
    for u in orderings(p):
        for w in orderings(q):
            if arc_label(u, w) is not None or arc_label(w, u) is not None:
                return True
    return False


def cox_neighbors(v: CoxVertex) -> tuple[CoxVertex, ...]:
    """Closed form: each entry b hands the base to the companion of b and
    keeps b while the other entries are replaced by their companions."""
    nbr = []
    for b in v.line:
        rest = [third_point(v.base, w) for w in v.line if w != b]
        nbr.append(CoxVertex(third_point(v.base, b), tuple(sorted([b] + rest))))
    return tuple(nbr)


def cox_translate(v: CoxVertex, t: int) -> CoxVertex:
    return CoxVertex((v.base + t) % 7, tuple(sorted((q + t) % 7 for q in v.line)))


class Graph:
    """Small immutable undirected graph with a fixed vertex order."""

    __slots__ = ("vertices", "nbrs", "n")

    def __init__(self, vertices, nbrs):
        self.vertices = tuple(vertices)
        self.n = len(self.vertices)
        self.nbrs = tuple(tuple(sorted(r)) for r in nbrs)

    def edges(self):
        return sorted(
            (u, w) for u, row in enumerate(self.nbrs) for w in row if u < w
        )

    def to_digraph(self) -> Digraph:
        return Digraph(self.nbrs)


def build_coxeter() -> Graph:
    verts = cox_vertices()
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[w] for w in cox_neighbors(v)] for v in verts]
    for u, row in enumerate(nbrs):
        for w in row:
            if u not in nbrs[w]:
                raise AssertionError("adjacency is not symmetric")
    return Graph(verts, nbrs)


def _bfs(g: Graph, start: int, skip_edge=None):
    dist = [-1] * g.n
    parent = [-1] * g.n
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.nbrs[u]:
                if skip_edge and (u, w) in (skip_edge, skip_edge[::-1]):
                    continue
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return dist, parent


def _bfs_dist(g: Graph, start: int, skip_edge=None) -> list[int]:
    return _bfs(g, start, skip_edge)[0]


def connected(g: Graph) -> bool:
    return g.n > 0 and all(x >= 0 for x in _bfs_dist(g, 0))


def girth_with_witness(g: Graph):
    """Shortest cycle length and one witness cycle.

    For every edge, the distance between its endpoints without that edge
    plus one bounds the girth; the minimum over edges attains it.
    """
    best = None
    witness = ()
    for u, w in g.edges():
        dist, parent = _bfs(g, u, skip_edge=(u, w))
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


def distance_matrix(g: Graph) -> list[list[int]]:
    return [_bfs_dist(g, v) for v in range(g.n)]


def distance_regular_array(g: Graph):
    """Intersection numbers (b_0..b_{d-1}; c_1..c_d), or None.

    None when some pair of vertices at equal distance disagrees on the
    counts, i.e. the graph is not distance-regular.
    """
    dist = distance_matrix(g)
    diam = max(max(row) for row in dist)
    b = [None] * diam
    c = [None] * (diam + 1)
    for v in range(g.n):
        for u in range(g.n):
            i = dist[v][u]
            if i == 0 and u != v:
                continue
            down = sum(1 for w in g.nbrs[u] if dist[v][w] == i - 1)
            up = sum(1 for w in g.nbrs[u] if dist[v][w] == i + 1)
            if i < diam:
                if b[i] is None:
                    b[i] = up
                elif b[i] != up:
                    return None
            elif up:
                return None
            if i > 0:
                if c[i] is None:
                    c[i] = down
                elif c[i] != down:
                    return None
    return tuple(b), tuple(c[1:])


EXPECTED_ARRAY = ((3, 2, 2, 1), (1, 1, 1, 2))


def to_json_dict(g: Graph) -> dict:
    return {
        "vertices": [v.label() for v in g.vertices],
        "edges": [[u, w] for u, w in g.edges()],
    }


def to_json(g: Graph) -> str:
    return json.dumps(to_json_dict(g), indent=2) + "\n"


def to_dot(g: Graph) -> str:
    lines = ["graph coxeter {"]
    for i, v in enumerate(g.vertices):
        lines.append(f'  {i} [label="{v.label()}"];')
    for u, w in g.edges():
        lines.append(f"  {u} -- {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
