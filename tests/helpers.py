"""Graph builders, notation and oracles the tests share: fault
injection and its Hypothesis strategy, two disjoint copies of a graph,
a fixed corpus of damaged inputs, one step along a labelled arc, the
two named slot permutations, the vertex index of a pencil and the
one-by-one lift of a pencil map (the oracle of autos.lift_vertex_map),
the long and row/column vertex notations and the compact-symbol parser,
the adjacency matrix the numpy oracles start from, the Fano
collineations by frame images, the full-round colour refinement that
autos._refine must agree with, the per-edge girth, the generator-sum
intersection numbers, the object-built Coxeter neighbours and the
per-vertex automorphism test that the coxeter and autos routines must
agree with, and the composition, inverse and closure of permutations,
the group oracles."""

import itertools
import random
import re
from collections import Counter, namedtuple
from functools import cache

import numpy as np
from hypothesis import strategies as st

from fanopencils.coxeter import NotDistanceRegular, edges
from fanopencils.digraph import LABELS, Digraph, _images, bfs
from fanopencils.fano import LINES, POINTS, line_index, third_point
from fanopencils.pencils import Pencil, enumerate_vertices, pencil_index


def with_retargeted_arc(d: Digraph, u: int, slot: int, target: int) -> Digraph:
    """Copy of d with one out-entry replaced; the fault-injection helper."""
    rows = [list(row) for row in d.out]
    rows[u][slot] = target
    return Digraph(rows)


@st.composite
def retarget_lists(draw, d: Digraph):
    """Strategy: one or two out-list entries of d at distinct (vertex,
    slot) places, as (u, slot, target) triples that with_retargeted_arc
    applies in order.  Each target is any vertex that no other slot of
    u's row lists at that point, so loops and short circuits are drawn
    but no repeated out-neighbour, which Digraph refuses."""
    places = st.tuples(st.integers(0, d.n - 1), st.integers(0, 2))
    rows = [list(row) for row in d.out]
    retargets = []
    for u, slot in draw(st.lists(places, min_size=1, max_size=2, unique=True)):
        others = rows[u][:slot] + rows[u][slot + 1 :]
        target = draw(st.sampled_from([w for w in range(d.n) if w not in others]))
        rows[u][slot] = target
        retargets.append((u, slot, target))
    return retargets


def two_copies(d: Digraph) -> Digraph:
    """Two disjoint copies of d, the second on vertices d.n..2 d.n - 1."""
    return Digraph(d.out + tuple(tuple(w + d.n for w in row) for row in d.out))


def damage_corpus(d: Digraph, cox: Digraph) -> list[tuple[str, dict]]:
    """Damaged inputs, each a name and the keyword arguments that hand
    it to run_verification: 40 single-arc retargets of d (seeds 0-39),
    vertex 5's out-list rotated by one slot, two copies of d, the empty
    digraph, and the Coxeter graph cox with one extra symmetric edge or
    with one degree-preserving edge swap, or replaced by the empty
    digraph."""
    corpus = []
    for seed in range(40):
        rng = random.Random(seed)
        u, slot = rng.randrange(d.n), rng.randrange(3)
        target = rng.choice([w for w in range(d.n) if w != d.out[u][slot]])
        broken = with_retargeted_arc(d, u, slot, target)
        corpus.append((f"retarget {u} slot {slot} to {target}", {"d": broken}))
    rows = [list(row) for row in d.out]
    rows[5] = rows[5][1:] + rows[5][:1]
    corpus.append(("vertex 5 rotated", {"d": Digraph(rows)}))
    corpus.append(("two copies", {"d": two_copies(d)}))
    corpus.append(("empty", {"d": Digraph([])}))
    # the first pair of vertices that is not an edge, made one
    pairs = itertools.combinations(range(cox.n), 2)
    u, w = next((u, w) for u, w in pairs if w not in cox.out[u])
    rows = [list(row) for row in cox.out]
    rows[u].append(w)
    rows[w].append(u)
    corpus.append((f"coxeter plus edge {u} {w}", {"cox": Digraph(rows)}))
    # edges a-b and c-e become a-e and c-b, every degree kept
    a, b = edges(cox)[0]
    c, e = next(
        (c, e)
        for c, e in edges(cox)
        if not {a, b} & {c, e} and e not in cox.out[a] and b not in cox.out[c]
    )
    rows = [list(row) for row in cox.out]
    for x, old, new in ((a, b, e), (b, a, c), (c, e, b), (e, c, a)):
        rows[x][rows[x].index(old)] = new
    corpus.append((f"coxeter swap {a}-{b} {c}-{e}", {"cox": Digraph(rows)}))
    corpus.append(("empty coxeter", {"cox": Digraph([])}))
    return corpus


def step(v: Pencil, label: int) -> Pencil:
    """The unique out-neighbour of v along the arc with the given label."""
    return Pencil(*_images(v)[LABELS.index(label)])


def rotate_slots(v: Pencil) -> Pencil:
    """Cyclic shift of the written order of a pencil; an automorphism
    that rotates arc labels rather than fixing them."""
    return Pencil(v.base, (v.line[1], v.line[2], v.line[0]))


def swap_slots(v: Pencil) -> Pencil:
    """Transpose the last two entries; with rotate_slots this
    realizes the full symmetric group on slots inside the automorphism
    group."""
    return Pencil(v.base, (v.line[0], v.line[2], v.line[1]))


def vertex_index(v: Pencil) -> int:
    return pencil_index()[v.base, v.line]


def lift_pencil_map(fn) -> tuple[int, ...]:
    """Index permutation of the 168 vertices induced by a bijection of
    ordered pencils (Pencil -> Pencil), lifted one vertex at a time."""
    return tuple(vertex_index(fn(v)) for v in enumerate_vertices())


# the compact symbol "yup_x": line (y, u, p) avoiding the base x
_COMPACT_RE = re.compile(r"^([0-6])([0-6])([0-6])_([0-6])$")


def parse_compact(s: str) -> Pencil:
    m = _COMPACT_RE.match(s.strip())
    if not m:
        raise ValueError(f"bad compact symbol: {s!r}")
    y, u, p, x = (int(g) for g in m.groups())
    return Pencil(x, (y, u, p))


def format_long(v: Pencil) -> str:
    """The long pencil tuple "(x,b1c1,b2c2,b0c0)": the base, then each
    line entry with the third point of its line through the base."""
    body = ",".join(f"{b}{c}" for b, c in zip(v.line, v.thirds))
    return f"({v.base},{body})"


# golden.EXAMPLE_CYCLE in long notation
EXAMPLE_CYCLE_LONG = (
    "(0,26,54,31)", "(6,20,43,15)", "(0,26,31,54)", "(6,20,15,43)",
)


def translate(v: Pencil, t: int) -> Pencil:
    """Shift every point of the vertex by t mod 7."""
    return Pencil((v.base + t) % 7, tuple((q + t) % 7 for q in v.line))


ROW_LETTERS = "abcdef"


class RowColSymbol(namedtuple("RowColSymbol", "col row")):
    """Orbit label of a translation class: column = line index of the
    base-0 representative, row = lexicographic rank of its ordering."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.col}_{self.row}"


def rowcol(v: Pencil) -> RowColSymbol:
    rep = translate(v, (-v.base) % 7)
    rank = sorted(itertools.permutations(sorted(rep.line))).index(rep.line)
    return RowColSymbol(line_index(rep.line), ROW_LETTERS[rank])


def adjacency_matrix(d: Digraph) -> np.ndarray:
    """The 0/1 int64 adjacency matrix."""
    a = np.zeros((d.n, d.n), dtype=np.int64)
    for u, w in d.arcs():
        a[u, w] = 1
    return a


def apply_to_line(perm, pts) -> tuple[int, int, int]:
    """Image of a line under a point permutation, re-sorted."""
    return tuple(sorted(perm[x] for x in pts))


# (x, p, q): point x is the third point of the line through p and q,
# where p and q are the frame 0, 1, 2 or points placed before x
_SPAN = ((3, 0, 1), (6, 0, 2), (4, 1, 2), (5, 0, 4))


@cache
def collineations() -> tuple[tuple[int, ...], ...]:
    """All point permutations preserving the line set, sorted.

    There are 168 of them.  Each is returned in one-line notation: the
    tuple g with g[p] the image of p.  The frame 0, 1, 2 is not
    collinear, and every other point is the third point of a line
    through two points placed before it, so a collineation is fixed by
    the images of the frame: any a, any b != a, and any c off the line
    through a and b.  Each of those 7 * 6 * 4 candidates is completed
    through third_point and kept once all seven lines map to lines.
    """
    lines = set(LINES)
    keep = []
    for a, b in itertools.permutations(POINTS, 2):
        for c in POINTS:
            if c in (a, b, third_point(a, b)):
                continue
            perm = [a, b, c, 0, 0, 0, 0]
            for x, p, q in _SPAN:
                perm[x] = third_point(perm[p], perm[q])
            if all(apply_to_line(perm, l) in lines for l in LINES):
                keep.append(tuple(perm))
    return tuple(sorted(keep))


def full_round_refine(colors: list[int], d: Digraph) -> list[int]:
    """Stable colouring refined by neighbour colours, re-signing every
    vertex in every round.

    A vertex's signature is (colour, sorted out-neighbour colours, sorted
    in-neighbour colours), or (colour,) alone in its cell; each round's
    labels are the ranks of the signatures in sorted order, until a
    round splits no cell.
    """
    while True:
        get = colors.__getitem__
        sizes = Counter(colors)
        signatures = [
            (c,)
            if sizes[c] == 1
            else (c, tuple(sorted(map(get, out))), tuple(sorted(map(get, inn))))
            for c, out, inn in zip(colors, d.out, d.inn)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new = [rank[s] for s in signatures]
        if len(rank) == len(sizes):
            return new
        colors = new


def girth_per_edge(g: Digraph):
    """Shortest cycle length and one witness cycle, by one search per
    edge: for every edge in sorted order, the distance between its
    endpoints along g.out without that edge plus one bounds the girth,
    and the first edge to attain the minimum closes the witness.  The
    search is its own, with parents, so it shares no code with
    coxeter.girth_with_witness."""
    best = None
    witness = ()
    for u, w in edges(g):
        parent = {u: u}
        frontier = [u]
        while frontier and w not in parent:
            nxt = []
            for x in frontier:
                for y in g.out[x]:
                    if y not in parent and {x, y} != {u, w}:
                        parent[y] = x
                        nxt.append(y)
            frontier = nxt
        if w not in parent:
            continue
        path = [w]
        while path[-1] != u:
            path.append(parent[path[-1]])
        if best is None or len(path) < best:
            best = len(path)
            witness = tuple(reversed(path))
    return best, witness


def array_by_sums(g: Digraph):
    """Intersection numbers (b_0..b_{d-1}; c_1..c_d), each vertex pair's
    counts taken by two generator sums over the out-list; raises
    NotDistanceRegular with the message coxeter.distance_regular_array
    gives."""
    if g.n == 0:
        raise NotDistanceRegular("the graph has no vertices")
    dist = [bfs(g.out, v) for v in range(g.n)]
    diam = max(max(row) for row in dist)
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


def cox_neighbors(v: Pencil) -> tuple[Pencil, ...]:
    """Closed form: each entry b hands the base to the companion of b and
    keeps b while the other entries are replaced by their companions."""
    nbr = []
    for b in v.line:
        rest = [third_point(v.base, w) for w in v.line if w != b]
        nbr.append(Pencil(third_point(v.base, b), tuple(sorted([b] + rest))))
    return tuple(nbr)


def automorphism_per_vertex(d: Digraph, perm) -> bool:
    """Whether perm permutes range(d.n) and, at every vertex u, carries
    the out-list of u onto the out-list of perm[u] as multisets."""
    if sorted(perm) != list(range(d.n)):
        return False
    return all(
        sorted(perm[w] for w in d.out[u]) == sorted(d.out[perm[u]])
        for u in range(d.n)
    )


def compose(p: tuple, q: tuple) -> tuple:
    """(p o q)[i] = p[q[i]]: apply q first."""
    return tuple(map(p.__getitem__, q))


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def closure(gens, n: int) -> set:
    """Every element of the group generated by gens, by breadth-first
    products: an order and membership oracle that shares no code with
    the search."""
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                x = compose(g, h)
                if x not in elems:
                    elems.add(x)
                    nxt.append(x)
        frontier = nxt
    return elems
