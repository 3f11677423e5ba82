"""Automorphisms, partial-map extension, and cycle homogeneity checks.

Automorphisms here are arc-preserving vertex bijections; arc labels are
not required to be preserved (and one generator rotates them).  The
group search is individualization-refinement, refining colours over the
out- and in-lists, with pruning by the automorphisms already found; the
group is kept as generators and an order, never as a list of elements.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from operator import getitem

from .digraph import Digraph, cycle_arc_cover, orbits
from .fano import NotALine
from .pencils import DVertex, enumerate_vertices, vertex_index, vertex_table

Perm = tuple[int, ...]


def is_automorphism(d: Digraph, perm) -> bool:
    if sorted(perm) != list(range(d.n)):
        return False
    return all(
        sorted(perm[w] for w in d.out[u]) == sorted(d.out[perm[u]])
        for u in range(d.n)
    )


def arc_witness(d: Digraph, name: str, perm) -> str:
    """Why `perm`, called `name`, is not an automorphism of d: a length
    other than d.n, or else the first arc whose image is not an arc."""
    if len(perm) != d.n:
        return f"{name} acts on {len(perm)} vertices, the digraph has {d.n}"
    arcs = set(d.arcs())
    for u, w in d.arcs():
        if (perm[u], perm[w]) not in arcs:
            return f"{name} maps arc {u} -> {w} to {perm[u]} -> {perm[w]}, not an arc"
    return f"{name} maps every arc to an arc, but not one to one"


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)[i] = p[q[i]]: apply q first."""
    return tuple(map(p.__getitem__, q))


def lift_vertex_map(fn) -> Perm:
    """Index permutation of the 168 ordered pencils induced by a
    DVertex -> DVertex bijection."""
    return tuple(vertex_index(fn(v)) for v in enumerate_vertices())


def induced_automorphism(point_perm) -> Perm:
    """Lift a permutation of the 7 points (a collineation) to vertices.

    The compact symbols of all 168 vertices are relabelled at once by
    str.translate and each image is looked up in pencils.vertex_table;
    raises NotALine when point_perm is not a permutation of the 7 points
    or some image is not a vertex, i.e. point_perm is not a collineation.
    """
    s = tuple(point_perm)
    if sorted(s) != list(range(7)):
        raise NotALine(f"{s} is not a permutation of the 7 points")
    table = vertex_table()
    relabel = str.maketrans("0123456", "".join(map(str, s)))
    images = " ".join(table).translate(relabel).split()
    try:
        return tuple(map(table.__getitem__, images))
    except KeyError:
        raise NotALine(f"{s} is not a collineation") from None


def rotate_slots(v: DVertex) -> DVertex:
    """Cyclic shift of the written order of a pencil; an automorphism
    that rotates arc labels rather than fixing them."""
    return DVertex(v.base, (v.line[1], v.line[2], v.line[0]))


# ---------------------------------------------------------------------------
# colour refinement and the automorphism search


def _cell_sizes(colors: list[int]) -> list[int]:
    sizes = [0] * (max(colors, default=-1) + 1)
    for c in colors:
        sizes[c] += 1
    return sizes


def _closed_walk_colours(d: Digraph) -> list[int]:
    """Colour each vertex by its numbers of closed walks of length 4 and
    of length 8, diag(A^4) and diag(A^8), ranked to 0..k-1.

    Automorphisms preserve both counts, so the colouring can seed the
    search.  The 4-walks split off the vertices near a damaged 4-cycle;
    the 8-walks also split a two-arc swap inside one 4-cycle, which
    trades the cycle for two 2-circuits and leaves every vertex on three
    closed 4-walks.  Row v of A^k is one int whose field u counts the
    k-walks from v to u, and A^(k+1) sums the rows of A^k over
    out-neighbours.  A field holds maxdeg^8, so no count of walks of
    length 8 or less carries into the next field.
    """
    width = 8 * max(map(len, d.out), default=0).bit_length() + 1
    mask = (1 << width) - 1
    rows = [1 << (v * width) for v in range(d.n)]
    diagonals = []
    for k in range(1, 9):
        rows = [sum(map(rows.__getitem__, out)) for out in d.out]
        if k in (4, 8):
            diagonals.append([row >> (v * width) & mask for v, row in enumerate(rows)])
    keys = list(zip(*diagonals))
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def _refine(colors: list[int], d: Digraph, moved=None) -> list[int]:
    """Stable colouring refined by neighbour colours.

    A vertex's signature is (colour, sorted out-neighbour colours, sorted
    in-neighbour colours); it splits cells exactly as the in/out colour
    counts do.  Each round's labels are the ranks of the signatures in
    sorted order, canonical so that two sides of a paired search stay
    comparable.

    Cell mates had equal neighbour colour counts when their cell formed,
    and a vertex's counts in all but one part of a split cell fix its
    count in the last.  So a round re-signs only the neighbours of the
    parts of cells that split in the last round, the largest part of each
    left out, and the other members of a cell share one signature,
    computed once.  The first round re-signs the neighbours of every
    vertex, or only of `moved` when `colors` is a stable colouring that
    gave `moved` new colours.
    """
    out, inn = d.out, d.inn
    colors = list(colors)
    get = colors.__getitem__

    def signature(v: int) -> tuple:
        return tuple(sorted(map(get, out[v]))), tuple(sorted(map(get, inn[v])))

    cells: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    split = range(len(colors)) if moved is None else moved
    while True:
        dirty = {w for v in split for w in out[v] + inn[v]}
        hit = {colors[v] for v in dirty}
        refined = []
        split = []
        for c, members in enumerate(cells):
            if c not in hit or len(members) == 1:
                refined.append(members)
                continue
            clean = [v for v in members if v not in dirty]
            parts = {signature(clean[0]): clean} if clean else {}
            for v in members:
                if v in dirty:
                    parts.setdefault(signature(v), []).append(v)
            ordered = [parts[key] for key in sorted(parts)]
            refined.extend(ordered)
            largest = max(ordered, key=len)
            split.extend(v for part in ordered if part is not largest for v in part)
        cells = refined
        for c, members in enumerate(cells):
            for v in members:
                colors[v] = c
        if not split or len(cells) == len(colors):
            return colors


class AutGroup(namedtuple("AutGroup", "degree generators order base nodes leaves")):
    """A permutation group on range(degree), held as generators.

    The pointwise stabilizer of `base` is trivial, and `order` is the
    product of the basic orbit lengths: the orbit of base[i] under the
    stabilizer of base[:i].  `nodes` and `leaves` count the search-tree
    nodes refined and the discrete leaves reached while the group was
    found.
    """

    __slots__ = ()


def automorphism_group(d: Digraph) -> AutGroup:
    """Find the automorphism group by individualization-refinement with
    pruning by automorphisms (McKay & Piperno, Practical graph
    isomorphism II, 2014).

    The first refinement starts from each vertex's numbers of closed
    4- and 8-walks, invariants that split off the vertices near a
    damaged spot of an otherwise symmetric graph.  The first path then
    individualizes the first vertex of the largest cell (the lowest
    label on ties, as Traces does) at each level until the colouring is
    discrete; those vertices are the base.  Each individualization
    re-refines outward from the individualized vertex.  Then, deepest
    level first, level i branches only on cell members outside the
    orbit of base[i] under the generators found so far (which all fix
    base[:i]), and in each branch looks for one leaf that maps the first
    leaf by an automorphism fixing base[:i] and taking base[i] to that
    member.  Every kept leaf is checked by is_automorphism.  The orbits
    reached are the basic orbits, and their lengths multiply to the order.
    """
    n = d.n

    # the first path: colourings and cell sizes by level, target cell
    # labels, base
    path = [_refine(_closed_walk_colours(d), d)]
    sizes = [_cell_sizes(path[0])]
    target: list[int] = []
    base: list[int] = []

    def individualize(colors: list[int], level: int, v: int) -> list[int]:
        nxt = list(colors)
        nxt[v] = len(sizes[level])
        return _refine(nxt, d, (v,))

    while max(sizes[-1], default=0) > 1:
        # the largest cell, the lowest label on ties
        c = sizes[-1].index(max(sizes[-1]))
        v = path[-1].index(c)
        target.append(c)
        base.append(v)
        path.append(individualize(path[-1], len(base) - 1, v))
        sizes.append(_cell_sizes(path[-1]))
    first_leaf = path[-1]
    nodes = len(path)
    leaves = 1

    def leaf_search(colors: list[int], level: int, want: list[int]):
        """An automorphism at a leaf below this node taking base[:len(want)]
        to want, or None."""
        nonlocal nodes, leaves
        nodes += 1
        if _cell_sizes(colors) != sizes[level]:
            return None
        if level == len(base):
            leaves += 1
            pos = [0] * n
            for v, c in enumerate(colors):
                pos[c] = v
            perm = tuple(map(pos.__getitem__, first_leaf))
            if [perm[b] for b in base[: len(want)]] != want:
                return None
            return perm if is_automorphism(d, perm) else None
        for w, c in enumerate(colors):
            if c != target[level]:
                continue
            perm = leaf_search(individualize(colors, level, w), level + 1, want)
            if perm is not None:
                return perm
        return None

    gens: list[Perm] = []
    order = 1
    for i in reversed(range(len(base))):
        b = base[i]
        # the orbit of b under the generators found so far
        orbit = set(orbits([b], gens, getitem)[0])
        for w, c in enumerate(path[i]):
            if c != target[i] or w in orbit:
                continue
            perm = leaf_search(individualize(path[i], i, w), i + 1, base[:i] + [w])
            if perm is not None:
                gens.append(perm)
                orbit = set(orbits([b], gens, getitem)[0])
        order *= len(orbit)

    return AutGroup(
        degree=n,
        generators=tuple(gens),
        order=order,
        base=tuple(base),
        nodes=nodes,
        leaves=leaves,
    )


def vertex_orbits(group: AutGroup) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted(o))
        for o in orbits(range(group.degree), group.generators, getitem)
    )


def arc_image(g: Perm, arc):
    """The image of the arc (u, w) under the vertex permutation g."""
    return g[arc[0]], g[arc[1]]


def arc_orbits(d: Digraph, group: AutGroup) -> tuple[tuple, ...]:
    return tuple(
        tuple(sorted(o)) for o in orbits(d.arcs(), group.generators, arc_image)
    )


# ---------------------------------------------------------------------------
# partial-map extension


def extend_isomorphism(d: Digraph, pins: dict) -> Perm | None:
    """The first automorphism of d that extends the partial vertex map
    `pins`, or None when there is none."""
    return next(extensions(d, pins), None)


def extensions(d: Digraph, pins: dict):
    """Every automorphism of d that extends the partial vertex map
    `pins`, one at a time, in search order.

    Forward checking (as in VF2, Cordella et al. 2004, and the Glasgow
    Subgraph Solver, McCreesh, Prosser & Trimble 2020): every unmapped
    vertex with a mapped neighbour keeps a domain, the free images its
    mapped neighbours allow.  Assigning u -> w checks that the out- and
    in-neighbourhoods of u and w correspond bijectively on what is
    mapped, narrows each free out-neighbour of u to the free
    out-neighbours of w (in-neighbours likewise), and drops w from the
    domains of the neighbours of the preimages of w's neighbours, the
    only domains that can hold it.  A domain of one image is assigned at
    once, and an empty one is a dead end, so the search branches only
    at the fixpoint of that propagation: on the vertex with the fewest
    images (lowest index on ties), trying its images in sorted order.
    Only when no unmapped vertex has a mapped neighbour (the map has
    covered whole weak components) does the first unmapped vertex range
    over every free image.  Mappings and domain changes share one
    trail, so backtracking restores both.  Every complete map is
    checked by is_automorphism before it is yielded; after each one the
    search backtracks from the deepest branch point.
    """
    n = d.n
    out, inn = d.out, d.inn
    tgt = [-1] * n
    src = [-1] * n
    dom: list[set | None] = [None] * n
    # mapped vertices (ints) and (vertex, previous domain) pairs
    trail: list = []

    def narrow(v: int, allowed: set, forced: list) -> bool:
        old = dom[v]
        new = allowed if old is None else old & allowed
        if old is not None and len(new) == len(old):
            return True
        trail.append((v, old))
        dom[v] = new
        if len(new) == 1:
            forced.append((v, next(iter(new))))
        return bool(new)

    def assign(u: int, w: int) -> bool:
        forced = [(u, w)]
        while forced:
            u, w = forced.pop()
            if tgt[u] >= 0:
                if tgt[u] != w:
                    return False
                continue
            if src[w] >= 0:
                return False
            tgt[u] = w
            src[w] = u
            trail.append(u)
            for xs, ys in ((out[u], out[w]), (inn[u], inn[w])):
                if len(xs) != len(ys):
                    return False
                free = set()
                for r in ys:
                    p = src[r]
                    if p < 0:
                        free.add(r)
                    elif p not in xs:
                        return False
                for q in xs:
                    t = tgt[q]
                    if t >= 0:
                        if t not in ys:
                            return False
                    elif not narrow(q, free, forced):
                        return False
            # w is taken: only the neighbours of the preimages of w's
            # neighbours can hold it
            for ys, nbrs in ((inn[w], out), (out[w], inn)):
                for y in ys:
                    p = src[y]
                    if p < 0:
                        continue
                    for v in nbrs[p]:
                        s = dom[v]
                        if s is not None and w in s and tgt[v] < 0:
                            if not narrow(v, s - {w}, forced):
                                return False
        return True

    def undo(mark: int):
        while len(trail) > mark:
            e = trail.pop()
            if type(e) is int:
                src[tgt[e]] = -1
                tgt[e] = -1
            else:
                dom[e[0]] = e[1]

    def branch():
        """The vertex to branch on and its sorted images, or (None, None)
        once every vertex is mapped."""
        best = min(
            (v for v in range(n) if tgt[v] < 0 and dom[v] is not None),
            key=lambda v: len(dom[v]),
            default=None,
        )
        if best is not None:
            return best, sorted(dom[best])
        u = next((v for v in range(n) if tgt[v] < 0), None)
        if u is None:
            return None, None
        return u, [x for x in range(n) if src[x] < 0]

    if not all(assign(u, w) for u, w in pins.items()):
        return
    # (vertex, its untried images, trail length before its assignment)
    stack = []
    while True:
        u, opts = branch()
        if u is None:
            perm = tuple(tgt)
            if is_automorphism(d, perm):
                yield perm
        else:
            stack.append((u, iter(opts), len(trail)))
        while True:
            if not stack:
                return
            u, rest, mark = stack[-1]
            undo(mark)
            w = next(rest, None)
            if w is None:
                stack.pop()
            elif assign(u, w):
                break


# ---------------------------------------------------------------------------
# oriented-4-cycle homogeneity


class UHReport(
    namedtuple(
        "UHReport", "passed aut_order failures direct_checked detail", defaults=("",)
    )
):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "aut_order": self.aut_order,
            "failures": [
                {"cycle": c, "cycle2": c2, "rotation": r}
                for (c, c2, r) in self.failures
            ],
        }


# |Aut D| / 504: the automorphisms of D that fix an arc
ARC_STABILIZER = 2


def _pin_map(cycles, i: int, j: int, r: int) -> dict:
    c, c2 = cycles[i], cycles[j]
    return {c[k]: c2[(k + r) % 4] for k in range(4)}


def verify_c4uh(d: Digraph, cycles) -> UHReport:
    """Check that every rotation-aligned map between oriented 4-cycles
    extends to an automorphism, and certify the group order.

    `cycles` is the census of oriented 4-cycles of d.  The cycles
    partition the arcs, so cycle-with-rotation pairs biject with arcs (a
    flag is the arc it starts with) and the property is equivalent to
    arc-transitivity.  Cycle 0 is extended onto each flag outside the
    orbit of its first arc, the root, under the extensions found so far,
    so every run grows that orbit until it holds every arc.
    Automorphisms compose, so every map between two cycles then extends.
    The runs stop at the first flag that does not extend, which is the
    one failure reported, so there are at most as many runs as arcs.

    Then the automorphisms that fix the root arc are enumerated, and
    orbit-stabilizer gives the order, with no help from the group search.
    The enumeration stops at the first solution past ARC_STABILIZER;
    `aut_order` is 0 whenever the certificate is incomplete.
    """
    notes = []
    if len(cycles) != 126:
        notes.append(f"{len(cycles)} oriented 4-cycles, expected 126")
    cover_ok, bad = cycle_arc_cover(d, cycles)
    if not cover_ok:
        notes.append(f"cycles do not partition the arcs ({len(bad)} witnesses)")
    if notes:
        return UHReport(False, 0, (), 0, "; ".join(notes))

    u, w = root = (cycles[0][0], cycles[0][1])
    # the orbit of the root arc under the automorphisms found so far
    reached = {root}
    found: list[Perm] = []
    flags = ((j, r) for j in range(len(cycles)) for r in range(4))
    for j, r in flags:
        if (cycles[j][r], cycles[j][(r + 1) % 4]) in reached:
            continue
        perm = extend_isomorphism(d, _pin_map(cycles, 0, j, r))
        if perm is None:
            runs = len(found) + 1
            detail = (
                f"{runs} extension runs from cycle 0, "
                f"1 failure: {(0, j, r)} does not extend"
            )
            return UHReport(False, 0, ((0, j, r),), runs, detail)
        found.append(perm)
        reached = set(orbits([root], found, arc_image)[0])

    stab = list(islice(extensions(d, {u: u, w: w}), ARC_STABILIZER + 1))
    runs = f"{len(found)} extension runs from cycle 0 reach all {len(reached)} arcs"
    if len(stab) > ARC_STABILIZER:
        v = next(x for x, y in enumerate(stab[-1]) if x != y)
        detail = (
            f"{runs}, 0 failures; more than {ARC_STABILIZER} automorphisms fix arc "
            f"{u} -> {w}; one moves vertex {v} to {stab[-1][v]}"
        )
        return UHReport(True, 0, (), len(found), detail)
    order = len(reached) * len(stab)
    detail = (
        f"{runs}, 0 failures; {len(stab)} automorphisms fix arc {u} -> {w}, "
        f"so the order is {len(reached)} x {len(stab)} = {order}"
    )
    return UHReport(True, order, (), len(found), detail)
