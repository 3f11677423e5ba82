"""Automorphisms, partial-map extension, and cycle homogeneity checks.

Automorphisms here are arc-preserving vertex bijections; arc labels are
not required to be preserved (and one generator rotates them).  The
group search is individualization-refinement by splitter counts of out-
and in-neighbours, pruned by the automorphisms already found; the group
is kept as generators and an order, never as a list of elements.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import accumulate, islice
from operator import getitem

from .digraph import Digraph, arc_image, closed_walks, is_automorphism, orbits
from .fano import NotALine
from .pencils import pencil_index

Perm = tuple[int, ...]


def lift_vertex_map(fn) -> Perm:
    """Index permutation of the 168 vertices induced by a bijection of
    ordered pencils, fn(base, line) -> (base, line); raises NotALine
    naming the first image that is not a vertex or has a non-int entry."""
    index = pencil_index()
    perm = []
    for b, line in index:
        image = fn(b, line)
        try:
            base, (p, q, r) = image
            # 1.0 and True equal the point 1 and would match it
            if type(base) is type(p) is type(q) is type(r) is int:
                perm.append(index[image])
                continue
        except (KeyError, TypeError, ValueError):  # no vertex, unhashable, wrong shape
            pass
        raise NotALine(f"{image} is not a vertex")
    return tuple(perm)


def induced_automorphism(point_perm) -> Perm:
    """Lift a permutation of the 7 points (a collineation) to vertices;
    raises NotALine when point_perm is not a permutation of the 7 points
    or some image is not a vertex, i.e. point_perm is not a collineation.
    """
    s = tuple(point_perm)
    if any(type(x) is not int for x in s) or sorted(s) != list(range(7)):
        raise NotALine(f"{s} is not a permutation of the 7 points")
    return lift_vertex_map(lambda b, l: (s[b], (s[l[0]], s[l[1]], s[l[2]])))


def slot_rotation() -> Perm:
    """The cyclic shift of the written order of every pencil, an
    automorphism that rotates arc labels rather than fixing them."""
    return lift_vertex_map(lambda b, l: (b, (l[1], l[2], l[0])))


# ---------------------------------------------------------------------------
# colour refinement and the automorphism search


def _cell_sizes(colors: list[int]) -> list[int]:
    sizes = [0] * (max(colors, default=-1) + 1)
    for c in colors:
        sizes[c] += 1
    return sizes


def _closed_walk_colours(d: Digraph) -> list[int]:
    """Colour each vertex by its numbers of closed walks of length 4 and
    of length 8 (digraph.closed_walks), ranked to 0..k-1.

    Automorphisms preserve both counts, so the colouring can seed the
    search.  The 4-walks split off the vertices near a damaged 4-cycle;
    the 8-walks also split a two-arc swap inside one 4-cycle, which
    trades the cycle for two 2-circuits and leaves every vertex on three
    closed 4-walks.
    """
    keys = list(zip(*closed_walks(d, (4, 8))))
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def _refine(colors: list[int], d: Digraph, moved=None) -> list[int]:
    """The coarsest equitable refinement of `colors` by splitter counts
    (Paige & Tarjan 1987; McKay & Piperno 2014), each vertex labelled by
    the rank of its cell's start: canonical, so that two sides of a
    paired search stay comparable.

    Cells keep colour order.  A splitter, taken first in first out,
    splits each cell into parts by out- and in-neighbour counts in it,
    in count order, the first part keeping the start; a queued cell
    queues all its parts, any other all but the first largest.  The
    queue starts with every cell, or with the cells of `moved`,
    singletons new to a stable colouring.
    """
    # count key: out-count * m + in-count, m past every in-count
    m = 1 + max(map(len, d.inn), default=0)
    sizes = _cell_sizes(colors)
    starts = [0, *accumulate(sizes)]
    cells: dict[int, set[int]] = {t: set() for t, size in zip(starts, sizes) if size}
    for v, c in enumerate(colors):
        cells[starts[c]].add(v)
    # each vertex's cell start t, or ~t (negative) in a singleton, never split
    cell = [starts[c] if sizes[c] > 1 else ~starts[c] for c in colors]
    queue = deque(cells if moved is None else sorted({starts[colors[v]] for v in moved}))
    queued = set(queue)
    while queue and len(cells) < len(colors):
        s = queue.popleft()
        queued.discard(s)
        count: dict[int, int] = {}
        for w in cells[s]:
            for x in d.inn[w]:
                if cell[x] >= 0:
                    count[x] = count.get(x, 0) + m
            for x in d.out[w]:
                if cell[x] >= 0:
                    count[x] = count.get(x, 0) + 1
        touched: dict[int, list[int]] = {}
        for x in count:
            touched.setdefault(cell[x], []).append(x)
        for t in sorted(touched):
            old = cells[t]
            hit = touched[t]
            parts = {0: old} if len(hit) < len(old) else {}
            for x in hit:
                parts.setdefault(count[x], []).append(x)
            if len(parts) == 1:
                continue
            old.difference_update(hit)
            ordered = [parts[k] for k in sorted(parts)]
            largest = None if t in queued else max(ordered, key=len)
            for part in ordered:
                if part is not largest and t not in queued:
                    queue.append(t)
                    queued.add(t)
                if part is not old or len(part) == 1:
                    cells[t] = part = set(part)
                    for v in part:
                        cell[v] = t if len(part) > 1 else ~t
                t += len(part)
    rank = {t: i for i, t in enumerate(sorted(cells))}
    return [rank[t if t >= 0 else ~t] for t in cell]


def _equitable_start(d, colors) -> bool:
    """Whether `colors` has one colour and d one out-degree and one
    in-degree: the one cell's splitter counts are the degrees, so
    _refine would return `colors` unchanged."""
    return not any(colors) and all(len(set(map(len, rows))) < 2 for rows in (d.out, d.inn))


def _derivation(d, colors, b):
    """Breadth-first steps (x, y, rows) from b and the singletons of
    `colors`: x is the only vertex of its colour among rows[y] not yet
    reached, rows being d.out or d.inn.  None unless they reach every
    vertex.  Then individualizing b and refining gives a discrete
    colouring: each equitable cell lies inside or outside rows[y] of a
    singleton y, and x's colour there holds only x and singletons.
    b=None individualizes nothing: refining alone is discrete."""
    sizes = _cell_sizes(colors)
    found = [] if b is None else [b]
    found += (v for v, c in enumerate(colors) if sizes[c] == 1)
    seen = set(found)
    steps = []
    for y in found:
        for rows in (d.out, d.inn):
            for x in rows[y]:
                if x in seen:
                    continue
                hues = [colors[v] for v in rows[y] if v not in seen]
                if hues.count(colors[x]) == 1:
                    seen.add(x)
                    found.append(x)
                    steps.append((x, y, rows))
    return steps if len(seen) == d.n else None


def _transfer(derivation, first, b, colors, w):
    """The map taking b to w, each singleton of `first` to the vertex of
    its colour in `colors`, then the x of each step (x, y, rows) of the
    derivation to the one vertex of x's colour in rows[image of y] that
    is not yet an image; None when a step does not find exactly one.
    If an automorphism g takes b to w and `first` to `colors`, the rest
    of x's colour in rows[g(y)] is the image of vertices reached before
    x, so the map is g."""
    pos = {c: v for v, c in enumerate(colors)}
    perm = [pos[c] for c in first]
    perm[b] = w
    sizes = _cell_sizes(first)
    used = {w, *(perm[v] for v, c in enumerate(first) if sizes[c] == 1)}
    for x, y, rows in derivation:
        xs = [v for v in rows[perm[y]] if colors[v] == first[x] and v not in used]
        if len(xs) != 1:
            return None
        perm[x] = xs[0]
        used.add(xs[0])
    return tuple(perm)


class AutGroup(namedtuple("AutGroup", "degree generators order base nodes leaves")):
    """A permutation group on range(degree), held as generators.

    The pointwise stabilizer of `base` is trivial, and `order` is the
    product of the basic orbit lengths: the orbit of base[i] under the
    stabilizer of base[:i].  `nodes` counts the search-tree nodes
    visited (refined, or transferred at the last level; the first leaf
    even when it is not refined) and `leaves` the discrete leaves
    refined and the transfers that yield a map.  An unrefined root
    still counts 1 node and 1 leaf.
    """

    __slots__ = ()


def automorphism_group(d: Digraph) -> AutGroup:
    """Find the automorphism group by individualization-refinement with
    pruning by automorphisms (McKay & Piperno, Practical graph
    isomorphism II, 2014).

    The first refinement starts from each vertex's numbers of closed
    4- and 8-walks, invariants that split off the vertices near a
    damaged spot of an otherwise symmetric graph.  It is skipped when
    a linear-time argument gives its result: a derivation from that
    colouring's singletons alone (_derivation, b=None) proves it
    discrete, so only the identity preserves it; or the colouring has
    one colour and d one in- and one out-degree, so it is already
    equitable (_equitable_start).  The first path then
    individualizes the first vertex of the largest cell (the lowest
    label on ties, as Traces does) at each level until the colouring is
    discrete; those vertices are the base.  Each individualization
    re-refines outward from the individualized vertex.  The path stops
    a refinement early where a derivation from the chosen vertex proves
    the leaf discrete (_derivation).  Then, deepest level first, level i
    branches only on cell members outside the orbit of base[i] under the
    generators found so far (which all fix base[:i]), and in each branch
    looks for one leaf that maps the first leaf by an automorphism
    fixing base[:i] and taking base[i] to that member.  Every kept leaf
    is checked by is_automorphism.  The orbits reached are the basic
    orbits, and their lengths multiply to the order.

    Where the first path stopped early, a child at the last level is
    transferred, not refined: the first leaf's map is rebuilt along the
    derivation, each vertex the one of its colour not yet an image
    (_transfer).  The map is a leaf, kept if it passes the same tests,
    and a failed transfer rules the child out.  Refinement is
    equivariant with canonical labels, so an automorphism taking the
    first leaf's node to the child's takes the first leaf to the child's
    refined leaf, each step finds its image, and only such a map can be
    kept: the group is that of refining.
    """
    n = d.n
    colors = _closed_walk_colours(d)
    if _derivation(d, colors, None) is not None:
        return AutGroup(n, (), 1, (), 1, 1)

    # the first path: colourings and cell sizes by level, base; the
    # target cell at level i is path[i][base[i]]
    path = [colors if _equitable_start(d, colors) else _refine(colors, d)]
    sizes = [_cell_sizes(path[0])]
    base: list[int] = []
    derivation = None

    def individualize(colors, level, v):
        nxt = list(colors)
        nxt[v] = len(sizes[level])
        return _refine(nxt, d, (v,))

    while max(sizes[-1], default=0) > 1:
        # the largest cell, the lowest label on ties
        c = sizes[-1].index(max(sizes[-1]))
        base.append(path[-1].index(c))
        # a derivation proves the next leaf discrete: the base is complete
        derivation = _derivation(d, path[-1], base[-1])
        if derivation is not None:
            break
        path.append(individualize(path[-1], len(base) - 1, base[-1]))
        sizes.append(_cell_sizes(path[-1]))
    nodes = len(base) + 1
    leaves = 1
    last = len(base) - 1

    def leaf_search(colors, level, w, want):
        """An automorphism at a leaf below the child of this node that
        individualizes w, taking base[:len(want)] to want, or None.  At
        the last level, when there is a derivation, the first leaf is
        transferred to the child and the child is not refined."""
        nonlocal nodes, leaves
        nodes += 1
        if level == last and derivation is not None:
            perm = _transfer(derivation, path[last], base[last], colors, w)
            if perm is None:
                return None
        else:
            colors = individualize(colors, level, w)
            level += 1
            if _cell_sizes(colors) != sizes[level]:
                return None
            if level < len(base):
                for u, c in enumerate(colors):
                    if c == path[level][base[level]]:
                        perm = leaf_search(colors, level, u, want)
                        if perm is not None:
                            return perm
                return None
            pos = {c: v for v, c in enumerate(colors)}
            perm = tuple(map(pos.__getitem__, path[level]))
        leaves += 1
        if [perm[b] for b in base[: len(want)]] == want and is_automorphism(d, perm):
            return perm
        return None

    gens: list[Perm] = []
    order = 1
    for i in reversed(range(len(base))):
        b = base[i]
        # the orbit of b under the generators found so far
        orbit = set(orbits([b], gens, getitem)[0])
        for w, c in enumerate(path[i]):
            if c != path[i][b] or w in orbit:
                continue
            perm = leaf_search(path[i], i, w, base[:i] + [w])
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
    """The orbits of the group on range(degree), each sorted, by least vertex."""
    return tuple(
        tuple(sorted(o))
        for o in orbits(range(group.degree), group.generators, getitem)
    )


def arc_orbits(d: Digraph, group: AutGroup) -> tuple[tuple, ...]:
    """The orbits of the group on the arcs of d, each sorted, by first arc."""
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
    over every free image.  Each branch point keeps a copy of the map,
    its inverse and the domains, and backtracking restores that copy
    before the next image is tried.  Every complete map is checked by
    is_automorphism before it is yielded; after each one the search
    backtracks from the deepest branch point.  A pin not an int in
    range(d.n) (a bool is not one) raises ValueError before it searches.
    """
    n = d.n
    for u, w in pins.items():
        if not all(type(x) is int and 0 <= x < n for x in (u, w)):
            raise ValueError(f"pin {u!r} -> {w!r} is not in 0..{n - 1}")
    out, inn = d.out, d.inn
    tgt = [-1] * n
    src = [-1] * n
    dom: list[set | None] = [None] * n

    def assign(u: int, w: int) -> bool:
        forced = [(u, w)]
        force = forced.append
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
                        continue
                    old = dom[q]
                    new = free if old is None else old & free
                    if old is not None and len(new) == len(old):
                        continue
                    dom[q] = new
                    if len(new) == 1:
                        force((q, next(iter(new))))
                    elif not new:
                        return False
            # w is taken: only the neighbours of the preimages of w's
            # neighbours can hold it
            for ys, nbrs in ((inn[w], out), (out[w], inn)):
                for y in ys:
                    p = src[y]
                    if p < 0:
                        continue
                    for v in nbrs[p]:
                        old = dom[v]
                        if old is not None and w in old and tgt[v] < 0:
                            # not empty: a domain {w} forced (v, w) when made, which now fails
                            dom[v] = new = old - {w}
                            if len(new) == 1:
                                force((v, next(iter(new))))
        return True

    def branch():
        """The vertex to branch on and its sorted images, or (None, None)
        once every vertex is mapped."""
        free = [v for v in range(n) if tgt[v] < 0]
        if not free:
            return None, None
        # no domain: every free image, taken only when none has one
        best = min(free, key=lambda v: n + 1 if dom[v] is None else len(dom[v]))
        if dom[best] is None:
            return best, [x for x in range(n) if src[x] < 0]
        return best, sorted(dom[best])

    if not all(assign(u, w) for u, w in pins.items()):
        return
    # (vertex, its untried images, then copies of tgt, src and dom from
    # before its assignment); a shallow copy of dom is enough because a
    # domain set is only ever replaced by a new one, never changed in place
    stack = []
    while True:
        u, opts = branch()
        if u is None:
            perm = tuple(tgt)
            if is_automorphism(d, perm):
                yield perm
        else:
            stack.append((u, iter(opts), tgt[:], src[:], dom[:]))
        while True:
            if not stack:
                return
            u, rest, tgt[:], src[:], dom[:] = stack[-1]
            w = next(rest, None)
            if w is None:
                stack.pop()
            elif assign(u, w):
                break


# ---------------------------------------------------------------------------
# oriented-4-cycle homogeneity


UHReport = namedtuple("UHReport", "passed aut_order failures direct_checked detail")


# |Aut D| / 504: the automorphisms of D that fix an arc
ARC_STABILIZER = 2


def _pin_map(cycles, i: int, j: int, r: int) -> dict:
    c, c2 = cycles[i], cycles[j]
    return {c[k]: c2[(k + r) % 4] for k in range(4)}


def verify_c4uh(d: Digraph, cycles, cover) -> UHReport:
    """Check that every rotation-aligned map between oriented 4-cycles
    extends to an automorphism, and certify the group order.

    `cycles` is the census of oriented 4-cycles of d and `cover` what
    digraph.cycle_arc_cover returns for them.  There must be a cycle,
    and the cycles must partition the arcs, however many there are; a
    failure names the first arc that is not on exactly one cycle.  Then
    cycle-with-rotation pairs biject with arcs (a flag is the arc it
    starts with) and the property is equivalent to arc-transitivity.
    Cycle 0 is extended onto each flag outside the orbit of its first
    arc, the root, under the extensions found so far, so every run grows
    that orbit until it holds every arc.  Automorphisms compose, so
    every map between two cycles then extends.  The runs stop at the
    first flag that does not extend, which is the one failure reported,
    so there are at most as many runs as arcs.

    Then the automorphisms that fix the root arc are enumerated, and
    orbit-stabilizer gives the order, with no help from the group search.
    They are the ones that fix cycle 0 with its rotation, four pins, not
    two: the cycles partition the arcs, so cycle 0 is the only 4-cycle
    through the root arc, which such an automorphism keeps.
    The enumeration stops at the first solution past ARC_STABILIZER;
    `aut_order` is 0 whenever the certificate is incomplete.
    """
    cover_ok, bad, _ = cover
    if not cover_ok:
        detail = f"cycles do not partition the arcs; first: arc {bad[0][0]} -> {bad[0][1]}"
        return UHReport(False, 0, (), 0, detail)
    if not cycles:
        return UHReport(False, 0, (), 0, "no oriented 4-cycles")

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

    stab = list(islice(extensions(d, _pin_map(cycles, 0, 0, 0)), ARC_STABILIZER + 1))
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
