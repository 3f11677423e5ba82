"""Automorphisms, partial-map extension, and cycle homogeneity checks.

Automorphisms here are arc-preserving vertex bijections; arc labels are
not required to be preserved (and one generator rotates them).  The
group search is individualization-refinement with a numpy colour
refinement and pruning by the automorphisms already found; the group is
kept as generators and a stabilizer chain, never as a list of elements.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from operator import getitem

import numpy as np

from .digraph import (
    Digraph,
    adjacency_matrix,
    cycle_arc_cover,
    enumerate_4cycles,
    orbits,
)
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


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)[i] = p[q[i]]: apply q first."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def lift_vertex_map(fn) -> Perm:
    """Index permutation of the 168 ordered pencils induced by a
    DVertex -> DVertex bijection."""
    return tuple(vertex_index(fn(v)) for v in enumerate_vertices())


def induced_automorphism(point_perm) -> Perm:
    """Lift a permutation of the 7 points (a collineation) to vertices.

    Each image is looked up by its (base, *line) key; raises NotALine
    when point_perm is not a permutation of the 7 points or some image
    is not a vertex, i.e. point_perm is not a collineation.
    """
    s = tuple(point_perm)
    if sorted(s) != list(range(7)):
        raise NotALine(f"{s} is not a permutation of the 7 points")
    table = vertex_table()
    try:
        return tuple(
            table[(s[v.base], s[v.line[0]], s[v.line[1]], s[v.line[2]])]
            for v in enumerate_vertices()
        )
    except KeyError:
        raise NotALine(f"{s} is not a collineation") from None


def rotate_slots(v: DVertex) -> DVertex:
    """Cyclic shift of the written order of a pencil; an automorphism
    that rotates arc labels rather than fixing them."""
    return DVertex(v.base, (v.line[1], v.line[2], v.line[0]))


def swap_slots(v: DVertex) -> DVertex:
    """Transpose the last two entries; with rotate_slots this realizes
    the full symmetric group on slots inside the automorphism group."""
    return DVertex(v.base, (v.line[0], v.line[2], v.line[1]))


# ---------------------------------------------------------------------------
# colour refinement and the automorphism search


def _neighbour_index(d: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """Out- and in-neighbour rows as index arrays, padded with n up to
    the maximum degree, so damaged graphs with uneven degrees fit."""

    def padded(rows) -> np.ndarray:
        idx = np.full((d.n, max(map(len, rows), default=0)), d.n, np.int64)
        for v, row in enumerate(rows):
            idx[v, : len(row)] = row
        return idx

    return padded(d.out), padded(d.inn)


def _closed_walk_colours(out_idx: np.ndarray) -> np.ndarray:
    """Colour each vertex by its numbers of closed walks of length 4 and
    of length 8, diag(A^4) and diag(A^8), ranked to 0..k-1.

    Automorphisms preserve both counts, so the colouring can seed the
    search.  The 4-walks split off the vertices near a damaged 4-cycle;
    the 8-walks also split a two-arc swap inside one 4-cycle, which
    trades the cycle for two 2-circuits and leaves every vertex on three
    closed 4-walks.  diag(A^2k) is the row sum of A^k * (A^k)^T, and
    A^(k+1) sums the rows of A^k over out-neighbours, in int64: a count
    that wraps is still an invariant.
    """
    n = out_idx.shape[0]
    # A^k, with a zero row n for the padding index of out_idx
    power = np.zeros((n + 1, n), np.int64)
    power[np.arange(n), np.arange(n)] = 1
    walks = []
    for k in range(1, 5):
        nxt = np.zeros_like(power)
        for col in out_idx.T:
            nxt[:n] += power[col]
        power = nxt
        if k % 2 == 0:
            walks.append((power[:n] * power[:n].T).sum(axis=1))
    return np.unique(np.stack(walks, axis=1), axis=0, return_inverse=True)[1].ravel()


def _refine(colors: np.ndarray, out_idx: np.ndarray, in_idx: np.ndarray):
    """Stable colouring refined by neighbour colours.

    A vertex's signature is (colour, sorted out-neighbour colours, sorted
    in-neighbour colours), padded with -1; it splits cells exactly as the
    in/out colour counts do.  The returned labels are the ranks of the
    signatures in sorted order, canonical so that two sides of a paired
    search stay comparable.
    """
    while True:
        k = int(colors.max()) + 1
        ext = np.append(colors, -1)
        sig = np.concatenate(
            [colors[:, None], np.sort(ext[out_idx], axis=1), np.sort(ext[in_idx], axis=1)],
            axis=1,
        )
        order = np.lexsort(sig.T[::-1])
        rows = sig[order]
        step = np.zeros(len(rows), np.int64)
        step[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        new = np.empty_like(colors)
        new[order] = np.cumsum(step)
        if int(step.sum()) + 1 == k:
            return new
        colors = new


@dataclass(frozen=True)
class AutGroup:
    """A permutation group on range(degree), held as a stabilizer chain.

    The pointwise stabilizer of `base` is trivial.  `transversals[i]`
    maps each point x of the orbit of base[i] under the stabilizer of
    base[:i] to an element taking base[i] to x, so the order is the
    product of the orbit lengths and membership is decided by sifting.
    `nodes` and `leaves` count the search-tree nodes refined and the
    discrete leaves reached while the group was found.
    """

    degree: int
    generators: tuple[Perm, ...]
    order: int
    base: tuple[int, ...]
    transversals: tuple[dict[int, Perm], ...] = field(repr=False, compare=False)
    nodes: int
    leaves: int

    def __contains__(self, perm) -> bool:
        p = tuple(perm)
        ident = tuple(range(self.degree))
        if sorted(p) != list(ident):
            return False
        for b, trans in zip(self.base, self.transversals):
            u = trans.get(p[b])
            if u is None:
                return False
            p = compose(inverse(u), p)
        return p == ident


def _transversal(b: int, gens: list[Perm], n: int) -> dict[int, Perm]:
    """For each point x of the orbit of b under gens, an element of the
    generated group taking b to x."""
    trans = {b: tuple(range(n))}
    frontier = [b]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in trans:
                trans[y] = compose(g, trans[x])
                frontier.append(y)
    return trans


@lru_cache(maxsize=8)
def automorphism_group(d: Digraph) -> AutGroup:
    """Find the automorphism group by individualization-refinement with
    pruning by automorphisms (McKay & Piperno, Practical graph
    isomorphism II, 2014).

    The first refinement starts from each vertex's numbers of closed
    4- and 8-walks, invariants that split off the vertices near a
    damaged spot of an otherwise symmetric graph.  The first path then
    individualizes the first vertex of the smallest non-singleton cell
    at each level until the colouring is discrete; those vertices are
    the base.  Then, deepest level first, level i
    branches only on cell members outside the orbit of base[i] under the
    generators found so far (which all fix base[:i]), and in each branch
    looks for one leaf that maps the first leaf by an automorphism fixing
    base[:i] and taking base[i] to that member.  Every kept leaf is
    verified against the adjacency matrix.  The orbits reached are the
    basic orbits of the stabilizer chain.  Cached per digraph: the group
    is reused by every verification suite in a session.
    """
    n = d.n
    out_idx, in_idx = _neighbour_index(d)
    a = adjacency_matrix(d).astype(bool)

    # the first path: colourings and cell sizes by level, target cell
    # labels, base
    path = [_refine(_closed_walk_colours(out_idx), out_idx, in_idx)]
    sizes = [np.bincount(path[0])]
    target: list[int] = []
    base: list[int] = []

    def individualize(colors: np.ndarray, level: int, v: int) -> np.ndarray:
        nxt = colors.copy()
        nxt[v] = sizes[level].size
        return _refine(nxt, out_idx, in_idx)

    while (sizes[-1] > 1).any():
        counts = sizes[-1]
        big = np.flatnonzero(counts > 1)
        c = int(big[np.argmin(counts[big])])
        v = int(np.flatnonzero(path[-1] == c)[0])
        target.append(c)
        base.append(v)
        path.append(individualize(path[-1], len(base) - 1, v))
        sizes.append(np.bincount(path[-1]))
    first_leaf = path[-1]
    base_arr = np.array(base, np.int64)
    nodes = len(path)
    leaves = 1

    def leaf_search(colors: np.ndarray, level: int, want: np.ndarray):
        """An automorphism at a leaf below this node taking base[:len(want)]
        to want, or None."""
        nonlocal nodes, leaves
        nodes += 1
        if not np.array_equal(np.bincount(colors), sizes[level]):
            return None
        if level == len(base):
            leaves += 1
            pos = np.empty(n, np.int64)
            pos[colors] = np.arange(n)
            perm = pos[first_leaf]
            if np.array_equal(perm[base_arr[: want.size]], want) and np.array_equal(
                a[perm][:, perm], a
            ):
                return perm
            return None
        for w in np.flatnonzero(colors == target[level]):
            perm = leaf_search(individualize(colors, level, w), level + 1, want)
            if perm is not None:
                return perm
        return None

    # orbits of the generators found so far, as a union-find forest
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    gens: list[Perm] = []
    transversals: list[dict[int, Perm]] = []
    for i in reversed(range(len(base))):
        b = base[i]
        for w in np.flatnonzero(path[i] == target[i]):
            if find(w) == find(b):
                continue
            want = np.append(base_arr[:i], w)
            perm = leaf_search(individualize(path[i], i, w), i + 1, want)
            if perm is not None:
                g = tuple(int(x) for x in perm)
                gens.append(g)
                for x in range(n):
                    parent[find(x)] = find(g[x])
        transversals.insert(0, _transversal(b, gens, n))

    return AutGroup(
        degree=n,
        generators=tuple(gens),
        order=math.prod(len(t) for t in transversals),
        base=tuple(base),
        transversals=tuple(transversals),
        nodes=nodes,
        leaves=leaves,
    )


def vertex_orbits(group: AutGroup, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted(o)) for o in orbits(range(n), group.generators, getitem)
    )


def arc_orbits(d: Digraph, group: AutGroup) -> tuple[tuple, ...]:
    def act(g: Perm, arc):
        return g[arc[0]], g[arc[1]]

    return tuple(tuple(sorted(o)) for o in orbits(d.arcs(), group.generators, act))


# ---------------------------------------------------------------------------
# partial-map extension


def extend_isomorphism(d: Digraph, pins: dict) -> Perm | None:
    """Grow a partial vertex map of d into itself to an automorphism.

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
    trail, so backtracking restores both.  Every result is checked by
    is_automorphism; returns None when no extension exists.
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
        return None
    # (vertex, its untried images, trail length before its assignment)
    stack = []
    while True:
        u, opts = branch()
        if u is None:
            break
        stack.append((u, iter(opts), len(trail)))
        while True:
            if not stack:
                return None
            u, rest, mark = stack[-1]
            undo(mark)
            w = next(rest, None)
            if w is None:
                stack.pop()
            elif assign(u, w):
                break
    perm = tuple(tgt)
    return perm if is_automorphism(d, perm) else None


# ---------------------------------------------------------------------------
# oriented-4-cycle homogeneity


@dataclass(frozen=True)
class UHReport:
    passed: bool
    aut_order: int
    failures: tuple[tuple[int, int, int], ...]
    direct_checked: int
    flag_transitive: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "aut_order": self.aut_order,
            "failures": [
                {"cycle": c, "cycle2": c2, "rotation": r}
                for (c, c2, r) in self.failures
            ],
        }


def _cycle_triple_map(cycles, perm):
    """Where each cycle index goes under perm, with the rotation that
    aligns position 0."""
    index = {cyc: i for i, cyc in enumerate(cycles)}
    out = []
    for i, cyc in enumerate(cycles):
        img = tuple(perm[v] for v in cyc)
        m = img.index(min(img))
        canon = img[m:] + img[:m]
        j = index[canon]
        r = canon.index(img[0])
        out.append((i, j, r))
    return out


def _pin_map(cycles, i: int, j: int, r: int) -> dict:
    c, c2 = cycles[i], cycles[j]
    return {c[k]: c2[(k + r) % 4] for k in range(4)}


FAILURE_CAP = 20


def verify_c4uh(
    d: Digraph,
    sample: int = 100,
    seed: int = 0,
    group: AutGroup | None = None,
    cycles=None,
) -> UHReport:
    """Check that every rotation-aligned map between oriented 4-cycles
    extends to an automorphism.

    The cycles partition the arcs, so cycle-with-rotation pairs biject
    with arcs and the property is equivalent to arc-transitivity of the
    automorphism group; that equivalence is the fast certificate.  On
    top of it, `sample` random pairs are extended directly (seeded), or
    with sample=0 every pair is covered: each extension found settles
    one aligned image per source cycle, so uncovered triples trigger at
    most one search each.
    """
    if sample < 0:
        raise ValueError(f"sample must be >= 0, got {sample}")
    if cycles is None:
        cycles = enumerate_4cycles(d)
    if group is None:
        group = automorphism_group(d)
    notes = []
    ok_structure = True
    if len(cycles) != 126:
        ok_structure = False
        notes.append(f"{len(cycles)} oriented 4-cycles, expected 126")
    cover_ok, bad = cycle_arc_cover(d, cycles)
    if not cover_ok:
        ok_structure = False
        notes.append(f"cycles do not partition the arcs ({len(bad)} witnesses)")
    orbits = arc_orbits(d, group)
    flag_transitive = len(orbits) == 1 and len(orbits[0]) == d.arc_count()
    if not flag_transitive:
        notes.append(f"{len(orbits)} arc orbits")

    failures: list[tuple[int, int, int]] = []
    checked = 0
    m = len(cycles)
    if not ok_structure:
        return UHReport(
            False, group.order, (), 0, flag_transitive, "; ".join(notes)
        )

    if sample > 0:
        rng = random.Random(seed)
        for _ in range(sample):
            i = rng.randrange(m)
            j = rng.randrange(m)
            r = rng.randrange(4)
            checked += 1
            if extend_isomorphism(d, _pin_map(cycles, i, j, r)) is None:
                failures.append((i, j, r))
                if len(failures) >= FAILURE_CAP:
                    break
    else:
        covered = [[False] * 4 for _ in range(m * m)]
        for i in range(m):
            for j in range(m):
                row = covered[i * m + j]
                for r in range(4):
                    if row[r]:
                        continue
                    checked += 1
                    perm = extend_isomorphism(d, _pin_map(cycles, i, j, r))
                    if perm is None:
                        failures.append((i, j, r))
                        if len(failures) >= FAILURE_CAP:
                            break
                        continue
                    for (a, b, rr) in _cycle_triple_map(cycles, perm):
                        covered[a * m + b][rr] = True
                if failures and len(failures) >= FAILURE_CAP:
                    break
            if failures and len(failures) >= FAILURE_CAP:
                break

    passed = ok_structure and flag_transitive and not failures
    if not notes and not failures:
        mode = "exhaustive" if sample == 0 else f"sampled {checked}"
        notes.append(f"arc-transitive; {mode} direct extensions all succeeded")
    return UHReport(
        passed,
        group.order,
        tuple(failures),
        checked,
        flag_transitive,
        "; ".join(notes),
    )
