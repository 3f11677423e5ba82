"""The 168-vertex oriented graph on ordered pencils.

An arc carries one of the labels 1, 2, 0 (that cyclic order).  The arc
with label i keeps slot i of the source line, replaces the other two
slots by their companion points, and moves the base to the companion of
slot i.  Out-lists are stored in label order, so slot k of an out-list is
the arc with label LABELS[k].
"""

from __future__ import annotations

from itertools import repeat, zip_longest
from operator import add, and_, getitem, rshift

from .golden import ADJACENCY_ROWS
from .pencils import Pencil, enumerate_vertices, pencil_index, vertex_table

LABELS = (1, 2, 0)


def _images(v) -> tuple[tuple[int, tuple[int, int, int]], ...]:
    """(base, line) of the three out-neighbours of a pencil, in slot
    order: slot p keeps line[p], replaces each other entry line[k] by its
    companion thirds[k], and moves the base to thirds[p]."""
    (a, b, c), (x, y, z) = v.line, v.thirds
    return (x, (a, y, z)), (y, (x, b, z)), (z, (x, y, c))


def image_rows(pencils, index) -> list[tuple[int, int, int]]:
    """Row i holds index[image] for the out-neighbours of pencils[i], in
    slot order; an image missing from `index` raises ValueError naming
    vertex i."""
    rows = []
    try:
        for v in pencils:
            rows.append(tuple(map(index.__getitem__, _images(v))))
    except KeyError as e:
        raise ValueError(f"vertex {len(rows)} steps to {e.args[0]}, not a vertex") from None
    return rows


def arc_label(u: Pencil, v: Pencil) -> int | None:
    """The label making all seven arc equations hold between the ordered
    pencils u and v, or None.

    Slot successors follow the label order 1 -> 2 -> 0 -> 1: with p the
    slot of the label, s and r are the next and previous slots.
    """
    tu, tv = u.thirds, v.thirds
    for p, lab in enumerate(LABELS):
        s, r = (p + 1) % 3, (p + 2) % 3
        if (
            u.base == tv[p]
            and v.base == tu[p]
            and v.line[p] == u.line[p]
            and v.line[s] == tu[s]
            and v.line[r] == tu[r]
            and tv[s] == u.line[r]
            and tv[r] == u.line[s]
        ):
            return lab
    return None


class Digraph:
    """Immutable adjacency structure: ordered out-lists, derived in-lists.

    Each out-list must be a list or tuple of distinct ints 0..n-1 (not
    bools); anything else raises ValueError naming the vertex and entry.
    """

    __slots__ = ("n", "out", "inn")

    def __init__(self, out_lists):
        rows = tuple(out_lists)
        self.n = n = len(rows)
        incoming = [[] for _ in range(n)]
        for u, row in enumerate(rows):
            if type(row) not in (list, tuple):
                raise ValueError(f"vertex {u} has out-list {row!r}, not a list or tuple")
            for w in row:
                if type(w) is not int or not 0 <= w < n:
                    raise ValueError(
                        f"vertex {u} has out-neighbour {w!r}, not a vertex 0..{n - 1}"
                    )
                if incoming[w] and incoming[w][-1] == u:
                    raise ValueError(f"vertex {u} lists out-neighbour {w} twice")
                incoming[w].append(u)
        self.out = tuple(map(tuple, rows))
        self.inn = tuple(map(tuple, incoming))

    def arcs(self):
        for u, row in enumerate(self.out):
            for w in row:
                yield u, w

    def arc_count(self) -> int:
        return sum(len(row) for row in self.out)

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.out == other.out


def build_d() -> Digraph:
    """The full digraph on the 168 canonical vertices, each image looked
    up by (base, line) in pencils.pencil_index."""
    return Digraph(image_rows(enumerate_vertices(), pencil_index()))


def arc_witness(d: Digraph, perm) -> str | None:
    """None when perm is an automorphism of d, else why not, worded to
    follow the map's name: a length other than d.n, else entries not the
    ints 0..n-1 once each (a float or a bool is not an int), else the
    first arc whose image is not an arc.  With no parallel arcs, the arcs
    are distinct pairs and a vertex permutation maps them to as many
    distinct pairs, so it is an automorphism iff every image is an arc."""
    n = d.n
    if len(perm) != n:
        return f"acts on {len(perm)} vertices, the digraph has {n}"
    if not {int}.issuperset(map(type, perm)) or sorted(perm) != list(range(n)):
        return f"is not a permutation of 0..{n - 1}"
    for u, row in enumerate(d.out):
        image = d.out[perm[u]]
        for w in row:
            if perm[w] not in image:
                return f"maps arc {u} -> {w} to {perm[u]} -> {perm[w]}, not an arc"
    return None


def is_automorphism(d: Digraph, perm) -> bool:
    """Whether perm is an automorphism of d: arc_witness gives no reason."""
    return arc_witness(d, perm) is None


def arc_image(g, arc):
    """The image of the arc (u, w) under the vertex permutation g."""
    return g[arc[0]], g[arc[1]]


def bfs(rows, start: int) -> list[int]:
    """Breadth-first search along the neighbour lists `rows` (d.out, or
    d.inn to go against the arcs): dist[v] is the number of steps from
    start, -1 if unreached."""
    dist = [-1] * len(rows)
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in rows[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def strongly_connected(d: Digraph) -> tuple[bool, tuple[int, int]]:
    """(ok, (forward, backward)): ok iff the digraph has a single strong
    component; forward and backward count the vertices reached from
    vertex 0 along and against the arcs."""
    if d.n == 0:
        return False, (0, 0)
    reach = tuple(sum(x >= 0 for x in bfs(rows, 0)) for rows in (d.out, d.inn))
    return reach == (d.n, d.n), reach


def check_no_short_circuits(d: Digraph) -> tuple[bool, tuple[int, ...]]:
    """Direct search: (ok, circuit), ok iff there is no directed circuit
    of length 1, 2 or 3; circuit is the first one found, else ()."""
    for u, row in enumerate(d.out):
        for a in row:
            if a == u:
                return False, (u,)
            if u in d.out[a]:
                return False, (u, a)
            for b in d.out[a]:
                if b != u and u in d.out[b]:
                    return False, (u, a, b)
    return True, ()


def closed_walks(d: Digraph, lengths) -> list[list[int]]:
    """diag(A^k) for each k in the ascending `lengths`, A the 0/1
    adjacency matrix of d: entry v of each counts the closed walks of
    length k through v.

    Row v of A^k is one int whose field u counts the k-walks from v to
    u, and A^(k+1) sums the rows of A^k over out-neighbours, one slot of
    the out-lists at a time from the first (zero rows if there is none;
    the zero row n past the end of a short list).  A field holds maxdeg^k
    for the largest k, so no count carries into the next field.
    """
    slots = list(zip_longest(*d.out, fillvalue=d.n))
    width = lengths[-1] * len(slots).bit_length() + 1
    mask = (1 << width) - 1
    shifts = range(0, d.n * width, width)
    rows = [1 << shift for shift in shifts]
    diagonals = []
    for k in range(1, lengths[-1] + 1):
        get = (rows + [0]).__getitem__
        rows = list(map(get, slots[0])) if slots else [0] * d.n
        for slot in slots[1:]:
            rows = list(map(add, rows, map(get, slot)))
        if k in lengths:
            diagonals.append(list(map(and_, map(rshift, rows, shifts), repeat(mask))))
    return diagonals


def short_circuit_matrix_check(d: Digraph) -> tuple[bool, tuple[int, int, int]]:
    """Independent oracle: (ok, (tr A, tr A^2, tr A^3)), ok iff the
    traces of the first three powers of the 0/1 adjacency matrix A
    vanish, each the sum of a diagonal from closed_walks.  No path is
    searched, so this shares no code with check_no_short_circuits.
    """
    traces = tuple(map(sum, closed_walks(d, (1, 2, 3))))
    return traces == (0, 0, 0), traces


def canonical_cycle(cyc) -> tuple[int, int, int, int]:
    """Rotation of an oriented 4-cycle placing its minimal vertex first."""
    i = cyc.index(min(cyc))
    return tuple(cyc[i:]) + tuple(cyc[:i])


def enumerate_4cycles(d: Digraph) -> tuple[tuple[int, int, int, int], ...]:
    """Depth-first census of all oriented 4-cycles, canonically rotated.

    Makes no use of the label structure, so it doubles as an oracle for
    the orbit decomposition of the three label maps.
    """
    out = d.out
    found = []
    for v0 in range(d.n):
        for v1 in out[v0]:
            if v1 <= v0:
                continue
            for v2 in out[v1]:
                if v2 <= v0 or v2 == v1:
                    continue
                for v3 in out[v2]:
                    if v3 <= v0 or v3 == v1 or v3 == v2:
                        continue
                    if v0 in out[v3]:
                        found.append((v0, v1, v2, v3))
    return tuple(sorted(found))


def label_permutations(d: Digraph) -> dict[int, tuple[int, ...]]:
    """The map v -> out-neighbor for each label slot.

    Raises ValueError naming the first vertex whose out-list lacks a slot.
    """
    v = next((v for v, row in enumerate(d.out) if len(row) < len(LABELS)), None)
    if v is not None:
        k = len(d.out[v])
        raise ValueError(
            f"vertex {v} has no slot {k} (label {LABELS[k]}): out-list {d.out[v]}"
        )
    return {lab: tuple(row[k] for row in d.out) for k, lab in enumerate(LABELS)}


def orbits(points, generators, act) -> list[tuple]:
    """The orbits that meet `points` under the group the generators
    generate, where act(g, x) is the image of x under g.

    Orbits come in the order of their first point, each listing its
    points in the order a breadth-first walk reaches them: under a
    single generator g, the cycle x, g x, g^2 x, ... of its first point x.
    For permutations held as tuples, act is operator.getitem.
    """
    seen = set()
    result = []
    for p in points:
        if p in seen:
            continue
        seen.add(p)
        orbit = [p]
        for x in orbit:
            for g in generators:
                y = act(g, x)
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        result.append(tuple(orbit))
    return result


def step_orbit_cycles(d: Digraph) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Orbits of each label map, as vertex tuples in cycle order from
    their least vertex, i.e. canonically rotated.

    Orbits of any length are returned; callers check they all have
    length 4.  A label map that is not a permutation raises ValueError
    naming a vertex it hits twice and both of its preimages.
    """
    result = {}
    for lab, perm in label_permutations(d).items():
        first = {}
        for v, w in enumerate(perm):
            if first.setdefault(w, v) != v:
                raise ValueError(f"label {lab} maps both {first[w]} and {v} to vertex {w}")
        result[lab] = tuple(orbits(range(d.n), [perm], getitem))
    return result


def cycle_arc_cover(d: Digraph, cycles):
    """How often each arc is used by the given cycles.

    Returns (ok, witnesses, counts): ok iff every arc of d is used
    exactly once and no cycle uses a non-arc; witnesses lists offending
    arcs, and counts maps each arc of d to its number of uses.
    """
    counts = {arc: 0 for arc in d.arcs()}
    bad = []
    for cyc in cycles:
        for k in range(4):
            arc = (cyc[k], cyc[(k + 1) % 4])
            if arc in counts:
                counts[arc] += 1
            else:
                bad.append(arc)
    bad.extend(arc for arc, c in counts.items() if c != 1)
    return (not bad), sorted(set(bad)), counts


def _base_rows(d: Digraph):
    """(row symbol, entry symbols) of the 24 base-0 vertices: empty for a
    row d lacks, and a target past the 168 pencils is named by its index."""
    syms = list(vertex_table())
    syms += (f"vertex {w} (not a pencil)" for w in range(len(syms), d.n))
    return [
        (syms[i], tuple(map(syms.__getitem__, d.out[i])) if i < d.n else ())
        for i in range(24)
    ]


def golden_sublist_diff(d: Digraph):
    """Differences between the base-0 out-lists of d and the golden table.

    Each entry is (row symbol, position, expected, got), so injected
    faults are located; an entry on one side only is "missing" on the
    other.
    """
    diffs = []
    for sym, entries in _base_rows(d):
        expected = ADJACENCY_ROWS[sym]
        pairs = zip_longest(expected, entries, fillvalue="missing")
        for pos, (e, g) in enumerate(pairs):
            if e != g:
                diffs.append((sym, pos, e, g))
    return diffs


def format_table(d: Digraph) -> str:
    """The base-0 adjacency rows rendered one per line."""
    return "\n".join(f"{sym} : {', '.join(entries)}" for sym, entries in _base_rows(d))
