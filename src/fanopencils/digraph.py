"""The 168-vertex oriented graph on ordered pencils.

An arc carries one of the labels 1, 2, 0 (that cyclic order).  The arc
with label i keeps slot i of the source line, replaces the other two
slots by their companion points, and moves the base to the companion of
slot i.  Out-lists are stored in label order, so slot k of an out-list is
the arc with label LABELS[k].
"""

from __future__ import annotations

from itertools import zip_longest
from operator import getitem

from .golden import ADJACENCY_ROWS
from .pencils import DVertex, compact, enumerate_vertices, vertex_index

LABELS = (1, 2, 0)


def step(v: DVertex, label: int) -> DVertex:
    """The unique out-neighbor of v along the arc with the given label."""
    p = LABELS.index(label)
    th = v.thirds
    newline = tuple(v.line[k] if k == p else th[k] for k in range(3))
    return DVertex(th[p], newline)


def arc_label(u: DVertex, v: DVertex) -> int | None:
    """The label making all seven arc equations hold, or None.

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

    Every target must be a vertex 0..n-1; anything else raises
    ValueError naming the vertex and the entry.
    """

    __slots__ = ("n", "out", "inn")

    def __init__(self, out_lists):
        self.out = tuple(tuple(row) for row in out_lists)
        self.n = len(self.out)
        incoming = [[] for _ in range(self.n)]
        for u, row in enumerate(self.out):
            for w in row:
                if not 0 <= w < self.n:
                    raise ValueError(
                        f"vertex {u} has out-neighbour {w}, outside 0..{self.n - 1}"
                    )
                incoming[w].append(u)
        self.inn = tuple(tuple(sorted(r)) for r in incoming)

    def arcs(self):
        for u, row in enumerate(self.out):
            for w in row:
                yield u, w

    def arc_count(self) -> int:
        return sum(len(row) for row in self.out)

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.out == other.out


def build_d() -> Digraph:
    """The full digraph on the 168 canonical vertices."""
    verts = enumerate_vertices()
    return Digraph(
        [tuple(vertex_index(step(v, lab)) for lab in LABELS) for v in verts]
    )


def bfs(rows, start: int, skip_edge=None) -> tuple[list[int], list[int]]:
    """Breadth-first search along the neighbour lists `rows` (d.out, or
    d.inn to go against the arcs), never using skip_edge (u, w) in either
    direction.  Returns (dist, parent): dist[v] is the number of steps
    from start, -1 if unreached, and parent[v] the vertex v was first
    reached from, -1 for start and the unreached."""
    dist = [-1] * len(rows)
    parent = [-1] * len(rows)
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in rows[u]:
                if skip_edge and (u, w) in (skip_edge, skip_edge[::-1]):
                    continue
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return dist, parent


def strongly_connected(d: Digraph) -> tuple[bool, tuple[int, int]]:
    """(ok, (forward, backward)): ok iff the digraph has a single strong
    component; forward and backward count the vertices reached from
    vertex 0 along and against the arcs."""
    if d.n == 0:
        return False, (0, 0)
    reach = tuple(sum(x >= 0 for x in bfs(rows, 0)[0]) for rows in (d.out, d.inn))
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


def short_circuit_matrix_check(d: Digraph) -> tuple[bool, tuple[int, int, int]]:
    """Independent oracle: (ok, (tr A, tr A^2, tr A^3)), ok iff the
    traces of the first three powers of the 0/1 adjacency matrix A
    vanish.

    Row u of A is an int with bit w set for each arc u -> w, and column
    u one with bit v set for each arc v -> u; a parallel arc sets its
    bit once.  tr A counts the loops, tr A^2 sums |row u & column u|,
    and tr A^3 sums |row w & column u| over the arcs u -> w, the closed
    3-walks through each arc, by int.bit_count.  No path is searched, so
    this shares no code with check_no_short_circuits.
    """
    rows = [sum(1 << w for w in set(out)) for out in d.out]
    cols = [sum(1 << v for v in set(inn)) for inn in d.inn]
    traces = (
        sum(row >> u & 1 for u, row in enumerate(rows)),
        sum((row & col).bit_count() for row, col in zip(rows, cols)),
        sum(
            (rows[w] & cols[u]).bit_count()
            for u, out in enumerate(d.out)
            for w in set(out)
        ),
    )
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
    return {
        lab: tuple(row[k] for row in d.out) for k, lab in enumerate(LABELS)
    }


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
    length 4.
    """
    result = {}
    for lab, perm in label_permutations(d).items():
        if sorted(perm) != list(range(d.n)):
            raise ValueError(f"label {lab} map is not a permutation")
        result[lab] = tuple(orbits(range(d.n), [perm], getitem))
    return result


def cycle_arc_cover(d: Digraph, cycles):
    """How often each arc is used by the given cycles.

    Returns (ok, witnesses): ok iff every arc of d is used exactly once
    and no cycle uses a non-arc; witnesses lists offending arcs.
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
    return (not bad), sorted(set(bad))


def _base_rows(d: Digraph):
    """(row symbol, entry symbols) of the 24 base-0 vertices: empty for a
    row d lacks, and a target past the 168 pencils is named by its index."""
    syms = [compact(v) for v in enumerate_vertices()]
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
    lines = [
        f"{sym} : {', '.join(entries)}"
        for sym, entries in _base_rows(d)
    ]
    return "\n".join(lines)


def to_json_dict(d: Digraph) -> dict:
    """JSON form: compact vertex symbols, labeled arcs, the 4-cycle census."""
    verts = enumerate_vertices()
    syms = [compact(v) for v in verts]
    arcs = [
        {"from": u, "to": w, "label": LABELS[k]}
        for u, row in enumerate(d.out)
        for k, w in enumerate(row)
    ]
    cycles = [[syms[v] for v in cyc] for cyc in enumerate_4cycles(d)]
    return {"vertices": syms, "arcs": arcs, "cycles": cycles}


def to_dot(d: Digraph) -> str:
    verts = enumerate_vertices()
    lines = ["digraph pencils {"]
    for i, v in enumerate(verts):
        lines.append(f'  {i} [label="{compact(v)}"];')
    for u, row in enumerate(d.out):
        for k, w in enumerate(row):
            lines.append(f"  {u} -> {w} [label={LABELS[k]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
