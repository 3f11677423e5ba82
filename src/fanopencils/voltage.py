"""Z7 quotient of the ordered-pencil digraph and the voltage-graph lift.

The translation x -> x+1 of the point set acts freely on the 168
vertices with 24 orbits of size 7.  Labelling each orbit by its base-0
representative and each orbit member by its translation layer turns the
quotient into a voltage graph over Z7 whose derived graph is the
original digraph, vertex for vertex and slot for slot.
"""

from __future__ import annotations

from collections import namedtuple
from operator import getitem

from .autos import Perm, arc_witness, induced_automorphism, is_automorphism
from .digraph import Digraph, canonical_cycle, orbits
from .pencils import compact, enumerate_vertices


# the order of every cyclic action here: translation generates Z7
ORDER = 7


class InvalidAction(Exception):
    """The supplied permutation is not a free order-7 automorphism."""


def z7_action(d: Digraph) -> Perm:
    """The translation x -> x+1 as a vertex permutation, the generator
    of the action, validated against the digraph.  The translation is a
    collineation, so it lifts through the collineation table."""
    gen = induced_automorphism([(x + 1) % 7 for x in range(7)])
    validate_action(d, gen)
    return gen


def validate_action(d: Digraph, gen: Perm):
    if len(gen) != d.n:
        raise InvalidAction(
            f"generator acts on {len(gen)} vertices, the digraph has {d.n}"
        )
    if not is_automorphism(d, gen):
        raise InvalidAction(arc_witness(d, "translation", gen))
    for orbit in orbits(range(d.n), [gen], getitem):
        if len(orbit) != ORDER:
            raise InvalidAction(
                f"orbit of {orbit[0]} has {len(orbit)} points, not {ORDER}"
            )


def action_orbits(gen: Perm, n: int):
    """Orbits as (rep, layer) data: rep is the smallest member."""
    reps = []
    layer = [0] * n
    rep_of = [0] * n
    for orb in orbits(range(n), [gen], getitem):
        rep = min(orb)
        k = orb.index(rep)
        for i, y in enumerate(orb):
            rep_of[y] = rep
            layer[y] = (i - k) % ORDER
        reps.append(rep)
    return sorted(reps), rep_of, layer


class VoltageGraph(
    namedtuple("VoltageGraph", "reps arcs rep_vertices", defaults=(None,))
):
    """Quotient multidigraph with Z-valued arc voltages.

    reps are display names; arcs are (from-position, to-position,
    voltage) triples, grouped by source in slot order.
    """

    __slots__ = ()

    def out_degree(self, i: int) -> int:
        return sum(1 for a in self.arcs if a[0] == i)

    def in_degree(self, i: int) -> int:
        return sum(1 for a in self.arcs if a[1] == i)


def quotient(d: Digraph, gen: Perm) -> VoltageGraph:
    """Project d onto orbit representatives.

    `gen` is the generator z7_action returned, already validated
    against d; it is not checked again here.  The voltage of the arc
    leaving a representative in slot k is the layer of the arc's target,
    i.e. the translation carrying the target orbit's representative onto
    the target.
    """
    reps, rep_of, layer = action_orbits(gen, d.n)
    pos = {r: i for i, r in enumerate(reps)}
    verts = enumerate_vertices()
    names = tuple(compact(verts[r]) for r in reps) if d.n == len(verts) else tuple(
        f"orbit{i}" for i in range(len(reps))
    )
    arcs = tuple(
        (pos[r], pos[rep_of[w]], layer[w])
        for r in reps
        for w in d.out[r]
    )
    return VoltageGraph(names, arcs, tuple(reps))


def derive(vg: VoltageGraph) -> Digraph:
    """Derived covering digraph on (rep, layer) pairs, indexed rep-major.

    Each quotient arc of voltage v lifts to the arcs
    (r, m) -> (r', m + v) for every layer m.
    """
    n = len(vg.reps)
    rows: list[list[int]] = [[] for _ in range(n * ORDER)]
    for (r, r2, v) in vg.arcs:
        for m in range(ORDER):
            rows[r * ORDER + m].append(r2 * ORDER + (m + v) % ORDER)
    return Digraph(rows)


def derive_canonical(d: Digraph, gen: Perm) -> Digraph:
    """Lift the quotient back and relabel layers onto the original ids.

    `gen` is the generator z7_action returned, as for quotient.  Index
    (r, m) becomes the vertex reached from representative r by m
    applications of the generator; translation commutes with every slot
    map, so the out-list order survives and the result should equal d
    exactly.
    """
    vg = quotient(d, gen)
    lifted = derive(vg)
    ids = [
        x for orb in orbits(vg.rep_vertices, [gen], getitem) for x in orb
    ]
    rows = [None] * d.n
    for i, row in enumerate(lifted.out):
        rows[ids[i]] = tuple(ids[j] for j in row)
    return Digraph(rows)


def projected_voltage_sums(d: Digraph, cycles, gen: Perm):
    """Voltage sum mod ORDER of each cycle's projected walk.

    The arc u -> w projects to the quotient arc that leaves the orbit of
    u in the slot w holds in d.out[u]; its voltage is the layer of the
    target of that slot at the orbit's representative.  When the action
    carries each out-list onto its image slot for slot, as on D, every
    sum is 0; an out-list reordered within an orbit shows up as a
    nonzero sum.
    """
    _, rep_of, layer = action_orbits(gen, d.n)
    sums = []
    for cyc in cycles:
        s = 0
        for k, u in enumerate(cyc):
            w = cyc[(k + 1) % len(cyc)]
            s += layer[d.out[rep_of[u]][d.out[u].index(w)]]
        sums.append(s % ORDER)
    return tuple(sums)


def cycle_orbits(cycles, gen: Perm):
    """Orbits of the 4-cycle set under the action, canonical rotation."""
    def act(g: Perm, cyc):
        return canonical_cycle(tuple(g[v] for v in cyc))

    return tuple(
        tuple(sorted(o)) for o in orbits(cycles, [gen], act)
    )


def to_json_dict(vg: VoltageGraph) -> dict:
    return {
        "reps": list(vg.reps),
        "arcs": [
            {"from": r, "to": r2, "voltage": v} for (r, r2, v) in vg.arcs
        ],
    }


def to_dot(vg: VoltageGraph) -> str:
    lines = ["digraph quotient {"]
    for i, name in enumerate(vg.reps):
        lines.append(f'  {i} [label="{name}"];')
    for (r, r2, v) in vg.arcs:
        lines.append(f"  {r} -> {r2} [label={v}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
