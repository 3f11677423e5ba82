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

from .autos import Perm, induced_automorphism
from .digraph import Digraph, arc_witness, canonical_cycle, dot, is_automorphism, orbits
from .fano import TRANSLATION
from .pencils import compact, enumerate_vertices


# the order of every cyclic action here: translation generates Z7
ORDER = 7


class InvalidAction(Exception):
    """The translation is not an automorphism of the digraph."""


def z7_action(d: Digraph) -> Perm:
    """The translation x -> x+1 as a vertex permutation, the generator
    of the action; raises InvalidAction with digraph.arc_witness's reason
    unless it is an automorphism of d.  The translation is a
    collineation, so it lifts through the collineation table."""
    gen = induced_automorphism(TRANSLATION)
    if not is_automorphism(d, gen):
        raise InvalidAction(f"translation {arc_witness(d, gen)}")
    return gen


def action_orbits(gen: Perm, n: int):
    """Orbits as (rep, layer) data: rep is the least member, the first."""
    reps = []
    layer = [0] * n
    rep_of = [0] * n
    for orb in orbits(range(n), [gen], getitem):
        for i, y in enumerate(orb):
            rep_of[y] = orb[0]
            layer[y] = i % ORDER
        reps.append(orb[0])
    return reps, rep_of, layer


class VoltageGraph(namedtuple("VoltageGraph", "reps arcs rep_vertices")):
    """Quotient multidigraph with Z-valued arc voltages.

    reps are display names and rep_vertices the representatives' ids in
    the digraph; arcs are (from-position, to-position, voltage) triples,
    grouped by source in slot order.
    """

    __slots__ = ()


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
    names = tuple(compact(verts[r]) for r in reps)
    arcs = tuple((pos[r], pos[rep_of[w]], layer[w]) for r in reps for w in d.out[r])
    return VoltageGraph(names, arcs, tuple(reps))


def derive_canonical(vg: VoltageGraph, gen: Perm) -> Digraph:
    """The derived graph of vg, on the original vertex ids.

    `vg` is quotient(d, gen) and `gen` the generator z7_action returned.
    Layer m of representative r is the vertex m applications of the
    generator carry r to, and each quotient arc (r, r2, v) lifts to the
    arcs from layer m of r to layer m + v of r2.  Translation commutes
    with every slot map, so the out-list order survives and the result
    should equal d exactly.
    """
    layers = orbits(vg.rep_vertices, [gen], getitem)
    rows = [[] for _ in gen]
    for r, r2, v in vg.arcs:
        for m, x in enumerate(layers[r]):
            rows[x].append(layers[r2][(m + v) % ORDER])
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
    arcs = (f"{r} -> {r2} [label={v}]" for r, r2, v in vg.arcs)
    return dot("digraph quotient", vg.reps, arcs)
