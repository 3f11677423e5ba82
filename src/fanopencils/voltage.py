"""Z7 quotient of the ordered-pencil digraph and the voltage-graph lift.

The translation x -> x+1 of the point set acts freely on the 168
vertices with 24 fibres of size 7.  Labelling each fibre by its base-0
representative and each fibre member by its translation layer turns the
quotient into a voltage graph over Z7 whose derived graph is the
original digraph, vertex for vertex and slot for slot.
"""

from __future__ import annotations

from collections import namedtuple
from operator import getitem

from .autos import Perm, induced_automorphism
from .digraph import Digraph, arc_witness, canonical_cycle, is_automorphism, orbits
from .fano import TRANSLATION


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


def _places(fibres):
    """Each vertex's (fibre position, layer) in the fibres."""
    return {w: (i, m) for i, fibre in enumerate(fibres) for m, w in enumerate(fibre)}


class VoltageGraph(namedtuple("VoltageGraph", "arcs fibres")):
    """Quotient multidigraph with Z-valued arc voltages.

    fibres[i] lists the digraph's vertices over quotient vertex i by
    layer, from the representative, its least vertex; arcs are
    (from-position, to-position, voltage) triples, grouped by source in
    slot order.
    """

    __slots__ = ()


def quotient(d: Digraph, gen: Perm) -> VoltageGraph:
    """Project d onto its fibres, the orbits of `gen`, the generator
    z7_action returned, already validated against d.  Layer m of a fibre
    is its representative moved m times by gen.  The arc leaving a
    representative in slot k becomes an arc to its target's fibre, whose
    voltage is the target's layer.
    """
    fibres = tuple(orbits(range(d.n), [gen], getitem))
    place = _places(fibres)
    arcs = tuple((i, *place[w]) for i, fibre in enumerate(fibres) for w in d.out[fibre[0]])
    return VoltageGraph(arcs, fibres)


def derive_canonical(vg: VoltageGraph) -> Digraph:
    """The derived graph of vg, on the vertex ids its fibres list.

    Each quotient arc (r, r2, v) lifts to the arcs from layer m of
    fibre r to layer m + v of fibre r2.  Translation commutes with every
    slot map, so for vg = quotient(d, gen) the out-list order survives
    and the result should equal d exactly.
    """
    rows = [[] for fibre in vg.fibres for _ in fibre]
    for r, r2, v in vg.arcs:
        for m, x in enumerate(vg.fibres[r]):
            rows[x].append(vg.fibres[r2][(m + v) % ORDER])
    return Digraph(rows)


def projected_voltage_sums(d: Digraph, cycles, vg: VoltageGraph):
    """Voltage sum mod ORDER of each cycle's projected walk in vg, the
    quotient of d.  The arc u -> w projects to the quotient arc leaving
    u's fibre in the slot w holds in d.out[u], whose voltage is the layer
    of that slot's target at the fibre's representative.  When the action
    carries each out-list onto its image slot for slot, as on D, every
    sum is 0; an out-list reordered within a fibre gives a nonzero sum.
    """
    place = _places(vg.fibres)
    sums = []
    for cyc in cycles:
        s = 0
        for k, u in enumerate(cyc):
            w = cyc[(k + 1) % len(cyc)]
            rep = vg.fibres[place[u][0]][0]
            s += place[d.out[rep][d.out[u].index(w)]][1]
        sums.append(s % ORDER)
    return tuple(sums)


def cycle_orbits(cycles, gen: Perm):
    """Orbits of the 4-cycle set under the action, canonical rotation."""
    def act(g: Perm, cyc):
        return canonical_cycle(tuple(g[v] for v in cyc))

    return tuple(
        tuple(sorted(o)) for o in orbits(cycles, [gen], act)
    )
