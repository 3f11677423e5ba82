"""Z7 quotient of the ordered-pencil digraph and the voltage-graph lift.

The translation x -> x+1 of the point set acts freely on the 168
vertices with 24 orbits of size 7.  Labelling each orbit by its base-0
representative and each orbit member by its translation layer turns the
quotient into a voltage graph over Z7 whose derived graph is the
original digraph, vertex for vertex and slot for slot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .autos import Perm, is_automorphism, lift_vertex_map
from .digraph import Digraph, canonical_cycle
from .pencils import compact, enumerate_vertices, translate


class InvalidAction(Exception):
    """The supplied permutation is not a free order-7 automorphism."""


@dataclass(frozen=True)
class GroupAction:
    """A cyclic group acting on vertices via one generator."""

    generator: Perm
    order: int = 7


def z7_action(d: Digraph | None = None) -> GroupAction:
    """The translation action, validated against the digraph."""
    if d is None:
        from .digraph import build_d

        d = build_d()
    action = GroupAction(lift_vertex_map(lambda v: translate(v, 1)), 7)
    validate_action(d, action)
    return action


def validate_action(d: Digraph, action: GroupAction):
    gen = action.generator
    if len(gen) != d.n:
        raise InvalidAction("generator acts on the wrong vertex set")
    if not is_automorphism(d, gen):
        raise InvalidAction("generator is not an automorphism")
    p = tuple(range(d.n))
    for k in range(1, action.order):
        p = tuple(gen[x] for x in p)
        if any(p[v] == v for v in range(d.n)):
            raise InvalidAction(f"power {k} has a fixed point; action is not free")
    p = tuple(gen[x] for x in p)
    if p != tuple(range(d.n)):
        raise InvalidAction(f"generator order is not {action.order}")


def action_orbits(action: GroupAction, n: int):
    """Orbits as (rep, layer) data: rep is the smallest member."""
    gen = action.generator
    seen = [False] * n
    reps = []
    layer = [0] * n
    rep_of = [0] * n
    for v in range(n):
        if seen[v]:
            continue
        orb = [v]
        x = gen[v]
        while x != v:
            orb.append(x)
            x = gen[x]
        rep = min(orb)
        k = orb.index(rep)
        for i, y in enumerate(orb):
            seen[y] = True
            rep_of[y] = rep
            layer[y] = (i - k) % action.order
        reps.append(rep)
    return sorted(reps), rep_of, layer


@dataclass(frozen=True)
class VoltageGraph:
    """Quotient multidigraph with Z-valued arc voltages.

    reps are display names; arcs are (from-position, to-position,
    voltage) triples, grouped by source in slot order.
    """

    reps: tuple[str, ...]
    arcs: tuple[tuple[int, int, int], ...]
    order: int = 7
    rep_vertices: tuple[int, ...] | None = None

    def out_degree(self, i: int) -> int:
        return sum(1 for a in self.arcs if a[0] == i)

    def in_degree(self, i: int) -> int:
        return sum(1 for a in self.arcs if a[1] == i)


def quotient(d: Digraph, action: GroupAction | None = None) -> VoltageGraph:
    """Project d onto orbit representatives.

    The voltage of the arc leaving a representative in slot k is the
    layer of the arc's target, i.e. the translation carrying the target
    orbit's representative onto the target.
    """
    if action is None:
        action = z7_action(d)
    else:
        validate_action(d, action)
    reps, rep_of, layer = action_orbits(action, d.n)
    if any(layer[r] != 0 for r in reps):
        raise InvalidAction("representative layers must be zero")
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
    return VoltageGraph(names, arcs, action.order, tuple(reps))


def derive(vg: VoltageGraph) -> Digraph:
    """Derived covering digraph on (rep, layer) pairs, indexed rep-major.

    Each quotient arc of voltage v lifts to the arcs
    (r, m) -> (r', m + v) for every layer m.
    """
    n = len(vg.reps)
    rows: list[list[int]] = [[] for _ in range(n * vg.order)]
    for (r, r2, v) in vg.arcs:
        for m in range(vg.order):
            rows[r * vg.order + m].append(r2 * vg.order + (m + v) % vg.order)
    return Digraph(rows)


def derive_canonical(d: Digraph, action: GroupAction | None = None) -> Digraph:
    """Lift the quotient back and relabel layers onto the original ids.

    Index (r, m) becomes the vertex reached from representative r by m
    applications of the generator; translation commutes with every slot
    map, so the out-list order survives and the result should equal d
    exactly.
    """
    if action is None:
        action = z7_action(d)
    vg = quotient(d, action)
    lifted = derive(vg)
    gen = action.generator
    ids = []
    for r in vg.rep_vertices:
        x = r
        for _ in range(vg.order):
            ids.append(x)
            x = gen[x]
    rows = [None] * d.n
    for i, row in enumerate(lifted.out):
        rows[ids[i]] = tuple(ids[j] for j in row)
    return Digraph(rows)


def projected_voltage_sums(d: Digraph, cycles, action: GroupAction | None = None):
    """Voltage sum mod the group order of each cycle's projected walk."""
    if action is None:
        action = z7_action(d)
    _, _, layer = action_orbits(action, d.n)
    sums = []
    for cyc in cycles:
        s = 0
        for k in range(len(cyc)):
            u, w = cyc[k], cyc[(k + 1) % len(cyc)]
            s += (layer[w] - layer[u]) % action.order
        sums.append(s % action.order)
    return tuple(sums)


def cycle_orbits(cycles, action: GroupAction):
    """Orbits of the 4-cycle set under the action, canonical rotation."""
    remaining = set(cycles)
    orbits = []
    for cyc in cycles:
        if cyc not in remaining:
            continue
        orb = {cyc}
        cur = cyc
        while True:
            cur = canonical_cycle(tuple(action.generator[v] for v in cur))
            if cur in orb:
                break
            orb.add(cur)
        remaining -= orb
        orbits.append(tuple(sorted(orb)))
    return tuple(orbits)


def to_json_dict(vg: VoltageGraph) -> dict:
    return {
        "reps": list(vg.reps),
        "arcs": [
            {"from": r, "to": r2, "voltage": v} for (r, r2, v) in vg.arcs
        ],
    }


def to_json(vg: VoltageGraph) -> str:
    return json.dumps(to_json_dict(vg), indent=2) + "\n"


def to_dot(vg: VoltageGraph) -> str:
    lines = ["digraph quotient {"]
    for i, name in enumerate(vg.reps):
        lines.append(f'  {i} [label="{name}"];')
    for (r, r2, v) in vg.arcs:
        lines.append(f"  {r} -> {r2} [label={v}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
