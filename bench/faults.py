"""Seeded degree-preserving two-arc swaps of D, the fault_injection inputs.

A swap takes two arcs u1 -> t1 and u2 -> t2 of D and rewires them to
u1 -> t2 and u2 -> t1 in the same out-list slots.  Every in- and
out-degree stays 3; a swap is only kept when it creates no loop and no
parallel arc, so the result is a simple oriented graph that differs
from D in exactly two arcs.
"""

from __future__ import annotations

import random

from fanopencils.digraph import Digraph, build_d

Swap = tuple[int, int, int, int]


def valid_swap(d: Digraph, u1: int, t1: int, u2: int, t2: int) -> bool:
    """True when rewiring the arcs u1->t1, u2->t2 gives a simple digraph
    that differs from d."""
    return (
        t1 in d.out[u1]
        and t2 in d.out[u2]
        and u1 != u2
        and t1 != t2
        and u1 != t2
        and u2 != t1
        and t2 not in d.out[u1]
        and t1 not in d.out[u2]
    )


def apply_swap(d: Digraph, swap: Swap) -> Digraph:
    u1, t1, u2, t2 = swap
    if not valid_swap(d, u1, t1, u2, t2):
        raise ValueError(f"not a valid two-arc swap: {swap}")
    rows = [list(row) for row in d.out]
    rows[u1][rows[u1].index(t1)] = t2
    rows[u2][rows[u2].index(t2)] = t1
    return Digraph(rows)


def swap_batch(seed: int, count: int, d: Digraph | None = None) -> list[Swap]:
    """`count` valid swaps of d (default D), drawn from `seed` alone."""
    if d is None:
        d = build_d()
    arcs = list(d.arcs())
    rng = random.Random(seed)
    batch: list[Swap] = []
    while len(batch) < count:
        (u1, t1), (u2, t2) = rng.sample(arcs, 2)
        if valid_swap(d, u1, t1, u2, t2):
            batch.append((u1, t1, u2, t2))
    return batch
