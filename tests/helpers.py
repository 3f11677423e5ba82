"""Graph builders the tests share: fault injection, a named slot
permutation, and the adjacency matrix the numpy oracles start from."""

import numpy as np

from fanopencils.digraph import Digraph
from fanopencils.pencils import DVertex


def with_retargeted_arc(d: Digraph, u: int, slot: int, target: int) -> Digraph:
    """Copy of d with one out-entry replaced; the fault-injection helper."""
    rows = [list(row) for row in d.out]
    rows[u][slot] = target
    return Digraph(rows)


def swap_slots(v: DVertex) -> DVertex:
    """Transpose the last two entries; with autos.rotate_slots this
    realizes the full symmetric group on slots inside the automorphism
    group."""
    return DVertex(v.base, (v.line[0], v.line[2], v.line[1]))


def adjacency_matrix(d: Digraph) -> np.ndarray:
    """The 0/1 int64 adjacency matrix; a parallel arc sets its entry once."""
    a = np.zeros((d.n, d.n), dtype=np.int64)
    for u, w in d.arcs():
        a[u, w] = 1
    return a
