"""Graph builders the tests share: fault injection, two disjoint copies
of a graph, a named slot permutation, the adjacency matrix the numpy oracles start from, the
full-round colour refinement that autos._refine must agree with, and the
inverse and the closure of permutations, the group oracles."""

from collections import Counter

import numpy as np

from fanopencils.autos import compose
from fanopencils.digraph import Digraph
from fanopencils.pencils import DVertex


def with_retargeted_arc(d: Digraph, u: int, slot: int, target: int) -> Digraph:
    """Copy of d with one out-entry replaced; the fault-injection helper."""
    rows = [list(row) for row in d.out]
    rows[u][slot] = target
    return Digraph(rows)


def two_copies(d: Digraph) -> Digraph:
    """Two disjoint copies of d, the second on vertices d.n..2 d.n - 1."""
    return Digraph(d.out + tuple(tuple(w + d.n for w in row) for row in d.out))


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


def full_round_refine(colors: list[int], d: Digraph) -> list[int]:
    """Stable colouring refined by neighbour colours, re-signing every
    vertex in every round.

    A vertex's signature is (colour, sorted out-neighbour colours, sorted
    in-neighbour colours), or (colour,) alone in its cell; each round's
    labels are the ranks of the signatures in sorted order, until a
    round splits no cell.
    """
    while True:
        get = colors.__getitem__
        sizes = Counter(colors)
        signatures = [
            (c,)
            if sizes[c] == 1
            else (c, tuple(sorted(map(get, out))), tuple(sorted(map(get, inn))))
            for c, out, inn in zip(colors, d.out, d.inn)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new = [rank[s] for s in signatures]
        if len(rank) == len(sizes):
            return new
        colors = new


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def closure(gens, n: int) -> set:
    """Every element of the group generated by gens, by breadth-first
    products: an order and membership oracle that shares no code with
    the search."""
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                x = compose(g, h)
                if x not in elems:
                    elems.add(x)
                    nxt.append(x)
        frontier = nxt
    return elems
