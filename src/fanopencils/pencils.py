"""Vertices of the ordered-pencil digraph and their notation.

A vertex pairs a base point with an ordered line avoiding it; the pencil
of lines through the base is recovered by joining the base to each entry.
Vertices render as a compact symbol "yup_x", and each base-0 vertex
labels its translation class by a column and a row.
"""

from __future__ import annotations

import itertools
from functools import cache

from .fano import POINTS, NotALine, line_index, lines_avoiding, third_point


class Pencil:
    """A base point plus a line avoiding it, validated at construction.
    `thirds[k]` completes the line through the base and `line[k]`.

    The vertex of both graphs: D keeps `line` in slot order, matching the
    arc-label order (1, 2, 0), and the Coxeter graph keeps it sorted.
    """

    __slots__ = ("base", "line", "thirds")

    def __init__(self, base: int, line: tuple[int, int, int]):
        if type(base) is not int or base not in POINTS:
            raise ValueError(f"base out of range: {base!r}")
        if type(line) is not tuple:
            raise TypeError(f"line must be a 3-tuple, not {line!r}")
        line_index(line)  # raises NotALine for junk, naming a non-point
        if base in line:
            raise NotALine(f"base {base} lies on its own line {line}")
        self.base = base
        self.line = line
        p, q, r = line
        self.thirds = (third_point(base, p), third_point(base, q), third_point(base, r))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.base == other.base and self.line == other.line

    def __hash__(self):
        return hash((self.base, self.line))

    def __repr__(self):
        return f"{type(self).__name__}(base={self.base!r}, line={self.line!r})"


@cache
def enumerate_vertices() -> tuple[Pencil, ...]:
    """All 168 vertices: bases ascending, lines in lexicographic order."""
    out = []
    for base in range(7):
        arrangements = sorted(
            t for l in lines_avoiding(base) for t in itertools.permutations(l)
        )
        out.extend(Pencil(base, t) for t in arrangements)
    return tuple(out)


@cache
def vertex_table() -> dict[str, int]:
    """Compact symbol -> vertex index, over all 168 vertices in index
    order."""
    return {compact(v): i for i, v in enumerate(enumerate_vertices())}


@cache
def pencil_index() -> dict[tuple[int, tuple[int, int, int]], int]:
    """(base, ordered line) -> vertex index, over all 168 vertices."""
    return {(v.base, v.line): i for i, v in enumerate(enumerate_vertices())}


def compact(v: Pencil) -> str:
    return "%d%d%d_%d" % (*v.line, v.base)


def symbol_grid() -> dict[tuple[int, str], str]:
    """Mapping (column, row) -> compact letters, over the 24 base-0
    vertices, the representatives of the translation classes: the
    column is the line index, and the row letter a-f the lexicographic
    rank of the ordering among the six of its line."""
    grid = {}
    for v in enumerate_vertices()[:24]:
        rank = sorted(itertools.permutations(sorted(v.line))).index(v.line)
        grid[line_index(v.line), "abcdef"[rank]] = "".join(str(q) for q in v.line)
    return grid
