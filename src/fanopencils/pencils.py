"""Vertices of the ordered-pencil digraph and their three notations.

A vertex pairs a base point with an ordered line avoiding it; the pencil
of lines through the base is recovered by joining the base to each entry.
Vertices render as a long pencil tuple "(x,b1c1,b2c2,b0c0)", as a compact
symbol "yup_x", or as a row/column symbol "j_i" shared by a whole
translation class.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from functools import cache

from .fano import POINTS, NotALine, line_index, lines_avoiding, third_point

ROW_LETTERS = "abcdef"

_COMPACT_RE = re.compile(r"^([0-6])([0-6])([0-6])_([0-6])$")


class Pencil:
    """A base point plus a line avoiding it, validated at construction.

    Equal only to a pencil of the same type with the same base and line.
    """

    __slots__ = ("base", "line")

    def __init__(self, base: int, line: tuple[int, int, int]):
        if base not in POINTS:
            raise ValueError(f"base out of range: {base}")
        if type(line) is not tuple:
            raise TypeError(f"line must be a 3-tuple, not {line!r}")
        line_index(line)  # raises NotALine for junk
        if base in line:
            raise NotALine(f"base {base} lies on its own line {line}")
        self.base = base
        self.line = line

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.base == other.base and self.line == other.line

    def __hash__(self):
        return hash((self.base, self.line))

    def __repr__(self):
        return f"{type(self).__name__}(base={self.base!r}, line={self.line!r})"


class DVertex(Pencil):
    """An ordered pencil: a base point plus an ordered line avoiding it.

    The slot order of `line` matches the arc-label order (1, 2, 0).
    `thirds[k]` completes the line through the base and `line[k]`.
    """

    __slots__ = ("thirds",)

    def __init__(self, base: int, line: tuple[int, int, int]):
        super().__init__(base, line)
        p, q, r = line
        self.thirds = (third_point(base, p), third_point(base, q), third_point(base, r))


@cache
def enumerate_vertices() -> tuple[DVertex, ...]:
    """All 168 vertices: bases ascending, lines in lexicographic order."""
    out = []
    for base in range(7):
        arrangements = sorted(
            t for l in lines_avoiding(base) for t in itertools.permutations(l)
        )
        out.extend(DVertex(base, t) for t in arrangements)
    return tuple(out)


@cache
def vertex_table() -> dict[str, int]:
    """Compact symbol -> vertex index, over all 168 vertices in index
    order."""
    return {compact(v): i for i, v in enumerate(enumerate_vertices())}


def vertex_index(v: DVertex) -> int:
    return vertex_table()[compact(v)]


def format_long(v: DVertex) -> str:
    body = ",".join(f"{b}{c}" for b, c in zip(v.line, v.thirds))
    return f"({v.base},{body})"


def compact(v: DVertex) -> str:
    return "".join(str(q) for q in v.line) + f"_{v.base}"


def parse_compact(s: str) -> DVertex:
    m = _COMPACT_RE.match(s.strip())
    if not m:
        raise ValueError(f"bad compact symbol: {s!r}")
    y, u, p, x = (int(g) for g in m.groups())
    return DVertex(x, (y, u, p))


def translate(v: DVertex, t: int) -> DVertex:
    """Shift every point of the vertex by t mod 7."""
    return DVertex((v.base + t) % 7, tuple((q + t) % 7 for q in v.line))


class RowColSymbol(namedtuple("RowColSymbol", "col row")):
    """Orbit label of a translation class: column = line index of the
    base-0 representative, row = lexicographic rank of its ordering."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.col}_{self.row}"


def rowcol(v: DVertex) -> RowColSymbol:
    rep = translate(v, (-v.base) % 7)
    rank = sorted(itertools.permutations(sorted(rep.line))).index(rep.line)
    return RowColSymbol(line_index(rep.line), ROW_LETTERS[rank])


def symbol_grid() -> dict[tuple[int, str], str]:
    """Mapping (column, row) -> compact letters, over the 24 base-0 vertices."""
    grid = {}
    for v in enumerate_vertices()[:24]:
        sym = rowcol(v)
        grid[(sym.col, sym.row)] = "".join(str(q) for q in v.line)
    return grid
