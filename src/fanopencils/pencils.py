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
from dataclasses import dataclass
from functools import cache, cached_property

from .fano import NotALine, line_index, lines_avoiding, third_point

ROW_LETTERS = "abcdef"

_COMPACT_RE = re.compile(r"^([0-6])([0-6])([0-6])_([0-6])$")
_LONG_RE = re.compile(
    r"^\(\s*([0-6])\s*,\s*([0-6])([0-6])\s*,\s*([0-6])([0-6])\s*,\s*([0-6])([0-6])\s*\)$"
)


class InconsistentPencil(ValueError):
    """A written pencil whose companion points contradict its lines."""


@dataclass(frozen=True)
class DVertex:
    """An ordered pencil: a base point plus an ordered line avoiding it.

    The slot order of `line` matches the arc-label order (1, 2, 0).
    `thirds[k]` completes the line through the base and `line[k]`.
    """

    base: int
    line: tuple[int, int, int]

    def __post_init__(self):
        if self.base not in range(7):
            raise ValueError(f"base out of range: {self.base}")
        line_index(self.line)  # raises NotALine for junk
        if self.base in self.line:
            raise NotALine(f"base {self.base} lies on its own line {self.line}")

    @cached_property
    def thirds(self) -> tuple[int, int, int]:
        return tuple(third_point(self.base, q) for q in self.line)


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
def vertex_table() -> dict[tuple[int, int, int, int], int]:
    """(base, *line) -> vertex index, over all 168 vertices."""
    return {(v.base, *v.line): i for i, v in enumerate(enumerate_vertices())}


def vertex_index(v: DVertex) -> int:
    return vertex_table()[(v.base, *v.line)]


def vertex_at(i: int) -> DVertex:
    return enumerate_vertices()[i]


def _normalize_pair(pair) -> tuple[int, int]:
    if isinstance(pair, str):
        if len(pair) != 2 or not pair.isdigit():
            raise ValueError(f"bad pencil entry: {pair!r}")
        return int(pair[0]), int(pair[1])
    b, c = pair
    return int(b), int(c)


def decode_long(base: int, *pairs) -> DVertex:
    """Build a vertex from its long form: base plus three (entry, companion) pairs.

    Raises NotALine when the entries do not form a line avoiding the base,
    and InconsistentPencil when a companion disagrees with the pencil.
    """
    if len(pairs) != 3:
        raise ValueError("expected exactly three entry pairs")
    entries = tuple(_normalize_pair(p) for p in pairs)
    v = DVertex(base, tuple(b for b, _ in entries))
    for (b, c), expected in zip(entries, v.thirds):
        if c != expected:
            raise InconsistentPencil(
                f"({base},{b},{c}) is not a line: companion of {b} is {expected}"
            )
    return v


def format_long(v: DVertex) -> str:
    body = ",".join(f"{b}{c}" for b, c in zip(v.line, v.thirds))
    return f"({v.base},{body})"


def parse_long(s: str) -> DVertex:
    m = _LONG_RE.match(s.strip())
    if not m:
        raise ValueError(f"bad long-form vertex: {s!r}")
    g = [int(x) for x in m.groups()]
    return decode_long(g[0], (g[1], g[2]), (g[3], g[4]), (g[5], g[6]))


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


@dataclass(frozen=True)
class RowColSymbol:
    """Orbit label of a translation class: column = line index of the
    base-0 representative, row = lexicographic rank of its ordering."""

    col: int
    row: str

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
