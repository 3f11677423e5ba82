"""The Fano plane on the residues mod 7 and its collineation group.

The j-th line consists of j+1, j+2, j+4 (mod 7), so translation by any
residue is a collineation.  Lines are kept as sorted 3-tuples throughout,
which makes set-valued answers compare reliably.
"""

from __future__ import annotations

import itertools
from functools import cache

POINTS = tuple(range(7))


class NotALine(ValueError):
    """A 3-set of points that is not one of the seven lines."""


class DegeneratePair(ValueError):
    """Two coincident points cannot span a line."""


def line(j: int) -> tuple[int, int, int]:
    """The line with index j, as a sorted 3-tuple."""
    return tuple(sorted(((j + 1) % 7, (j + 2) % 7, (j + 4) % 7)))


LINES = tuple(line(j) for j in POINTS)
_LINE_INDEX = {pts: j for j, pts in enumerate(LINES)}

# (p, q) -> the remaining point of the line through p and q.
_THIRD = {}
for _l in LINES:
    for _p, _q in itertools.permutations(_l, 2):
        _THIRD[(_p, _q)] = sum(_l) - _p - _q


def line_index(points) -> int:
    """Index j of the given line; raises NotALine otherwise."""
    try:
        return _LINE_INDEX[tuple(sorted(points))]
    except KeyError:
        raise NotALine(f"{tuple(sorted(points))} is not a line") from None


def third_point(p: int, q: int) -> int:
    """The third point on the unique line through two distinct points."""
    if p == q:
        raise DegeneratePair(f"points coincide: {p}")
    return _THIRD[(p, q)]


def lines_avoiding(p: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(l for l in LINES if p not in l)


def apply_to_line(perm, pts) -> tuple[int, int, int]:
    """Image of a line under a point permutation, re-sorted."""
    return tuple(sorted(perm[x] for x in pts))


# (x, p, q): point x is the third point of the line through p and q,
# where p and q are the frame 0, 1, 2 or points placed before x
_SPAN = ((3, 0, 1), (6, 0, 2), (4, 1, 2), (5, 0, 4))


@cache
def collineations() -> tuple[tuple[int, ...], ...]:
    """All point permutations preserving the line set, sorted.

    There are 168 of them.  Each is returned in one-line notation: the
    tuple g with g[p] the image of p.  The frame 0, 1, 2 is not
    collinear, and every other point is the third point of a line
    through two points placed before it, so a collineation is fixed by
    the images of the frame: any a, any b != a, and any c off the line
    through a and b.  Each of those 7 * 6 * 4 candidates is completed
    through third_point and kept once all seven lines map to lines.
    """
    keep = []
    for a, b in itertools.permutations(POINTS, 2):
        for c in POINTS:
            if c in (a, b, third_point(a, b)):
                continue
            perm = [a, b, c, 0, 0, 0, 0]
            for x, p, q in _SPAN:
                perm[x] = third_point(perm[p], perm[q])
            if all(apply_to_line(perm, l) in _LINE_INDEX for l in LINES):
                keep.append(tuple(perm))
    return tuple(sorted(keep))
