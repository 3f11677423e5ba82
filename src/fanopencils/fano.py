"""The Fano plane on the residues mod 7: its lines and third points.

The j-th line consists of j+1, j+2, j+4 (mod 7), so translation by any
residue is a collineation.  Lines are kept as sorted 3-tuples throughout,
which makes set-valued answers compare reliably.
"""

from __future__ import annotations

import itertools

POINTS = tuple(range(7))

# x -> x + 1, a collineation of order 7
TRANSLATION = (1, 2, 3, 4, 5, 6, 0)


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


def _check_points(points, error):
    # by type, so that a bool or a float is never read as the point it equals
    for x in points:
        if type(x) is not int or x not in POINTS:
            raise error(f"{x!r} is not a point")


def line_index(points) -> int:
    """Index j of the given line; raises NotALine otherwise."""
    _check_points(points, NotALine)
    try:
        return _LINE_INDEX[tuple(sorted(points))]
    except KeyError:
        raise NotALine(f"{tuple(sorted(points))} is not a line") from None


def third_point(p: int, q: int) -> int:
    """The third point on the unique line through two distinct points;
    _THIRD holds every such pair, so two points it lacks coincide."""
    r = _THIRD.get((p, q)) if type(p) is int is type(q) else None
    if r is None:
        _check_points((p, q), ValueError)
        raise DegeneratePair(f"points coincide: {p}")
    return r


def lines_avoiding(p: int) -> tuple[tuple[int, int, int], ...]:
    """The lines that miss p, in index order."""
    return tuple(l for l in LINES if p not in l)
