import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanopencils.fano import (
    LINES,
    POINTS,
    DegeneratePair,
    NotALine,
    line,
    line_index,
    lines_avoiding,
    third_point,
)
import helpers
from helpers import apply_to_line, collineations


def test_seven_lines_of_three_points():
    assert len(LINES) == 7
    assert all(len(l) == 3 for l in LINES)
    assert all(l == tuple(sorted(l)) for l in LINES)


def test_difference_set_construction():
    for j in POINTS:
        assert line(j) == tuple(sorted(((j + 1) % 7, (j + 2) % 7, (j + 4) % 7)))


def test_every_pair_on_exactly_one_line():
    # incidence oracle independent of third_point: count by membership
    for p, q in itertools.combinations(POINTS, 2):
        containing = [l for l in LINES if p in l and q in l]
        assert len(containing) == 1


def test_line_index_round_trip():
    for j in POINTS:
        assert line_index(line(j)) == j
    with pytest.raises(NotALine):
        line_index((0, 1, 2))
    # not read as (1, 2, 4), line 0
    for bad, name in ((True, 2, 4), "True"), ((1.0, 2, 4), "1.0"), ((1, 2, 9), "9"):
        with pytest.raises(NotALine, match=f"^{name} is not a point$"):
            line_index(bad)


@given(st.integers(0, 6), st.integers(0, 6))
def test_third_point_symmetry_and_membership(p, q):
    if p == q:
        with pytest.raises(DegeneratePair):
            third_point(p, q)
        return
    r = third_point(p, q)
    assert r == third_point(q, p)
    assert tuple(sorted((p, q, r))) in LINES
    assert r not in (p, q)


def test_third_point_rejects_non_points():
    # True and 2 would otherwise give 4, and (0, 9) a bare KeyError
    for p, q, name in (True, 2, "True"), (0, 9, "9"), (-1, 3, "-1"), (1, 2.0, "2.0"):
        with pytest.raises(ValueError, match=f"^{name} is not a point$"):
            third_point(p, q)


def test_pencil_sizes():
    for p in POINTS:
        through = tuple(l for l in LINES if p in l)
        avoiding = lines_avoiding(p)
        assert len(through) == 3 and all(p in l for l in through)
        assert len(avoiding) == 4 and all(p not in l for l in avoiding)
        assert sorted(through + avoiding) == sorted(LINES)


def test_collineation_group_order():
    assert len(collineations()) == 168


def test_collineations_equal_exhaustive_filter():
    # oracle: every one of the 5040 point permutations, kept when each
    # line maps to a line
    lines = set(LINES)
    exhaustive = tuple(
        perm
        for perm in itertools.permutations(POINTS)
        if all(tuple(sorted(perm[x] for x in l)) in lines for l in LINES)
    )
    assert collineations() == exhaustive


def test_collineations_line_check_budget(monkeypatch):
    # one 7-line check per candidate frame image, not per permutation:
    # an exhaustive filter makes 7056 calls
    calls = []

    def counted(perm, pts):
        calls.append(pts)
        return apply_to_line(perm, pts)

    monkeypatch.setattr(helpers, "apply_to_line", counted)
    collineations.cache_clear()
    try:
        assert len(collineations()) == 168
    finally:
        collineations.cache_clear()
    assert len(calls) <= 168 * 7, len(calls)


def test_collineations_preserve_lines_and_form_a_group():
    group = set(collineations())
    assert tuple(range(7)) in group
    for s in list(group)[:20]:
        for l in LINES:
            assert apply_to_line(s, l) in LINES
    # closure on a deterministic slice
    sample = sorted(group)[:12]
    for s in sample:
        for t in sample:
            assert tuple(s[t[i]] for i in range(7)) in group


def test_collineations_point_transitive():
    images = {s[0] for s in collineations()}
    assert images == set(POINTS)
