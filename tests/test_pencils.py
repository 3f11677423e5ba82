import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanopencils.fano import NotALine, third_point
from fanopencils.golden import SYMBOL_GRID
from fanopencils.pencils import (
    DVertex,
    compact,
    enumerate_vertices,
    format_long,
    parse_compact,
    rowcol,
    symbol_grid,
    translate,
    vertex_index,
)

VERTS = enumerate_vertices()
vertices = st.sampled_from(VERTS)


def test_vertex_count_and_canonical_order():
    assert len(VERTS) == 168
    assert [v.base for v in VERTS] == sorted(v.base for v in VERTS)
    for base, chunk in itertools.groupby(VERTS, key=lambda v: v.base):
        lines = [v.line for v in chunk]
        assert lines == sorted(lines)
    assert len(set(VERTS)) == 168


def test_index_round_trip():
    for i, v in enumerate(VERTS):
        assert vertex_index(v) == i


def test_vertex_validation():
    with pytest.raises(NotALine):
        DVertex(1, (1, 2, 4))  # base on its own line
    with pytest.raises(NotALine):
        DVertex(0, (1, 2, 3))  # not a line
    with pytest.raises(ValueError):
        DVertex(9, (1, 2, 4))
    with pytest.raises(TypeError):
        DVertex(0, [1, 2, 4])  # a list, not a 3-tuple
    with pytest.raises(NotALine):
        DVertex(0, (1, 2, 4, 1))


def test_vertex_equality_hash_and_repr():
    v = DVertex(0, (1, 2, 4))
    assert v == DVertex(0, (1, 2, 4)) and hash(v) == hash(DVertex(0, (1, 2, 4)))
    assert v != DVertex(0, (2, 1, 4))
    assert v != (0, (1, 2, 4))
    assert repr(v) == "DVertex(base=0, line=(1, 2, 4))"
    assert v.thirds == (3, 6, 5)


def test_thirds_complete_the_pencil():
    for v in VERTS[:30]:
        for b, c in zip(v.line, v.thirds):
            assert c == third_point(v.base, b)
            assert c not in (v.base, b)


@given(vertices)
def test_compact_round_trip(v):
    s = compact(v)
    assert parse_compact(s) == v
    letters, x = s.split("_")
    assert tuple(int(ch) for ch in letters) == v.line
    assert int(x) == v.base


def test_long_form_fixed_example():
    v = parse_compact("124_0")
    assert format_long(v) == "(0,13,26,45)"


def test_parse_errors():
    for bad in ("999_0", "12_0", "(0,13,26)", "124-0"):
        with pytest.raises(ValueError):
            parse_compact(bad)


@given(vertices, st.integers(0, 6), st.integers(0, 6))
def test_translate_is_an_action(v, a, b):
    assert translate(v, 0) == v
    assert translate(translate(v, a), b) == translate(v, (a + b) % 7)


def test_translation_orbits_have_size_seven():
    seen = set()
    orbits = 0
    for v in VERTS:
        if v in seen:
            continue
        orbit = {translate(v, t) for t in range(7)}
        assert len(orbit) == 7
        assert sum(1 for w in orbit if w.base == 0) == 1
        seen |= orbit
        orbits += 1
    assert orbits == 24


def test_symbol_grid_matches_expected_labels():
    grid = symbol_grid()
    assert grid == SYMBOL_GRID
    assert {col for col, _ in grid} == {0, 1, 2, 4}
    assert {row for _, row in grid} == set("abcdef")


@given(vertices, st.integers(0, 6))
def test_rowcol_constant_on_translation_classes(v, t):
    assert rowcol(v) == rowcol(translate(v, t))


def test_rowcol_str():
    assert str(rowcol(parse_compact("124_0"))) == "0_a"
