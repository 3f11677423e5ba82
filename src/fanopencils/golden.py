"""Frozen reference data for the base-0 block of the digraph.

The adjacency rows (one per base-0 vertex, entries in label order 1, 2, 0)
are what digraph.golden_sublist_diff compares the built digraph with, for
the digraph.golden_rows check and the `table` command.  The full
168-vertex adjacency list follows from these rows by translation.  The
digraph.symbol_grid check compares the symbol grid with
pencils.symbol_grid, and the cycles.known_example check looks the example
cycle up in the census.
"""

from __future__ import annotations

# One row per base-0 vertex, in index order: lines ascending lexicographically.
ADJACENCY_ROWS = {
    "124_0": ("165_3", "325_6", "364_5"),
    "142_0": ("156_3", "346_5", "352_6"),
    "156_0": ("142_3", "352_4", "346_2"),
    "165_0": ("124_3", "364_2", "325_4"),
    "214_0": ("235_6", "615_3", "634_5"),
    "235_0": ("214_6", "634_1", "615_4"),
    "241_0": ("253_6", "643_5", "651_3"),
    "253_0": ("241_6", "651_4", "643_1"),
    "325_0": ("364_1", "124_6", "165_4"),
    "346_0": ("352_1", "142_5", "156_2"),
    "352_0": ("346_1", "156_4", "142_6"),
    "364_0": ("325_1", "165_2", "124_5"),
    "412_0": ("436_5", "516_3", "532_6"),
    "421_0": ("463_5", "523_6", "561_3"),
    "436_0": ("412_5", "532_1", "516_2"),
    "463_0": ("421_5", "561_2", "523_1"),
    "516_0": ("532_4", "412_3", "436_2"),
    "523_0": ("561_4", "421_6", "463_1"),
    "532_0": ("516_4", "436_1", "412_6"),
    "561_0": ("523_4", "463_2", "421_3"),
    "615_0": ("634_2", "214_3", "235_4"),
    "634_0": ("615_2", "235_1", "214_5"),
    "643_0": ("651_2", "241_5", "253_1"),
    "651_0": ("643_2", "253_4", "241_3"),
}

# (column, row) -> letters of the base-0 vertex carrying that symbol.
SYMBOL_GRID = {
    (0, "a"): "124", (0, "b"): "142", (0, "c"): "214",
    (0, "d"): "241", (0, "e"): "412", (0, "f"): "421",
    (1, "a"): "235", (1, "b"): "253", (1, "c"): "325",
    (1, "d"): "352", (1, "e"): "523", (1, "f"): "532",
    (2, "a"): "346", (2, "b"): "364", (2, "c"): "436",
    (2, "d"): "463", (2, "e"): "634", (2, "f"): "643",
    (4, "a"): "156", (4, "b"): "165", (4, "c"): "516",
    (4, "d"): "561", (4, "e"): "615", (4, "f"): "651",
}

# A known oriented 4-cycle, in compact notation.
EXAMPLE_CYCLE = ("253_0", "241_6", "235_0", "214_6")
