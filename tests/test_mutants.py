"""The committed mutant corpus stays applicable: tests/mutants.py runs
the mutants themselves, outside tier-1."""

import ast

from mutants import MUTANTS, ROOT


def test_each_mutant_applies_once_and_names_existing_tests():
    # a refactor that moves a mutant's code must move the mutant too, or
    # delete it with the code; a killing test renamed away must be renamed
    # here too
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.id
        assert m.killers, m.id
        for test in m.killers:
            file, name = test.split("::")
            tree = ast.parse((ROOT / file).read_text())
            defined = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            assert name in defined, (m.id, test)
