"""A committed mutant corpus and its runner (mutation testing: DeMillo,
Lipton & Sayward, "Hints on test data selection", 1978).

Each mutant replaces one piece of text in one source file, and names the
tier-1 tests that must fail on the result.  The runner copies the tree
into a temporary directory, checks that the named tests pass there
unmutated, then applies each mutant alone, runs only its killing tests
and restores the file.  A mutant whose tests still pass survives.  A
known survivor carries the reason it cannot or need not be killed, and
is reported as such; any other survivor, or a known one that is killed,
makes the run exit 1.

Run from anywhere, with the test extra installed:

    python tests/mutants.py

The tier-1 suite only checks that each old text occurs exactly once in
its file (tests/test_mutants.py), so that a refactor which moves the
code must move its mutant too, or delete it with the code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "id file old new killers survives", defaults=(None,))

AUTOS = "src/fanopencils/autos.py"
REFINE = ("tests/test_autos.py::test_refine_matches_full_rounds",)
SEARCH_ORDER = ("tests/test_autos.py::test_extension_search_order_is_pinned",)
PRUNED = ("tests/test_autos.py::test_certificate_search_stays_pruned",)
INCOMPLETE = ("tests/test_autos.py::test_certificate_incomplete_past_the_stabilizer_bound",)
TRIVIAL_BY_DEGREES = ("tests/test_autos.py::test_degrees_let_the_root_derivation_prove_a_trivial_group",)

MUTANTS = (
    Mutant(
        "arc-test-reads-the-source-out-list",
        "src/fanopencils/digraph.py",
        "image = d.out[perm[u]]",
        "image = d.out[u]",
        (
            "tests/test_autos.py::test_arc_test_agrees_with_the_per_vertex_test",
            "tests/test_autos.py::test_arc_test_agrees_on_d",
        ),
    ),
    Mutant(
        "refine-largest-part-tie-by-dict-order",
        AUTOS,
        "max(ordered, key=len)",
        "max(parts.values(), key=len)",
        REFINE,
    ),
    Mutant("refine-without-in-counts", AUTOS, "for x in d.inn[w]:", "for x in ():", REFINE),
    Mutant(
        "refine-without-the-still-queued-rule",
        AUTOS,
        "largest = None if t in queued else max(ordered, key=len)",
        "largest = max(ordered, key=len)",
        REFINE,
    ),
    Mutant(
        "refine-key-base-max-in-degree",
        AUTOS,
        "m = 1 + max(map(len, d.inn), default=0)",
        "m = max(map(len, d.inn), default=0)",
        REFINE,
    ),
    Mutant(
        "refine-key-base-n-plus-one",
        AUTOS,
        "m = 1 + max(map(len, d.inn), default=0)",
        "m = d.n + 1",
        REFINE,
        "equivalent: an in-count is at most the in-degree, which is at most n",
    ),
    Mutant(
        "search-counts-a-failed-transfer-as-a-leaf",
        AUTOS,
        "            if perm is None:\n                return None\n        else:\n",
        "            if perm is None:\n                leaves += 1\n                return None\n"
        "        else:\n",
        ("tests/test_autos.py::test_search_refuses_a_transfer_that_misses_the_branch",),
    ),
    Mutant(
        "search-keeps-a-leaf-without-the-automorphism-test",
        AUTOS,
        "== want and is_automorphism(d, perm):",
        "== want:",
        (
            "tests/test_autos.py::test_search_leaves_a_subtree_without_an_automorphism",
            "tests/test_autos.py::test_transfer_is_exact",
        ),
    ),
    Mutant(
        "trivial-group-derivation-individualizes-vertex-0",
        AUTOS,
        "derivation = _derivation(d, colors, None)",
        "derivation = _derivation(d, colors, 0)",
        ("tests/test_autos.py::test_symmetric_input_search_budget",),
    ),
    Mutant(
        "root-key-without-in-degrees",
        AUTOS,
        "map(len, d.inn), *closed_walks(",
        "*closed_walks(",
        TRIVIAL_BY_DEGREES,
    ),
    Mutant(
        "root-key-without-out-degrees",
        AUTOS,
        "zip(map(len, d.out), ",
        "zip(",
        TRIVIAL_BY_DEGREES,
    ),
    Mutant(
        "derivation-counts-reached-vertices",
        AUTOS,
        "hues = [colors[v] for v in rows[y] if v not in seen]",
        "hues = [colors[v] for v in rows[y]]",
        ("tests/test_autos.py::test_coxeter_search_transfers_its_last_level",),
    ),
    Mutant(
        "transfer-without-the-not-yet-an-image-test",
        AUTOS,
        "if colors[v] == first[x] and v not in used]",
        "if colors[v] == first[x]]",
        ("tests/test_autos.py::test_derivation_steps_by_elimination",),
    ),
    Mutant(
        "first-path-refines-its-proven-leaf",
        AUTOS,
        "if derivation is not None:\n            break\n",
        "if derivation is not None:\n            pass\n",
        ("tests/test_autos.py::test_d_search_transfers_three_leaves",),
    ),
    Mutant(
        "child-order-ascending",
        AUTOS,
        "key=order_by.__getitem__, reverse=True)",
        "key=order_by.__getitem__)",
        (
            "tests/test_autos.py::test_symmetric_searches_keep_their_shape",
            "tests/test_autos.py::test_search_leaves_a_branch_whose_cell_sizes_differ",
            "tests/test_autos.py::test_d_search_transfers_three_leaves",
            "tests/test_autos.py::test_d_search_shape_does_not_depend_on_labels",
        ),
    ),
    Mutant(
        "child-order-reads-the-leaf-at-the-last-level",
        AUTOS,
        "order_by = path[i + 1] if i < last else path[i]",
        "order_by = path[min(i + 1, len(path) - 1)]",
        (
            "tests/test_autos.py::test_transfer_is_exact",
            "tests/test_autos.py::test_transfer_is_exact_on_circulants",
        ),
    ),
    Mutant(
        "assign-without-the-taken-image-block",
        AUTOS,
        "for ys, nbrs in ((inn[w], out), (out[w], inn)):",
        "for ys, nbrs in ():",
        PRUNED,
    ),
    Mutant(
        "assign-without-forcing-a-narrowed-domain",
        AUTOS,
        "force((q, next(iter(new))))",
        "pass",
        PRUNED,
    ),
    Mutant(
        "assign-without-forcing-a-domain-left-one-image",
        AUTOS,
        "force((v, next(iter(new))))",
        "pass",
        PRUNED,
    ),
    Mutant(
        "assign-without-the-reverse-neighbourhood-test",
        AUTOS,
        "                    elif p not in xs:\n                        return False\n",
        "",
        PRUNED,
    ),
    Mutant(
        "stabilizer-pins-the-root-arc",
        AUTOS,
        "extensions(d, _pin_map(cycles, 0, 0, 0))",
        "extensions(d, {u: u, w: w})",
        PRUNED,
    ),
    Mutant(
        "uh-no-cycle-gate-counts-a-run",
        AUTOS,
        '(), 0, "no oriented 4-cycles")',
        '(), 1, "no oriented 4-cycles")',
        ("tests/test_acceptance.py::test_criterion_11_fault_injection",),
    ),
    Mutant(
        "incomplete-certificate-names-a-fixed-vertex",
        AUTOS,
        "if x != y)",
        "if x == y)",
        INCOMPLETE,
    ),
    Mutant(
        "incomplete-certificate-reads-the-wrong-map",
        AUTOS,
        "stab[-1][v]}",
        "stab[-2][v]}",
        INCOMPLETE,
    ),
    Mutant(
        "extensions-tie-by-highest-index",
        AUTOS,
        "best = min(free, key=",
        "best = min(reversed(free), key=",
        SEARCH_ORDER,
    ),
    Mutant(
        "extensions-images-in-reverse-order",
        AUTOS,
        "return best, sorted(dom[best])",
        "return best, sorted(dom[best], reverse=True)",
        SEARCH_ORDER,
    ),
    Mutant(
        "extensions-without-the-empty-frontier-fallback",
        AUTOS,
        "return best, [x for x in range(n) if src[x] < 0]",
        "return best, []",
        ("tests/test_autos.py::test_group_and_extensions_agree_with_every_permutation",),
    ),
    Mutant(
        "orbit-scan-from-each-orbit-s-last-point",
        "src/fanopencils/verify.py",
        "[o[0] for o in",
        "[o[-1] for o in",
        (
            "tests/test_cli.py::test_verify_report_deterministic_apart_from_timings",
            "tests/test_acceptance.py::test_criterion_11_fault_injection",
        ),
    ),
    Mutant(
        "closure-telescoping-sum",
        "src/fanopencils/voltage.py",
        "s += place[d.out[rep][d.out[u].index(w)]][1]",
        "s += place[w][1] - place[u][1]",
        ("tests/test_voltage.py::test_cycle_voltage_sums_close",),
    ),
)


def _pytest(tree: Path, tests) -> int:
    """The exit status of pytest on `tests` in `tree`, with the package
    imported from tree/src and no bytecode written, so that a mutated
    file is never read from a stale cache; a run that times out counts
    as failed.  Once the tests pass unmutated, any other status on a
    mutant (a failure, or an import error at collection) kills it."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", "addopts="]
    try:
        return subprocess.run(
            [*argv, *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL, timeout=600
        ).returncode
    except subprocess.TimeoutExpired:
        return 1


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        if _pytest(tree, sorted({t for m in MUTANTS for t in m.killers})) != 0:
            print("the killing tests do not all pass on the unmutated tree")
            return 2
        unexpected = 0
        for m in MUTANTS:
            path = tree / m.file
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            killed = _pytest(tree, m.killers) != 0
            path.write_text(text)
            if killed != (m.survives is None):
                unexpected += 1
            if killed:
                print(f"killed   {m.id}" + (" (marked as a survivor)" if m.survives else ""))
            else:
                print(f"survived {m.id}" + (f" (known: {m.survives})" if m.survives else ""))
    print(f"{len(MUTANTS)} mutants, {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
