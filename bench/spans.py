"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each listed public function with a timing
wrapper in every `fanopencils` module namespace that binds it (so a
name imported by another module is wrapped there too), and `restore`
puts every original back.  Spans nest: a span's self time is its
duration minus the durations of the wrapped spans opened inside it.
"""

from __future__ import annotations

import sys
import time

# The functions traced, by the module that defines them.
LAYERS: dict[str, tuple[str, ...]] = {
    "autos": (
        "automorphism_group",
        "extend_isomorphism",
        "is_automorphism",
        "verify_c4uh",
        "arc_orbits",
        "vertex_orbits",
        "lift_vertex_map",
        "induced_automorphism",
    ),
    "digraph": (
        "build_d",
        "enumerate_4cycles",
        "cycle_arc_cover",
        "step_orbit_cycles",
        "check_no_short_circuits",
        "short_circuit_matrix_check",
        "strongly_connected",
        "golden_sublist_diff",
    ),
    "voltage": (
        "z7_action",
        "quotient",
        "derive_canonical",
        "projected_voltage_sums",
        "cycle_orbits",
    ),
    "coxeter": (
        "build_coxeter",
        "girth_with_witness",
        "distance_regular_array",
        "cox_adjacent",
    ),
    "verify": ("run_verification",),
    "cli": ("main",),
}

# Spans split by the vertex count of their first argument (a Digraph).
SPLIT_BY_N = {"autos.automorphism_group": (168, 28)}


def span_names() -> list[str]:
    """Every span name the tracer can record, in layer order."""
    names = []
    for mod, funcs in LAYERS.items():
        for fn in funcs:
            base = f"{mod}.{fn}"
            if base in SPLIT_BY_N:
                names.extend(f"{base}.n{n}" for n in SPLIT_BY_N[base])
            else:
                names.append(base)
    return names


class Tracer:
    """Aggregated spans: for each name, calls, self seconds, and how many
    calls returned something other than None."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.returned: dict[str, int] = {}
        self.last: dict[str, object] = {}
        self._child_s: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, base: str, fn):
        split = base in SPLIT_BY_N
        tracer = self

        def traced(*args, **kwargs):
            name = f"{base}.n{args[0].n}" if split else base
            tracer._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                inner = tracer._child_s.pop()
                if tracer._child_s:
                    tracer._child_s[-1] += span
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + span - inner
            if result is not None:
                tracer.returned[name] = tracer.returned.get(name, 0) + 1
            tracer.last[name] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        namespaces = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "fanopencils" or name.startswith("fanopencils.")
        ]
        for mod, funcs in LAYERS.items():
            home = sys.modules[f"fanopencils.{mod}"]
            for fn_name in funcs:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._saved.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)
