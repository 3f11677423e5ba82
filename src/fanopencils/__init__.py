"""Ordered pencils of Fano-plane lines: a 168-vertex oriented graph,
its 28-vertex unordered quotient, and the machinery to verify their
structure (degrees, circuits, 4-cycle decomposition, automorphisms,
cycle homogeneity, Z7 voltage presentation)."""

from .autos import automorphism_group, verify_c4uh
from .coxeter import build_coxeter
from .digraph import build_d
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "automorphism_group",
    "build_coxeter",
    "build_d",
    "run_verification",
    "verify_c4uh",
]
