"""Quickr's three samplers plus the pass-through decision.

All samplers run in one pass, with bounded memory, and are partitionable —
the minimal requirements that let ASALQA place them at arbitrary locations
in a parallel plan (paper Section 4.1).
"""

from repro.samplers.base import PassThroughSpec, SamplerSpec, attach_weights
from repro.samplers.distinct import DistinctSpec
from repro.samplers.hashing import hash_columns, mix64, universe_fraction
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec

__all__ = [
    "PassThroughSpec",
    "SamplerSpec",
    "attach_weights",
    "DistinctSpec",
    "hash_columns",
    "mix64",
    "universe_fraction",
    "UniformSpec",
    "UniverseSpec",
]
