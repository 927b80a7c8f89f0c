"""Array-native simulation state (struct-of-arrays backend).

The hot quantities of a run — per-brick occupancy, per-box availability,
per-rack maxima, per-link reserved bandwidth, per-tier totals — live in flat
columns (plain lists of Python ints and floats) indexed by stable integer
ids; ``Box``/``Brick``/``Link``/``LinkBundle`` become thin views over them.  ``REPRO_STATE_BACKEND=objects``
falls back to the original attribute-backed objects (the A/B lever the
equivalence tests and ``benchmarks/bench_array_core.py`` use).
"""

from .arrays import (
    STATE_BACKEND_ENV,
    STATE_BACKENDS,
    ClusterStateArrays,
    FabricStateArrays,
    arrays_enabled,
    state_backend,
    state_backend_mode,
)

__all__ = [
    "STATE_BACKEND_ENV",
    "STATE_BACKENDS",
    "ClusterStateArrays",
    "FabricStateArrays",
    "arrays_enabled",
    "state_backend",
    "state_backend_mode",
]
