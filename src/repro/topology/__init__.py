"""DDC topology: bricks, single-resource boxes, racks, cluster.

Build a cluster from a :class:`~repro.config.ClusterSpec` with
:func:`build_cluster`; all capacity accounting is integer *units* (Table 1
quantization) with conservation enforced at every level.
"""

from .box import Box, BoxAllocation
from .brick import Brick
from .builder import build_cluster, prime_availability
from .capacity_index import (
    PLACEMENT_INDEX_ENV,
    PLACEMENT_MODES,
    CapacityIndex,
    MaxSegmentTree,
    index_enabled,
    placement_index_mode,
    placement_mode,
)
from .cluster import Cluster
from .rack import Rack

__all__ = [
    "Box",
    "BoxAllocation",
    "Brick",
    "CapacityIndex",
    "Cluster",
    "MaxSegmentTree",
    "PLACEMENT_INDEX_ENV",
    "PLACEMENT_MODES",
    "index_enabled",
    "placement_index_mode",
    "placement_mode",
    "Rack",
    "build_cluster",
    "prime_availability",
]
