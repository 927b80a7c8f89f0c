"""Racks — groups of single-resource boxes with per-type max-avail queries.

RISA's INTRA_RACK_POOL test needs, for every rack, "the boxes with the
maximum amount of each resource" (Section 4.2).  Whoever owns the cluster's
rack maxima answers it: the array state backend's ``rack_max`` columns, else
the :class:`~repro.topology.capacity_index.CapacityIndex`'s rack leaves.
Only when neither exists (objects backend in naive mode, or a rack not yet
attached to a cluster) does :class:`Rack` maintain the maxima itself,
matching the paper's description of RISA's bookkeeping.  The per-type
availability totals always live here; the cluster updates them in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import TopologyError
from ..types import RESOURCE_ORDER, ResourceType, ResourceVector
from .box import Box

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .capacity_index import CapacityIndex

#: Resource type -> its array position in the state backend.
_TPOS = {t: i for i, t in enumerate(RESOURCE_ORDER)}


class Rack:
    """A rack: per-type box lists plus availability aggregates."""

    __slots__ = (
        "index",
        "pod_index",
        "_boxes_by_type",
        "_max_avail",
        "_total_avail",
        "_capacity_index",
        "_state_arrays",
    )

    def __init__(self, index: int, pod_index: int = 0) -> None:
        self.index = index
        #: Which pod (level-2 fabric group) this rack belongs to.  The
        #: builder assigns it from the fabric topology; two-tier fabrics
        #: put every rack in pod 0 (the whole cluster is one pod).
        self.pod_index = pod_index
        self._boxes_by_type: dict[ResourceType, list[Box]] = {
            t: [] for t in RESOURCE_ORDER
        }
        self._max_avail: dict[ResourceType, int] = {t: 0 for t in RESOURCE_ORDER}
        self._total_avail: dict[ResourceType, int] = {t: 0 for t in RESOURCE_ORDER}
        self._capacity_index: "CapacityIndex" | None = None
        self._state_arrays = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def attach_box(self, box: Box) -> None:
        """Register a box with this rack (builder-time only)."""
        if box.rack_index != self.index:
            raise TopologyError(
                f"box {box.box_id} belongs to rack {box.rack_index}, "
                f"not rack {self.index}"
            )
        self._boxes_by_type[box.rtype].append(box)
        self._max_avail[box.rtype] = max(self._max_avail[box.rtype], box.avail_units)
        self._total_avail[box.rtype] += box.avail_units

    def bind_state_arrays(self, state) -> None:
        """Route max-avail queries through the cluster's state arrays.

        Called by the cluster after construction.  While arrays are bound
        the per-rack ``_max_avail`` cache is neither maintained nor read —
        the arrays answer from their per-rack maxima directly.
        """
        self._state_arrays = state

    def bind_capacity_index(self, index: "CapacityIndex" | None) -> None:
        """Route max-avail queries through the cluster's capacity index.

        Called by the cluster after construction; ``None`` returns to the
        incremental per-rack cache, which is rebuilt here — while an index
        is bound the cluster skips ``on_box_change``, so the cache would
        otherwise be stale.
        """
        self._capacity_index = index
        if index is None:
            self.rebuild_cache()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def boxes(self, rtype: ResourceType) -> list[Box]:
        """Boxes of ``rtype`` in this rack, in index order."""
        return self._boxes_by_type[rtype]

    def all_boxes(self) -> list[Box]:
        """All boxes in this rack, grouped by type in RESOURCE_ORDER."""
        out: list[Box] = []
        for rtype in RESOURCE_ORDER:
            out.extend(self._boxes_by_type[rtype])
        return out

    def max_avail(self, rtype: ResourceType) -> int:
        """Largest single-box availability of ``rtype`` in this rack."""
        state = self._state_arrays
        if state is not None:
            return state.rack_max_value(_TPOS[rtype], self.index)
        if self._capacity_index is not None:
            return self._capacity_index.rack_max_avail(rtype, self.index)
        return self._max_avail[rtype]

    def total_avail(self, rtype: ResourceType) -> int:
        """Summed availability of ``rtype`` across the rack's boxes (O(1))."""
        return self._total_avail[rtype]

    def can_host(self, request: ResourceVector) -> bool:
        """True when *one box per type* in this rack can hold the whole VM —
        the INTRA_RACK_POOL membership test (Section 4.2)."""
        state = self._state_arrays
        if state is not None:
            return state.rack_can_host(
                self.index, request.cpu, request.ram, request.storage
            )
        index = self._capacity_index
        if index is not None:
            return (
                request.cpu <= index.rack_max_avail(ResourceType.CPU, self.index)
                and request.ram <= index.rack_max_avail(ResourceType.RAM, self.index)
                and request.storage
                <= index.rack_max_avail(ResourceType.STORAGE, self.index)
            )
        return (
            request.cpu <= self._max_avail[ResourceType.CPU]
            and request.ram <= self._max_avail[ResourceType.RAM]
            and request.storage <= self._max_avail[ResourceType.STORAGE]
        )

    def has_box_for(self, rtype: ResourceType, units: int) -> bool:
        """True when some box of ``rtype`` here can hold ``units`` — the
        SUPER_RACK membership test for one resource type."""
        return units <= self.max_avail(rtype)

    # ------------------------------------------------------------------ #
    # Cache maintenance (called by the cluster's box listener)
    # ------------------------------------------------------------------ #

    def on_box_change(self, box: Box, delta: int) -> None:
        """Update cached aggregates after ``box``'s availability changed by
        ``delta`` units (positive = release, negative = allocate).

        The cluster calls this only while the rack owns its maxima (neither
        state arrays nor a capacity index bound); otherwise it adds the
        delta to the rack total itself.
        """
        rtype = box.rtype
        self._total_avail[rtype] += delta
        if delta > 0:
            # Release can only raise the max.
            if box.avail_units > self._max_avail[rtype]:
                self._max_avail[rtype] = box.avail_units
        else:
            # Allocation may lower the max; recompute over this rack's boxes
            # of the affected type (2 boxes in the paper config — cheap).
            self._max_avail[rtype] = max(
                (b.avail_units for b in self._boxes_by_type[rtype]), default=0
            )

    def rebuild_cache(self) -> None:
        """Recompute both aggregates from live box state (bulk-restore path)."""
        for rtype in RESOURCE_ORDER:
            boxes = self._boxes_by_type[rtype]
            self._total_avail[rtype] = sum(b.avail_units for b in boxes)
            self._max_avail[rtype] = max((b.avail_units for b in boxes), default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{t.value}:{self._total_avail[t]}" for t in RESOURCE_ORDER
        )
        return f"Rack({self.index}, avail {parts})"
