"""RISA — Round-robin Intra-rack friendly Scheduling Algorithm (Algorithm 1).

RISA keeps, per rack, the box with the maximum availability of each resource
(maintained incrementally by :class:`~repro.topology.rack.Rack`).  For each
VM it builds INTRA_RACK_POOL — the racks whose max-boxes can hold the entire
VM — and walks it round-robin from a persistent cursor, committing the first
rack where both the compute slices and the intra-rack network fit.  When the
pool is empty (or no pool rack has network capacity), it builds SUPER_RACK —
per-resource lists of racks with *any* box that fits that slice — and falls
back to NULB restricted to those racks (inter-rack assignment).

Box choice inside the chosen rack is first-fit in box-index order; RISA-BF
(Algorithm 3) overrides it to best-fit (ascending availability) to reduce
resource stranding.
"""

from __future__ import annotations

from ..config import ClusterSpec
from ..errors import SchedulerError
from ..network import LinkSelectionPolicy, NetworkFabric
from ..topology import Box, Cluster, Rack
from ..types import RESOURCE_ORDER, ResourceType
from ..workloads import ResolvedRequest
from .base import Placement, Scheduler
from .nulb import NULBScheduler


class RISAScheduler(Scheduler):
    """Algorithm 1 (first-fit box packing inside the chosen rack)."""

    name = "risa"
    link_policy = LinkSelectionPolicy.FIRST_FIT
    #: Box-selection mode inside the chosen rack; RISA-BF overrides.
    best_fit = False

    def __init__(self, spec: ClusterSpec, cluster: Cluster, fabric: NetworkFabric) -> None:
        super().__init__(spec, cluster, fabric)
        self._cursor = 0
        self._fallback = NULBScheduler(spec, cluster, fabric)

    def snapshot_state(self) -> object | None:
        """The round-robin cursor (NULB fallback is stateless)."""
        return self._cursor

    def restore_state(self, state: object | None) -> None:
        if not isinstance(state, int):
            raise SchedulerError(
                f"{type(self).__name__} expects an int cursor snapshot, got {state!r}"
            )
        self._cursor = state

    # ------------------------------------------------------------------ #
    # Intra-rack placement
    # ------------------------------------------------------------------ #

    def _pick_box(self, rack: Rack, rtype: ResourceType, units: int) -> Box | None:
        """Choose a box of ``rtype`` in ``rack`` for ``units``.

        First-fit in index order for RISA; best-fit (smallest sufficient
        availability, Algorithm 3's ascending sort) for RISA-BF.  Both are
        single O(log n) range queries against the capacity index when it is
        active; the naive scans below are the ``REPRO_PLACEMENT_INDEX=naive``
        reference.
        """
        if units == 0:
            return None
        index = self.cluster.capacity_index
        if index is not None:
            if self.best_fit:
                return index.best_fit_in_rack(rtype, units, rack.index)
            return index.first_fit_in_rack(rtype, units, rack.index)
        boxes = rack.boxes(rtype)
        if not self.best_fit:
            for box in boxes:
                if box.can_fit(units):
                    return box
            return None
        best: Box | None = None
        for box in boxes:
            if box.can_fit(units) and (best is None or box.avail_units < best.avail_units):
                best = box
        return best

    def _try_rack(self, rack: Rack, request: ResolvedRequest) -> Placement | None:
        """Attempt a fully intra-rack assignment in one pool rack."""
        units = request.units
        cpu_box = self._pick_box(rack, ResourceType.CPU, units.cpu)
        ram_box = self._pick_box(rack, ResourceType.RAM, units.ram)
        if cpu_box is None or ram_box is None:
            return None
        storage_box = (
            self._pick_box(rack, ResourceType.STORAGE, units.storage)
            if units.storage > 0
            else None
        )
        if units.storage > 0 and storage_box is None:
            return None
        return self._commit(request, cpu_box, ram_box, storage_box)

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #

    def schedule(self, request: ResolvedRequest) -> Placement | None:
        """Round-robin over INTRA_RACK_POOL, else NULB over SUPER_RACK."""
        units = request.units
        cluster = self.cluster
        num_racks = cluster.num_racks
        state = cluster.state_arrays
        if state is not None and num_racks:
            # A lazy round-robin walk over the per-rack maxima columns: pool
            # members arrive in cursor order and the walk stops at the
            # first rack that commits.
            pool = state.pool_racks_from(
                units.cpu, units.ram, units.storage, self._cursor % num_racks
            )
            for rack_index in pool:
                placement = self._try_rack(cluster.rack(rack_index), request)
                if placement is not None:
                    self._cursor = (rack_index + 1) % num_racks
                    return placement
        else:
            for offset in range(num_racks):
                rack = cluster.rack((self._cursor + offset) % num_racks)
                if not rack.can_host(units):
                    continue
                placement = self._try_rack(rack, request)
                if placement is not None:
                    self._cursor = (rack.index + 1) % num_racks
                    return placement
        # Pool empty, or every pool rack failed on network capacity: build
        # SUPER_RACK and fall back to the inter-rack path (Algorithm 1).
        super_rack = self._super_rack(request)
        for rtype in RESOURCE_ORDER:
            if units.get(rtype) > 0 and not super_rack[rtype]:
                return None
        return self._fallback_allocate(request, super_rack)

    def _fallback_allocate(
        self,
        request: ResolvedRequest,
        super_rack: dict[ResourceType, frozenset[int]],
    ) -> Placement | None:
        """The inter-rack assignment step: NULB restricted to SUPER_RACK.

        Subclasses override this hook to reshape the fallback (e.g. the
        pod-local variant) without duplicating the pool walk above.
        """
        return self._fallback.allocate(request, rack_filter=super_rack)

    def _super_rack(
        self, request: ResolvedRequest
    ) -> dict[ResourceType, frozenset[int]]:
        """Per-resource lists of racks with a box that fits that slice."""
        units = request.units
        out: dict[ResourceType, frozenset[int]] = {}
        state = self.cluster.state_arrays
        if state is not None:
            all_racks: frozenset[int] | None = None
            for tpos, rtype in enumerate(RESOURCE_ORDER):
                needed = units.get(rtype)
                if needed == 0:
                    if all_racks is None:
                        all_racks = frozenset(range(self.cluster.num_racks))
                    out[rtype] = all_racks
                else:
                    out[rtype] = frozenset(state.racks_with_box(tpos, needed))
            return out
        for rtype in RESOURCE_ORDER:
            needed = units.get(rtype)
            out[rtype] = frozenset(
                rack.index
                for rack in self.cluster.racks
                if needed == 0 or rack.has_box_for(rtype, needed)
            )
        return out


class RISABFScheduler(RISAScheduler):
    """Algorithm 3: RISA with best-fit packing inside the chosen rack."""

    name = "risa_bf"
    best_fit = True
