"""The cluster: racks, global box order, and cluster-wide aggregates.

The cluster keeps O(1) total-availability counters per resource type — the
denominators of NULB/NALB's contention ratio (Section 4.1) — and exposes the
rack-major global box ordering that defines "the first box" for first-fit
searches.
"""

from __future__ import annotations

import os
from typing import Iterable

from ..errors import CapacityError, TopologyError
from ..state import ClusterStateArrays, arrays_enabled
from ..types import RESOURCE_ORDER, ResourceType, ResourceVector
from .box import Box
from .capacity_index import CapacityIndex, index_enabled
from .rack import Rack

#: With ``REPRO_VERIFY_TOTALS=1`` every :meth:`Cluster.utilization` read
#: asserts the O(1) running totals against a full box scan — the debug oracle
#: for the incremental ``on_box_change`` accounting (the scan is what the
#: totals replaced; it must never run on the hot path otherwise).
_VERIFY_TOTALS = os.environ.get("REPRO_VERIFY_TOTALS", "") == "1"


class Cluster:
    """A built DDC cluster (use :func:`repro.topology.builder.build_cluster`)."""

    __slots__ = (
        "racks",
        "_boxes_by_type",
        "_box_by_id",
        "_total_avail",
        "_total_capacity",
        "_capacity_index",
        "_pod_rack_ranges",
        "_drained_racks",
        "_state_arrays",
        "_version",
    )

    def __init__(self, racks: list[Rack]) -> None:
        self.racks = racks
        self._boxes_by_type: dict[ResourceType, list[Box]] = {
            t: [] for t in RESOURCE_ORDER
        }
        self._box_by_id: dict[int, Box] = {}
        self._total_avail: dict[ResourceType, int] = {t: 0 for t in RESOURCE_ORDER}
        self._total_capacity: dict[ResourceType, int] = {t: 0 for t in RESOURCE_ORDER}
        for rack in racks:
            for rtype in RESOURCE_ORDER:
                for box in rack.boxes(rtype):
                    self._register_box(box)
        self._pod_rack_ranges = self._derive_pod_ranges(racks)
        self._drained_racks: set[int] = set()
        self._version = 0
        # The array backend binds before the capacity index so the index's
        # construction-time reads already go through the (freshly seeded)
        # arrays — both see identical values either way.
        self._state_arrays = ClusterStateArrays(self) if arrays_enabled() else None
        self._capacity_index = CapacityIndex(self) if index_enabled() else None
        for rack in racks:
            rack.bind_state_arrays(self._state_arrays)
            rack.bind_capacity_index(self._capacity_index)

    @staticmethod
    def _derive_pod_ranges(racks: list[Rack]) -> tuple[tuple[int, int], ...]:
        """Contiguous rack-index ranges per pod, from the racks' pod ids.

        Pods must partition the rack order into contiguous runs with pod
        ids 0, 1, 2, ... — the shape every fabric topology produces.  Racks
        built outside a topology (all ``pod_index`` 0) form a single pod.
        """
        ranges: list[tuple[int, int]] = []
        for i, rack in enumerate(racks):
            pod = rack.pod_index
            if pod == len(ranges):  # next pod starts at this rack
                if ranges:
                    ranges[-1] = (ranges[-1][0], i)
                ranges.append((i, len(racks)))
            elif pod != len(ranges) - 1:
                raise TopologyError(
                    f"rack {rack.index} has pod {pod}; pods must be "
                    "contiguous runs numbered from 0"
                )
        if not ranges:
            ranges.append((0, len(racks)))
        return tuple(ranges)

    def _register_box(self, box: Box) -> None:
        if box.box_id in self._box_by_id:
            raise TopologyError(f"duplicate box id {box.box_id}")
        self._box_by_id[box.box_id] = box
        boxes = self._boxes_by_type[box.rtype]
        # The box's rack-major position within its type: its address in the
        # capacity index (and in the state columns, which bind the same one).
        box._pos = len(boxes)
        boxes.append(box)
        self._total_avail[box.rtype] += box.avail_units
        self._total_capacity[box.rtype] += box.capacity_units

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_racks(self) -> int:
        """Number of racks in the cluster."""
        return len(self.racks)

    @property
    def num_pods(self) -> int:
        """Number of pods (level-2 fabric groups); 1 under a two-tier fabric."""
        return len(self._pod_rack_ranges)

    def pod_rack_range(self, pod_index: int) -> tuple[int, int]:
        """The contiguous ``[lo, hi)`` rack-index range of one pod.

        Negative indices are rejected rather than wrapped — a pod-failure
        study that silently drained the *last* pod for ``-1`` would report
        plausible-looking results for the wrong scenario.
        """
        if pod_index < 0 or pod_index >= len(self._pod_rack_ranges):
            raise TopologyError(f"no pod with index {pod_index}")
        return self._pod_rack_ranges[pod_index]

    def pod_rack_ranges(self) -> tuple[tuple[int, int], ...]:
        """Every pod's rack-index range, in pod order."""
        return self._pod_rack_ranges

    def pod_racks(self, pod_index: int) -> list[Rack]:
        """The racks of one pod, in rack-index order."""
        lo, hi = self.pod_rack_range(pod_index)
        return self.racks[lo:hi]

    def pod_of_rack(self, rack_index: int) -> int:
        """The pod a rack belongs to."""
        return self.racks[rack_index].pod_index

    @property
    def capacity_index(self) -> CapacityIndex | None:
        """The rack-granular placement index, or None in naive mode
        (``REPRO_PLACEMENT_INDEX=naive``)."""
        return self._capacity_index

    @property
    def state_arrays(self) -> ClusterStateArrays | None:
        """The struct-of-arrays occupancy state, or None in object mode
        (``REPRO_STATE_BACKEND=objects``)."""
        return self._state_arrays

    @property
    def version(self) -> int:
        """Monotone counter bumped on every occupancy change — lets callers
        (the metrics collector) skip re-sampling unchanged state."""
        return self._version

    def rack(self, index: int) -> Rack:
        """Rack by index."""
        return self.racks[index]

    def box(self, box_id: int) -> Box:
        """Box by global id."""
        try:
            return self._box_by_id[box_id]
        except KeyError:
            raise TopologyError(f"no box with id {box_id}") from None

    def boxes(self, rtype: ResourceType) -> list[Box]:
        """All boxes of ``rtype`` in rack-major (global first-fit) order."""
        return self._boxes_by_type[rtype]

    def all_boxes(self) -> list[Box]:
        """Every box, iterating types in RESOURCE_ORDER then rack-major."""
        out: list[Box] = []
        for rtype in RESOURCE_ORDER:
            out.extend(self._boxes_by_type[rtype])
        return out

    def total_avail(self, rtype: ResourceType) -> int:
        """Cluster-wide available units of ``rtype`` (O(1))."""
        return self._total_avail[rtype]

    def total_capacity(self, rtype: ResourceType) -> int:
        """Cluster-wide capacity of ``rtype`` in units (O(1))."""
        return self._total_capacity[rtype]

    def avail_vector(self) -> ResourceVector:
        """Availability of all three types as a :class:`ResourceVector`."""
        return ResourceVector(
            cpu=self._total_avail[ResourceType.CPU],
            ram=self._total_avail[ResourceType.RAM],
            storage=self._total_avail[ResourceType.STORAGE],
        )

    def utilization(self, rtype: ResourceType) -> float:
        """Fraction of ``rtype`` capacity currently in use.

        O(1): both the availability and capacity totals are running counters
        maintained through ``on_box_change`` — this is sampled by the metrics
        gauges on *every* simulation event, so it must never rescan boxes.
        The scan survives only as a debug assert (``REPRO_VERIFY_TOTALS=1``).
        """
        if _VERIFY_TOTALS:
            assert self.verify_totals(rtype), (
                f"{rtype.value} running totals diverged from the box scan: "
                f"avail {self._total_avail[rtype]} != "
                f"{sum(b.avail_units for b in self._boxes_by_type[rtype])}"
            )
        cap = self._total_capacity[rtype]
        if cap == 0:
            return 0.0
        return 1.0 - self._total_avail[rtype] / cap

    def verify_totals(self, rtype: ResourceType) -> bool:
        """O(n) oracle: do the running totals match a fresh box scan?"""
        boxes = self._boxes_by_type[rtype]
        return self._total_avail[rtype] == sum(
            b.avail_units for b in boxes
        ) and self._total_capacity[rtype] == sum(b.capacity_units for b in boxes)

    # ------------------------------------------------------------------ #
    # Cache maintenance
    # ------------------------------------------------------------------ #

    def on_box_change(self, box: Box, delta: int) -> None:
        """Box availability changed by ``delta``; update cluster totals, the
        owning rack's total, and the capacity index.  The rack's own max
        cache is maintained only when neither the state arrays nor the index
        own the rack maxima.

        Drains are sticky: units freed on a drained rack (a departing tenant
        of a failed pod) are re-occupied immediately, so the rack never
        re-offers capacity until a restore rewinds the drain.  The nested
        ``set_occupancy`` re-enters this listener once; the second pass sees
        zero availability and stops.
        """
        self._version += 1
        rtype = box.rtype
        self._total_avail[rtype] += delta
        index = self._capacity_index
        if index is not None:
            index.update_box(box)
        rack = self.racks[box.rack_index]
        if index is None and self._state_arrays is None:
            rack.on_box_change(box, delta)  # the rack owns its maxima
        else:
            rack._total_avail[rtype] += delta
        if (
            delta > 0
            and self._drained_racks
            and box.rack_index in self._drained_racks
            and box.avail_units
        ):
            box.set_occupancy([brick.capacity_units for brick in box.bricks])

    def apply_release_batch(self, allocations) -> None:
        """Release a run of box allocations through the array backend's
        fused scatter path (the flat engine's departure batches).

        Equivalent, state-for-state, to releasing each
        :class:`~repro.topology.box.BoxAllocation` through its box: the
        arrays settle occupancy/availability/rack maxima in bulk, the cached
        totals fold per type (integer adds — order-free), and the capacity
        index is notified once per *touched rack* instead of once per event
        (its tree holds one value per rack, the maximum the arrays just
        settled, so the final write wins either way).  Requires the array
        backend; callers must fall back to per-event releases while any
        rack is drained (drain stickiness re-occupies freed units through
        ``set_occupancy``, a per-box code path batching cannot replicate).
        """
        sa = self._state_arrays
        if sa is None:
            raise CapacityError(
                "apply_release_batch requires the array state backend"
            )
        if self._drained_racks:
            raise CapacityError(
                "apply_release_batch is not valid while racks are drained"
            )
        totals, rack_deltas = sa.apply_release_batch(allocations)
        self._version += len(allocations)
        index = self._capacity_index
        for tpos, rtype in enumerate(RESOURCE_ORDER):
            total = totals[tpos]
            if total:
                self._total_avail[rtype] += total
            for rack_index, delta in rack_deltas[tpos].items():
                self.racks[rack_index]._total_avail[rtype] += delta
                if index is not None:
                    index.update_rack(rtype, rack_index)

    def rebuild_caches(self) -> None:
        """Recompute every derived structure — cluster totals, rack caches,
        and the capacity index — from live box/brick state in O(n).

        The incremental paths (``on_box_change``, which :meth:`restore` also
        drives through the public Box API) keep everything coherent on their
        own; this is a defensive bulk lever for external callers that mutate
        bricks directly, and the invariant check the property tests lean on.
        """
        self._version += 1
        if self._state_arrays is not None:
            # Bricks are the authority; resync the derived arrays first so
            # the box/rack reads below flow through fresh aggregates.
            self._state_arrays.resync_from_bricks()
        for rtype in RESOURCE_ORDER:
            self._total_avail[rtype] = sum(
                b.avail_units for b in self._boxes_by_type[rtype]
            )
        for rack in self.racks:
            rack.rebuild_cache()
        if self._capacity_index is not None:
            self._capacity_index.rebuild()

    # ------------------------------------------------------------------ #
    # Fault injection (scenario studies)
    # ------------------------------------------------------------------ #

    @property
    def drained_racks(self) -> frozenset[int]:
        """Indices of racks currently held drained (sticky until restore)."""
        return frozenset(self._drained_racks)

    def drain_racks(self, rack_indices: Iterable[int]) -> int:
        """Mark every box of the given racks fully occupied (a drain).

        The pod-failure lever of the scenario engine: no new VM can land on
        a drained rack, while VMs already placed there keep their receipts —
        their departures release cleanly, but the drain is *sticky*: the
        freed units are re-occupied on the spot (via :meth:`on_box_change`),
        so a failed pod never quietly comes back online mid-branch.  Runs
        through the listener-backed
        :meth:`~repro.topology.box.Box.set_occupancy` API, so rack caches,
        cluster totals, and the capacity index all follow; :meth:`restore`
        rewinds both the occupancy and the stickiness.

        Returns the number of units newly marked occupied.
        """
        drained = 0
        for rack_index in rack_indices:
            # Reject negatives instead of letting Python's index wraparound
            # store an alias that box.rack_index would never match.
            if rack_index < 0 or rack_index >= len(self.racks):
                raise TopologyError(f"no rack with index {rack_index}")
            rack = self.racks[rack_index]
            self._drained_racks.add(rack_index)
            for box in rack.all_boxes():
                drained += box.avail_units
                box.set_occupancy([brick.capacity_units for brick in box.bricks])
        return drained

    # ------------------------------------------------------------------ #
    # Snapshots (what-if analysis and test invariants)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple[tuple[int, ...], ...]:
        """Capture per-box, per-brick occupancy; restorable and comparable."""
        if self._state_arrays is not None:
            return self._state_arrays.snapshot_tuples()
        return tuple(
            tuple(brick.used_units for brick in self._box_by_id[bid].bricks)
            for bid in sorted(self._box_by_id)
        )

    def restore(self, snap: tuple[tuple[int, ...], ...]) -> None:
        """Restore occupancy captured by :meth:`snapshot`, rebuilding all
        cached aggregates (including the capacity index).

        Any active drain is lifted first — a snapshot captures occupancy, so
        restoring one rewinds a :meth:`drain_racks` perturbation wholesale
        (callers that need the drain to survive, like
        ``DDCSimulator.fork``/``restore_run``, re-apply it from their own
        checkpoint after restoring).
        """
        self._drained_racks.clear()
        self._version += 1
        sa = self._state_arrays
        if sa is not None:
            sa.bulk_restore(snap)
            totals = sa.type_totals()
            for tpos, rtype in enumerate(RESOURCE_ORDER):
                self._total_avail[rtype] = totals[tpos]
                for rack, total in zip(self.racks, sa.rack_totals(tpos)):
                    rack._total_avail[rtype] = total
            if self._capacity_index is not None:
                self._capacity_index.rebuild()  # reads the restored columns
            return
        ids = sorted(self._box_by_id)
        if len(snap) != len(ids):
            raise TopologyError("snapshot shape does not match cluster")
        for bid, brick_used in zip(ids, snap):
            # The public occupancy API validates shape/range and notifies the
            # change listener, so the cluster totals, rack caches, and
            # capacity index all follow.
            try:
                self._box_by_id[bid].set_occupancy(brick_used)
            except CapacityError as exc:
                raise TopologyError(f"snapshot invalid for box {bid}: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{t.value}:{self._total_avail[t]}/{self._total_capacity[t]}"
            for t in RESOURCE_ORDER
        )
        return f"Cluster({self.num_racks} racks, avail {parts})"
