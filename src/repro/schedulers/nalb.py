"""NALB — Network-Aware Locality-Based scheduling (Zervas et al. 2018).

NALB extends NULB in two ways (Section 4.1):

1. *Modified BFS*: candidate boxes for the non-scarce slices are reordered
   in descending order of their available (uplink) bandwidth before the
   first-fit scan.  Under ``rack_affinity`` the home rack's boxes still come
   first (bandwidth-sorted), then remote racks nearest fabric tiers first
   and bandwidth-sorted within each tier distance (on the paper's two-tier
   fabric every remote rack is equidistant, so this reduces to the plain
   bandwidth sort); global mode keeps NULB's rack-major frontier and sorts
   by box-uplink availability only within each rack (box id breaks ties).
2. *Network phase*: circuits take the link with the most available bandwidth
   on every hop rather than the first that fits.

Both steps sort, which is exactly why NALB is the slowest algorithm in the
paper's Figures 11-12; the sorting *semantics* are intentionally kept (they
*are* the algorithm).  With the capacity index active the sort is never
built.  Global mode sorts only within a rack, so its first-fit scan stops in
the rack of the leftmost fitting box (one O(log n) ``first_fit_in_racks``
descent) and picks that rack's fitting box with the smallest sort key — the
full scan's pick, which the cross-mode equivalence tests pin bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable

from ..network import LinkSelectionPolicy
from ..topology import Box, CapacityIndex
from ..types import ResourceType
from .nulb import NULBScheduler


class NALBScheduler(NULBScheduler):
    """The network-aware baseline (bandwidth-sorted search)."""

    name = "nalb"
    link_policy = LinkSelectionPolicy.MOST_AVAILABLE

    def _box_sort_key(self, box: Box) -> tuple[float, int]:
        """Descending available uplink bandwidth, ascending box id."""
        return (-self.fabric.box_bundle(box.box_id).avail_gbps, box.box_id)

    def _rack_bandwidth_key(self, rack_index: int) -> float:
        """Available bandwidth on the rack's uplink bundle (sort key)."""
        return self.fabric.rack_bundle(rack_index).avail_gbps

    def _remote_rack_order(
        self, home_rack: int, rack_filter: frozenset[int] | None
    ) -> list[int]:
        """Remote racks for the rack-affinity search, nearest tiers first.

        Racks sort by (tier distance from home, descending uplink
        bandwidth, rack index) — the N-tier generalization of "remote racks
        by available bandwidth".  On a two-tier fabric every remote rack is
        equidistant, so the order reduces to the legacy bandwidth sort.
        """
        remote = [
            rack.index
            for rack in self.cluster.racks
            if rack.index != home_rack
            and (rack_filter is None or rack.index in rack_filter)
        ]
        remote.sort(
            key=lambda index: (
                self.fabric.rack_distance(home_rack, index),
                -self._rack_bandwidth_key(index),
            )
        )
        return remote

    def _best_bandwidth_box(
        self, index: CapacityIndex, rtype: ResourceType, units: int, rack_index: int
    ) -> Box | None:
        """The box a bandwidth-sorted first-fit scan of one rack would pick:
        among the rack's fitting boxes, the minimum of ``_box_sort_key``."""
        fitting = index.fitting_boxes_in_rack(rtype, units, rack_index)
        if not fitting:
            return None
        return min(fitting, key=self._box_sort_key)

    def _neighbor_box(
        self,
        rtype: ResourceType,
        units: int,
        home_rack: int,
        rack_filter: frozenset[int] | None,
    ) -> Box | None:
        index = self.cluster.capacity_index
        if index is None:
            return super()._neighbor_box(rtype, units, home_rack, rack_filter)
        if not self.rack_affinity:
            # The leftmost fitting box names the first rack with any fit.
            first = index.first_fit_in_racks(rtype, units, rack_filter)
            if first is None:
                return None
            return self._best_bandwidth_box(index, rtype, units, first.rack_index)
        box = self._best_bandwidth_box(index, rtype, units, home_rack)
        if box is not None:
            return box
        for rack_index in self._remote_rack_order(home_rack, rack_filter):
            box = self._best_bandwidth_box(index, rtype, units, rack_index)
            if box is not None:
                return box
        return None

    def _neighbor_candidates(
        self,
        rtype: ResourceType,
        home_rack: int,
        rack_filter: frozenset[int] | None,
    ) -> Iterable[Box]:
        if not self.rack_affinity:
            # Keep NULB's global rack-major frontier but reorder boxes
            # *within* each rack (one BFS depth tier) by available uplink
            # bandwidth — "reorders neighbors ... in descending order of
            # their available bandwidth" (Section 4.1).
            ordered: list[Box] = []
            for rack in self.cluster.racks:
                if rack_filter is not None and rack.index not in rack_filter:
                    continue
                ordered.extend(sorted(rack.boxes(rtype), key=self._box_sort_key))
            return ordered
        ordered = sorted(
            self.cluster.rack(home_rack).boxes(rtype), key=self._box_sort_key
        )
        for rack_index in self._remote_rack_order(home_rack, rack_filter):
            ordered.extend(
                sorted(self.cluster.rack(rack_index).boxes(rtype), key=self._box_sort_key)
            )
        return ordered


class NALBRackAffinityScheduler(NALBScheduler):
    """NALB with the strictly text-faithful same-rack-first search."""

    name = "nalb_rack_affinity"
    rack_affinity = True
