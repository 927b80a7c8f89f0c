"""Parallel-link bundles and link-selection policies.

Adjacent switches are connected by several parallel 200 Gb/s links.  The
baselines differ in how they pick one: NULB takes "the first available link",
NALB "the link with the most available bandwidth" (Section 4.1).  Both
policies are exposed here so schedulers can request either.

Selection no longer scans the links: each bundle keeps a small max segment
tree over per-link availability (maintained through the links' change
listeners), so FIRST_FIT is a leftmost-fit descent and MOST_AVAILABLE a
pruned fold that reproduces the naive scan's epsilon tie-breaking exactly.
Aggregate used/available bandwidth is maintained incrementally, making
NALB's bandwidth sort keys O(1) reads.  ``REPRO_PLACEMENT_INDEX=naive``
falls back to the original linear scans.

Under the array state backend (:mod:`repro.state`) the used aggregate lives
in the fabric's ``bundle_used`` column; binding swaps the instance's class to
:class:`_ArrayBundle` (no new slots), so unbound bundles keep the plain
attribute with zero overhead.
"""

from __future__ import annotations

import enum

from ..errors import NetworkAllocationError
from ..topology.capacity_index import MaxSegmentTree, index_enabled
from .link import BANDWIDTH_EPS, Link


class LinkSelectionPolicy(enum.Enum):
    """How to choose a link within a bundle for a new circuit."""

    FIRST_FIT = "first_fit"  # NULB semantics
    MOST_AVAILABLE = "most_available"  # NALB semantics


class LinkBundle:
    """An ordered group of parallel links between the same two switches."""

    __slots__ = (
        "name",
        "links",
        "_capacity_gbps",
        "_used_gbps",
        "_pos",
        "_tree",
        "_state",
        "_bidx",
    )

    def __init__(self, name: str, links: list[Link]) -> None:
        if not links:
            raise NetworkAllocationError(f"bundle {name} has no links")
        self.name = name
        self.links = links
        self._capacity_gbps = sum(l.capacity_gbps for l in links)
        self._used_gbps = sum(l.used_gbps for l in links)
        self._pos = {id(link): pos for pos, link in enumerate(links)}
        self._tree = (
            MaxSegmentTree([l.avail_gbps for l in links]) if index_enabled() else None
        )
        self._state = None
        self._bidx = 0
        for link in links:
            link.bind_listener(self._on_link_change)

    def _bind_state(self, state, bidx: int) -> None:
        """Re-home the used aggregate into the fabric's state columns."""
        state.bundle_used[bidx] = self._used_gbps
        self._state = state
        self._bidx = bidx
        self.__class__ = _ArrayBundle
        for link in self.links:
            # The construction-time listener is a bound method of the *base*
            # class; re-bind so it resolves to the array-backed override.
            link.bind_listener(self._on_link_change)

    def _on_link_change(self, link: Link, delta_used: float) -> None:
        """Keep the aggregate and the free-link index in step with a link."""
        self._used_gbps += delta_used
        if self._tree is not None:
            self._tree.update(self._pos[id(link)], link.avail_gbps)

    @property
    def capacity_gbps(self) -> float:
        """Aggregate capacity across the bundle."""
        return self._capacity_gbps

    @property
    def used_gbps(self) -> float:
        """Aggregate reserved bandwidth across the bundle (O(1))."""
        return self._used_gbps

    @property
    def avail_gbps(self) -> float:
        """Aggregate available bandwidth across the bundle (O(1))."""
        return self._capacity_gbps - self._used_gbps

    def set_link_capacities(self, capacities_gbps: tuple[float, ...] | list[float]) -> None:
        """Resize every member link, keeping the bundle aggregates and the
        free-link index consistent (the what-if oversubscription path).

        Capacity may shrink below a link's current reservation: existing
        circuits are grandfathered (their release accounting is unchanged)
        and the link simply offers no headroom until enough departs.  The
        aggregate capacity is recomputed with the construction-time fold, so
        perturb-then-restore round-trips are bit-exact.
        """
        if len(capacities_gbps) != len(self.links):
            raise NetworkAllocationError(
                f"bundle {self.name}: {len(capacities_gbps)} capacities for "
                f"{len(self.links)} links"
            )
        for capacity in capacities_gbps:
            if capacity <= 0:
                raise NetworkAllocationError(
                    f"link capacity must be positive, got {capacity}"
                )
        for pos, (link, capacity) in enumerate(zip(self.links, capacities_gbps)):
            link.capacity_gbps = capacity
            if self._tree is not None:
                self._tree.update(pos, link.avail_gbps)
        self._capacity_gbps = sum(l.capacity_gbps for l in self.links)

    def max_link_avail_gbps(self) -> float:
        """Availability of the emptiest link (what a new circuit could get)."""
        if self._tree is not None:
            return self._tree.max_all()
        return max(l.avail_gbps for l in self.links)

    def can_fit(self, demand_gbps: float) -> bool:
        """True when *some single link* can carry ``demand_gbps`` (circuits
        are not split across links)."""
        if self._tree is not None:
            return self._tree.max_all() >= demand_gbps - BANDWIDTH_EPS
        return any(l.can_fit(demand_gbps) for l in self.links)

    def select(self, demand_gbps: float, policy: LinkSelectionPolicy) -> Link | None:
        """Pick a link able to carry ``demand_gbps`` under ``policy``;
        returns None when no single link fits (does not reserve)."""
        if self._tree is not None:
            if policy is LinkSelectionPolicy.FIRST_FIT:
                pos = self._tree.leftmost_at_least(demand_gbps - BANDWIDTH_EPS)
            else:
                pos = self._tree.most_available(demand_gbps, BANDWIDTH_EPS)
            return None if pos is None else self.links[pos]
        if policy is LinkSelectionPolicy.FIRST_FIT:
            for link in self.links:
                if link.can_fit(demand_gbps):
                    return link
            return None
        best: Link | None = None
        best_avail = -1.0
        for link in self.links:
            avail = link.avail_gbps
            if avail > best_avail + BANDWIDTH_EPS and link.can_fit(demand_gbps):
                best = link
                best_avail = avail
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkBundle({self.name}, {len(self.links)} links)"


class _ArrayBundle(LinkBundle):
    """Array-bound view: the used aggregate lives in the fabric's
    ``bundle_used`` column.  Path application
    (:class:`repro.state.FabricStateArrays`) bypasses the link listeners and
    updates the aggregates and trees itself; the listener here covers direct
    per-link mutations (rollback paths, tests)."""

    __slots__ = ()

    def _on_link_change(self, link: Link, delta_used: float) -> None:
        self._state.bundle_used[self._bidx] += delta_used
        if self._tree is not None:
            self._tree.update(self._pos[id(link)], link.avail_gbps)

    @property
    def used_gbps(self) -> float:
        return self._state.bundle_used[self._bidx]

    @property
    def avail_gbps(self) -> float:
        return self._capacity_gbps - self._state.bundle_used[self._bidx]
