"""Optical links with bandwidth accounting.

Each link models one SiP module pair: 200 Gb/s of circuit-switched capacity
(Section 3.1).  Bandwidth is reserved per VM flow and returned on departure;
a small epsilon absorbs float rounding in repeated reserve/release cycles.
Every used-bandwidth mutation reports its delta to an optional listener —
the hook :class:`~repro.network.bundle.LinkBundle` uses to keep its
aggregates and free-link index incremental.

Under the array state backend (:mod:`repro.state`) a link is a thin view:
its used/capacity floats live in the fabric's flat per-link columns
(indexed by ``link_id``).  Binding swaps the instance's class to
:class:`_ArrayLink` (no new slots, only overrides), so unbound links keep
plain attributes with zero overhead.
"""

from __future__ import annotations

from typing import Callable

from ..errors import NetworkAllocationError
from ..types import TierId

#: Tolerance for floating-point bandwidth comparisons (Gb/s).
BANDWIDTH_EPS = 1e-9


class Link:
    """A single optical link between two switches."""

    __slots__ = (
        "link_id",
        "tier",
        "capacity_gbps",
        "used_gbps",
        "a",
        "b",
        "_on_change",
        "_state",
    )

    def __init__(
        self, link_id: int, tier: TierId, capacity_gbps: float, a: str, b: str
    ) -> None:
        if capacity_gbps <= 0:
            raise NetworkAllocationError(
                f"link capacity must be positive, got {capacity_gbps}"
            )
        self.link_id = link_id
        self.tier = tier
        self.capacity_gbps = capacity_gbps
        self.used_gbps = 0.0
        self.a = a
        self.b = b
        self._on_change: Callable[["Link", float], None] | None = None
        self._state = None

    def _bind_state(self, state) -> None:
        """Re-home used/capacity into the fabric's state columns."""
        state.link_used[self.link_id] = float(self.used_gbps)
        state.link_capacity[self.link_id] = float(self.capacity_gbps)
        self._state = state
        self.__class__ = _ArrayLink

    def bind_listener(self, on_change: Callable[["Link", float], None] | None) -> None:
        """Attach the used-bandwidth listener (bundle wiring).

        The listener receives ``(link, delta_used_gbps)`` after every
        reserve/free/:meth:`set_used`.
        """
        self._on_change = on_change

    @property
    def avail_gbps(self) -> float:
        """Remaining capacity on this link."""
        return self.capacity_gbps - self.used_gbps

    def can_fit(self, demand_gbps: float) -> bool:
        """True when ``demand_gbps`` can be reserved right now."""
        return demand_gbps <= self.avail_gbps + BANDWIDTH_EPS

    def reserve(self, demand_gbps: float) -> None:
        """Reserve bandwidth; raises :class:`NetworkAllocationError` when the
        link cannot fit the demand."""
        if demand_gbps < 0:
            raise NetworkAllocationError(f"negative demand: {demand_gbps}")
        if not self.can_fit(demand_gbps):
            raise NetworkAllocationError(
                f"link {self.link_id}: demand {demand_gbps} Gb/s exceeds "
                f"available {self.avail_gbps} Gb/s"
            )
        old = self.used_gbps
        self.used_gbps = min(self.capacity_gbps, old + demand_gbps)
        if self._on_change is not None:
            self._on_change(self, self.used_gbps - old)

    def free(self, demand_gbps: float) -> None:
        """Return previously reserved bandwidth."""
        if demand_gbps < 0:
            raise NetworkAllocationError(f"negative demand: {demand_gbps}")
        if demand_gbps > self.used_gbps + BANDWIDTH_EPS:
            raise NetworkAllocationError(
                f"link {self.link_id}: freeing {demand_gbps} Gb/s but only "
                f"{self.used_gbps} Gb/s reserved"
            )
        old = self.used_gbps
        self.used_gbps = max(0.0, old - demand_gbps)
        if self._on_change is not None:
            self._on_change(self, self.used_gbps - old)

    def set_used(self, used_gbps: float) -> None:
        """Overwrite reserved bandwidth wholesale (snapshot-restore path).

        Capacity is *not* an upper bound here: a what-if capacity shrink
        grandfathers committed circuits (see
        :meth:`~repro.network.bundle.LinkBundle.set_link_capacities`), so a
        live link can legitimately hold more than it would now admit — and a
        snapshot of that state must restore verbatim.
        """
        if used_gbps < 0:
            raise NetworkAllocationError(
                f"link {self.link_id}: negative occupancy {used_gbps} Gb/s"
            )
        old = self.used_gbps
        self.used_gbps = used_gbps
        if self._on_change is not None and self.used_gbps != old:
            self._on_change(self, self.used_gbps - old)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Link({self.link_id}, {self.a}<->{self.b}, "
            f"{self.used_gbps:.1f}/{self.capacity_gbps:.0f} Gb/s)"
        )


class _ArrayLink(Link):
    """Array-bound view: used/capacity reads and writes go to the fabric's
    per-link columns.  The scalar mutators perform the identical IEEE-754
    operation sequence as the plain-attribute originals, so both backends
    produce bit-identical bandwidth trajectories."""

    __slots__ = ()

    @property
    def capacity_gbps(self) -> float:
        """This link's capacity (resizable via what-if perturbations)."""
        return self._state.link_capacity[self.link_id]

    @capacity_gbps.setter
    def capacity_gbps(self, value: float) -> None:
        self._state.link_capacity[self.link_id] = float(value)

    @property
    def used_gbps(self) -> float:
        """Bandwidth currently reserved on this link."""
        return self._state.link_used[self.link_id]

    def reserve(self, demand_gbps: float) -> None:
        if demand_gbps < 0:
            raise NetworkAllocationError(f"negative demand: {demand_gbps}")
        if not self.can_fit(demand_gbps):
            raise NetworkAllocationError(
                f"link {self.link_id}: demand {demand_gbps} Gb/s exceeds "
                f"available {self.avail_gbps} Gb/s"
            )
        old = self.used_gbps
        new = min(self.capacity_gbps, old + demand_gbps)
        self._state.link_used[self.link_id] = new
        if self._on_change is not None:
            self._on_change(self, new - old)

    def free(self, demand_gbps: float) -> None:
        if demand_gbps < 0:
            raise NetworkAllocationError(f"negative demand: {demand_gbps}")
        old = self.used_gbps
        if demand_gbps > old + BANDWIDTH_EPS:
            raise NetworkAllocationError(
                f"link {self.link_id}: freeing {demand_gbps} Gb/s but only "
                f"{old} Gb/s reserved"
            )
        new = max(0.0, old - demand_gbps)
        self._state.link_used[self.link_id] = new
        if self._on_change is not None:
            self._on_change(self, new - old)

    def set_used(self, used_gbps: float) -> None:
        if used_gbps < 0:
            raise NetworkAllocationError(
                f"link {self.link_id}: negative occupancy {used_gbps} Gb/s"
            )
        old = self.used_gbps
        used_gbps = float(used_gbps)
        self._state.link_used[self.link_id] = used_gbps
        if self._on_change is not None and used_gbps != old:
            self._on_change(self, used_gbps - old)
