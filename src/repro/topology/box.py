"""Single-resource boxes — the allocation granule of the DDC.

Each box holds one resource type, subdivided into bricks (Section 3.1).  A
box keeps an integer ``used_units`` counter (the hot-path quantity) plus
per-brick occupancy, and notifies its parent rack/cluster so their cached
aggregates stay O(1) to read.

Under the array state backend (:mod:`repro.state`) a box is a thin view:
its availability lives in the cluster's per-type ``box_avail`` column and
its brick occupancy in one contiguous span of the flat ``brick_used`` column.
Binding swaps the instance's class to :class:`_ArrayBox` (no new slots, only
overrides), so unbound boxes — hand-built in tests, or under
``REPRO_STATE_BACKEND=objects`` — run the original plain-attribute code with
zero overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import CapacityError
from ..types import ResourceType
from .brick import Brick


@dataclass(frozen=True, slots=True)
class BoxAllocation:
    """Receipt for units taken from one box.

    ``brick_slices`` maps brick index -> units taken from that brick; it sums
    to ``units``.  The receipt is required to release, ensuring symmetric
    accounting.
    """

    box_id: int
    rtype: ResourceType
    units: int
    brick_slices: tuple[tuple[int, int], ...]


class Box:
    """A single-resource box with brick-granular occupancy.

    Parameters
    ----------
    box_id:
        Globally unique integer id (rack-major ordering; this is the
        "first box" order used by NULB's first-fit search).
    rtype:
        The single resource type this box holds.
    rack_index / index_in_rack:
        Position in the cluster; ``index_in_rack`` counts boxes *of this
        type* within the rack (matching Table 3's per-type box ids).
    bricks:
        Brick subdivision; capacities must sum to the box capacity.
    """

    __slots__ = (
        "box_id",
        "rtype",
        "rack_index",
        "index_in_rack",
        "capacity_units",
        "used_units",
        "bricks",
        "_on_change",
        "_state",
        "_tpos",
        "_pos",
        "_brick_lo",
    )

    def __init__(
        self,
        box_id: int,
        rtype: ResourceType,
        rack_index: int,
        index_in_rack: int,
        bricks: list[Brick],
        on_change: Callable[["Box", int], None] | None = None,
    ) -> None:
        if not bricks:
            raise CapacityError("a box must contain at least one brick")
        self.box_id = box_id
        self.rtype = rtype
        self.rack_index = rack_index
        self.index_in_rack = index_in_rack
        self.bricks = bricks
        self.capacity_units = sum(b.capacity_units for b in bricks)
        self.used_units = 0
        self._on_change = on_change
        self._state = None
        self._tpos = 0
        self._pos = 0
        self._brick_lo = 0

    # ------------------------------------------------------------------ #

    def _bind_state(self, state, tpos: int, pos: int, brick_lo: int) -> None:
        """Re-home availability into the cluster's state columns.

        ``state.box_avail[tpos][pos]`` becomes the authority for this box's
        availability; ``brick_lo`` is the box's first slot in the flat brick
        occupancy column (the bricks are bound separately).
        """
        self._state = state
        self._tpos = tpos
        self._pos = pos
        self._brick_lo = brick_lo
        self.__class__ = _ArrayBox

    def bind_listener(self, on_change: Callable[["Box", int], None] | None) -> None:
        """Attach the availability-change listener (cluster wiring).

        The listener receives ``(box, delta)`` with positive deltas for
        releases and negative for allocations; every occupancy mutation on
        this box — allocate, release, or :meth:`set_occupancy` — reports
        through it, which is what keeps the cluster totals, rack caches, and
        the capacity index coherent.
        """
        self._on_change = on_change

    @property
    def avail_units(self) -> int:
        """Units currently free in this box."""
        return self.capacity_units - self.used_units

    def can_fit(self, units: int) -> bool:
        """True when ``units`` would fit in this box right now."""
        return 0 <= units <= self.avail_units

    def allocate(self, units: int) -> BoxAllocation:
        """Take ``units`` from this box (first-fit across bricks).

        Returns a :class:`BoxAllocation` receipt; raises
        :class:`CapacityError` when the box cannot fit the request.
        """
        if units <= 0:
            raise CapacityError(f"allocation must be positive, got {units}")
        if units > self.avail_units:
            raise CapacityError(
                f"box {self.box_id} ({self.rtype.value}): requested {units} "
                f"units, only {self.avail_units} available"
            )
        remaining = units
        slices: list[tuple[int, int]] = []
        for brick in self.bricks:
            if remaining == 0:
                break
            take = min(remaining, brick.avail_units)
            if take > 0:
                brick.allocate(take)
                slices.append((brick.index, take))
                remaining -= take
        assert remaining == 0, "box/brick accounting diverged"
        self.used_units += units
        delta = -units
        if self._on_change is not None:
            self._on_change(self, delta)
        return BoxAllocation(
            box_id=self.box_id,
            rtype=self.rtype,
            units=units,
            brick_slices=tuple(slices),
        )

    def release(self, allocation: BoxAllocation) -> None:
        """Return a previous allocation's units to the box."""
        if allocation.box_id != self.box_id:
            raise CapacityError(
                f"allocation for box {allocation.box_id} released on box "
                f"{self.box_id}"
            )
        if allocation.units > self.used_units:
            raise CapacityError(
                f"box {self.box_id}: releasing {allocation.units} units but "
                f"only {self.used_units} in use"
            )
        for brick_index, take in allocation.brick_slices:
            self.bricks[brick_index].release(take)
        self.used_units -= allocation.units
        if self._on_change is not None:
            self._on_change(self, allocation.units)

    def set_occupancy(self, brick_used: tuple[int, ...] | list[int]) -> None:
        """Overwrite per-brick occupancy wholesale (snapshot-restore path).

        Unlike poking ``brick.used_units`` directly, this validates the new
        occupancy and fires the change listener with the net delta, so rack
        caches, cluster totals, and the capacity index cannot be bypassed.
        """
        self._validate_occupancy(brick_used)
        old_used = self.used_units
        for brick, used in zip(self.bricks, brick_used):
            brick.used_units = used
        self.used_units = sum(brick_used)
        delta = old_used - self.used_units
        if delta != 0 and self._on_change is not None:
            self._on_change(self, delta)

    def _validate_occupancy(self, brick_used: tuple[int, ...] | list[int]) -> None:
        if len(brick_used) != len(self.bricks):
            raise CapacityError(
                f"box {self.box_id}: occupancy has {len(brick_used)} entries "
                f"for {len(self.bricks)} bricks"
            )
        for brick, used in zip(self.bricks, brick_used):
            if used < 0 or used > brick.capacity_units:
                raise CapacityError(
                    f"box {self.box_id} brick {brick.index}: occupancy {used} "
                    f"outside [0, {brick.capacity_units}]"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Box(id={self.box_id}, {self.rtype.value}, rack={self.rack_index}, "
            f"avail={self.avail_units}/{self.capacity_units})"
        )


class _ArrayBox(Box):
    """Array-bound view: availability and brick occupancy live in the
    cluster's state columns; mutations commit through
    :meth:`repro.state.ClusterStateArrays.apply_box_delta` so the per-rack
    maxima and totals stay coherent."""

    __slots__ = ()

    @property
    def used_units(self) -> int:
        return self.capacity_units - self._state.box_avail[self._tpos][self._pos]

    @property
    def avail_units(self) -> int:
        return self._state.box_avail[self._tpos][self._pos]

    def _apply_delta(self, delta: int) -> None:
        """Commit an availability change (positive = release) to the columns."""
        self._state.apply_box_delta(self._tpos, self._pos, self.rack_index, delta)

    def allocate(self, units: int) -> BoxAllocation:
        if units <= 0:
            raise CapacityError(f"allocation must be positive, got {units}")
        if units > self.avail_units:
            raise CapacityError(
                f"box {self.box_id} ({self.rtype.value}): requested {units} "
                f"units, only {self.avail_units} available"
            )
        remaining = units
        slices: list[tuple[int, int]] = []
        # First-fit straight over the box's span of the brick column.
        used = self._state.brick_used[self._tpos]
        i = self._brick_lo
        for brick in self.bricks:
            if remaining == 0:
                break
            take = min(remaining, brick.capacity_units - used[i])
            if take > 0:
                used[i] += take
                slices.append((brick.index, take))
                remaining -= take
            i += 1
        assert remaining == 0, "box/brick accounting diverged"
        delta = -units
        self._apply_delta(delta)
        if self._on_change is not None:
            self._on_change(self, delta)
        return BoxAllocation(
            box_id=self.box_id,
            rtype=self.rtype,
            units=units,
            brick_slices=tuple(slices),
        )

    def release(self, allocation: BoxAllocation) -> None:
        if allocation.box_id != self.box_id:
            raise CapacityError(
                f"allocation for box {allocation.box_id} released on box "
                f"{self.box_id}"
            )
        if allocation.units > self.used_units:
            raise CapacityError(
                f"box {self.box_id}: releasing {allocation.units} units but "
                f"only {self.used_units} in use"
            )
        # Index a slice of the box's own bricks, never the whole column: a
        # receipt's brick index then resolves exactly as ``self.bricks``
        # would resolve it in the object path.
        column = self._state.brick_used[self._tpos]
        lo = self._brick_lo
        hi = lo + len(self.bricks)
        row = column[lo:hi]
        for brick_index, take in allocation.brick_slices:
            # Mirror Brick.release exactly, including partial application
            # before a failing slice surfaces.
            if take < 0:
                column[lo:hi] = row
                raise CapacityError(f"cannot release negative units: {take}")
            used = row[brick_index]
            if take > used:
                column[lo:hi] = row
                raise CapacityError(
                    f"brick {self.bricks[brick_index].index}: releasing "
                    f"{take} units but only {used} in use"
                )
            row[brick_index] = used - take
        column[lo:hi] = row
        self._apply_delta(allocation.units)
        if self._on_change is not None:
            self._on_change(self, allocation.units)

    def set_occupancy(self, brick_used: tuple[int, ...] | list[int]) -> None:
        self._validate_occupancy(brick_used)
        old_used = self.used_units
        lo = self._brick_lo
        row = [int(u) for u in brick_used]
        self._state.brick_used[self._tpos][lo : lo + len(row)] = row
        delta = old_used - sum(row)
        if delta != 0:
            self._apply_delta(delta)
            if self._on_change is not None:
                self._on_change(self, delta)
