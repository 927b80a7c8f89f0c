"""Brick-level resource accounting.

A brick is the smallest hardware building block (16 units in the paper,
Table 1).  VM slices are smaller than a box, and the paper schedules at box
granularity; we nevertheless track per-brick occupancy inside each box so the
SiP-module/bandwidth bookkeeping and fragmentation analyses have a physical
substrate.  Brick selection inside a box is first-fit and does not influence
scheduling decisions (documented in DESIGN.md Section 5).

Under the array state backend (:mod:`repro.state`) a brick is a thin view:
its occupancy lives in one slot of the cluster's flat per-type occupancy
column (a list of ints).  Binding swaps the instance's class to :class:`_ArrayBrick` — which
adds no slots, only property overrides — so unbound bricks (hand-built in
tests, or under ``REPRO_STATE_BACKEND=objects``) pay zero overhead: their
``used_units`` stays a plain slot attribute.
"""

from __future__ import annotations

from ..errors import CapacityError
from ..types import ResourceType


class Brick:
    """One brick: ``capacity_units`` of a single resource type."""

    __slots__ = ("index", "rtype", "capacity_units", "used_units", "_arr", "_aidx")

    def __init__(
        self,
        index: int,
        rtype: ResourceType,
        capacity_units: int,
        used_units: int = 0,
    ) -> None:
        self.index = index
        self.rtype = rtype
        self.capacity_units = capacity_units
        self.used_units = used_units
        self._arr = None
        self._aidx = 0

    def _bind_array(self, arr: list[int], aidx: int) -> None:
        """Re-home occupancy into ``arr[aidx]`` (array-backend wiring)."""
        arr[aidx] = self.used_units
        self._arr = arr
        self._aidx = aidx
        self.__class__ = _ArrayBrick

    @property
    def avail_units(self) -> int:
        """Units currently free in this brick."""
        return self.capacity_units - self.used_units

    def allocate(self, units: int) -> None:
        """Take ``units`` from this brick; raises :class:`CapacityError` on
        overflow."""
        if units < 0:
            raise CapacityError(f"cannot allocate negative units: {units}")
        if units > self.avail_units:
            raise CapacityError(
                f"brick {self.index}: requested {units} units, only "
                f"{self.avail_units} available"
            )
        self.used_units += units

    def release(self, units: int) -> None:
        """Return ``units`` to this brick; raises :class:`CapacityError` on
        underflow."""
        if units < 0:
            raise CapacityError(f"cannot release negative units: {units}")
        if units > self.used_units:
            raise CapacityError(
                f"brick {self.index}: releasing {units} units but only "
                f"{self.used_units} in use"
            )
        self.used_units -= units

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Brick(index={self.index}, rtype={self.rtype}, "
            f"capacity_units={self.capacity_units}, used_units={self.used_units})"
        )


class _ArrayBrick(Brick):
    """Array-bound view: occupancy reads/writes go to the cluster column."""

    __slots__ = ()

    @property
    def used_units(self) -> int:
        return self._arr[self._aidx]

    @used_units.setter
    def used_units(self, value: int) -> None:
        self._arr[self._aidx] = value
