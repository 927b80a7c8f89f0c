"""Struct-of-arrays state backend: flat columns behind the object views.

Every column is a plain Python list of ints (occupancy) or floats
(bandwidth), so the per-VM path reads and writes native scalars — numpy
element access costs several times a list index at the 2-6 elements a
placement touches.  Python floats are IEEE-754 doubles, exactly like
float64, so every accumulation here performs the identical operation
sequence the object path performs and both backends stay bit-identical.

Id-stability contract
---------------------

The columns are indexed by the integer ids the builders assign and never
reshuffle:

* **boxes** — per resource type, position order equals the rack-major
  "first box" order (ascending box id within a type), the same order the
  :class:`~repro.topology.capacity_index.CapacityIndex` uses (it shares the
  ``box_avail`` and ``rack_max`` columns);
* **bricks** — concatenated per type in box-position order, each box's
  bricks contiguous (every box has at least one brick);
* **links** — ``link_id`` equals the position in the fabric's deterministic
  tier-major iteration order (dense ``0..L-1``, asserted at bind time);
* **tiers** — ``TierId.level`` indexes the per-tier totals, leaf tier first.

Topology never changes after construction, so these indices are stable for
the lifetime of a run — snapshots, restores, and forks all reduce to column
copies plus an O(n) rebuild of the derived aggregates.

The backend is latched per object at *construction* time (like
``REPRO_PLACEMENT_INDEX``): wrap constructors in :func:`state_backend` to
pin a mode.  All mutations still flow through the public ``Box``/``Link``
APIs, whose listeners (``on_box_change``, bundle link listeners, capacity
index updates) are fed from the column writes, so both backends produce
bit-identical event digests and summaries.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import chain
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..errors import (
    CapacityError,
    NetworkAllocationError,
    SimulationError,
    TopologyError,
)
from ..types import RESOURCE_ORDER

if TYPE_CHECKING:  # pragma: no cover - typing only (avoid import cycles)
    from ..network.circuit import Circuit
    from ..network.fabric import NetworkFabric
    from ..network.link import Link
    from ..topology.cluster import Cluster

#: Environment variable selecting the state backend.
STATE_BACKEND_ENV = "REPRO_STATE_BACKEND"

#: Accepted values of :data:`STATE_BACKEND_ENV`.
STATE_BACKENDS: tuple[str, ...] = ("arrays", "objects")

#: Tolerance for floating-point bandwidth comparisons (mirrors link.py; kept
#: local to avoid an import cycle with the network package).
_BANDWIDTH_EPS = 1e-9


def state_backend_mode() -> str:
    """The process-wide state backend (read once per construction)."""
    mode = os.environ.get(STATE_BACKEND_ENV, "arrays")
    if mode not in STATE_BACKENDS:
        raise SimulationError(
            f"{STATE_BACKEND_ENV}={mode!r} is not a known backend; "
            f"choose from {STATE_BACKENDS}"
        )
    return mode


def arrays_enabled() -> bool:
    """True unless ``REPRO_STATE_BACKEND=objects`` is set."""
    return state_backend_mode() == "arrays"


@contextmanager
def state_backend(mode: str) -> Iterator[None]:
    """Temporarily pin the state backend for the enclosed block.

    Clusters and fabrics latch the backend at construction, so wrap the
    *constructors* (building a simulator is enough); already-built objects
    are unaffected.  Used by the A/B benchmarks and the backend equivalence
    tests.
    """
    if mode not in STATE_BACKENDS:
        raise SimulationError(
            f"unknown state backend {mode!r}; choose from {STATE_BACKENDS}"
        )
    old = os.environ.get(STATE_BACKEND_ENV)
    os.environ[STATE_BACKEND_ENV] = mode
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(STATE_BACKEND_ENV, None)
        else:
            os.environ[STATE_BACKEND_ENV] = old


class ClusterStateArrays:
    """Flat occupancy state of one cluster: bricks, boxes, rack maxima.

    One list per resource type and column, indexed by the type's position
    in ``RESOURCE_ORDER``.  Bricks hold the authoritative occupancy; per-box
    availability and per-rack maxima are derived and maintained
    incrementally through :meth:`apply_box_delta` (driven by the ``Box``
    views).  Python ints throughout — unit accounting stays exact.  Every
    column is mutated in place, never rebound: the brick views hold a
    reference to their type's ``brick_used`` list.
    """

    __slots__ = (
        "num_racks",
        "brick_used",
        "brick_capacity",
        "box_offsets",
        "box_capacity",
        "box_avail",
        "rack_spans",
        "rack_max",
        "_box_meta",
        "_rows_by_type",
        "_box_coords",
    )

    def __init__(self, cluster: "Cluster") -> None:
        self.num_racks = cluster.num_racks
        self.brick_used: list[list[int]] = []
        self.brick_capacity: list[list[int]] = []
        self.box_offsets: list[list[int]] = []
        self.box_capacity: list[list[int]] = []
        self.box_avail: list[list[int]] = []
        self.rack_spans: list[list[tuple[int, int]]] = []
        self.rack_max: list[list[int]] = []
        for tpos, rtype in enumerate(RESOURCE_ORDER):
            boxes = cluster.boxes(rtype)
            brick_caps: list[int] = []
            brick_used: list[int] = []
            offsets = [0]
            for box in boxes:
                for brick in box.bricks:
                    brick_caps.append(brick.capacity_units)
                    brick_used.append(brick.used_units)
                offsets.append(len(brick_caps))
            self.brick_used.append(brick_used)
            self.brick_capacity.append(brick_caps)
            self.box_offsets.append(offsets)
            self.box_capacity.append([b.capacity_units for b in boxes])
            spans: list[tuple[int, int]] = []
            cursor = 0
            for rack_index in range(self.num_racks):
                start = cursor
                while cursor < len(boxes) and boxes[cursor].rack_index == rack_index:
                    cursor += 1
                spans.append((start, cursor))
            self.rack_spans.append(spans)
            self.box_avail.append([0] * len(boxes))
            self.rack_max.append([0] * self.num_racks)
            # Bind the views: from here on the columns are the authority.
            for pos, box in enumerate(boxes):
                lo = offsets[pos]
                box._bind_state(self, tpos, pos, lo)
                for j, brick in enumerate(box.bricks):
                    brick._bind_array(brick_used, lo + j)
            self._recompute_derived(tpos)
        # Snapshot metadata, in ascending box-id order (the snapshot order):
        # (box_id, type position, flat brick span, (brick index, cap) pairs).
        meta: list[tuple[int, int, int, int, tuple[tuple[int, int], ...]]] = []
        rows_by_type: list[list[int]] = [[] for _ in RESOURCE_ORDER]
        tpos_of = {rtype: i for i, rtype in enumerate(RESOURCE_ORDER)}
        pos_within = {i: 0 for i in range(len(RESOURCE_ORDER))}
        for row, bid in enumerate(sorted(b.box_id for b in cluster.all_boxes())):
            box = cluster.box(bid)
            tpos = tpos_of[box.rtype]
            pos = pos_within[tpos]
            pos_within[tpos] = pos + 1
            lo = self.box_offsets[tpos][pos]
            hi = self.box_offsets[tpos][pos + 1]
            caps = tuple((brick.index, brick.capacity_units) for brick in box.bricks)
            meta.append((bid, tpos, lo, hi, caps))
            rows_by_type[tpos].append(row)
        self._box_meta = meta
        self._rows_by_type = rows_by_type
        # box_id -> (tpos, pos, brick_lo, rack_index); built lazily on the
        # first batched release (the one consumer).
        self._box_coords: dict[int, tuple[int, int, int, int]] | None = None

    # ------------------------------------------------------------------ #
    # Derived-aggregate maintenance
    # ------------------------------------------------------------------ #

    def _recompute_derived(self, tpos: int) -> None:
        """Rebuild per-box availability and rack maxima of one type (O(n))."""
        used = self.brick_used[tpos]
        offsets = self.box_offsets[tpos]
        avail = self.box_avail[tpos]
        avail[:] = [
            cap - sum(used[offsets[pos] : offsets[pos + 1]])
            for pos, cap in enumerate(self.box_capacity[tpos])
        ]
        self.rack_max[tpos][:] = [
            max(avail[lo:hi], default=0) for lo, hi in self.rack_spans[tpos]
        ]

    def resync_from_bricks(self) -> None:
        """Recompute every derived column from brick occupancy (defensive
        bulk lever mirroring ``Cluster.rebuild_caches``)."""
        for tpos in range(len(RESOURCE_ORDER)):
            self._recompute_derived(tpos)

    def apply_box_delta(self, tpos: int, pos: int, rack_index: int, delta: int) -> None:
        """One box's availability changed by ``delta`` units (positive =
        release); maintain availability and the rack max incrementally."""
        avail = self.box_avail[tpos]
        old = avail[pos]
        new = old + delta
        avail[pos] = new
        rm = self.rack_max[tpos]
        if delta > 0:
            if new > rm[rack_index]:
                rm[rack_index] = new
        elif old == rm[rack_index]:
            lo, hi = self.rack_spans[tpos][rack_index]
            rm[rack_index] = max(avail[lo:hi])

    def _build_box_coords(self) -> dict[int, tuple[int, int, int, int]]:
        """Map box id -> (tpos, pos, brick_lo, rack_index) for batch scatter."""
        rack_of: list[list[int]] = []
        for tpos in range(len(RESOURCE_ORDER)):
            per_pos = [0] * len(self.box_avail[tpos])
            for rack_index, (lo, hi) in enumerate(self.rack_spans[tpos]):
                for pos in range(lo, hi):
                    per_pos[pos] = rack_index
            rack_of.append(per_pos)
        coords: dict[int, tuple[int, int, int, int]] = {}
        pos_within = [0] * len(RESOURCE_ORDER)
        for bid, tpos, lo, _hi, _caps in self._box_meta:
            pos = pos_within[tpos]
            pos_within[tpos] = pos + 1
            coords[bid] = (tpos, pos, lo, rack_of[tpos][pos])
        self._box_coords = coords
        return coords

    def apply_release_batch(
        self, allocations: Sequence
    ) -> tuple[list[int], list[dict[int, int]]]:
        """Return a run of box allocations to the pool in one pass.

        ``allocations`` are :class:`~repro.topology.box.BoxAllocation`
        receipts, in release order.  Takes are summed per brick and per box
        first and validated against the whole batch before anything is
        written, so a rejected batch leaves the columns untouched.  Each
        touched rack's maximum is then recomputed from its slice once —
        releases only *raise* availability, so the slice max equals the
        value the per-event incremental chain would have left (integer
        arithmetic, no rounding).

        Returns ``(per-type released totals, per-type rack deltas)`` for the
        cluster layer to fold into its cached totals; the rack-delta keys are
        the touched racks, whose capacity-index leaves it then settles.
        """
        coords = self._box_coords
        if coords is None:
            coords = self._build_box_coords()
        num_types = len(RESOURCE_ORDER)
        brick_takes: list[dict[int, int]] = [{} for _ in range(num_types)]
        box_units: list[dict[int, int]] = [{} for _ in range(num_types)]
        rack_deltas: list[dict[int, int]] = [{} for _ in range(num_types)]
        for alloc in allocations:
            tpos, pos, lo, rack_index = coords[alloc.box_id]
            takes = brick_takes[tpos]
            for brick_index, take in alloc.brick_slices:
                i = lo + brick_index
                takes[i] = takes.get(i, 0) + take
            units = box_units[tpos]
            units[pos] = units.get(pos, 0) + alloc.units
            deltas = rack_deltas[tpos]
            deltas[rack_index] = deltas.get(rack_index, 0) + alloc.units
        for tpos in range(num_types):
            used = self.brick_used[tpos]
            if any(used[i] < take for i, take in brick_takes[tpos].items()):
                raise CapacityError(
                    "batched release drove brick occupancy negative — "
                    "allocation receipts do not match current occupancy"
                )
            avail = self.box_avail[tpos]
            caps = self.box_capacity[tpos]
            if any(avail[p] + u > caps[p] for p, u in box_units[tpos].items()):
                raise CapacityError(
                    "batched release overflowed a box's capacity — "
                    "allocation receipts do not match current occupancy"
                )
        totals = [0] * num_types
        for tpos in range(num_types):
            used = self.brick_used[tpos]
            for i, take in brick_takes[tpos].items():
                used[i] -= take
            avail = self.box_avail[tpos]
            for pos, units in box_units[tpos].items():
                avail[pos] += units
            totals[tpos] = sum(box_units[tpos].values())
            rack_max = self.rack_max[tpos]
            spans = self.rack_spans[tpos]
            for rack_index in rack_deltas[tpos]:
                lo, hi = spans[rack_index]
                rack_max[rack_index] = max(avail[lo:hi])
        return totals, rack_deltas

    # ------------------------------------------------------------------ #
    # Rack-maxima queries (RISA pool/super-rack, rack views)
    # ------------------------------------------------------------------ #

    def pool_racks_from(
        self, cpu: int, ram: int, storage: int, cursor: int
    ) -> Iterator[int]:
        """INTRA_RACK_POOL member racks in round-robin order from ``cursor``.

        A lazy walk over the per-rack maxima — racks ``cursor..n-1``, then
        ``0..cursor-1`` — so a caller that commits on the first member pays
        for one rack test, not a whole-cluster mask.  Each rack is tested
        when reached; that equals a mask taken up front because a pool rack
        that fails to commit rolls its compute back exactly, leaving every
        rack maximum as it was.
        """
        cpu_max, ram_max, storage_max = self.rack_max
        for rack in chain(range(cursor, self.num_racks), range(cursor)):
            if (
                cpu_max[rack] >= cpu
                and ram_max[rack] >= ram
                and storage_max[rack] >= storage
            ):
                yield rack

    def racks_with_box(self, tpos: int, units: int) -> list[int]:
        """Racks holding at least one box of the type with ``units`` free
        (the SUPER_RACK membership test), in ascending order."""
        return [rack for rack, m in enumerate(self.rack_max[tpos]) if m >= units]

    def rack_can_host(self, rack_index: int, cpu: int, ram: int, storage: int) -> bool:
        """INTRA_RACK_POOL membership of one rack (three column reads)."""
        rm = self.rack_max
        return (
            rm[0][rack_index] >= cpu
            and rm[1][rack_index] >= ram
            and rm[2][rack_index] >= storage
        )

    def rack_max_value(self, tpos: int, rack_index: int) -> int:
        """Largest single-box availability of one type in one rack."""
        return self.rack_max[tpos][rack_index]

    def rack_totals(self, tpos: int) -> list[int]:
        """Per-rack summed availability of one type (bulk-restore refresh)."""
        avail = self.box_avail[tpos]
        return [sum(avail[lo:hi]) for lo, hi in self.rack_spans[tpos]]

    def type_totals(self) -> list[int]:
        """Cluster-wide available units per type."""
        return [sum(avail) for avail in self.box_avail]

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Per-box per-brick occupancy in ascending box-id order — the same
        format ``Cluster.snapshot`` produces in object mode."""
        flats = self.brick_used
        return tuple(
            tuple(flats[tpos][lo:hi]) for _, tpos, lo, hi, _ in self._box_meta
        )

    def bulk_restore(self, snap: Sequence[Sequence[int]]) -> None:
        """Restore occupancy captured by :meth:`snapshot_tuples` with whole-
        column writes, then rebuild the derived aggregates.

        Validation is atomic — an invalid snapshot raises (with the same
        message the per-box object path produces for its first failure)
        before anything is written, whereas the object path mutates boxes up
        to the failing one.  Strictly safer; callers treat both as fatal.
        Entries are stored as Python ints whatever scalar type they arrive
        in.
        """
        meta = self._box_meta
        if len(snap) != len(meta):
            raise TopologyError("snapshot shape does not match cluster")
        for (_, _, lo, hi, _), row in zip(meta, snap):
            if len(row) != hi - lo:
                self._raise_first_violation(snap)
        new_flats: list[list[int]] = []
        for tpos in range(len(RESOURCE_ORDER)):
            flat = [int(u) for row_i in self._rows_by_type[tpos] for u in snap[row_i]]
            if any(
                u < 0 or u > cap for u, cap in zip(flat, self.brick_capacity[tpos])
            ):
                self._raise_first_violation(snap)
            new_flats.append(flat)
        for tpos, flat in enumerate(new_flats):
            self.brick_used[tpos][:] = flat
            self._recompute_derived(tpos)

    def _raise_first_violation(self, snap: Sequence[Sequence[int]]) -> None:
        """Raise the object-path error for the first invalid snapshot box."""
        for (bid, _, lo, hi, caps), row in zip(self._box_meta, snap):
            if len(row) != hi - lo:
                raise TopologyError(
                    f"snapshot invalid for box {bid}: box {bid}: occupancy "
                    f"has {len(row)} entries for {hi - lo} bricks"
                )
            for (brick_index, cap), used in zip(caps, row):
                if used < 0 or used > cap:
                    raise TopologyError(
                        f"snapshot invalid for box {bid}: box {bid} brick "
                        f"{brick_index}: occupancy {used} outside [0, {cap}]"
                    )
        raise TopologyError("snapshot shape does not match cluster")


class FabricStateArrays:
    """Flat bandwidth state of one fabric: links, bundles, per-tier totals.

    ``link_used`` is the authority for reserved bandwidth; bundle aggregates
    and per-tier totals are maintained alongside with the exact same float
    operation sequence the object path performs (per-tier totals get one
    scalar add per traversal — ``(a+d)+d != a+2d`` in IEEE 754 — and restore
    accumulation runs in link-id order), so both backends stay bit-identical.
    Every column is a list of Python floats (``link_tier`` of ints).
    """

    __slots__ = (
        "tiers",
        "link_used",
        "link_capacity",
        "link_tier",
        "bundles",
        "link_bundle",
        "link_pos",
        "bundle_used",
        "tier_used",
        "tier_capacity",
    )

    def __init__(self, fabric: "NetworkFabric") -> None:
        tiers = fabric.tiers
        self.tiers = tiers
        links = list(fabric._iter_links())
        num_links = len(links)
        for i, link in enumerate(links):
            if link.link_id != i:
                raise TopologyError(
                    "fabric link ids must be dense and in iteration order "
                    f"for the array backend (link {link.link_id} at slot {i})"
                )
        self.link_used = [0.0] * num_links
        self.link_capacity = [0.0] * num_links
        self.link_tier = [l.tier.level for l in links]
        bundles = []
        link_bundle = [0] * num_links
        link_pos = [0] * num_links
        for level in range(fabric.num_tiers):
            for bundle in fabric.tier_bundles(level):
                bidx = len(bundles)
                bundles.append(bundle)
                for pos, link in enumerate(bundle.links):
                    link_bundle[link.link_id] = bidx
                    link_pos[link.link_id] = pos
        self.bundles = bundles
        self.link_bundle = link_bundle
        self.link_pos = link_pos
        self.bundle_used = [0.0] * len(bundles)
        self.tier_used = [float(fabric.tier_used_gbps(t)) for t in tiers]
        self.tier_capacity = [float(fabric.tier_capacity_gbps(t)) for t in tiers]
        # Bind the views: from here on the columns are the authority.
        for link in links:
            link._bind_state(self)
        for bidx, bundle in enumerate(bundles):
            bundle._bind_state(self, bidx)

    # ------------------------------------------------------------------ #
    # Path application
    # ------------------------------------------------------------------ #

    def reserve_path(self, links: Sequence["Link"], demand: float) -> None:
        """Reserve ``demand`` on every hop of a resolved path, maintaining
        the bundle aggregates, per-tier totals and free-link trees as it
        goes.

        The caller (``NetworkFabric.allocate_flow``) has already selected a
        fitting link per bundle, so no hop can fail; a path's links are all
        distinct by construction.
        """
        lu = self.link_used
        lc = self.link_capacity
        bu = self.bundle_used
        lb = self.link_bundle
        lp = self.link_pos
        bundles = self.bundles
        tu = self.tier_used
        for link in links:
            lid = link.link_id
            old = lu[lid]
            cap = lc[lid]
            new = min(cap, old + demand)
            lu[lid] = new
            b = lb[lid]
            bu[b] += new - old
            tu[link.tier.level] += demand
            tree = bundles[b]._tree
            if tree is not None:
                tree.update(lp[lid], cap - new)

    def release_path(self, circuit: "Circuit") -> None:
        """Release a circuit: validate every hop and tier first (nothing is
        freed on a rejected release), then free each hop — the object path's
        interleaved per-link validation, ported verbatim onto the columns."""
        links = circuit.links
        demand = circuit.demand_gbps
        lu = self.link_used
        lc = self.link_capacity
        bu = self.bundle_used
        lb = self.link_bundle
        lp = self.link_pos
        bundles = self.bundles
        tcap = self.tier_capacity
        pending = self.tier_used.copy()
        for link in links:
            used = lu[link.link_id]
            if demand > used + _BANDWIDTH_EPS:
                raise NetworkAllocationError(
                    f"link {link.link_id}: freeing {demand} Gb/s but only "
                    f"{used} Gb/s reserved — circuit released twice?"
                )
            lvl = link.tier.level
            remaining = pending[lvl] - demand
            if remaining < -_BANDWIDTH_EPS * max(1.0, tcap[lvl]):
                raise NetworkAllocationError(
                    f"{link.tier.value} tier accounting underflow: "
                    f"releasing {demand} Gb/s leaves {remaining} Gb/s "
                    "reserved — circuit released twice?"
                )
            pending[lvl] = remaining if remaining > 0 else 0.0
        for link in links:
            lid = link.link_id
            old = lu[lid]
            new = max(0.0, old - demand)
            lu[lid] = new
            b = lb[lid]
            bu[b] += new - old
            tree = bundles[b]._tree
            if tree is not None:
                tree.update(lp[lid], lc[lid] - new)
        self.tier_used[:] = pending

    def release_groups_deferred(
        self, groups: Sequence[Sequence["Circuit"]]
    ) -> np.ndarray:
        """Release a run of departures' circuits with deferred tree upkeep.

        ``groups`` holds one circuit sequence per departing VM, in event
        order.  Every per-link/per-tier float chain replays the exact
        operation sequence of :meth:`release_path` — same values, same
        order, so the result is bit-identical to sequential per-event
        releases.  The bundles' free-link trees — consulted only during
        scheduling, which cannot interleave with a departure batch — settle
        once at the end from the same ``capacity - used`` values the last
        per-event update would have written.

        Returns a ``(len(groups), num_tiers)`` float64 matrix: row ``i`` is
        the per-tier reserved bandwidth after departure ``i``.  Validation
        failures undo every link and bundle write of the batch and leave the
        tier totals unwritten before raising, so a rejected batch leaves the
        columns untouched (strictly safer than the per-event path's partial
        application; callers treat both as fatal).
        """
        lu = self.link_used
        bu = self.bundle_used
        lb = self.link_bundle
        tcap = self.tier_capacity
        tiers = self.tier_used.copy()
        rows = np.empty((len(groups), len(tiers)), dtype=np.float64)
        # Pre-batch values of every touched link/bundle: the undo log, and
        # the set of links whose free-link tree entry must settle.
        link_before: dict[int, float] = {}
        bundle_before: dict[int, float] = {}
        try:
            for i, circuits in enumerate(groups):
                for circuit in circuits:
                    demand = circuit.demand_gbps
                    links = circuit.links
                    pending = tiers.copy()
                    for link in links:
                        lid = link.link_id
                        used = lu[lid]
                        if demand > used + _BANDWIDTH_EPS:
                            raise NetworkAllocationError(
                                f"link {lid}: freeing {demand} Gb/s but only "
                                f"{used} Gb/s reserved — circuit released twice?"
                            )
                        lvl = link.tier.level
                        remaining = pending[lvl] - demand
                        if remaining < -_BANDWIDTH_EPS * max(1.0, tcap[lvl]):
                            raise NetworkAllocationError(
                                f"{link.tier.value} tier accounting underflow: "
                                f"releasing {demand} Gb/s leaves {remaining} "
                                "Gb/s reserved — circuit released twice?"
                            )
                        pending[lvl] = remaining if remaining > 0 else 0.0
                    for link in links:
                        lid = link.link_id
                        old = lu[lid]
                        if lid not in link_before:
                            link_before[lid] = old
                        new = old - demand
                        if new < 0.0:
                            new = 0.0
                        lu[lid] = new
                        b = lb[lid]
                        if b not in bundle_before:
                            bundle_before[b] = bu[b]
                        bu[b] += new - old
                    tiers = pending
                rows[i] = tiers
        except NetworkAllocationError:
            for lid, used in link_before.items():
                lu[lid] = used
            for b, used in bundle_before.items():
                bu[b] = used
            raise
        self.tier_used[:] = tiers
        lc = self.link_capacity
        lp = self.link_pos
        bundles = self.bundles
        for lid in link_before:
            tree = bundles[lb[lid]]._tree
            if tree is not None:
                tree.update(lp[lid], lc[lid] - lu[lid])
        return rows

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def used_tuple(self) -> tuple[float, ...]:
        """Per-link reserved bandwidth in link-id order."""
        return tuple(self.link_used)

    def capacity_tuple(self) -> tuple[float, ...]:
        """Per-link capacity in link-id order."""
        return tuple(self.link_capacity)

    def bulk_restore_used(self, snap: Sequence[float]) -> None:
        """Restore per-link reserved bandwidth, feeding each changed link's
        delta to its bundle aggregate and free-link tree (in link-id order,
        matching the object path's listener sequence) and recomputing the
        per-tier totals by sequential accumulation in link-id order.

        Validation (no negative occupancy) runs before anything is written;
        entries are stored as Python floats whatever scalar type they arrive
        in.
        """
        new_used = [float(u) for u in snap]
        for lid, used in enumerate(new_used):
            if used < 0:
                raise NetworkAllocationError(
                    f"link {lid}: negative occupancy {used} Gb/s"
                )
        lu = self.link_used
        lc = self.link_capacity
        bu = self.bundle_used
        lb = self.link_bundle
        lp = self.link_pos
        bundles = self.bundles
        for lid, (new, old) in enumerate(zip(new_used, lu)):
            delta = new - old
            if delta != 0.0:
                b = lb[lid]
                bu[b] += delta
                tree = bundles[b]._tree
                if tree is not None:
                    tree.update(lp[lid], lc[lid] - new)
        lu[:] = new_used
        tiers = [0.0] * len(self.tier_used)
        for level, used in zip(self.link_tier, new_used):
            tiers[level] += used
        self.tier_used[:] = tiers

    def refresh_tier_capacities(self, capacities: Sequence[float]) -> None:
        """Mirror the fabric's per-tier capacity totals after a perturbation
        (``scale_tier_capacity`` / ``restore_capacities``)."""
        self.tier_capacity[:] = [float(c) for c in capacities]
