"""Indexed placement core: rack-granular capacity queries.

Every scheduler decision asks which rack fits, then which of its few boxes
of one type (rack-major "first box" order): *first-fit* — the leftmost box
with ``avail >= u`` over everything, one rack, a rack set, all-but-one rack,
ordered rack runs, or one pod (NULB's frontier, RISA's SUPER_RACK fallback,
the affinity variants); *best-fit in a rack* — the smallest sufficient
availability, ties to the lowest box id (RISA-BF, Algorithm 3); and *rack
max-avail* — RISA's INTRA_RACK_POOL membership test (Algorithm 1).

The naive paths scan ``Box`` objects, O(total boxes) per VM.
:class:`CapacityIndex` keeps per resource type one **max segment tree over
racks** (a leaf is the rack's largest box availability, -1 for a rack with
no box of the type), the per-box availability in position order, and each
rack's box span.  A first-fit descends to the leftmost fitting rack and
scans its k boxes (k <= 2 on every preset); in-rack queries are k-box
scans; rack max-avail is a leaf read.  The whole-cluster best-fit and
fitting-box queries serve only the ablation schedulers and are plain scans.

Upkeep runs through :meth:`Cluster.on_box_change`: a box change settles its
rack's maximum once — under the array state backend that is the shared
``rack_max`` column :meth:`ClusterStateArrays.apply_box_delta` just wrote —
and touches the tree only when that maximum moved; batched releases notify
once per touched rack.  ``REPRO_PLACEMENT_INDEX=naive`` disables the index
process-wide (schedulers, racks and link bundles fall back to the linear
scans); both modes are pinned to bit-identical placements.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import SimulationError
from ..types import RESOURCE_ORDER, ResourceType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from ..state import ClusterStateArrays
    from .box import Box
    from .cluster import Cluster

#: Environment variable selecting the placement query implementation.
PLACEMENT_INDEX_ENV = "REPRO_PLACEMENT_INDEX"

#: Accepted values of :data:`PLACEMENT_INDEX_ENV`.
PLACEMENT_MODES: tuple[str, ...] = ("indexed", "naive")

_NEG_INF = float("-inf")

#: ``MaxSegmentTree.most_available`` folds over the leaves of arrays this short
#: (box bundles hold 8 links, rack bundles 28; at 64 a descent costs the same).
LEAF_SCAN_MAX = 32


def placement_index_mode() -> str:
    """The process-wide placement query mode (read once per construction)."""
    mode = os.environ.get(PLACEMENT_INDEX_ENV, "indexed")
    if mode not in PLACEMENT_MODES:
        raise SimulationError(
            f"{PLACEMENT_INDEX_ENV}={mode!r} is not a known mode; "
            f"choose from {PLACEMENT_MODES}"
        )
    return mode


def index_enabled() -> bool:
    """True unless ``REPRO_PLACEMENT_INDEX=naive`` is set."""
    return placement_index_mode() == "indexed"


@contextmanager
def placement_mode(mode: str) -> Iterator[None]:
    """Temporarily pin the placement query mode for the enclosed block.

    Clusters and bundles latch the mode at construction, so wrap the
    *constructors* (building a simulator is enough); already-built objects
    are unaffected.  Used by the A/B benchmarks, the equivalence tests, and
    the Figure 11/12 drivers that measure the naive reference scans.
    """
    if mode not in PLACEMENT_MODES:
        raise SimulationError(f"unknown placement mode {mode!r}; choose from {PLACEMENT_MODES}")
    old = os.environ.get(PLACEMENT_INDEX_ENV)
    os.environ[PLACEMENT_INDEX_ENV] = mode
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(PLACEMENT_INDEX_ENV, None)
        else:
            os.environ[PLACEMENT_INDEX_ENV] = old


class MaxSegmentTree:
    """A flat max segment tree over a fixed-length array of numbers.

    Leaves live at ``tree[size + i]``; internal node ``k`` covers its two
    children ``2k`` / ``2k+1``.  Values may be ints (box units) or floats
    (link bandwidth); ``neutral`` pads the array to a power of two and must
    compare below every real value.
    """

    __slots__ = ("n", "size", "tree", "neutral")

    def __init__(self, values: Iterable[float], neutral: float = _NEG_INF) -> None:
        values = list(values)
        self.n = len(values)
        size = 1
        while size < max(1, self.n):
            size *= 2
        self.size = size
        self.neutral = neutral
        self.tree = [neutral] * (2 * size)
        self.assign(values)

    def assign(self, values: list[float]) -> None:
        """Bulk-load ``values`` (same length as construction) in O(n)."""
        if len(values) != self.n:
            raise ValueError(f"segment tree holds {self.n} leaves, got {len(values)} values")
        tree, size = self.tree, self.size
        tree[size : size + self.n] = values
        for i in range(size + self.n, 2 * size):
            tree[i] = self.neutral
        for node in range(size - 1, 0, -1):
            left, right = tree[2 * node], tree[2 * node + 1]
            tree[node] = left if left >= right else right

    def update(self, pos: int, value: float) -> None:
        """Point-update leaf ``pos`` and refresh its ancestors (O(log n))."""
        tree = self.tree
        node = self.size + pos
        tree[node] = value
        node >>= 1
        while node:
            left, right = tree[2 * node], tree[2 * node + 1]
            best = left if left >= right else right
            if tree[node] == best:
                break
            tree[node] = best
            node >>= 1

    def value(self, pos: int) -> float:
        """Current value of leaf ``pos`` (O(1))."""
        return self.tree[self.size + pos]

    def max_all(self) -> float:
        """Maximum over the whole array (O(1))."""
        return self.tree[1]

    def range_max(self, lo: int, hi: int) -> float:
        """Maximum over positions ``[lo, hi)``; ``neutral`` when empty."""
        if lo >= hi:
            return self.neutral
        tree = self.tree
        lo += self.size
        hi += self.size
        best = self.neutral
        while lo < hi:
            if lo & 1:
                if tree[lo] > best:
                    best = tree[lo]
                lo += 1
            if hi & 1:
                hi -= 1
                if tree[hi] > best:
                    best = tree[hi]
            lo >>= 1
            hi >>= 1
        return best

    def leftmost_at_least(
        self, threshold: float, lo: int = 0, hi: int | None = None
    ) -> int | None:
        """Smallest position in ``[lo, hi)`` whose value is >= ``threshold``.

        From leaf ``lo`` (the root for a full-range query) climb while the
        node is a left child, so each step covers the largest aligned block
        starting at the cursor; skip blocks whose max is below the threshold
        and descend into the first that clears it.  O(log n).
        """
        n = self.n
        if hi is None or hi > n:
            hi = n
        if lo < 0:
            lo = 0
        if lo >= hi:
            return None
        tree, size = self.tree, self.size
        node = lo + size if lo else 1
        while True:
            while not node & 1:
                node >>= 1
            if tree[node] >= threshold:
                break
            node += 1
            if not node & (node - 1):  # stepped past the last leaf
                return None
        while node < size:
            node <<= 1
            if tree[node] < threshold:
                node += 1
        pos = node - size
        return pos if pos < hi else None

    def most_available(self, demand: float, eps: float) -> int | None:
        """The position a left-to-right "most available" scan would pick.

        Replicates the exact fold of the naive link scan — a candidate
        replaces the running best only when its value exceeds it by more
        than ``eps`` *and* covers ``demand`` (within ``eps``) — but prunes
        every subtree whose max cannot beat the running best.  Positions a
        pruned subtree skips would all fail the ``> best + eps`` test, so
        the result is bit-identical to the naive scan.
        """
        tree, size = self.tree, self.size
        n = self.n
        best_pos: int | None = None
        best_avail = -1.0
        if n <= LEAF_SCAN_MAX:
            for pos, val in enumerate(tree[size : size + n]):
                if val > best_avail + eps and val >= demand - eps:
                    best_pos = pos
                    best_avail = val
            return best_pos
        stack: list[tuple[int, int, int]] = [(1, 0, size)]
        while stack:
            node, nlo, nhi = stack.pop()
            if nlo >= n:
                continue
            val = tree[node]
            if val <= best_avail + eps:
                continue
            if nhi - nlo == 1:
                if val >= demand - eps:
                    best_pos = nlo
                    best_avail = val
                continue
            mid = (nlo + nhi) // 2
            stack.append((2 * node + 1, mid, nhi))
            stack.append((2 * node, nlo, mid))
        return best_pos


class _TypeIndex:
    """One resource type: per-box availability in rack-major position order,
    each rack's box span, per-rack maxima, and a max tree over racks.

    Under the array state backend ``avail`` and ``rack_max`` *are* the state
    core's columns (mutated in place, never rebound); otherwise the index
    owns both and settles them on every box change.
    """

    __slots__ = ("boxes", "avail", "rack_max", "owns_columns", "rack_spans", "pod_ranges", "tree")

    def __init__(self, cluster: Cluster, tpos: int) -> None:
        boxes = self.boxes = cluster.boxes(RESOURCE_ORDER[tpos])
        racks = [box.rack_index for box in boxes]  # ascending: rack-major order
        starts = [bisect_left(racks, rack) for rack in range(cluster.num_racks + 1)]
        self.rack_spans = list(zip(starts, starts[1:]))
        self.pod_ranges = cluster.pod_rack_ranges()
        state = cluster.state_arrays
        self.owns_columns = state is None
        self.avail: list[int] = [] if state is None else state.box_avail[tpos]
        self.rack_max: list[int] = [] if state is None else state.rack_max[tpos]
        self.tree = MaxSegmentTree([-1] * cluster.num_racks, neutral=-1)
        self.rebuild()

    def rebuild(self) -> None:
        """Reload the rack leaves (and owned columns) from live state, O(n)."""
        spans = self.rack_spans
        if self.owns_columns:
            avail = self.avail
            avail[:] = [box.avail_units for box in self.boxes]
            self.rack_max[:] = [max(avail[lo:hi], default=0) for lo, hi in spans]
        self.tree.assign([top if lo < hi else -1 for top, (lo, hi) in zip(self.rack_max, spans)])

    def first_in_rack(self, units: int, rack_index: int) -> Box | None:
        """Leftmost box of one rack with ``avail >= units`` (a k-box scan)."""
        lo, hi = self.rack_spans[rack_index]
        avail = self.avail
        for pos in range(lo, hi):
            if avail[pos] >= units:
                return self.boxes[pos]
        return None

    def first_fit(
        self, units: int, rack_lo: int, rack_hi: int,
        allowed: frozenset[int] | None = None, exclude: int | None = None,
    ) -> Box | None:
        """Leftmost fitting box over the allowed racks of ``[rack_lo,
        rack_hi)``: the leftmost fitting rack, resuming just past it when it
        is disallowed.
        (SUPER_RACK filters hold exactly the fitting racks, so the first
        rack reached is almost always allowed.)"""
        tree = self.tree
        while True:
            rack = tree.leftmost_at_least(units, rack_lo, rack_hi)
            if rack is None:
                return None
            if rack != exclude and (allowed is None or rack in allowed):
                return self.first_in_rack(units, rack)
            rack_lo = rack + 1

    def best_fit(self, units: int, lo: int, hi: int) -> Box | None:
        """Smallest sufficient availability over box positions ``[lo, hi)``;
        ties -> lowest position (the naive scan's strict ``<``)."""
        avail = self.avail
        best_pos = -1
        best = 0
        for pos in range(lo, hi):
            value = avail[pos]
            if value >= units and (best_pos < 0 or value < best):
                best_pos = pos
                best = value
        return None if best_pos < 0 else self.boxes[best_pos]


class CapacityIndex:
    """The cluster-wide placement index (one :class:`_TypeIndex` per type)."""

    __slots__ = ("_types",)

    def __init__(self, cluster: Cluster) -> None:
        self._types = {
            rtype: _TypeIndex(cluster, tpos) for tpos, rtype in enumerate(RESOURCE_ORDER)
        }

    def update_box(self, box: Box) -> None:
        """Reflect one box's availability change.  Its rack's maximum is
        settled once — by the state core before this call, or here at the
        box's own position when the index owns the columns — and the tree
        is touched only when that maximum moved."""
        tindex = self._types[box.rtype]
        rack = box.rack_index
        rack_max = tindex.rack_max
        if tindex.owns_columns:
            avail = tindex.avail
            pos = box._pos
            old = avail[pos]
            new = avail[pos] = box.avail_units
            if new > rack_max[rack]:
                rack_max[rack] = new
            elif new < old == rack_max[rack]:
                lo, hi = tindex.rack_spans[rack]
                rack_max[rack] = max(avail[lo:hi])
        tree = tindex.tree
        top = rack_max[rack]
        if tree.tree[tree.size + rack] != top:
            tree.update(rack, top)

    def update_rack(self, rtype: ResourceType, rack_index: int) -> None:
        """Settle one rack's leaf from the state core's ``rack_max`` column
        (batched releases: once per touched rack, not per box)."""
        tindex = self._types[rtype]
        top = tindex.rack_max[rack_index]
        if tindex.tree.value(rack_index) != top:
            tindex.tree.update(rack_index, top)

    def rebuild(self) -> None:
        """Recompute every per-type structure from live state (O(n))."""
        for tindex in self._types.values():
            tindex.rebuild()

    # Queries: each returns a Box or None with the naive scan's tie-breaks.

    def first_fit_in_rack(self, rtype: ResourceType, units: int, rack_index: int) -> Box | None:
        """Leftmost fitting box of ``rtype`` within one rack."""
        return self._types[rtype].first_in_rack(units, rack_index)

    def first_fit_in_racks(
        self, rtype: ResourceType, units: int,
        rack_filter: frozenset[int] | None = None, exclude_rack: int | None = None,
    ) -> Box | None:
        """Leftmost fitting box over an allowed rack set: ``rack_filter=None``
        allows every rack; ``exclude_rack`` drops one rack (the rack-affinity
        "everywhere but home" search)."""
        tindex = self._types[rtype]
        return tindex.first_fit(units, 0, tindex.tree.n, rack_filter, exclude_rack)

    #: Leftmost box of a type (global rack-major order) that fits.
    first_fit = first_fit_in_racks

    def first_fit_in_rack_runs(
        self, rtype: ResourceType, units: int, runs: Iterable[tuple[int, int]],
        rack_filter: frozenset[int] | None = None,
    ) -> Box | None:
        """Leftmost fitting box over ordered ``(rack_lo, rack_hi)`` ranges,
        scanned in the given order (the tier-distance rings of a
        hierarchical search), each restricted to ``rack_filter``."""
        tindex = self._types[rtype]
        for rack_lo, rack_hi in runs:
            box = tindex.first_fit(units, rack_lo, rack_hi, rack_filter)
            if box is not None:
                return box
        return None

    def first_fit_in_pod(self, rtype: ResourceType, units: int, pod_index: int) -> Box | None:
        """Leftmost fitting box of ``rtype`` within one pod."""
        tindex = self._types[rtype]
        return tindex.first_fit(units, *tindex.pod_ranges[pod_index])

    def best_fit_in_pod(self, rtype: ResourceType, units: int, pod_index: int) -> Box | None:
        """Smallest sufficient availability within one pod; ties -> lowest id."""
        tindex = self._types[rtype]
        rack_lo, rack_hi = tindex.pod_ranges[pod_index]
        spans = tindex.rack_spans[rack_lo:rack_hi]
        return tindex.best_fit(units, spans[0][0], spans[-1][1]) if spans else None

    def pod_max_avail(self, rtype: ResourceType, pod_index: int) -> int:
        """Largest single-box availability of ``rtype`` in one pod."""
        tindex = self._types[rtype]
        best = tindex.tree.range_max(*tindex.pod_ranges[pod_index])
        return best if best > 0 else 0

    def best_fit(self, rtype: ResourceType, units: int) -> Box | None:
        """Smallest sufficient availability anywhere; ties -> lowest box id."""
        tindex = self._types[rtype]
        return tindex.best_fit(units, 0, len(tindex.avail))

    def best_fit_in_rack(self, rtype: ResourceType, units: int, rack_index: int) -> Box | None:
        """Smallest sufficient availability within one rack (RISA-BF)."""
        tindex = self._types[rtype]
        lo, hi = tindex.rack_spans[rack_index]
        return tindex.best_fit(units, lo, hi)

    def worst_fit(self, rtype: ResourceType, units: int) -> Box | None:
        """Emptiest box that still fits; ties -> lowest box id (the leftmost
        box holding the tree's maximum)."""
        tindex = self._types[rtype]
        top = tindex.tree.max_all()
        return tindex.first_fit(top, 0, tindex.tree.n) if top >= units else None

    def rack_max_avail(self, rtype: ResourceType, rack_index: int) -> int:
        """Largest single-box availability of ``rtype`` in one rack."""
        best = self._types[rtype].tree.value(rack_index)
        return best if best > 0 else 0

    def fitting_boxes(self, rtype: ResourceType, units: int) -> list[Box]:
        """Every box of ``rtype`` that fits, in global order."""
        tindex = self._types[rtype]
        return [box for box, value in zip(tindex.boxes, tindex.avail) if value >= units]

    def fitting_boxes_in_rack(self, rtype: ResourceType, units: int, rack_index: int) -> list[Box]:
        """Every fitting box of ``rtype`` in one rack, in box-index order."""
        tindex = self._types[rtype]
        lo, hi = tindex.rack_spans[rack_index]
        avail = tindex.avail
        return [tindex.boxes[pos] for pos in range(lo, hi) if avail[pos] >= units]
