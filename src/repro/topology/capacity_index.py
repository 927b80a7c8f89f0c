"""Indexed placement core: O(log n) capacity queries over the box array.

Every scheduler decision in this library reduces to one of three questions
about the per-type box availability array (rack-major "first box" order):

1. *first-fit* — the leftmost box with ``avail >= u``, optionally restricted
   to one rack, a rack set, or everything-but-one-rack (NULB's global
   frontier, RISA's SUPER_RACK fallback, the rack-affinity variants);
2. *best-fit* — the box with the smallest sufficient availability, ties to
   the lowest box id (RISA-BF, the best-fit ablation);
3. *rack max-avail* — the largest single-box availability inside one rack
   (RISA's INTRA_RACK_POOL membership test).

The naive implementations scan Python ``Box`` objects linearly, making every
VM O(total boxes).  :class:`CapacityIndex` answers all three in O(log n) from
flat integer arrays:

* a **position segment tree** per resource type (max-availability over the
  rack-major order) answers leftmost-fit and range-max queries by descent;
* a **value-domain occupancy tree** plus per-value position buckets answers
  global best-fit: the smallest value ``v >= u`` with a non-empty bucket,
  then the lowest position inside that bucket.

The index is maintained incrementally by :meth:`Cluster.on_box_change`
(every allocate/release/restore routes through it) and can be rebuilt in
O(n) after a bulk restore.  Set ``REPRO_PLACEMENT_INDEX=naive`` to disable
it process-wide: schedulers, racks, and link bundles then fall back to the
original linear scans — the A/B lever the equivalence tests and benchmarks
use.  Both modes are pinned to bit-identical placements.
"""

from __future__ import annotations

import os
from bisect import bisect_left, insort
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional

from ..errors import SimulationError
from ..types import RESOURCE_ORDER, ResourceType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
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
        raise SimulationError(
            f"unknown placement mode {mode!r}; choose from {PLACEMENT_MODES}"
        )
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

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def assign(self, values: List[float]) -> None:
        """Bulk-load ``values`` (same length as construction) in O(n)."""
        if len(values) != self.n:
            raise ValueError(
                f"segment tree holds {self.n} leaves, got {len(values)} values"
            )
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

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

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
        self, threshold: float, lo: int = 0, hi: Optional[int] = None
    ) -> Optional[int]:
        """Smallest position in ``[lo, hi)`` whose value is >= ``threshold``.

        The canonical decomposition of the range is scanned left to right;
        the first covering node whose max clears the threshold is descended
        to its leftmost qualifying leaf.  O(log n).
        """
        if hi is None:
            hi = self.n
        if lo < 0:
            lo = 0
        if hi > self.n:
            hi = self.n
        if lo >= hi:
            return None
        tree, size = self.tree, self.size
        if lo == 0 and hi == self.n:
            # Full-range query (the global first-fit frontier and bundle
            # selects): descend straight from the root, no decomposition.
            if tree[1] < threshold:
                return None
            node = 1
            while node < size:
                node <<= 1
                if tree[node] < threshold:
                    node += 1
            return node - size
        lo += size
        hi += size
        left_nodes: list[int] = []
        right_nodes: list[int] = []
        while lo < hi:
            if lo & 1:
                left_nodes.append(lo)
                lo += 1
            if hi & 1:
                hi -= 1
                right_nodes.append(hi)
            lo >>= 1
            hi >>= 1
        node = None
        for cand in left_nodes:
            if tree[cand] >= threshold:
                node = cand
                break
        if node is None:
            for cand in reversed(right_nodes):
                if tree[cand] >= threshold:
                    node = cand
                    break
        if node is None:
            return None
        while node < size:
            node <<= 1
            if tree[node] < threshold:
                node += 1
        return node - size

    def best_fit_in_range(
        self, threshold: float, lo: int, hi: int
    ) -> Optional[int]:
        """Position in ``[lo, hi)`` with the *smallest* value >= ``threshold``
        (ties -> lowest position).

        Pruned in-order walk: subtrees whose max is below the threshold are
        skipped, and an exact-fit (value == threshold) short-circuits.  Cost
        is O(log n + matches) — intended for small ranges (one rack's span);
        use :meth:`_TypeIndex.best_fit` for whole-array best-fit.
        """
        if lo < 0:
            lo = 0
        if hi > self.n:
            hi = self.n
        if lo >= hi:
            return None
        tree, size = self.tree, self.size
        best_val: Optional[float] = None
        best_pos: Optional[int] = None
        stack: list[tuple[int, int, int]] = [(1, 0, size)]
        while stack:
            node, nlo, nhi = stack.pop()
            if nhi <= lo or nlo >= hi:
                continue
            val = tree[node]
            if val < threshold:
                continue
            if nhi - nlo == 1:
                if best_val is None or val < best_val:
                    best_val = val
                    best_pos = nlo
                    if best_val == threshold:  # perfect fit; earliest wins
                        break
                continue
            mid = (nlo + nhi) // 2
            # Push right then left so the left child is processed first:
            # positions are visited in ascending order, making the strict
            # ``val < best_val`` comparison reproduce first-fit tie-breaks.
            stack.append((2 * node + 1, mid, nhi))
            stack.append((2 * node, nlo, mid))
        return best_pos

    def positions_at_least(
        self, threshold: float, lo: int = 0, hi: Optional[int] = None
    ) -> list[int]:
        """All positions in ``[lo, hi)`` with value >= ``threshold``, in
        ascending order.  O(log n + matches)."""
        if hi is None:
            hi = self.n
        if lo < 0:
            lo = 0
        if hi > self.n:
            hi = self.n
        out: list[int] = []
        if lo >= hi:
            return out
        tree, size = self.tree, self.size
        stack: list[tuple[int, int, int]] = [(1, 0, size)]
        while stack:
            node, nlo, nhi = stack.pop()
            if nhi <= lo or nlo >= hi or tree[node] < threshold:
                continue
            if nhi - nlo == 1:
                out.append(nlo)
                continue
            mid = (nlo + nhi) // 2
            stack.append((2 * node + 1, mid, nhi))
            stack.append((2 * node, nlo, mid))
        return out

    def most_available(self, demand: float, eps: float) -> Optional[int]:
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
        best_pos: Optional[int] = None
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
    """Per-resource-type availability index over the rack-major box order.

    The value-domain structures (``buckets`` + ``value_tree``) serve only
    whole-array best-fit, which none of the paper schedulers query — so they
    activate on first use: until a :meth:`best_fit` call, hot-path updates
    skip them entirely; the first query rebuilds them in O(n) and switches
    them to incremental maintenance (a best-fit-driven scheduler then pays
    O(log n + bucket shift) per update, never another rebuild).
    """

    __slots__ = (
        "boxes",
        "pos_by_id",
        "rack_spans",
        "pod_spans",
        "tree",
        "max_value",
        "buckets",
        "value_tree",
        "buckets_active",
    )

    def __init__(
        self,
        boxes: List["Box"],
        num_racks: int,
        pod_rack_ranges: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.boxes = boxes
        self.pos_by_id = {box.box_id: pos for pos, box in enumerate(boxes)}
        spans: list[tuple[int, int]] = []
        cursor = 0
        for rack_index in range(num_racks):
            start = cursor
            while cursor < len(boxes) and boxes[cursor].rack_index == rack_index:
                cursor += 1
            spans.append((start, cursor))
        self.rack_spans = spans
        self.pod_spans = [
            self.rack_range_span(lo, hi) for lo, hi in pod_rack_ranges
        ] or [(0, len(boxes))]
        self.tree = MaxSegmentTree([b.avail_units for b in boxes], neutral=-1)
        self.max_value = max((b.capacity_units for b in boxes), default=0)
        self.buckets: list[list[int]] = [[] for _ in range(self.max_value + 1)]
        self.value_tree = MaxSegmentTree([0] * (self.max_value + 1), neutral=0)
        self.buckets_active = False

    def rack_range_span(self, rack_lo: int, rack_hi: int) -> tuple[int, int]:
        """Box-position span covering the contiguous racks ``[lo, hi)``."""
        if rack_lo >= rack_hi:
            return (0, 0)
        return (self.rack_spans[rack_lo][0], self.rack_spans[rack_hi - 1][1])

    def rebuild(self) -> None:
        """Recompute every structure from current box state in O(n)."""
        self.tree.assign([b.avail_units for b in self.boxes])
        self.buckets_active = False

    def _activate_buckets(self) -> None:
        for bucket in self.buckets:
            bucket.clear()
        for pos, box in enumerate(self.boxes):
            self.buckets[box.avail_units].append(pos)
        self.value_tree.assign([1 if bucket else 0 for bucket in self.buckets])
        self.buckets_active = True

    def update(self, pos: int, new_avail: int) -> None:
        """Move one box's availability to ``new_avail`` (O(log n))."""
        old = self.tree.value(pos)
        if old == new_avail:
            return
        self.tree.update(pos, new_avail)
        if not self.buckets_active:
            return
        bucket = self.buckets[old]
        bucket.pop(bisect_left(bucket, pos))
        if not bucket:
            self.value_tree.update(old, 0)
        target = self.buckets[new_avail]
        insort(target, pos)
        if len(target) == 1:
            self.value_tree.update(new_avail, 1)

    def best_fit(self, units: int) -> Optional[int]:
        """Whole-array best-fit: smallest value >= units, lowest position."""
        if not self.buckets_active:
            self._activate_buckets()
        value = self.value_tree.leftmost_at_least(1, units, self.max_value + 1)
        if value is None:
            return None
        return self.buckets[value][0]


class CapacityIndex:
    """The cluster-wide placement index (one :class:`_TypeIndex` per type)."""

    __slots__ = ("_types",)

    def __init__(self, cluster: "Cluster") -> None:
        num_racks = cluster.num_racks
        pod_ranges = cluster.pod_rack_ranges()
        self._types = {
            rtype: _TypeIndex(cluster.boxes(rtype), num_racks, pod_ranges)
            for rtype in RESOURCE_ORDER
        }

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def update_box(self, box: "Box") -> None:
        """Reflect one box's availability change (O(log n))."""
        tindex = self._types[box.rtype]
        tindex.update(tindex.pos_by_id[box.box_id], box.avail_units)

    def rebuild(self) -> None:
        """Recompute every per-type structure from live box state (O(n))."""
        for tindex in self._types.values():
            tindex.rebuild()

    def reload(self, avail_by_type: "List[List[int]]") -> None:
        """Bulk-load per-box availability, one list per type aligned with
        ``RESOURCE_ORDER`` and in box-position order.

        Same effect as :meth:`rebuild` without the per-box attribute reads —
        the array state backend's bulk-restore path hands the availability
        straight out of its arrays.
        """
        for tindex, values in zip(self._types.values(), avail_by_type):
            tindex.tree.assign(values)
            tindex.buckets_active = False

    # ------------------------------------------------------------------ #
    # Queries (all return Box or None, preserving naive-scan tie-breaks)
    # ------------------------------------------------------------------ #

    def first_fit(self, rtype: ResourceType, units: int) -> Optional["Box"]:
        """Leftmost box of ``rtype`` (global rack-major order) that fits."""
        tindex = self._types[rtype]
        pos = tindex.tree.leftmost_at_least(units)
        return None if pos is None else tindex.boxes[pos]

    def first_fit_in_rack(
        self, rtype: ResourceType, units: int, rack_index: int
    ) -> Optional["Box"]:
        """Leftmost fitting box of ``rtype`` within one rack."""
        tindex = self._types[rtype]
        lo, hi = tindex.rack_spans[rack_index]
        pos = tindex.tree.leftmost_at_least(units, lo, hi)
        return None if pos is None else tindex.boxes[pos]

    def first_fit_in_racks(
        self,
        rtype: ResourceType,
        units: int,
        rack_filter: Optional[frozenset[int]] = None,
        exclude_rack: Optional[int] = None,
    ) -> Optional["Box"]:
        """Leftmost fitting box over an allowed rack set.

        ``rack_filter=None`` allows every rack; ``exclude_rack`` drops one
        rack from the allowed set (the rack-affinity "everywhere but home"
        search).  Contiguous runs of allowed racks collapse into single
        segment-tree queries, so a dense filter costs O(log n) per run.
        """
        tindex = self._types[rtype]
        if rack_filter is None and exclude_rack is None:
            pos = tindex.tree.leftmost_at_least(units)
            return None if pos is None else tindex.boxes[pos]
        spans = tindex.rack_spans
        tree = tindex.tree
        run_lo: Optional[int] = None
        run_hi = 0
        for rack_index, (lo, hi) in enumerate(spans):
            allowed = rack_index != exclude_rack and (
                rack_filter is None or rack_index in rack_filter
            )
            if allowed:
                if run_lo is None:
                    run_lo = lo
                run_hi = hi
                continue
            if run_lo is not None:
                pos = tree.leftmost_at_least(units, run_lo, run_hi)
                if pos is not None:
                    return tindex.boxes[pos]
                run_lo = None
        if run_lo is not None:
            pos = tree.leftmost_at_least(units, run_lo, run_hi)
            if pos is not None:
                return tindex.boxes[pos]
        return None

    def first_fit_in_rack_runs(
        self,
        rtype: ResourceType,
        units: int,
        runs: Iterable[tuple[int, int]],
        rack_filter: Optional[frozenset[int]] = None,
    ) -> Optional["Box"]:
        """Leftmost fitting box over ordered contiguous rack ranges.

        ``runs`` holds ``(rack_lo, rack_hi)`` ranges scanned in the given
        order — the tier-distance rings of a hierarchical search.  With a
        ``rack_filter`` each run decomposes into its allowed sub-runs
        (preserving rack order), so a filtered ring still costs O(log n)
        per contiguous allowed stretch.
        """
        tindex = self._types[rtype]
        tree = tindex.tree
        for rack_lo, rack_hi in runs:
            if rack_filter is None:
                lo, hi = tindex.rack_range_span(rack_lo, rack_hi)
                pos = tree.leftmost_at_least(units, lo, hi)
                if pos is not None:
                    return tindex.boxes[pos]
                continue
            run_lo: Optional[int] = None
            run_hi = rack_lo
            for rack_index in range(rack_lo, rack_hi):
                if rack_index in rack_filter:
                    if run_lo is None:
                        run_lo = rack_index
                    run_hi = rack_index + 1
                    continue
                if run_lo is not None:
                    lo, hi = tindex.rack_range_span(run_lo, run_hi)
                    pos = tree.leftmost_at_least(units, lo, hi)
                    if pos is not None:
                        return tindex.boxes[pos]
                    run_lo = None
            if run_lo is not None:
                lo, hi = tindex.rack_range_span(run_lo, run_hi)
                pos = tree.leftmost_at_least(units, lo, hi)
                if pos is not None:
                    return tindex.boxes[pos]
        return None

    def first_fit_in_pod(
        self, rtype: ResourceType, units: int, pod_index: int
    ) -> Optional["Box"]:
        """Leftmost fitting box of ``rtype`` within one pod."""
        tindex = self._types[rtype]
        lo, hi = tindex.pod_spans[pod_index]
        pos = tindex.tree.leftmost_at_least(units, lo, hi)
        return None if pos is None else tindex.boxes[pos]

    def best_fit_in_pod(
        self, rtype: ResourceType, units: int, pod_index: int
    ) -> Optional["Box"]:
        """Smallest sufficient availability within one pod (ties -> lowest
        position)."""
        tindex = self._types[rtype]
        lo, hi = tindex.pod_spans[pod_index]
        pos = tindex.tree.best_fit_in_range(units, lo, hi)
        return None if pos is None else tindex.boxes[pos]

    def pod_max_avail(self, rtype: ResourceType, pod_index: int) -> int:
        """Largest single-box availability of ``rtype`` in one pod."""
        tindex = self._types[rtype]
        lo, hi = tindex.pod_spans[pod_index]
        best = tindex.tree.range_max(lo, hi)
        return best if best > 0 else 0

    def best_fit(self, rtype: ResourceType, units: int) -> Optional["Box"]:
        """Smallest sufficient availability anywhere; ties -> lowest box id."""
        tindex = self._types[rtype]
        pos = tindex.best_fit(units)
        return None if pos is None else tindex.boxes[pos]

    def best_fit_in_rack(
        self, rtype: ResourceType, units: int, rack_index: int
    ) -> Optional["Box"]:
        """Smallest sufficient availability within one rack (RISA-BF)."""
        tindex = self._types[rtype]
        lo, hi = tindex.rack_spans[rack_index]
        pos = tindex.tree.best_fit_in_range(units, lo, hi)
        return None if pos is None else tindex.boxes[pos]

    def worst_fit(self, rtype: ResourceType, units: int) -> Optional["Box"]:
        """Emptiest box that still fits; ties -> lowest box id."""
        tindex = self._types[rtype]
        top = tindex.tree.max_all()
        if top < units:
            return None
        pos = tindex.tree.leftmost_at_least(top)
        return None if pos is None else tindex.boxes[pos]

    def rack_max_avail(self, rtype: ResourceType, rack_index: int) -> int:
        """Largest single-box availability of ``rtype`` in one rack."""
        tindex = self._types[rtype]
        lo, hi = tindex.rack_spans[rack_index]
        if lo >= hi:
            return 0
        if hi - lo <= 16:
            # Tiny spans (the paper config has 2 boxes per type per rack):
            # a C-level max over the leaf slice beats a tree descent.
            base = tindex.tree.size
            best = max(tindex.tree.tree[base + lo : base + hi])
        else:
            best = tindex.tree.range_max(lo, hi)
        return best if best > 0 else 0

    def fitting_boxes(self, rtype: ResourceType, units: int) -> list["Box"]:
        """Every box of ``rtype`` that fits, in global order."""
        tindex = self._types[rtype]
        return [tindex.boxes[pos] for pos in tindex.tree.positions_at_least(units)]

    def fitting_boxes_in_rack(
        self, rtype: ResourceType, units: int, rack_index: int
    ) -> list["Box"]:
        """Every fitting box of ``rtype`` in one rack, in box-index order."""
        tindex = self._types[rtype]
        lo, hi = tindex.rack_spans[rack_index]
        # Racks hold a few boxes: one pass over the leaves beats a descent.
        base = tindex.tree.size
        leaves = tindex.tree.tree[base + lo : base + hi]
        return [b for b, avail in zip(tindex.boxes[lo:hi], leaves) if avail >= units]
