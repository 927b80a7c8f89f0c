"""Capacity index: segment-tree queries vs the naive linear-scan oracle.

The index must answer exactly what the naive scans answer — same box ids,
same tie-breaks — under any interleaving of allocate / release / snapshot /
restore.  Deterministic unit tests pin each query; the randomized property
loop (stdlib ``random``, fixed seeds) drives long mixed sequences against
an oracle that recomputes every answer by linear scan.
"""

import random
from types import SimpleNamespace

import pytest

from repro.config import paper_default, tiny_test, toy_example
from repro.topology import PLACEMENT_INDEX_ENV, CapacityIndex, MaxSegmentTree, build_cluster
from repro.types import RESOURCE_ORDER, ResourceType


@pytest.fixture(autouse=True)
def _indexed_mode(monkeypatch):
    """These tests exercise the index itself; pin the mode regardless of the
    ambient ``REPRO_PLACEMENT_INDEX`` (the naive-mode tests set it locally)."""
    monkeypatch.setenv(PLACEMENT_INDEX_ENV, "indexed")


# --------------------------------------------------------------------- #
# MaxSegmentTree primitives
# --------------------------------------------------------------------- #


class TestMaxSegmentTree:
    def test_leftmost_at_least(self):
        tree = MaxSegmentTree([3, 0, 5, 5, 2, 7, 0])
        assert tree.leftmost_at_least(1) == 0
        assert tree.leftmost_at_least(4) == 2
        assert tree.leftmost_at_least(6) == 5
        assert tree.leftmost_at_least(8) is None

    def test_leftmost_at_least_range_restricted(self):
        tree = MaxSegmentTree([3, 0, 5, 5, 2, 7, 0])
        assert tree.leftmost_at_least(4, 3, 7) == 3
        assert tree.leftmost_at_least(4, 4, 5) is None
        assert tree.leftmost_at_least(1, 6, 7) is None
        assert tree.leftmost_at_least(1, 5, 6) == 5

    def test_range_max_and_update(self):
        tree = MaxSegmentTree([3, 0, 5, 5, 2, 7, 0])
        assert tree.max_all() == 7
        assert tree.range_max(0, 2) == 3
        tree.update(5, 1)
        assert tree.max_all() == 5
        assert tree.leftmost_at_least(5) == 2

    def test_best_fit_in_range_prefers_tightest_then_lowest(self):
        tree = MaxSegmentTree([9, 4, 6, 4, 8])
        # Smallest value >= 3 is 4, first reached at position 1.
        assert tree.best_fit_in_range(3, 0, 5) == 1
        assert tree.best_fit_in_range(5, 0, 5) == 2
        assert tree.best_fit_in_range(9, 0, 5) == 0
        assert tree.best_fit_in_range(10, 0, 5) is None
        assert tree.best_fit_in_range(3, 2, 4) == 3

    def test_positions_at_least_ascending(self):
        tree = MaxSegmentTree([3, 0, 5, 5, 2, 7, 0])
        assert tree.positions_at_least(3) == [0, 2, 3, 5]
        assert tree.positions_at_least(3, 1, 4) == [2, 3]
        assert tree.positions_at_least(100) == []

    def test_single_and_empty(self):
        assert MaxSegmentTree([4]).leftmost_at_least(4) == 0
        assert MaxSegmentTree([]).leftmost_at_least(0) is None


# --------------------------------------------------------------------- #
# Naive oracles (the pre-index linear scans, verbatim semantics)
# --------------------------------------------------------------------- #


def oracle_first_fit(cluster, rtype, units, racks=None, exclude=None):
    for box in cluster.boxes(rtype):
        if racks is not None and box.rack_index not in racks:
            continue
        if exclude is not None and box.rack_index == exclude:
            continue
        if box.can_fit(units):
            return box
    return None


def oracle_best_fit(cluster, rtype, units, rack_index=None):
    boxes = (
        cluster.boxes(rtype)
        if rack_index is None
        else cluster.rack(rack_index).boxes(rtype)
    )
    best = None
    for box in boxes:
        if box.can_fit(units) and (best is None or box.avail_units < best.avail_units):
            best = box
    return best


def oracle_worst_fit(cluster, rtype, units):
    best = None
    for box in cluster.boxes(rtype):
        if box.can_fit(units) and (best is None or box.avail_units > best.avail_units):
            best = box
    return best


def oracle_rack_max(cluster, rtype, rack_index):
    boxes = cluster.rack(rack_index).boxes(rtype)
    return max((b.avail_units for b in boxes), default=0)


def box_id(box):
    return None if box is None else box.box_id


# --------------------------------------------------------------------- #
# Deterministic index behavior
# --------------------------------------------------------------------- #


class TestCapacityIndexQueries:
    @pytest.fixture
    def cluster(self):
        return build_cluster(paper_default())

    def test_index_present_by_default(self, cluster):
        assert cluster.capacity_index is not None

    def test_first_fit_matches_global_order(self, cluster):
        index = cluster.capacity_index
        boxes = cluster.boxes(ResourceType.CPU)
        boxes[0].allocate(128)  # fill the first box
        assert index.first_fit(ResourceType.CPU, 1) is boxes[1]
        assert index.first_fit(ResourceType.CPU, 129) is None

    def test_first_fit_in_racks_runs_and_exclusion(self, cluster):
        index = cluster.capacity_index
        got = index.first_fit_in_racks(
            ResourceType.RAM, 4, frozenset({3, 4, 10}), exclude_rack=3
        )
        assert box_id(got) == box_id(
            oracle_first_fit(cluster, ResourceType.RAM, 4, racks={3, 4, 10}, exclude=3)
        )

    def test_best_fit_ties_break_to_lowest_id(self, cluster):
        index = cluster.capacity_index
        boxes = cluster.boxes(ResourceType.STORAGE)
        boxes[2].allocate(120)  # avail 8
        boxes[5].allocate(120)  # avail 8 — tie; lower box id must win
        got = index.best_fit(ResourceType.STORAGE, 5)
        assert got is boxes[2]
        assert box_id(got) == box_id(oracle_best_fit(cluster, ResourceType.STORAGE, 5))

    def test_rack_max_tracks_mutations(self, cluster):
        index = cluster.capacity_index
        rack = cluster.rack(7)
        box = rack.boxes(ResourceType.CPU)[0]
        receipt = box.allocate(100)
        assert index.rack_max_avail(ResourceType.CPU, 7) == 128
        rack.boxes(ResourceType.CPU)[1].allocate(30)
        assert index.rack_max_avail(ResourceType.CPU, 7) == 98
        box.release(receipt)
        assert index.rack_max_avail(ResourceType.CPU, 7) == 128

    def test_fitting_boxes_order(self, cluster):
        index = cluster.capacity_index
        boxes = cluster.boxes(ResourceType.RAM)
        boxes[0].allocate(128)
        boxes[3].allocate(125)
        got = [b.box_id for b in index.fitting_boxes(ResourceType.RAM, 4)]
        want = [b.box_id for b in boxes if b.can_fit(4)]
        assert got == want

    def test_naive_mode_disables_index(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLACEMENT_INDEX", "naive")
        cluster = build_cluster(tiny_test())
        assert cluster.capacity_index is None
        # Rack maxima fall back to the incremental caches.
        box = cluster.rack(0).boxes(ResourceType.CPU)[0]
        box.allocate(5)
        assert cluster.rack(0).max_avail(ResourceType.CPU) == 3

    def test_bad_mode_rejected(self, monkeypatch):
        from repro.errors import SimulationError
        from repro.topology import placement_index_mode

        monkeypatch.setenv("REPRO_PLACEMENT_INDEX", "sometimes")
        with pytest.raises(SimulationError):
            placement_index_mode()

    def test_restore_rebuilds_index(self, cluster):
        index = cluster.capacity_index
        snap = cluster.snapshot()
        boxes = cluster.boxes(ResourceType.CPU)
        receipts = [b.allocate(64) for b in boxes[:6]]
        assert index.first_fit(ResourceType.CPU, 100) is boxes[6]
        cluster.restore(snap)
        assert index.first_fit(ResourceType.CPU, 100) is boxes[0]
        del receipts

    def test_rebuild_caches_is_idempotent(self, cluster):
        boxes = cluster.boxes(ResourceType.CPU)
        boxes[0].allocate(10)
        before = box_id(cluster.capacity_index.first_fit(ResourceType.CPU, 120))
        cluster.rebuild_caches()
        assert box_id(cluster.capacity_index.first_fit(ResourceType.CPU, 120)) == before
        assert cluster.total_avail(ResourceType.CPU) == sum(
            b.avail_units for b in boxes
        )


class _SpanCluster:
    """The slice of the ``Cluster`` interface :class:`CapacityIndex` reads,
    over racks of arbitrary size (empty ones and long ones included) with
    random availabilities."""

    def __init__(self, rack_sizes, capacity, rng):
        self.num_racks = len(rack_sizes)
        racks = [rack for rack, size in enumerate(rack_sizes) for _ in range(size)]
        self._boxes = [
            SimpleNamespace(
                box_id=pos,
                rack_index=rack,
                capacity_units=capacity,
                avail_units=rng.randint(0, capacity),
            )
            for pos, rack in enumerate(racks)
        ]

    def pod_rack_ranges(self):
        return ()

    def boxes(self, rtype):
        return self._boxes


@pytest.mark.parametrize("seed", range(3))
def test_fitting_boxes_in_rack_fold_matches_tree(seed):
    """The fold over a rack's leaf slice lists exactly the tree's
    ``positions_at_least`` boxes, for racks of any length."""
    rng = random.Random(seed)
    sizes = [0, 1, 2, 6, 32, 33, 0, 64, 3]
    capacity = 16
    index = CapacityIndex(_SpanCluster(sizes, capacity, rng))
    tindex = index._types[ResourceType.CPU]
    for rack_index in range(len(sizes)):
        lo, hi = tindex.rack_spans[rack_index]
        assert hi - lo == sizes[rack_index]
        for units in range(capacity + 2):
            want = [
                tindex.boxes[p] for p in tindex.tree.positions_at_least(units, lo, hi)
            ]
            assert index.fitting_boxes_in_rack(ResourceType.CPU, units, rack_index) == want


# --------------------------------------------------------------------- #
# Randomized property: index vs oracle over mixed op sequences
# --------------------------------------------------------------------- #


def check_all_queries(cluster, rng):
    """Assert index answers == oracle answers for a batch of random queries."""
    index = cluster.capacity_index
    num_racks = cluster.num_racks
    for rtype in RESOURCE_ORDER:
        cap = max((b.capacity_units for b in cluster.boxes(rtype)), default=0)
        for _ in range(4):
            units = rng.randint(1, cap + 1)
            assert box_id(index.first_fit(rtype, units)) == box_id(
                oracle_first_fit(cluster, rtype, units)
            )
            assert box_id(index.best_fit(rtype, units)) == box_id(
                oracle_best_fit(cluster, rtype, units)
            )
            assert box_id(index.worst_fit(rtype, units)) == box_id(
                oracle_worst_fit(cluster, rtype, units)
            )
            rack = rng.randrange(num_racks)
            assert index.rack_max_avail(rtype, rack) == oracle_rack_max(
                cluster, rtype, rack
            )
            assert box_id(index.first_fit_in_rack(rtype, units, rack)) == box_id(
                oracle_first_fit(cluster, rtype, units, racks={rack})
            )
            assert box_id(index.best_fit_in_rack(rtype, units, rack)) == box_id(
                oracle_best_fit(cluster, rtype, units, rack_index=rack)
            )
            racks = frozenset(
                r for r in range(num_racks) if rng.random() < 0.5
            )
            exclude = rng.randrange(num_racks) if rng.random() < 0.3 else None
            assert box_id(
                index.first_fit_in_racks(rtype, units, racks, exclude_rack=exclude)
            ) == box_id(
                oracle_first_fit(cluster, rtype, units, racks=racks, exclude=exclude)
            )


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("spec_factory", [tiny_test, toy_example, paper_default])
def test_random_ops_match_oracle(spec_factory, seed):
    """Property: after any allocate/release/snapshot/restore interleaving,
    every index query returns the same box id as the naive linear scan."""
    rng = random.Random(seed)
    cluster = build_cluster(spec_factory())
    live = []  # (box, receipt)
    snapshots = []
    steps = 120 if spec_factory is paper_default else 200
    for step in range(steps):
        op = rng.random()
        if op < 0.45:  # allocate somewhere it fits
            rtype = rng.choice(RESOURCE_ORDER)
            boxes = [b for b in cluster.boxes(rtype) if b.avail_units > 0]
            if boxes:
                box = rng.choice(boxes)
                units = rng.randint(1, box.avail_units)
                live.append((box, box.allocate(units)))
        elif op < 0.75:  # release a random outstanding receipt
            if live:
                box, receipt = live.pop(rng.randrange(len(live)))
                box.release(receipt)
        elif op < 0.9:  # snapshot
            snapshots.append((cluster.snapshot(), list(live)))
        else:  # restore a random earlier snapshot
            if snapshots:
                snap, live_at_snap = snapshots[rng.randrange(len(snapshots))]
                cluster.restore(snap)
                live = list(live_at_snap)
        if step % 10 == 0 or step == steps - 1:
            check_all_queries(cluster, rng)
    # Full teardown: releasing everything restores a pristine frontier.
    cluster.restore(cluster.snapshot())
    check_all_queries(cluster, rng)
