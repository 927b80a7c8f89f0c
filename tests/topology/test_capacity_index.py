"""Capacity index: segment-tree queries vs the naive linear-scan oracle.

The index must answer exactly what the naive scans answer — same box ids,
same tie-breaks — under any interleaving of allocate / release / batched
release / drain / snapshot / restore.  Deterministic unit tests pin each
query; the randomized property loops (stdlib ``random``, fixed seeds) drive
long mixed sequences against an oracle that recomputes every answer by
linear scan.
"""

import random
from operator import gt, lt

import pytest

from repro.config import paper_default, tiny_test, toy_example
from repro.state import state_backend
from repro.topology import (
    PLACEMENT_INDEX_ENV,
    Box,
    Brick,
    Cluster,
    MaxSegmentTree,
    Rack,
    build_cluster,
)
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


# --------------------------------------------------------------------- #
# Brute-force oracle over every public query, racks of 0/1/2/6 boxes
# --------------------------------------------------------------------- #

#: Boxes of each type per rack (CPU, RAM, STORAGE); two pods of three racks.
UNEVEN_RACKS = [(0, 2, 1), (1, 0, 2), (2, 6, 0), (6, 1, 6), (2, 2, 0), (1, 2, 2)]
UNEVEN_POD_OF_RACK = [0, 0, 0, 1, 1, 1]
UNEVEN_BRICKS = (4, 4)


def build_uneven_cluster():
    """Hand-built cluster whose racks hold 0, 1, 2 and 6 boxes of a type."""
    racks = [Rack(index=r, pod_index=pod) for r, pod in enumerate(UNEVEN_POD_OF_RACK)]
    box_id = 0
    for rack, counts in zip(racks, UNEVEN_RACKS):
        for rtype, count in zip(RESOURCE_ORDER, counts):
            for idx in range(count):
                bricks = [
                    Brick(index=i, rtype=rtype, capacity_units=cap)
                    for i, cap in enumerate(UNEVEN_BRICKS)
                ]
                rack.attach_box(Box(box_id, rtype, rack.index, idx, bricks))
                box_id += 1
    cluster = Cluster(racks)
    for box in cluster.all_boxes():
        box.bind_listener(cluster.on_box_change)
    return cluster


def scan(cluster, rtype, units, racks):
    """Boxes of ``rtype`` on ``racks`` (any container) that fit, in order."""
    return [
        b for b in cluster.boxes(rtype) if b.rack_index in racks and b.can_fit(units)
    ]


def tightest(boxes, pick):
    """The naive best/worst-fit fold: strict comparison, first wins ties."""
    best = None
    for box in boxes:
        if best is None or pick(box.avail_units, best.avail_units):
            best = box
    return best


def assert_index_equals_scan(cluster, rng):
    index = cluster.capacity_index
    num_racks = cluster.num_racks
    all_racks = range(num_racks)
    for rtype in RESOURCE_ORDER:
        for rack in all_racks:
            boxes = cluster.rack(rack).boxes(rtype)
            top = max((b.avail_units for b in boxes), default=0)
            assert index.rack_max_avail(rtype, rack) == top
            assert cluster.rack(rack).total_avail(rtype) == sum(
                b.avail_units for b in boxes
            )
        assert cluster.verify_totals(rtype)
        for units in sorted({0, 1, rng.randint(1, 8), 8, 9}):
            fits = scan(cluster, rtype, units, all_racks)
            assert index.first_fit(rtype, units) is (fits[0] if fits else None)
            assert index.fitting_boxes(rtype, units) == fits
            assert index.best_fit(rtype, units) is tightest(fits, lt)
            assert index.worst_fit(rtype, units) is tightest(fits, gt)
            for rack in all_racks:
                in_rack = scan(cluster, rtype, units, {rack})
                assert index.first_fit_in_rack(rtype, units, rack) is (
                    in_rack[0] if in_rack else None
                )
                assert index.best_fit_in_rack(rtype, units, rack) is tightest(in_rack, lt)
                assert index.fitting_boxes_in_rack(rtype, units, rack) == in_rack
            for pod in range(cluster.num_pods):
                lo, hi = cluster.pod_rack_range(pod)
                in_pod = scan(cluster, rtype, units, range(lo, hi))
                assert index.first_fit_in_pod(rtype, units, pod) is (
                    in_pod[0] if in_pod else None
                )
                assert index.best_fit_in_pod(rtype, units, pod) is tightest(in_pod, lt)
                pod_boxes = [b for b in cluster.boxes(rtype) if lo <= b.rack_index < hi]
                assert index.pod_max_avail(rtype, pod) == max(
                    (b.avail_units for b in pod_boxes), default=0
                )
            allowed = frozenset(r for r in all_racks if rng.random() < 0.5)
            exclude = rng.choice([None, *all_racks])
            want = scan(cluster, rtype, units, allowed - {exclude})
            got = index.first_fit_in_racks(rtype, units, allowed, exclude_rack=exclude)
            assert got is (want[0] if want else None)
            got = index.first_fit_in_racks(rtype, units, exclude_rack=exclude)
            want = scan(cluster, rtype, units, set(all_racks) - {exclude})
            assert got is (want[0] if want else None)
            runs = [(3, 6), (0, 2), (2, 3)]
            for rack_filter in (None, allowed):
                want = [
                    b
                    for lo, hi in runs
                    for b in scan(cluster, rtype, units, range(lo, hi))
                    if rack_filter is None or b.rack_index in rack_filter
                ]
                got = index.first_fit_in_rack_runs(rtype, units, runs, rack_filter)
                assert got is (want[0] if want else None)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("backend", ["arrays", "objects"])
def test_index_matches_scan_under_random_walk(backend, seed):
    """Property: after every allocate / release / batched release / drain /
    snapshot / restore / cache rebuild, each public ``CapacityIndex`` query
    equals a linear scan over the live boxes — on both state backends, over
    racks holding 0, 1, 2 and 6 boxes of a type.  A stale rack leaf (an
    upkeep path that skips a tree update when a rack's max moves) shows up
    at once in the per-rack ``rack_max_avail`` check."""
    rng = random.Random(seed)
    with state_backend(backend):
        cluster = build_uneven_cluster()
    assert cluster.capacity_index is not None
    assert (cluster.state_arrays is not None) == (backend == "arrays")
    live = []  # (box, receipt)
    snapshots = []
    for _ in range(150):
        op = rng.random()
        if op < 0.45:
            boxes = [b for b in cluster.all_boxes() if b.avail_units > 0]
            if boxes:
                box = rng.choice(boxes)
                live.append((box, box.allocate(rng.randint(1, box.avail_units))))
        elif op < 0.65:
            if live:
                box, receipt = live.pop(rng.randrange(len(live)))
                box.release(receipt)
        elif op < 0.78:
            batch = [live.pop(rng.randrange(len(live))) for _ in range(min(len(live), 5))]
            receipts = [receipt for _, receipt in batch]
            if cluster.state_arrays is not None and not cluster.drained_racks:
                cluster.apply_release_batch(receipts)
            else:
                for box, receipt in batch:
                    box.release(receipt)
        elif op < 0.83:
            cluster.drain_racks([rng.randrange(cluster.num_racks)])
        elif op < 0.91:
            snapshots.append((cluster.snapshot(), list(live)))
        elif op < 0.97:
            if snapshots:
                snap, live_at_snap = snapshots[rng.randrange(len(snapshots))]
                cluster.restore(snap)
                live = list(live_at_snap)
        else:
            cluster.rebuild_caches()
        assert_index_equals_scan(cluster, rng)
