"""Bundle free-link indexes: indexed select must mirror the naive scans.

The per-bundle max segment tree answers FIRST_FIT by leftmost descent and
MOST_AVAILABLE by a pruned fold of the naive epsilon tie-breaking scan;
random reserve/free churn over paired bundles (one indexed, one naive) pins
both policies to identical link choices, on both sides of the bound below
which MOST_AVAILABLE folds over the tree leaves instead of descending.  Also
covers the fabric-level release guard: tier under-accounting raises instead of
silently clamping.
"""

import random

import pytest

from repro.config import tiny_test
from repro.errors import NetworkAllocationError
from repro.network import Link, LinkBundle, LinkSelectionPolicy, NetworkFabric
from repro.network.fabric import LINK_DOWN_CAPACITY_GBPS
from repro.network.link import BANDWIDTH_EPS
from repro.topology import PLACEMENT_INDEX_ENV, build_cluster
from repro.topology.capacity_index import LEAF_SCAN_MAX
from repro.types import LinkTier


@pytest.fixture(autouse=True)
def _indexed_mode(monkeypatch):
    """Pin indexed mode; the paired-bundle helpers flip to naive locally."""
    monkeypatch.setenv(PLACEMENT_INDEX_ENV, "indexed")


def make_pair(n=6, capacity=100.0, monkeypatch=None):
    """Two bundles over structurally identical links: indexed and naive."""
    indexed_links = [
        Link(i, LinkTier.INTRA_RACK, capacity, "box:0", "rack:0") for i in range(n)
    ]
    indexed = LinkBundle("indexed", indexed_links)
    monkeypatch.setenv(PLACEMENT_INDEX_ENV, "naive")
    naive_links = [
        Link(i, LinkTier.INTRA_RACK, capacity, "box:0", "rack:0") for i in range(n)
    ]
    naive = LinkBundle("naive", naive_links)
    monkeypatch.setenv(PLACEMENT_INDEX_ENV, "indexed")
    assert indexed._tree is not None and naive._tree is None
    return indexed, naive


@pytest.mark.parametrize("policy", list(LinkSelectionPolicy))
@pytest.mark.parametrize("seed", range(5))
def test_select_equivalence_under_churn(policy, seed, monkeypatch):
    """Property: random reserve/free sequences keep both implementations
    choosing the same link for the same demand."""
    rng = random.Random(seed)
    indexed, naive = make_pair(monkeypatch=monkeypatch)
    reserved = []  # (link_pos, gbps) applied to both bundles
    for _ in range(300):
        op = rng.random()
        if op < 0.5 and len(reserved) < 40:
            pos = rng.randrange(len(indexed.links))
            demand = rng.choice([0.0, 1.0, 2.5, 5.0, 10.0, 40.0])
            if indexed.links[pos].can_fit(demand):
                indexed.links[pos].reserve(demand)
                naive.links[pos].reserve(demand)
                reserved.append((pos, demand))
        elif op < 0.8 and reserved:
            pos, demand = reserved.pop(rng.randrange(len(reserved)))
            indexed.links[pos].free(demand)
            naive.links[pos].free(demand)
        demand = rng.choice([0.0, 1.0, 5.0, 25.0, 60.0, 99.0, 101.0])
        got = indexed.select(demand, policy)
        want = naive.select(demand, policy)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.link_id == want.link_id
        assert indexed.can_fit(demand) == naive.can_fit(demand)
        assert indexed.used_gbps == pytest.approx(naive.used_gbps)
        assert indexed.max_link_avail_gbps() == pytest.approx(
            naive.max_link_avail_gbps()
        )


#: Bundle sizes around the leaf-fold bound: paper box (8) and rack (28)
#: bundles take the fold, the last two the tree descent.
FOLD_SIZES = (1, 2, 8, 28, LEAF_SCAN_MAX, LEAF_SCAN_MAX + 1, 64)


@pytest.mark.parametrize("n", FOLD_SIZES)
@pytest.mark.parametrize("seed", range(3))
def test_most_available_matches_naive_scan(n, seed, monkeypatch):
    """MOST_AVAILABLE on random link states — availabilities within
    ``BANDWIDTH_EPS`` of each other, downed links at epsilon capacity (some
    still holding reservations), demands exactly at the epsilon edge —
    picks the naive scan's link on either side of the fold bound."""
    rng = random.Random(seed)
    indexed, naive = make_pair(n=n, monkeypatch=monkeypatch)
    used_choices = (0.0, 40.0, 40.0 - BANDWIDTH_EPS / 2, 40.0 + BANDWIDTH_EPS / 2, 75.0, 100.0)
    capacities = []
    for pos in range(n):
        used = rng.choice(used_choices)
        indexed.links[pos].reserve(used)
        naive.links[pos].reserve(used)
        capacities.append(LINK_DOWN_CAPACITY_GBPS if rng.random() < 0.2 else 100.0)
    indexed.set_link_capacities(capacities)
    naive.set_link_capacities(capacities)
    avails = [link.avail_gbps for link in naive.links if link.avail_gbps >= 0]
    demands = [0.0, LINK_DOWN_CAPACITY_GBPS, 25.0, 60.0 + BANDWIDTH_EPS, 100.0]
    demands += [a + BANDWIDTH_EPS for a in avails] + [a + 2 * BANDWIDTH_EPS for a in avails]
    for demand in demands:
        got = indexed.select(demand, LinkSelectionPolicy.MOST_AVAILABLE)
        want = naive.select(demand, LinkSelectionPolicy.MOST_AVAILABLE)
        assert (None if got is None else got.link_id) == (
            None if want is None else want.link_id
        ), demand


@pytest.mark.parametrize("n", [s for s in FOLD_SIZES if s > 1])
def test_most_available_epsilon_tie_goes_to_first_link(n, monkeypatch):
    """Two links whose availabilities differ by less than ``BANDWIDTH_EPS``:
    the earlier one wins, as in the naive left-to-right scan."""
    indexed, naive = make_pair(n=n, monkeypatch=monkeypatch)
    for bundle in (indexed, naive):
        for link in bundle.links:
            link.reserve(50.0)
        bundle.links[0].free(10.0)  # avail 60
        bundle.links[-1].free(10.0 + BANDWIDTH_EPS / 2)  # avail 60 + eps/2
    for bundle in (indexed, naive):
        assert bundle.select(30.0, LinkSelectionPolicy.MOST_AVAILABLE) is bundle.links[0]


def test_select_does_not_scan_stale_state(monkeypatch):
    """Direct link mutation (no bundle call in between) is still observed."""
    indexed, _ = make_pair(n=3, monkeypatch=monkeypatch)
    indexed.links[0].reserve(95.0)
    assert indexed.select(10.0, LinkSelectionPolicy.FIRST_FIT) is indexed.links[1]
    indexed.links[0].free(95.0)
    assert indexed.select(10.0, LinkSelectionPolicy.FIRST_FIT) is indexed.links[0]


class TestFabricReleaseGuard:
    def test_double_release_raises(self):
        spec = tiny_test()
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        boxes = cluster.all_boxes()
        circuit = fabric.allocate_flow(boxes[0].box_id, boxes[1].box_id, 10.0)
        assert circuit is not None
        fabric.release(circuit)
        # The tier counter is now empty; releasing the same circuit again is
        # under-accounting and must raise, not clamp to zero.
        with pytest.raises(NetworkAllocationError):
            fabric.release(circuit)

    def test_tier_underflow_raises_even_when_links_hold_bandwidth(self):
        """The tier-level guard fires on its own: a circuit whose bandwidth
        was reserved outside the fabric's accounting releases fine at the
        link level but underflows the tier counter."""
        from repro.network import Circuit

        spec = tiny_test()
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        bundle = fabric.box_bundle(cluster.all_boxes()[0].box_id)
        link = bundle.links[0]
        link.reserve(30.0)  # direct reservation: tier counter never saw it
        rogue = Circuit(
            links=(link,), demand_gbps=30.0, switch_ports=(64,), intra_rack=True
        )
        with pytest.raises(NetworkAllocationError):
            fabric.release(rogue)

    def test_sub_epsilon_residue_clamps_to_zero(self):
        spec = tiny_test()
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        boxes = cluster.all_boxes()
        a, b = boxes[0].box_id, boxes[1].box_id
        for _ in range(50):
            circuit = fabric.allocate_flow(a, b, 0.1)
            fabric.release(circuit)
        assert fabric.tier_used_gbps(LinkTier.INTRA_RACK) == 0.0

    def test_fabric_snapshot_restore_round_trip(self):
        spec = tiny_test()
        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        boxes = cluster.all_boxes()
        snap = fabric.snapshot()
        circuit = fabric.allocate_flow(boxes[0].box_id, boxes[1].box_id, 25.0)
        assert circuit is not None
        assert fabric.snapshot() != snap
        fabric.restore(snap)
        assert fabric.snapshot() == snap
        assert fabric.tier_used_gbps(LinkTier.INTRA_RACK) == 0.0
        # Bundle aggregates and free-link indexes followed the restore.
        bundle = fabric.box_bundle(boxes[0].box_id)
        assert bundle.used_gbps == 0.0
        assert bundle.max_link_avail_gbps() == pytest.approx(
            spec.network.link_bandwidth_gbps
        )
