"""Tests for RISA (Algorithm 1): pool, round-robin, fallback."""

import random

import numpy as np
import pytest

from repro.config import paper_default
from repro.network import NetworkFabric
from repro.schedulers import RISAScheduler
from repro.sim import DDCSimulator, EventLog
from repro.state import state_backend
from repro.topology import build_cluster
from repro.topology.capacity_index import placement_mode
from repro.types import ResourceType
from repro.workloads import SyntheticWorkloadParams, generate_synthetic, resolve
from tests.conftest import make_vm


@pytest.fixture
def env():
    spec = paper_default()
    cluster = build_cluster(spec)
    fabric = NetworkFabric(spec, cluster)
    scheduler = RISAScheduler(spec, cluster, fabric)
    return spec, cluster, fabric, scheduler


def request(spec, vm_id=0, **kwargs):
    return resolve(make_vm(vm_id=vm_id, **kwargs), spec)


class TestIntraRackPool:
    def test_always_intra_rack_when_pool_nonempty(self, env):
        spec, cluster, fabric, scheduler = env
        for i in range(100):
            placement = scheduler.schedule(request(spec, vm_id=i))
            assert placement is not None
            assert placement.intra_rack

    def test_pool_excludes_racks_that_cannot_host(self, env):
        spec, cluster, fabric, scheduler = env
        # Exhaust rack 0's CPU completely.
        for box in cluster.rack(0).boxes(ResourceType.CPU):
            box.allocate(box.avail_units)
        for i in range(40):
            placement = scheduler.schedule(request(spec, vm_id=i))
            assert placement is not None
            assert 0 not in placement.racks


class TestRoundRobin:
    def test_rotates_across_racks(self, env):
        spec, cluster, fabric, scheduler = env
        racks = [
            scheduler.schedule(request(spec, vm_id=i)).cpu_rack for i in range(18)
        ]
        # Round-robin over the 18-rack pool touches every rack once.
        assert sorted(racks) == list(range(18))

    def test_cursor_resumes_after_chosen_rack(self, env):
        spec, cluster, fabric, scheduler = env
        first = scheduler.schedule(request(spec, vm_id=0)).cpu_rack
        second = scheduler.schedule(request(spec, vm_id=1)).cpu_rack
        assert second == (first + 1) % 18

    def test_load_balanced_utilization(self, env):
        """Round-robin keeps per-rack utilization nearly uniform — the
        paper's stated motivation for the policy."""
        spec, cluster, fabric, scheduler = env
        for i in range(180):
            assert scheduler.schedule(request(spec, vm_id=i)) is not None
        used = [
            sum(b.used_units for b in rack.boxes(ResourceType.CPU))
            for rack in cluster.racks
        ]
        assert max(used) - min(used) <= 2  # 2 units = one VM's CPU slice


class TestBoxChoice:
    def test_first_fit_fills_first_box(self, env):
        spec, cluster, fabric, scheduler = env
        placement = scheduler.schedule(request(spec, vm_id=0))
        box = cluster.box(placement.cpu.box_id)
        assert box.index_in_rack == 0


class TestSuperRackFallback:
    def test_falls_back_to_inter_rack(self, env):
        spec, cluster, fabric, scheduler = env
        # Leave CPU only in rack 3 and RAM only in rack 7: no rack can host
        # the whole VM, but SUPER_RACK allows a split.
        for box in cluster.boxes(ResourceType.CPU):
            if box.rack_index != 3:
                box.allocate(box.avail_units)
        for box in cluster.boxes(ResourceType.RAM):
            if box.rack_index != 7:
                box.allocate(box.avail_units)
        placement = scheduler.schedule(request(spec))
        assert placement is not None
        assert not placement.intra_rack
        assert cluster.box(placement.cpu.box_id).rack_index == 3
        assert cluster.box(placement.ram.box_id).rack_index == 7

    def test_drops_when_super_rack_empty_for_a_type(self, env):
        spec, cluster, fabric, scheduler = env
        for box in cluster.boxes(ResourceType.RAM):
            box.allocate(box.avail_units)
        assert scheduler.schedule(request(spec)) is None

    def test_fallback_when_pool_network_blocked(self, env):
        """Pool rack exists but its intra-rack network is saturated: RISA
        must try other pool racks (round-robin) before NULB fallback."""
        spec, cluster, fabric, scheduler = env
        # Saturate every uplink of rack 0's boxes.
        for rack_box in cluster.rack(0).all_boxes():
            for link in fabric.box_bundle(rack_box.box_id).links:
                link.reserve(link.avail_gbps)
        scheduler._cursor = 0
        placement = scheduler.schedule(request(spec))
        assert placement is not None
        assert placement.intra_rack
        assert 0 not in placement.racks


class TestLazyPoolWalk:
    """``pool_racks_from`` walks the per-rack maxima lazily from the cursor;
    it must list exactly what an eager three-way mask rotated to the cursor
    lists, and a pool rack that fails to commit must leave the maxima as
    they were (which is what makes testing each rack on arrival exact)."""

    @staticmethod
    def eager_pool(rack_max, cpu, ram, storage, cursor):
        rm = [np.array(column) for column in rack_max]
        cand = np.flatnonzero((rm[0] >= cpu) & (rm[1] >= ram) & (rm[2] >= storage))
        return np.concatenate((cand[cand >= cursor], cand[cand < cursor])).tolist()

    @pytest.mark.parametrize("seed", range(3))
    def test_walk_equals_rotated_mask(self, seed):
        with state_backend("arrays"):
            cluster = build_cluster(paper_default())
        state = cluster.state_arrays
        n = cluster.num_racks
        rng = random.Random(seed)
        for _ in range(40):
            for column in state.rack_max:
                column[:] = [rng.randrange(0, 33) for _ in range(n)]
            cpu, ram = rng.randrange(1, 33), rng.randrange(1, 33)
            for storage in (0, rng.randrange(1, 33)):
                for cursor in (0, n // 2, n - 1):
                    expected = self.eager_pool(state.rack_max, cpu, ram, storage, cursor)
                    got = list(state.pool_racks_from(cpu, ram, storage, cursor))
                    assert got == expected
        # Empty pool: no rack's maxima reach the request.
        assert list(state.pool_racks_from(33, 1, 0, n // 2)) == []
        # Everything qualifies: the pure rotation.
        for column in state.rack_max:
            column[:] = [32] * n
        assert list(state.pool_racks_from(1, 1, 0, 5)) == [*range(5, n), *range(5)]

    def test_failed_pool_rack_rolls_back_then_next_rack_commits(self):
        spec = paper_default()
        with state_backend("arrays"), placement_mode("indexed"):
            cluster = build_cluster(spec)
            fabric = NetworkFabric(spec, cluster)
        scheduler = RISAScheduler(spec, cluster, fabric)
        # Rack 0 keeps its compute headroom but loses its intra-rack links.
        for box in cluster.rack(0).all_boxes():
            fabric.degrade_bundle(0, box.box_id, 1e-4)
        before = [list(column) for column in cluster.state_arrays.rack_max]
        tried = []
        try_rack = scheduler._try_rack

        def spy(rack, req):
            placement = try_rack(rack, req)
            maxima = [list(column) for column in cluster.state_arrays.rack_max]
            tried.append((rack.index, placement is None, maxima))
            return placement

        scheduler._try_rack = spy
        scheduler._cursor = 0
        placement = scheduler.schedule(request(spec))
        assert placement is not None and placement.intra_rack
        assert placement.cpu_rack == 1
        assert [(index, failed) for index, failed, _ in tried] == [(0, True), (1, False)]
        assert tried[0][2] == before  # the failed commit rolled back exactly

    def test_rollbacks_match_reference_digest(self):
        vms = generate_synthetic(SyntheticWorkloadParams(count=150), seed=3)
        digests = []
        failed_tries = []
        for backend, mode in (("arrays", "indexed"), ("objects", "naive")):
            log = EventLog()
            with state_backend(backend), placement_mode(mode):
                sim = DDCSimulator(paper_default(), "risa", event_log=log)
            for rack in (0, 7):
                for box in sim.cluster.rack(rack).all_boxes():
                    sim.fabric.degrade_bundle(0, box.box_id, 1e-4)
            scheduler = sim.scheduler
            try_rack = scheduler._try_rack
            fails = []

            def spy(rack, req, try_rack=try_rack, fails=fails):
                placement = try_rack(rack, req)
                fails.append(placement is None)
                return placement

            scheduler._try_rack = spy
            result = sim.run(vms)
            assert result.summary.as_dict()["scheduled_vms"] > 0
            digests.append(log.digest())
            failed_tries.append(sum(fails))
        assert failed_tries[0] > 0  # the rollback path was exercised
        assert digests[0] == digests[1]
