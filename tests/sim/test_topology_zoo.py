"""Determinism pins for the topology-zoo presets (VL2, fat tree).

The zoo presets are ordinary :class:`~repro.config.FabricTopology` chains,
so everything downstream — capacity index, schedulers, checkpoints,
metrics — must work unchanged.  These tests pin that: for every paper
scheduler over seeds 0-9, a VL2 and a fat-tree run is (a) deterministic
across repeated runs and (b) bit-identical between the indexed and naive
placement backends (digest, summary, end time).
"""

import pytest

from repro.config import FabricTopology, PRESETS, fat_tree, vl2
from repro.errors import ConfigurationError
from repro.schedulers import PAPER_SCHEDULERS
from repro.sim import DDCSimulator, EventLog
from repro.topology import build_cluster, placement_mode
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

ZOO_PRESETS = ("vl2", "fat-tree")


def run_sim(spec, scheduler, vms, mode="indexed"):
    with placement_mode(mode):
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
    result = sim.run(vms)
    summary = result.summary.as_dict()
    summary.pop("scheduler_time_s")
    return log.digest(), summary, result.end_time


class TestZooConstruction:
    def test_vl2_shape(self):
        spec = vl2(D_A=8, D_I=8)
        assert spec.ddc.num_racks == 16  # D_A * D_I / 4
        topo = spec.network.fabric_topology()
        assert [t.name for t in topo.tiers] == [
            "intra_rack", "aggregation", "intermediate",
        ]
        # D_I aggregation switches, D_A/4 racks each; single folded root.
        assert topo.node_counts(16) == (16, 8, 1)

    def test_vl2_heterogeneous_bandwidth(self):
        spec = vl2(server_link_gbps=100.0, switch_link_gbps=400.0)
        topo = spec.network.fabric_topology()
        assert topo.tier_link_bandwidth_gbps(0) == 100.0
        assert topo.tier_link_bandwidth_gbps(1) == 400.0
        assert topo.tier_link_bandwidth_gbps(2) == 400.0

    def test_vl2_port_counts_validated(self):
        with pytest.raises(ConfigurationError):
            FabricTopology.vl2(D_A=6, D_I=8)  # not a power of two
        with pytest.raises(ConfigurationError):
            FabricTopology.vl2(D_A=2, D_I=8)  # too small to form the Clos

    def test_fat_tree_shape(self):
        spec = fat_tree(depth=3, fanout=4)
        assert spec.ddc.num_racks == 16  # fanout ** (depth - 1)
        topo = spec.network.fabric_topology()
        assert [t.name for t in topo.tiers] == ["intra_rack", "agg1", "core"]
        assert topo.node_counts(16) == (16, 4, 1)

    def test_fat_tree_layer_bandwidth_ramp(self):
        topo = fat_tree(depth=3, fanout=4).network.fabric_topology()
        assert [topo.tier_link_bandwidth_gbps(level) for level in range(3)] == [
            200.0, 400.0, 800.0,
        ]
        # Non-default depth re-cuts the doubling ramp instead of failing.
        topo = fat_tree(depth=2, fanout=8).network.fabric_topology()
        assert [topo.tier_link_bandwidth_gbps(level) for level in range(2)] == [
            200.0, 400.0,
        ]

    def test_fat_tree_depth_validated(self):
        with pytest.raises(ConfigurationError):
            FabricTopology.fat_tree(depth=1)
        with pytest.raises(ConfigurationError):
            FabricTopology.fat_tree(depth=3, fanout=1)

    @pytest.mark.parametrize("preset", ZOO_PRESETS)
    def test_presets_build_clusters(self, preset):
        spec = PRESETS[preset]()
        cluster = build_cluster(spec)
        assert cluster.num_racks == spec.ddc.num_racks


class TestZooDeterminism:
    @pytest.mark.parametrize("preset", ZOO_PRESETS)
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    @pytest.mark.parametrize("seed", range(10))
    def test_digest_pinned_across_backends(self, preset, scheduler, seed):
        """Indexed and naive placement agree bit for bit on zoo fabrics,
        and repeated indexed runs reproduce the same digest."""
        spec = PRESETS[preset]()
        vms = generate_synthetic(SyntheticWorkloadParams(count=60), seed=seed)
        indexed = run_sim(spec, scheduler, vms, mode="indexed")
        again = run_sim(spec, scheduler, vms, mode="indexed")
        naive = run_sim(spec, scheduler, vms, mode="naive")
        assert indexed == again
        assert indexed == naive
