"""Tests for link-level fault injection.

Two layers under test: the fabric's fail/restore/degrade primitives (with
their down-link bookkeeping), and the simulator's scheduled fault timeline —
whose contract is checkpoint transparency: a forked or rewound continuation
carrying a fault schedule must match a cold run of the same schedule bit
for bit.
"""

import pytest

from repro.config import tiny_pod_test, tiny_test
from repro.errors import SimulationError, TopologyError
from repro.experiments import (
    BundleDegrade,
    LinkFailure,
    LinkFlap,
    ScenarioBranch,
    ScenarioTree,
    link_failure_branches,
    run_scenario_tree,
)
from repro.network import LINK_DOWN_CAPACITY_GBPS, NetworkFabric
from repro.sim import DDCSimulator, EventLog
from repro.topology import build_cluster
from repro.workloads import SyntheticWorkloadParams, generate_synthetic


def fresh_fabric(spec=None):
    spec = spec or tiny_test()
    cluster = build_cluster(spec)
    return NetworkFabric(spec, cluster)


def trace(count=150, seed=0):
    return generate_synthetic(SyntheticWorkloadParams(count=count), seed=seed)


def run_triple(sim, vms):
    result = sim.run(vms)
    summary = result.summary.as_dict()
    summary.pop("scheduler_time_s")
    return sim.event_log.digest(), summary, result.end_time


class TestFabricFaults:
    def test_fail_and_restore_round_trip(self):
        fab = fresh_fabric()
        tier = fab.tiers[-1]
        before = fab.tier_capacity_gbps(tier)
        assert fab.fail_links(tier, 0, count=1) == 1
        assert fab.down_link_ids()
        assert fab.tier_capacity_gbps(tier) == pytest.approx(
            before - 200.0 + LINK_DOWN_CAPACITY_GBPS
        )
        assert fab.restore_links(tier, 0) == 1
        assert fab.tier_capacity_gbps(tier) == pytest.approx(before)
        assert not fab.down_link_ids()

    def test_double_fail_is_noop(self):
        fab = fresh_fabric()
        assert fab.fail_links(-1, 0, count=1) == 1
        assert fab.fail_links(-1, 0, count=1) == 0
        assert fab.restore_links(-1, 0) == 1
        assert fab.restore_links(-1, 0) == 0

    def test_failed_links_block_new_demand(self):
        fab = fresh_fabric()
        fab.fail_links(-1, 0)  # whole rack-0 uplink bundle down
        # Any cross-rack flow must traverse the downed bundle and no
        # longer fits; intra-rack flows are untouched.
        boxes = build_cluster(tiny_test()).all_boxes()
        rack0 = [b.box_id for b in boxes if b.rack_index == 0]
        rack1 = [b.box_id for b in boxes if b.rack_index == 1]
        assert all(
            not fab.can_allocate_flow(a, b, 5.0) for a in rack0 for b in rack1
        )
        assert fab.can_allocate_flow(rack0[0], rack0[1], 5.0)

    def test_in_flight_circuits_release_through_downed_links(self):
        fab = fresh_fabric()
        cluster = build_cluster(tiny_test())
        boxes = [b.box_id for b in cluster.all_boxes()]
        circuit = fab.allocate_flow(boxes[0], boxes[3], 10.0)
        assert circuit is not None
        fab.fail_links(-1, 0)
        fab.release(circuit)  # grandfathered reservation frees cleanly
        assert fab.tier_used_gbps(fab.tiers[-1]) == pytest.approx(0.0)

    def test_degrade_bundle_scales_one_bundle_only(self):
        fab = fresh_fabric()
        tier = fab.tiers[-1]
        b0 = fab.uplink_bundle(tier.level, 0).capacity_gbps
        b1 = fab.uplink_bundle(tier.level, 1).capacity_gbps
        fab.degrade_bundle(tier, 0, 0.5)
        assert fab.uplink_bundle(tier.level, 0).capacity_gbps == pytest.approx(b0 / 2)
        assert fab.uplink_bundle(tier.level, 1).capacity_gbps == pytest.approx(b1)

    def test_degrade_scales_stash_of_down_links(self):
        fab = fresh_fabric()
        fab.fail_links(-1, 0, count=1)
        fab.degrade_bundle(-1, 0, 0.5)
        fab.restore_links(-1, 0)
        # The restored link comes back at the degraded capacity.
        level = fab.resolve_tier(-1).level
        caps = [link.capacity_gbps for link in fab.uplink_bundle(level, 0).links]
        assert caps == pytest.approx([100.0, 100.0])

    def test_fault_snapshot_round_trip(self):
        fab = fresh_fabric()
        caps = fab.capacity_snapshot()
        fab.fail_links(-1, 0, count=1)
        snap = fab.fault_snapshot()
        assert snap and snap[0][1] == 200.0
        fab.restore_capacities(caps)
        fab.restore_faults(())
        assert not fab.down_link_ids()
        fab.restore_faults(snap)
        assert fab.down_link_ids() == (snap[0][0],)

    def test_unknown_bundle_rejected(self):
        fab = fresh_fabric()
        with pytest.raises(TopologyError):
            fab.fail_links(-1, 99)
        with pytest.raises(TopologyError):
            fab.degrade_bundle(-1, 0, 0.0)


class TestPerturbationValidation:
    def test_flap_must_recover_after_failure(self):
        with pytest.raises(SimulationError, match="recover after"):
            LinkFlap(down_at=10.0, up_at=10.0)

    def test_degrade_factor_positive(self):
        with pytest.raises(SimulationError, match="positive"):
            BundleDegrade(0.0)

    def test_branch_builder_names(self):
        branches = link_failure_branches([0, 2], tier=-1, count=1)
        assert [b.name for b in branches] == ["links@0-down", "links@2-down"]


class TestScheduledFaultEquivalence:
    """Fault schedules are checkpoint-transparent (the tentpole contract)."""

    def setup_schedule(self, sim, vms):
        times = sorted(vm.arrival for vm in vms)
        LinkFlap(times[75], times[100], tier=-1, node=0, count=1).apply(sim)
        BundleDegrade(0.5, tier=0, node=0, at=times[75]).apply(sim)
        return times[60]

    def cold_run(self, spec, scheduler, vms):
        sim = DDCSimulator(spec, scheduler, event_log=EventLog())
        self.setup_schedule(sim, vms)
        return run_triple(sim, vms)

    @pytest.mark.parametrize("scheduler", ("risa", "nulb"))
    def test_fork_matches_cold_run(self, scheduler):
        spec = tiny_test()
        vms = trace(seed=2)
        cold = self.cold_run(spec, scheduler, vms)

        warm = DDCSimulator(spec, scheduler, event_log=EventLog())
        fork_time = self.setup_schedule(warm, vms)
        warm.start_run(vms)
        warm.advance(fork_time)
        fork = warm.fork()
        result = fork.finish()
        summary = result.summary.as_dict()
        summary.pop("scheduler_time_s")
        assert (fork.event_log.digest(), summary, result.end_time) == cold

        # The parent continues to the same outcome too.
        result = warm.finish()
        summary = result.summary.as_dict()
        summary.pop("scheduler_time_s")
        assert (warm.event_log.digest(), summary, result.end_time) == cold

    def test_rewind_replays_fired_faults(self):
        """Restoring to a checkpoint taken *after* a fault fired rewinds
        both the fault effects and the timeline bookkeeping."""
        spec = tiny_test()
        vms = trace(seed=2)
        cold = self.cold_run(spec, "risa", vms)

        sim = DDCSimulator(spec, "risa", event_log=EventLog())
        self.setup_schedule(sim, vms)
        times = sorted(vm.arrival for vm in vms)
        sim.start_run(vms)
        sim.advance(times[80])  # the flap's down edge has fired
        assert sim.fabric.down_link_ids()
        checkpoint = sim.full_checkpoint()
        assert checkpoint.fabric_faults and checkpoint.pending_faults
        sim.advance()  # drain (fires the up edge)
        sim.restore_run(checkpoint)
        assert sim.fabric.down_link_ids()
        result = sim.finish()
        summary = result.summary.as_dict()
        summary.pop("scheduler_time_s")
        assert (sim.event_log.digest(), summary, result.end_time) == cold

    def test_flap_recovers_capacity(self):
        spec = tiny_test()
        vms = trace()
        sim = DDCSimulator(spec, "risa")
        times = sorted(vm.arrival for vm in vms)
        LinkFlap(times[50], times[90], tier=-1, node=0).apply(sim)
        before = sim.fabric.tier_capacity_gbps(sim.fabric.tiers[-1])
        sim.start_run(vms)
        sim.advance(times[60])
        assert sim.fabric.down_link_ids()
        sim.advance(times[95])
        assert not sim.fabric.down_link_ids()
        assert sim.fabric.tier_capacity_gbps(
            sim.fabric.tiers[-1]
        ) == pytest.approx(before)
        sim.finish()

    def test_one_shot_run_honors_timeline(self):
        """DDCSimulator.run() with queued faults routes through the
        stateful machinery instead of silently dropping the schedule."""
        spec = tiny_test()
        vms = trace(seed=1)
        sim = DDCSimulator(spec, "risa")
        LinkFailure(tier=-1, node=0, at=50.0).apply(sim)
        assert sim.pending_faults
        sim.run(vms)
        assert not sim.pending_faults
        assert sim.fabric.down_link_ids()

    def test_stream_mode_rejects_timeline(self):
        sim = DDCSimulator(tiny_test(), "risa")
        LinkFailure(at=50.0).apply(sim)
        with pytest.raises(SimulationError, match="stream=True"):
            sim.run(trace(count=20), stream=True)


class TestScenarioIntegration:
    def test_link_failure_branch_in_tree(self):
        """A link-fault branch runs through the scenario engine and the
        baseline branch still matches the unperturbed cold run."""
        spec = tiny_pod_test()
        vms = trace(count=200, seed=3)
        tree = ScenarioTree(
            branches=(
                ScenarioBranch("flap", (LinkFlap(900.0, 1200.0, tier=-1, node=0),)),
                *link_failure_branches([0], tier="pod"),
            ),
            fork_fraction=0.4,
        )
        outcome = run_scenario_tree(spec, "risa", vms, tree)
        names = [b.branch for b in outcome.branches]
        assert names == ["baseline", "flap", "links@0-down"]

        cold = DDCSimulator(spec, "risa").run(vms)
        baseline = outcome.branch("baseline").summary.as_dict()
        baseline.pop("scheduler_time_s")
        expected = cold.summary.as_dict()
        expected.pop("scheduler_time_s")
        assert baseline == expected
