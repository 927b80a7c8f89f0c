"""Fork-and-continue determinism: the full-state checkpoint contract.

A run interrupted at any point and resumed — in place via ``restore_run`` or
into an independent simulator via ``fork()`` — must be indistinguishable
from the uninterrupted run: same event digest, same summary (modulo
wall-clock scheduler time), for every paper scheduler.  These tests fork at 25/50/75% of the trace
over seeds 0-9 and additionally pin that abandoned branches (perturbations
included) leave no trace after a rewind, and that forks are fully
independent of their parent.
"""

import pytest

from repro.config import paper_default, tiny_test
from repro.errors import SimulationError
from repro.network import NetworkFabric
from repro.schedulers import PAPER_SCHEDULERS, RISAScheduler
from repro.sim import DDCSimulator, EventLog
from repro.topology import build_cluster
from repro.types import RESOURCE_ORDER
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

FRACTIONS = (0.25, 0.5, 0.75)


def trace(count=120, seed=0):
    return generate_synthetic(SyntheticWorkloadParams(count=count), seed=seed)


def masked(summary):
    d = summary.as_dict()
    d.pop("scheduler_time_s")  # wall clock: legitimately nondeterministic
    return d


def uninterrupted(spec, scheduler, vms):
    log = EventLog()
    sim = DDCSimulator(spec, scheduler, event_log=log)
    result = sim.run(vms)
    return log.digest(), masked(result.summary), result.end_time


def fork_times(vms):
    times = sorted(vm.arrival for vm in vms)
    return [times[int(f * len(times))] for f in FRACTIONS]


def stateful_with_checkpoints(spec, scheduler, vms):
    """One stateful pass over the trace, checkpointing at each fraction."""
    log = EventLog()
    sim = DDCSimulator(spec, scheduler, event_log=log)
    sim.start_run(vms)
    checkpoints = []
    for t in fork_times(vms):
        sim.advance(until=t)
        checkpoints.append(sim.full_checkpoint())
    result = sim.finish()
    return sim, log, result, checkpoints


class TestForkContinuationBitIdentical:
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    @pytest.mark.parametrize("seed", range(10))
    def test_restore_matches_uninterrupted_run(self, scheduler, seed):
        """Fork at 25/50/75% and continue: digest + summary equal the
        uninterrupted one-shot run."""
        spec = paper_default()
        vms = trace(seed=seed)
        digest, summary, end = uninterrupted(spec, scheduler, vms)

        sim, log, result, checkpoints = stateful_with_checkpoints(spec, scheduler, vms)
        # The stateful pass itself reproduces the one-shot run.
        assert log.digest() == digest
        assert masked(result.summary) == summary
        assert result.end_time == end

        for checkpoint in checkpoints:
            sim.restore_run(checkpoint)
            resumed = sim.finish()
            assert log.digest() == digest
            assert masked(resumed.summary) == summary
            assert resumed.end_time == end

    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_oversubscribed_drop_paths(self, scheduler):
        """Forks replay drop decisions exactly on a saturated tiny cluster."""
        spec = tiny_test()
        vms = trace(count=200, seed=1)
        digest, summary, end = uninterrupted(spec, scheduler, vms)
        assert summary["dropped_vms"] > 0  # the drop path is exercised
        sim, log, result, checkpoints = stateful_with_checkpoints(spec, scheduler, vms)
        assert log.digest() == digest
        for checkpoint in checkpoints:
            sim.restore_run(checkpoint)
            resumed = sim.finish()
            assert log.digest() == digest
            assert masked(resumed.summary) == summary
            assert resumed.end_time == end

    def test_stateful_run_without_event_log(self):
        """Checkpoints work with no event log attached (sweep mode)."""
        spec = paper_default()
        vms = trace(count=80)
        baseline = DDCSimulator(spec, "risa", keep_records=False).run(vms)
        sim = DDCSimulator(spec, "risa", keep_records=False)
        sim.start_run(vms)
        sim.advance(until=fork_times(vms)[1])
        checkpoint = sim.full_checkpoint()
        sim.finish()
        sim.restore_run(checkpoint)
        resumed = sim.finish()
        assert masked(resumed.summary) == masked(baseline.summary)


class TestForkIndependence:
    def test_fork_is_independent_of_parent(self):
        """A fork and its parent both complete bit-identically: neither
        observes the other's placements, releases, or metrics."""
        spec = paper_default()
        vms = trace(count=120, seed=3)
        digest, summary, end = uninterrupted(spec, "risa", vms)

        log = EventLog()
        sim = DDCSimulator(spec, "risa", event_log=log)
        sim.start_run(vms)
        sim.advance(until=fork_times(vms)[1])
        clone = sim.fork()

        clone_result = clone.finish()  # clone finishes first, mutating freely
        parent_result = sim.finish()

        assert clone.event_log.digest() == digest
        assert log.digest() == digest
        assert masked(clone_result.summary) == summary
        assert masked(parent_result.summary) == summary
        assert clone_result.end_time == parent_result.end_time == end

    def test_fork_shares_no_live_objects(self):
        """Cluster, fabric, scheduler, collector, and log are all distinct."""
        sim = DDCSimulator(paper_default(), "risa", event_log=EventLog())
        sim.start_run(trace(count=40))
        sim.advance(until=fork_times(trace(count=40))[0])
        clone = sim.fork()
        assert clone.cluster is not sim.cluster
        assert clone.fabric is not sim.fabric
        assert clone.scheduler is not sim.scheduler
        assert clone.collector is not sim.collector
        assert clone.event_log is not sim.event_log

    def test_fork_keeps_an_unregistered_scheduler_class(self):
        """The clone runs the parent's scheduler class, not whatever class
        the registry holds under its name (here: none)."""

        class CountingRISA(RISAScheduler):
            """Unregistered RISA that counts its decisions."""

            name = "counting_risa"
            decisions = 0

            def schedule(self, request):
                self.decisions += 1
                return super().schedule(request)

        spec = paper_default()
        vms = trace(count=120, seed=3)
        digest, summary, end = uninterrupted(spec, "risa", vms)

        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        sim = DDCSimulator(
            spec,
            CountingRISA(spec, cluster, fabric),
            cluster=cluster,
            fabric=fabric,
            event_log=EventLog(),
        )
        sim.start_run(vms)
        sim.advance(until=fork_times(vms)[1])
        clone = sim.fork()
        assert type(clone.scheduler) is CountingRISA
        assert clone.scheduler.cluster is clone.cluster
        assert clone.scheduler.fabric is clone.fabric

        clone_result = clone.finish()
        parent_result = sim.finish()
        assert clone.scheduler.decisions > 0
        for result, log in (
            (clone_result, clone.event_log),
            (parent_result, sim.event_log),
        ):
            assert log.digest() == digest
            assert {**masked(result.summary), "scheduler": "risa"} == summary
            assert result.end_time == end

    def test_fork_keeps_a_subclass_that_reuses_a_registered_name(self):
        """A subclass that keeps the name ``risa`` forks into itself, not
        into the registered :class:`RISAScheduler` of that name."""

        class TaggedRISA(RISAScheduler):
            """Unregistered RISA that counts the placements it commits."""

            placed = 0

            def schedule(self, request):
                placement = super().schedule(request)
                if placement is not None:
                    self.placed += 1
                return placement

        spec = paper_default()
        vms = trace(count=120, seed=4)
        digest, summary, end = uninterrupted(spec, "risa", vms)

        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        sim = DDCSimulator(
            spec,
            TaggedRISA(spec, cluster, fabric),
            cluster=cluster,
            fabric=fabric,
            event_log=EventLog(),
        )
        sim.start_run(vms)
        sim.advance(until=fork_times(vms)[0])
        clone = sim.fork()
        assert type(clone.scheduler) is TaggedRISA

        clone_result = clone.finish()
        parent_result = sim.finish()
        assert clone.scheduler.placed > 0
        for result, log in (
            (clone_result, clone.event_log),
            (parent_result, sim.event_log),
        ):
            assert log.digest() == digest
            assert masked(result.summary) == summary
            assert result.end_time == end

    def test_random_scheduler_rng_forks_exactly(self):
        """The seeded random baseline replays its draws after a fork."""
        spec = paper_default()
        vms = trace(count=100, seed=5)
        digest, summary, _ = uninterrupted(spec, "random", vms)
        log = EventLog()
        sim = DDCSimulator(spec, "random", event_log=log)
        sim.start_run(vms)
        sim.advance(until=fork_times(vms)[1])
        checkpoint = sim.full_checkpoint()
        sim.finish()
        assert log.digest() == digest
        sim.restore_run(checkpoint)
        resumed = sim.finish()
        assert log.digest() == digest
        assert masked(resumed.summary) == summary


class TestAbandonedBranchesLeaveNoTrace:
    def test_perturbed_branch_fully_rewound(self):
        """Admission gating, tier scaling, and a pod drain in an abandoned
        branch must not leak into the restored continuation."""
        spec = paper_default()
        vms = trace(count=150, seed=2)
        digest, summary, _ = uninterrupted(spec, "risa", vms)

        log = EventLog()
        sim = DDCSimulator(spec, "risa", event_log=log)
        sim.start_run(vms)
        sim.advance(until=fork_times(vms)[1])
        checkpoint = sim.full_checkpoint()

        # A heavily perturbed branch...
        sim.admission_threshold = 0.05
        sim.fabric.scale_tier_capacity(-1, 0.25)
        lo, hi = sim.cluster.pod_rack_range(0)
        sim.cluster.drain_racks(range(lo, min(hi, lo + 3)))
        perturbed = sim.finish()
        assert perturbed.summary.dropped_vms > summary["dropped_vms"]

        # ...then a rewind and a clean continuation.
        sim.restore_run(checkpoint)
        assert sim.admission_threshold is None
        resumed = sim.finish()
        assert log.digest() == digest
        assert masked(resumed.summary) == summary


class TestPerturbedForks:
    def test_drain_survives_checkpoint_and_fork(self):
        """A pod-failure branch's drain stays sticky through
        full_checkpoint/restore_run and fork(): departures on the drained
        racks never resurrect capacity."""
        spec = paper_default()
        vms = trace(count=150, seed=4)
        sim = DDCSimulator(spec, "risa")
        sim.start_run(vms)
        sim.advance(until=fork_times(vms)[0])
        lo, hi = sim.cluster.pod_rack_range(0)
        racks = range(lo, min(hi, lo + 2))
        sim.cluster.drain_racks(racks)
        checkpoint = sim.full_checkpoint()
        assert checkpoint.drained_racks == tuple(racks)

        clone = sim.fork()
        assert clone.cluster.drained_racks == set(racks)
        clone.finish()
        sim.finish()
        sim.restore_run(checkpoint)
        assert sim.cluster.drained_racks == set(racks)
        sim.finish()
        for cluster in (sim.cluster, clone.cluster):
            for rack_index in racks:
                for rtype in RESOURCE_ORDER:
                    assert cluster.racks[rack_index].max_avail(rtype) == 0

    def test_fork_and_restore_with_grandfathered_links(self):
        """A tier shrink below a live reservation (grandfathered circuits)
        must not break fork() or a full_checkpoint round-trip."""
        spec = paper_default()
        vms = trace(count=120, seed=6)
        sim = DDCSimulator(spec, "risa")
        sim.start_run(vms)
        sim.advance(until=fork_times(vms)[1])
        boxes = sim.cluster.all_boxes()
        circuit = sim.fabric.allocate_flow(boxes[0].box_id, boxes[-1].box_id, 100.0)
        assert circuit is not None
        sim.fabric.scale_tier_capacity(-1, 0.25)  # 200 -> 50 Gb/s: over-committed

        clone = sim.fork()
        assert clone.fabric.snapshot() == sim.fabric.snapshot()
        assert clone.fabric.capacity_snapshot() == sim.fabric.capacity_snapshot()

        checkpoint = sim.full_checkpoint()
        sim.finish()
        sim.restore_run(checkpoint)  # round-trips the grandfathered state
        assert sim.fabric.snapshot() == clone.fabric.snapshot()
        assert sim.fabric.capacity_snapshot() == clone.fabric.capacity_snapshot()


class TestStatefulRunGuards:
    def test_requires_started_run(self):
        sim = DDCSimulator(paper_default(), "risa")
        with pytest.raises(SimulationError, match="start_run"):
            sim.advance()
        with pytest.raises(SimulationError, match="start_run"):
            sim.full_checkpoint()
        with pytest.raises(SimulationError, match="start_run"):
            sim.fork()

    def test_checkpoint_records_fork_clock(self):
        vms = trace(count=60)
        sim = DDCSimulator(paper_default(), "risa")
        sim.start_run(vms)
        t = fork_times(vms)[0]
        sim.advance(until=t)
        assert sim.now == t
        assert sim.full_checkpoint().time == t
