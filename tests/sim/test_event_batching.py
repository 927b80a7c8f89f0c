"""Batched departures and lazy gauges: bit-identity pins.

The simulator hands every run of consecutive departures to a fused array
release, and the gauge bank defers integral folds into a pending register.
Both are *regroupings* of the same arithmetic, never approximations, so
every observable (event digest, summary, end time) must be bit-identical to
releasing the same departures one event at a time.  The per-event route is
the simulator's own fallback for batches under ``_MIN_FAST_BATCH``; raising
that floor above the trace length forces it for a whole run.  These tests
pin the equality over seeds 0-19 x all four paper schedulers x the two-tier
paper preset plus the VL2 and fat-tree zoo fabrics, and additionally place
checkpoint / restore / fork cuts *inside* a deferred-gauge interval and
*inside* a departure burst — the two places where deferred state could leak
across a snapshot boundary.
"""

import pytest

import repro.sim.simulator as simulator_module
from repro.config import PRESETS, paper_default
from repro.network import NetworkFabric
from repro.schedulers import PAPER_SCHEDULERS, scheduler_class
from repro.sim import DDCSimulator, EventLog
from repro.topology import build_cluster
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

#: Two-tier paper fabric plus the multi-tier zoo presets.
BATCHING_PRESETS = ("paper", "vl2", "fat-tree")


@pytest.fixture
def force_scalar(monkeypatch):
    """Returns a callable that makes every departure batch of a trace take
    the per-event fallback, by raising the fused path's size floor."""

    def force(vms):
        monkeypatch.setattr(simulator_module, "_MIN_FAST_BATCH", len(vms) + 1)

    return force


def trace(count=60, seed=0):
    return generate_synthetic(SyntheticWorkloadParams(count=count), seed=seed)


def masked(summary):
    d = summary.as_dict()
    d.pop("scheduler_time_s")  # wall clock: legitimately nondeterministic
    return d


def run_once(spec, scheduler, vms):
    """One run; returns its observables and how many batches took the fused
    release path."""
    log = EventLog()
    sim = DDCSimulator(spec, scheduler, event_log=log)
    fused = sim._apply_departure_batch
    calls = []

    def counting(batch):
        calls.append(len(batch))
        fused(batch)

    sim._apply_departure_batch = counting
    result = sim.run(vms)
    return (log.digest(), masked(result.summary), result.end_time), len(calls)


class TestBatchedMatchesPerEvent:
    @pytest.mark.parametrize("preset", BATCHING_PRESETS)
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    @pytest.mark.parametrize("seed", range(20))
    def test_fused_release_changes_nothing(self, preset, scheduler, seed, force_scalar):
        """The default run and a run forced onto the per-event fallback
        produce the same digest, summary, and end time.

        The default trace shape guarantees a departure burst (lifetimes
        dwarf the arrival span, so the whole departure tail drains as one
        batch), and the call count proves the fused path ran.
        """
        spec = PRESETS[preset]()
        vms = trace(seed=seed)
        batched, fused_calls = run_once(spec, scheduler, vms)
        force_scalar(vms)
        scalar, scalar_fused_calls = run_once(spec, scheduler, vms)
        assert fused_calls >= 1
        assert scalar_fused_calls == 0
        assert batched == scalar


class TestPerEventFallbackRoutes:
    """The per-event route is chosen from the run's input, not a setting:
    small batches, schedulers that override ``release``, and drained racks
    all take it, and each still produces the default run's bits."""

    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_release_override_takes_per_event_route(self, scheduler):
        base = scheduler_class(scheduler)

        class CountingRelease(base):
            """Unregistered subclass whose ``release`` counts its calls."""

            releases = 0

            def release(self, placement):
                self.releases += 1
                super().release(placement)

        spec = paper_default()
        vms = trace(seed=4)
        reference, _ = run_once(spec, scheduler, vms)

        cluster = build_cluster(spec)
        fabric = NetworkFabric(spec, cluster)
        custom = CountingRelease(spec, cluster, fabric)
        log = EventLog()
        sim = DDCSimulator(
            spec, custom, cluster=cluster, fabric=fabric, event_log=log
        )
        sim._apply_departure_batch = None  # the fused path must not be reached
        result = sim.run(vms)
        assert custom.releases == result.summary.scheduled_vms > 0
        assert (log.digest(), masked(result.summary), result.end_time) == reference

    def test_small_batches_take_per_event_route(self):
        """A trace whose departures never bunch up to ``_MIN_FAST_BATCH``
        releases every VM through the per-event handler."""
        vms = trace(count=simulator_module._MIN_FAST_BATCH - 1, seed=2)
        (_, summary, _), fused_calls = run_once(paper_default(), "risa", vms)
        assert summary["scheduled_vms"] == len(vms)
        assert fused_calls == 0

    def test_drained_racks_take_per_event_route(self, force_scalar):
        """Once racks are drained mid-run, the departure tail (which fuses
        in the undrained run) releases one event at a time — sticky
        re-occupation is per box — and matches a run forced onto the
        per-event route for its whole length."""

        def drained_run(spec, vms):
            log = EventLog()
            sim = DDCSimulator(spec, "risa", event_log=log)
            fused = sim._apply_departure_batch
            calls = []

            def counting(batch):
                calls.append(len(batch))
                fused(batch)

            sim._apply_departure_batch = counting
            sim.start_run(vms)
            sim.advance(until=sorted(vm.arrival for vm in vms)[len(vms) // 2])
            sim.cluster.drain_racks([0, 1])
            result = sim.finish()
            log.audit()
            return (log.digest(), masked(result.summary), result.end_time), calls

        spec = paper_default()
        vms = trace(seed=6)
        _, undrained_fused_calls = run_once(spec, "risa", vms)
        assert undrained_fused_calls >= 1
        default, fused_calls = drained_run(spec, vms)
        assert fused_calls == []
        force_scalar(vms)
        forced, _ = drained_run(spec, vms)
        assert default == forced


class TestCutsInsideDeferredState:
    """Checkpoint / restore / fork cuts where deferred state is in flight."""

    def _uncut(self, spec, scheduler, vms):
        observed, _ = run_once(spec, scheduler, vms)
        return observed

    def _mid_gauge_interval(self, vms):
        """A non-event time strictly between two arrivals: the gauge bank
        has an open pending interval (clock ahead of the last fold)."""
        times = sorted(vm.arrival for vm in vms)
        mid = len(times) // 2
        return (times[mid] + times[mid + 1]) / 2.0

    def _mid_departure_burst(self, vms):
        """A time inside the departure tail: the cut splits what would
        otherwise drain as a single batch."""
        departures = sorted(vm.departure for vm in vms)
        return departures[len(departures) // 2]

    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    @pytest.mark.parametrize("seed", range(5))
    def test_restore_inside_deferred_gauge_interval(self, scheduler, seed):
        """Checkpoint between events — mid pending-gauge interval — then
        finish, rewind, and re-finish: all three match the uncut run."""
        spec = paper_default()
        vms = trace(seed=seed)
        digest, summary, end = self._uncut(spec, scheduler, vms)
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=self._mid_gauge_interval(vms))
        checkpoint = sim.full_checkpoint()
        first = sim.finish()
        assert log.digest() == digest
        assert masked(first.summary) == summary
        sim.restore_run(checkpoint)
        resumed = sim.finish()
        assert log.digest() == digest
        assert masked(resumed.summary) == summary
        assert resumed.end_time == end

    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    @pytest.mark.parametrize("seed", range(5))
    def test_restore_inside_departure_burst(self, scheduler, seed):
        """Cut the departure tail in half with an advance/checkpoint: the
        batch boundary forced by the cut must not change a bit."""
        spec = paper_default()
        vms = trace(seed=seed)
        digest, summary, end = self._uncut(spec, scheduler, vms)
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=self._mid_departure_burst(vms))
        checkpoint = sim.full_checkpoint()
        first = sim.finish()
        assert log.digest() == digest
        assert masked(first.summary) == summary
        sim.restore_run(checkpoint)
        resumed = sim.finish()
        assert log.digest() == digest
        assert masked(resumed.summary) == summary
        assert resumed.end_time == end

    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_fork_inside_departure_burst(self, scheduler):
        """A fork taken mid-burst and its parent both finish identically."""
        spec = paper_default()
        vms = trace(seed=3)
        digest, summary, end = self._uncut(spec, scheduler, vms)
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=self._mid_departure_burst(vms))
        clone = sim.fork()
        clone_result = clone.finish()
        parent_result = sim.finish()
        assert clone.event_log.digest() == digest
        assert log.digest() == digest
        assert masked(clone_result.summary) == summary
        assert masked(parent_result.summary) == summary
        assert clone_result.end_time == parent_result.end_time == end

    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_fork_at_gauge_quiescent_boundary(self, scheduler):
        """Fork exactly at an event time, where the pending gauge register
        was just folded (quiescent: clock == last fold).  Regression for
        ``GaugeBank.restore`` rebuilding the register state verbatim —
        a restore that re-folded or dropped the register would shift every
        later integral."""
        spec = paper_default()
        vms = trace(seed=11)
        digest, summary, end = self._uncut(spec, scheduler, vms)
        times = sorted(vm.arrival for vm in vms)
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=times[len(times) // 2])  # events at the cut run
        clone = sim.fork()
        clone_result = clone.finish()
        parent_result = sim.finish()
        assert clone.event_log.digest() == digest
        assert log.digest() == digest
        assert masked(clone_result.summary) == summary
        assert masked(parent_result.summary) == summary
        assert clone_result.end_time == parent_result.end_time == end

    @pytest.mark.parametrize("scheduler", ("nulb", "nalb"))
    def test_fork_under_forced_scalar(self, scheduler, force_scalar):
        """A fork on the per-event fallback agrees with the uncut batched
        run — both paths share the same checkpoint contract."""
        spec = paper_default()
        vms = trace(seed=7)
        reference = self._uncut(spec, scheduler, vms)
        force_scalar(vms)
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
        sim.start_run(vms)
        sim.advance(until=self._mid_departure_burst(vms))
        clone = sim.fork()
        clone_result = clone.finish()
        parent_result = sim.finish()
        assert (log.digest(), masked(parent_result.summary),
                parent_result.end_time) == reference
        assert (clone.event_log.digest(), masked(clone_result.summary),
                clone_result.end_time) == reference
