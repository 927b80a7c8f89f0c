"""Cross-backend determinism: array state vs object state must be identical.

The struct-of-arrays backend (:mod:`repro.state`) re-homes every mutable
scalar — brick occupancy, box availability, link bandwidth, tier totals,
gauge accumulators — into flat numpy arrays.  These tests pin the contract
that makes that safe: on any trace, ``REPRO_STATE_BACKEND=arrays`` and
``=objects`` produce the *same* event stream (EventLog digest), the same
summary (modulo wall-clock scheduler time), and the same end state, for all
four paper schedulers, with batched and per-event departures, through
drops, rollbacks, and fork/restore continuations.
"""

import pytest

import repro.sim.simulator as simulator_module
from repro.config import paper_default, tiny_test
from repro.schedulers import PAPER_SCHEDULERS
from repro.sim import DDCSimulator, EventLog
from repro.state import STATE_BACKEND_ENV, state_backend
from repro.types import ResourceType
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

MODES = ("arrays", "objects")


@pytest.fixture(autouse=True)
def _arrays_default(monkeypatch):
    """Pin the ambient mode to arrays; ``run_mode`` flips it per run."""
    monkeypatch.setenv(STATE_BACKEND_ENV, "arrays")


def run_mode(spec, scheduler, vms, mode, until=None):
    """One run with the state backend latched at construction."""
    with state_backend(mode):
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
    result = sim.run(vms, until=until)
    summary = result.summary.as_dict()
    summary.pop("scheduler_time_s")  # the one legitimately nondeterministic field
    return log.digest(), summary, result.end_time, sim


def run_both(spec, scheduler, vms, until=None):
    return {mode: run_mode(spec, scheduler, vms, mode, until) for mode in MODES}


def assert_equivalent(out):
    arr_digest, arr_summary, arr_end, _ = out["arrays"]
    obj_digest, obj_summary, obj_end, _ = out["objects"]
    assert arr_digest == obj_digest
    assert arr_summary == obj_summary
    assert arr_end == obj_end


class TestRandomTraceEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_all_paper_schedulers_bit_identical(self, scheduler, seed):
        """All four paper schedulers, seeds 0-9: backend-invariant digests."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=90), seed=seed)
        assert_equivalent(run_both(paper_default(), scheduler, vms))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_per_event_departures_bit_identical(self, scheduler, seed, monkeypatch):
        """With every departure batch forced onto the per-event fallback,
        the backends still agree."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=60), seed=seed)
        monkeypatch.setattr(simulator_module, "_MIN_FAST_BATCH", len(vms) + 1)
        assert_equivalent(run_both(paper_default(), scheduler, vms))


class TestOversubscriptionEquivalence:
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_drop_and_rollback_paths(self, scheduler):
        """An oversubscribed tiny cluster forces drops (and scheduler commit
        rollbacks); both backends must agree on every drop decision."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=200), seed=1)
        out = run_both(tiny_test(), scheduler, vms)
        assert_equivalent(out)
        _, summary, _, _ = out["arrays"]
        assert summary["dropped_vms"] > 0  # the path is actually exercised

    def test_capacity_identical_after_run(self):
        """Post-run cluster/fabric state matches across backends."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=150), seed=2)
        out = run_both(tiny_test(), "risa", vms)
        arr_sim, obj_sim = out["arrays"][3], out["objects"][3]
        for rtype in ResourceType:
            assert arr_sim.cluster.total_avail(rtype) == obj_sim.cluster.total_avail(rtype)
        assert arr_sim.cluster.snapshot() == obj_sim.cluster.snapshot()
        assert arr_sim.fabric.snapshot() == obj_sim.fabric.snapshot()
        assert (
            arr_sim.fabric.intra_rack_utilization()
            == obj_sim.fabric.intra_rack_utilization()
        )


class TestForkRestoreEquivalence:
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_fork_continuation_bit_identical(self, scheduler):
        """Interrupt mid-trace, checkpoint, finish; then restore and replay
        the remainder — in *both* backends — and compare everything."""
        spec = tiny_test()
        vms = generate_synthetic(SyntheticWorkloadParams(count=120), seed=7)
        cut = sorted(vm.arrival for vm in vms)[60]
        results = {}
        for mode in MODES:
            with state_backend(mode):
                log = EventLog()
                sim = DDCSimulator(spec, scheduler, event_log=log)
            sim.start_run(vms)
            sim.advance(until=cut)
            cp = sim.full_checkpoint()
            result = sim.finish()
            uninterrupted = (log.digest(), result.summary.as_dict())
            # Rewind and replay the remainder from the checkpoint.
            sim.restore_run(cp)
            replay = sim.finish()
            replayed = (log.digest(), replay.summary.as_dict())
            for _, summary in (uninterrupted, replayed):
                summary.pop("scheduler_time_s")
            results[mode] = (uninterrupted, replayed)
        # Continuation must equal the straight-through run within one mode...
        for mode in MODES:
            assert results[mode][0] == results[mode][1]
        # ...and everything must agree across backends.
        assert results["arrays"] == results["objects"]

    def test_checkpoint_rollback_leaves_no_trace(self):
        """checkpoint -> oversubscribe -> rollback under the array backend
        restores cluster, fabric, and rack maxima exactly."""
        spec = tiny_test()
        all_vms = generate_synthetic(SyntheticWorkloadParams(count=120), seed=3)
        sim = DDCSimulator(spec, "risa")
        sim.run(all_vms[:40], until=all_vms[39].arrival + 1.0)
        cp = sim.checkpoint()
        maxima_before = [
            [rack.max_avail(rtype) for rtype in ResourceType]
            for rack in sim.cluster.racks
        ]
        sim.run(all_vms[40:], stream=False)
        sim.rollback(cp)
        assert sim.cluster.snapshot() == cp.cluster
        assert sim.fabric.snapshot() == cp.fabric
        maxima_after = [
            [rack.max_avail(rtype) for rtype in ResourceType]
            for rack in sim.cluster.racks
        ]
        assert maxima_after == maxima_before
