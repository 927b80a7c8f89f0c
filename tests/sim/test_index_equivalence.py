"""Cross-mode determinism: indexed vs naive placement must be identical.

The capacity index (and the bundle free-link indexes) replace every linear
placement scan; these tests pin the contract that makes that safe — on any
trace, ``REPRO_PLACEMENT_INDEX=indexed`` and ``=naive`` produce the *same*
event stream (EventLog digest), the same summary (modulo wall-clock
scheduler time), and the same end state, for all four paper schedulers.
Random synthetic traces over seeds 0-19 cover steady-state behavior; an
oversubscribed tiny cluster exercises the drop + commit-rollback paths; a
saturated 16-rack cluster pushes the first fitting rack deep; a
checkpoint/rollback round-trip pins the index-rebuild path.
"""

import pytest

from repro.config import paper_default, scaled, tiny_test
from repro.schedulers import PAPER_SCHEDULERS
from repro.sim import DDCSimulator, EventLog
from repro.topology import PLACEMENT_INDEX_ENV, placement_mode
from repro.types import ResourceType
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

MODES = ("indexed", "naive")


@pytest.fixture(autouse=True)
def _indexed_default(monkeypatch):
    """Pin the ambient mode to indexed; ``run_mode`` flips it per run."""
    monkeypatch.setenv(PLACEMENT_INDEX_ENV, "indexed")


def run_mode(spec, scheduler, vms, mode, until=None):
    """One flat-engine run with the placement mode latched at construction."""
    with placement_mode(mode):
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
    result = sim.run(vms, until=until)
    summary = result.summary.as_dict()
    summary.pop("scheduler_time_s")  # the one legitimately nondeterministic field
    return log.digest(), summary, result.end_time, sim


def run_both(spec, scheduler, vms, until=None):
    return {mode: run_mode(spec, scheduler, vms, mode, until) for mode in MODES}


def assert_equivalent(out):
    idx_digest, idx_summary, idx_end, _ = out["indexed"]
    naive_digest, naive_summary, naive_end, _ = out["naive"]
    assert idx_digest == naive_digest
    assert idx_summary == naive_summary
    assert idx_end == naive_end


class TestRandomTraceEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_all_paper_schedulers_bit_identical(self, scheduler, seed):
        """All four paper schedulers, seeds 0-19: index-invariant digests."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=90), seed=seed)
        assert_equivalent(run_both(paper_default(), scheduler, vms))

    @pytest.mark.parametrize("scheduler", ["nulb_rack_affinity", "nalb_rack_affinity"])
    def test_rack_affinity_variants_bit_identical(self, scheduler):
        """The text-faithful same-rack-first variants take different index
        query paths (home-rack-first + exclusion); pin those too."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=150), seed=4)
        assert_equivalent(run_both(paper_default(), scheduler, vms))


class TestOversubscriptionEquivalence:
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_drop_and_rollback_paths(self, scheduler):
        """An oversubscribed tiny cluster forces drops (and scheduler commit
        rollbacks); both modes must agree on every drop decision."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=200), seed=1)
        out = run_both(tiny_test(), scheduler, vms)
        assert_equivalent(out)
        _, summary, _, _ = out["indexed"]
        assert summary["dropped_vms"] > 0  # the path is actually exercised

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scheduler", ["nalb", "nalb_rack_affinity"])
    def test_saturated_cluster_deep_first_fit(self, scheduler, seed):
        """Dense arrivals of large, long-lived VMs fill a 16-rack cluster
        from rack 0 upward, so the first rack with a fitting box lies deep
        and NALB's indexed search must jump past every full rack."""
        params = SyntheticWorkloadParams(
            count=600,
            mean_interarrival=0.5,
            base_lifetime=4500.0,
            lifetime_increment=0.0,
            cpu_cores_min=24,
            ram_gb_min=24,
        )
        vms = generate_synthetic(params, seed=seed)
        out = run_both(scaled(16), scheduler, vms)
        assert_equivalent(out)
        assert out["indexed"][1]["dropped_vms"] > 0

    def test_capacity_identical_after_run(self):
        """Post-run cluster/fabric state matches across modes."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=150), seed=2)
        out = run_both(tiny_test(), "risa", vms)
        idx_sim, naive_sim = out["indexed"][3], out["naive"][3]
        for rtype in ResourceType:
            assert idx_sim.cluster.total_avail(rtype) == naive_sim.cluster.total_avail(rtype)
        assert (
            idx_sim.fabric.intra_rack_utilization()
            == naive_sim.fabric.intra_rack_utilization()
        )


class TestCheckpointRollback:
    @pytest.mark.parametrize("scheduler", ["risa", "nalb"])
    def test_rollback_rewinds_compute_and_network(self, scheduler):
        """checkpoint -> oversubscribe -> rollback leaves no trace, and the
        rebuilt indexes answer exactly as before the what-if run."""
        spec = tiny_test()
        all_vms = generate_synthetic(SyntheticWorkloadParams(count=120), seed=3)
        sim = DDCSimulator(spec, scheduler)
        sim.run(all_vms[:40], until=all_vms[39].arrival + 1.0)
        cp = sim.checkpoint()
        frontier_before = {
            rtype: sim.cluster.capacity_index.first_fit(rtype, 1)
            for rtype in ResourceType
        }
        # What-if: push the remaining trace through the loaded cluster.
        sim.run(all_vms[40:], stream=False)
        sim.rollback(cp)
        assert sim.cluster.snapshot() == cp.cluster
        assert sim.fabric.snapshot() == cp.fabric
        for rtype in ResourceType:
            assert (
                sim.cluster.capacity_index.first_fit(rtype, 1)
                is frontier_before[rtype]
            )

    def test_rollback_restores_tier_counters(self):
        spec = tiny_test()
        vms = generate_synthetic(SyntheticWorkloadParams(count=60), seed=5)
        sim = DDCSimulator(spec, "nulb")
        cp = sim.checkpoint()
        sim.run(vms, until=200.0)
        sim.rollback(cp)
        assert sim.fabric.intra_rack_utilization() == 0.0
        assert sim.fabric.inter_rack_utilization() == 0.0
