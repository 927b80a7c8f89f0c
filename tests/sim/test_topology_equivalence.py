"""Cross-topology determinism: the tier-generic fabric must not move a bit.

Two contracts are pinned here:

1. **Legacy guarantee** — the paper's two-tier spec, whether its fabric
   chain is derived from the legacy ``NetworkConfig`` scalars or written as
   an explicit two-tier :class:`FabricTopology`, produces the *same* event
   stream (EventLog digest), summary, and end state for all four paper
   schedulers over seeds 0-19, in both indexed and naive placement modes.
   Together with the index-equivalence suite this pins the N-tier resolver
   to the pre-refactor fabric bit-for-bit.
2. **Multi-tier viability** — a 3-tier pod preset runs end-to-end through
   simulation, sweep, metrics, energy, and the figure-comparison machinery,
   with indexed and naive modes agreeing (the new ring/pod index queries
   against the naive scans).
"""

import pytest

from repro.analysis import compare_schedulers, grouped_bars
from repro.config import (
    FabricTopology,
    NetworkConfig,
    TierSpec,
    paper_default,
    tiny_pod_test,
)
from repro.experiments import SimulationSession
from repro.schedulers import PAPER_SCHEDULERS
from repro.sim import DDCSimulator, EventLog
from repro.topology import PLACEMENT_INDEX_ENV, placement_mode
from repro.workloads import SyntheticWorkloadParams, generate_synthetic


def explicit_two_tier_spec():
    """The paper spec with its fabric written as an explicit FabricTopology."""
    spec = paper_default()
    topology = FabricTopology(
        tiers=(
            TierSpec(name="intra_rack", uplinks=8, switch_ports=256),
            TierSpec(name="inter_rack", uplinks=28, switch_ports=512),
        ),
        box_switch_ports=64,
        link_bandwidth_gbps=200.0,
    )
    return spec.with_overrides(network=NetworkConfig(topology=topology))


def run_sim(spec, scheduler, vms, mode="indexed"):
    with placement_mode(mode):
        log = EventLog()
        sim = DDCSimulator(spec, scheduler, event_log=log)
    result = sim.run(vms)
    summary = result.summary.as_dict()
    summary.pop("scheduler_time_s")
    return log.digest(), summary, result.end_time


class TestLegacyTwoTierGuarantee:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
    def test_explicit_topology_bit_identical(self, scheduler, seed):
        """Derived vs explicit two-tier chain: identical digests, seeds 0-19."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=60), seed=seed)
        derived = run_sim(paper_default(), scheduler, vms)
        explicit = run_sim(explicit_two_tier_spec(), scheduler, vms)
        assert derived == explicit

    @pytest.mark.parametrize("scheduler", ["nulb_rack_affinity", "nalb_rack_affinity"])
    def test_rack_affinity_ring_walk_matches_legacy_frontier(self, scheduler):
        """The tier-distance ring walk reduces to the legacy remote-rack
        frontier on a two-tier fabric, in both placement modes."""
        vms = generate_synthetic(SyntheticWorkloadParams(count=150), seed=4)
        derived = run_sim(paper_default(), scheduler, vms)
        explicit = run_sim(explicit_two_tier_spec(), scheduler, vms)
        naive = run_sim(paper_default(), scheduler, vms, mode="naive")
        assert derived == explicit == naive


class TestMultiTierEquivalence:
    @pytest.mark.parametrize(
        "scheduler",
        [*PAPER_SCHEDULERS, "nulb_rack_affinity", "nalb_rack_affinity", "risa_pod"],
    )
    def test_indexed_vs_naive_on_three_tiers(self, scheduler, monkeypatch):
        """The pod/ring index queries agree with the naive scans on an
        oversubscribed 3-tier cluster (drops and fallbacks exercised)."""
        monkeypatch.setenv(PLACEMENT_INDEX_ENV, "indexed")
        spec = tiny_pod_test()
        vms = generate_synthetic(SyntheticWorkloadParams(count=150), seed=1)
        indexed = run_sim(spec, scheduler, vms, mode="indexed")
        naive = run_sim(spec, scheduler, vms, mode="naive")
        assert indexed == naive
        assert indexed[1]["dropped_vms"] > 0  # the fallback paths really ran


class TestPodPresetEndToEnd:
    def test_sweep_metrics_energy_figures(self):
        """A 3-tier preset flows through sweep, per-tier metrics, energy,
        and the figure-comparison machinery without special-casing."""
        spec = tiny_pod_test()
        session = SimulationSession(spec)
        result = session.sweep(schedulers=("risa", "risa_pod"), seeds=(0,), count=80)
        assert len(result) == 2
        for outcome in result.outcomes:
            summary = outcome.summary
            assert summary.total_vms == 80
            assert set(summary.avg_tier_net_utilization) == {
                "intra_net", "pod_net", "inter_net"
            }
            assert summary.total_optical_energy_j > 0
        aggregated = result.aggregated()
        assert "pod_net" in aggregated["risa"]["avg_tier_net_utilization"]

        vms = generate_synthetic(SyntheticWorkloadParams(count=60), seed=0)
        comparison = compare_schedulers(spec, vms, ("nulb", "risa"), "pod-smoke")
        counts = comparison.metric("inter_rack_assignments")
        rendered = grouped_bars(
            ["pod-smoke"],
            {name: [value] for name, value in counts.items()},
            title="inter-rack assignments (3-tier)",
        )
        assert "nulb" in rendered and "risa" in rendered

    def test_checkpoint_rollback_on_three_tiers(self):
        """DDCSimulator checkpoint/rollback rewinds all three tiers."""
        spec = tiny_pod_test()
        vms = generate_synthetic(SyntheticWorkloadParams(count=100), seed=3)
        sim = DDCSimulator(spec, "risa_pod")
        sim.run(vms[:30], until=vms[29].arrival + 1.0)
        checkpoint = sim.checkpoint()
        sim.run(vms[30:], stream=False)
        sim.rollback(checkpoint)
        assert sim.cluster.snapshot() == checkpoint.cluster
        assert sim.fabric.snapshot() == checkpoint.fabric
