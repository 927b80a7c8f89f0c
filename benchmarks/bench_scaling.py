"""Scaling studies: latency advantage and placement throughput.

Part 1 — the paper's Section 5.2 conjecture:

"Since RISA and RISA-BF both out-perform NULB and NALB in terms of
inter-rack VM allocations, we expect RISA and RISA-BF to have even larger
improvements in CPU-RAM latency for larger systems."

We sweep the cluster size (racks) with a proportionally scaled workload and
verify RISA's latency stays pinned at 110 ns while NULB's does not improve.

Part 2 — the capacity-index gate: on a 128-rack cluster driven near
saturation (deep first-fit frontier, forced drops), indexed placement must
deliver **>= 3x** the placement throughput (scheduled VMs per second of
scheduler time) of the naive linear scans, while producing bit-identical
summaries.  ``test_placement_throughput`` additionally records the
per-mode numbers through pytest-benchmark so CI uploads them as artifacts.
"""

import pytest

from repro.analysis import compare_schedulers
from repro.config import scaled
from repro.sim import DDCSimulator
from repro.topology import placement_mode
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

from conftest import bench_quick

RACK_COUNTS = (9, 18, 36)

#: Acceptance floor for indexed-over-naive placement throughput.
MIN_PLACEMENT_SPEEDUP = 3.0

#: Cluster size of the placement-throughput gate (the ISSUE's quick config).
PLACEMENT_RACKS = 128

PLACEMENT_VM_COUNT = 3_000 if bench_quick() else 12_000


def run_scale(num_racks: int):
    spec = scaled(num_racks)
    count = 300 if bench_quick() else 1200
    # Scale offered load with cluster size to hold utilization roughly fixed.
    params = SyntheticWorkloadParams(
        count=count * num_racks // 18 or count,
        mean_interarrival=10.0 * 18 / num_racks,
    )
    vms = generate_synthetic(params, seed=0)
    return compare_schedulers(spec, vms, ("nulb", "risa"), f"racks-{num_racks}")


def test_scaling_latency_advantage(benchmark):
    def sweep():
        return {n: run_scale(n) for n in RACK_COUNTS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for n, comparison in results.items():
        latency = comparison.metric("avg_cpu_ram_latency_ns")
        inter = comparison.metric("inter_rack_assignments")
        print(
            f"racks={n:3d}  nulb: lat={latency['nulb']:6.1f} ns "
            f"inter={inter['nulb']:5d}   risa: lat={latency['risa']:6.1f} ns "
            f"inter={inter['risa']:4d}"
        )
    for n, comparison in results.items():
        latency = comparison.metric("avg_cpu_ram_latency_ns")
        assert latency["risa"] <= latency["nulb"]
        assert latency["risa"] <= 115.0  # pinned at the intra-rack RTT


# --------------------------------------------------------------------- #
# Placement throughput: capacity index vs naive linear scans
# --------------------------------------------------------------------- #


def placement_workload():
    """A trace that saturates the 128-rack cluster.

    Capacity-scale CPU requests (32-128 units against 128-unit boxes) with
    sub-unit interarrival and multi-thousand-tick lifetimes push the steady
    state well past capacity: the first-fit frontier sits deep in the box
    array and most arrivals are drops (whole-array scans) — exactly the
    regime where naive placement is O(total boxes) per VM.  RAM stays small
    so flows remain link-feasible and drops are genuinely compute-bound.
    """
    params = SyntheticWorkloadParams(
        count=PLACEMENT_VM_COUNT,
        mean_interarrival=0.5,
        cpu_cores_min=128,
        cpu_cores_max=512,
        ram_gb_min=4,
        ram_gb_max=32,
    )
    return generate_synthetic(params, seed=0)


def run_placement(mode: str, scheduler: str, vms, repeats: int = 2):
    """Best-of-``repeats`` saturated runs; returns (scheduler_time_s, summary)."""
    best = float("inf")
    summary = None
    for _ in range(repeats):
        with placement_mode(mode):
            sim = DDCSimulator(scaled(PLACEMENT_RACKS), scheduler)
        result = sim.run(vms)
        summary = result.summary.as_dict()
        best = min(best, summary.pop("scheduler_time_s"))
    return best, summary


def test_placement_index_speedup():
    """Indexed placement must be >= 3x naive throughput on 128 racks, with
    bit-identical placement decisions."""
    vms = placement_workload()
    print()
    speedups = {}
    for scheduler in ("nulb", "nalb"):
        naive_time, naive_summary = run_placement("naive", scheduler, vms)
        indexed_time, indexed_summary = run_placement("indexed", scheduler, vms)
        assert indexed_summary == naive_summary  # same drops, same placements
        throughput_naive = len(vms) / naive_time
        throughput_indexed = len(vms) / indexed_time
        speedups[scheduler] = throughput_indexed / throughput_naive
        print(
            f"placement throughput ({scheduler}, racks={PLACEMENT_RACKS}, "
            f"{len(vms)} VMs, {indexed_summary['dropped_vms']} drops): "
            f"naive={throughput_naive:,.0f}/s indexed={throughput_indexed:,.0f}/s "
            f"speedup={speedups[scheduler]:.1f}x"
        )
    for scheduler, speedup in speedups.items():
        assert speedup >= MIN_PLACEMENT_SPEEDUP, (
            f"{scheduler}: indexed placement only {speedup:.2f}x naive "
            f"(< {MIN_PLACEMENT_SPEEDUP}x floor)"
        )


@pytest.mark.parametrize("mode", ["indexed", "naive"])
def test_placement_throughput(benchmark, mode):
    """Per-mode scheduler-time benchmark (recorded for the CI artifact)."""
    vms = placement_workload()

    def run():
        return run_placement(mode, "nulb", vms)

    elapsed, summary = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["scheduler_time_s"] = elapsed
    benchmark.extra_info["placement_throughput_per_s"] = len(vms) / elapsed
    benchmark.extra_info["dropped_vms"] = summary["dropped_vms"]
    assert summary["total_vms"] == len(vms)
