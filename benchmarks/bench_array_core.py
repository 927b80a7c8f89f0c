"""Array-native state core: end-to-end event throughput vs object state.

The struct-of-arrays backend (``REPRO_STATE_BACKEND=arrays``, the default)
re-homes brick occupancy, box availability, link bandwidth, and gauge
accumulators into flat columns of Python scalars.  Its payoff concentrates
exactly where the paper's experiments live: a **saturated** cluster, where
every arrival would otherwise scan a deep placement frontier object by
object: RISA's pool walk (``pool_racks_from``) reads the per-rack maxima
columns, stopping at the first rack that commits, and ``racks_with_box``
builds SUPER_RACK from one column.

The gate: on a 128-rack cluster driven past capacity, the array backend
must deliver **>= 3x** the end-to-end events/sec of the object backend for
each rack-scale scheduler (RISA and RISA-BF — the schedulers whose
saturated-frontier scans the columns replace), while producing
bit-identical event digests and summaries for all four.  NULB/NALB drop
arrivals after an O(1) index probe, so neither backend does real work
there; those runs are gated at parity (no worse than ``MIN_PARITY``) to
catch regressions in the scalar array paths.  ``test_backend_throughput``
additionally records the per-mode numbers through pytest-benchmark for the
CI artifact.
"""

import time

import pytest

from repro.config import scaled
from repro.schedulers import PAPER_SCHEDULERS
from repro.sim import DDCSimulator, EventLog
from repro.state import state_backend
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

from conftest import bench_quick

#: Acceptance floor for array-over-object end-to-end event throughput on
#: the rack-scale schedulers (whose saturated scans the columns replace).
MIN_ARRAY_SPEEDUP = 3.0

#: Schedulers the >= 3x gate applies to.
GATED_SCHEDULERS = ("risa", "risa_bf")

#: Parity floor for the drop-dominated NULB/NALB runs, where per-event work
#: is a handful of scalar ops in either backend.
MIN_PARITY = 0.5

#: Cluster size of the saturated-throughput gate.
CORE_RACKS = 128

CORE_VM_COUNT = 3_000 if bench_quick() else 9_000

MODES = ("arrays", "objects")


def saturating_workload():
    """A trace that drives the 128-rack cluster deep past capacity.

    Capacity-scale CPU requests (one to four 128-unit boxes each) against
    sub-unit interarrival push the steady state well beyond what the
    cluster can host: the placement frontier sits deep in the box array and
    most arrivals end as drops after a whole-frontier scan — the regime
    where per-object python traversals are the simulator's bottleneck.
    """
    params = SyntheticWorkloadParams(
        count=CORE_VM_COUNT,
        mean_interarrival=0.5,
        cpu_cores_min=128,
        cpu_cores_max=512,
        ram_gb_min=4,
        ram_gb_max=32,
    )
    return generate_synthetic(params, seed=0)


def run_backend(mode: str, scheduler: str, vms, repeats: int = 3):
    """Best-of-``repeats`` saturated runs.

    Returns ``(events, wall_s, digest, summary)`` where ``wall_s`` is the
    fastest end-to-end ``sim.run`` wall time observed (best-of suppresses
    scheduler noise: interference only ever inflates a run).
    """
    best = float("inf")
    events = 0
    digest = None
    summary = None
    for _ in range(repeats):
        with state_backend(mode):
            log = EventLog()
            sim = DDCSimulator(scaled(CORE_RACKS), scheduler, event_log=log)
        start = time.perf_counter()
        result = sim.run(vms)
        best = min(best, time.perf_counter() - start)
        events = len(log)
        digest = log.digest()
        summary = result.summary.as_dict()
        summary.pop("scheduler_time_s")
    return events, best, digest, summary


def test_array_core_speedup():
    """Array state must be >= 3x object state events/sec on the saturated
    rack-scale runs, with bit-identical digests and summaries for all four
    schedulers — and no worse than parity on the drop-dominated ones."""
    vms = saturating_workload()
    print()
    speedups = {}
    for scheduler in PAPER_SCHEDULERS:
        runs = {mode: run_backend(mode, scheduler, vms) for mode in MODES}
        arr_events, arr_s, arr_digest, arr_summary = runs["arrays"]
        obj_events, obj_s, obj_digest, obj_summary = runs["objects"]
        assert arr_digest == obj_digest  # same event stream, bit for bit
        assert arr_summary == obj_summary
        speedups[scheduler] = (arr_events / arr_s) / (obj_events / obj_s)
        print(
            f"array core ({scheduler}, racks={CORE_RACKS}, {len(vms)} VMs, "
            f"{arr_summary['dropped_vms']} drops): "
            f"objects={obj_events / obj_s:,.0f} ev/s "
            f"arrays={arr_events / arr_s:,.0f} ev/s "
            f"speedup={speedups[scheduler]:.1f}x"
        )
    for scheduler in GATED_SCHEDULERS:
        assert speedups[scheduler] >= MIN_ARRAY_SPEEDUP, (
            f"{scheduler}: array backend only {speedups[scheduler]:.2f}x "
            f"object backend events/sec (< {MIN_ARRAY_SPEEDUP}x floor)"
        )
    for scheduler, speedup in speedups.items():
        assert speedup >= MIN_PARITY, (
            f"{scheduler}: array backend at {speedup:.2f}x object backend "
            f"(< {MIN_PARITY}x parity floor)"
        )


@pytest.mark.parametrize("mode", MODES)
def test_backend_throughput(benchmark, mode):
    """Per-backend saturated-run benchmark (recorded for the CI artifact)."""
    vms = saturating_workload()

    def sweep():
        events = 0.0
        wall = 0.0
        for scheduler in PAPER_SCHEDULERS:
            ev, sec, _, _ = run_backend(mode, scheduler, vms, repeats=1)
            events += ev
            wall += sec
        return events, wall

    events, wall = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec"] = events / wall
