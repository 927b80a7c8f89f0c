#!/usr/bin/env python3
"""Admission policies in front of the scheduler: gate, drop, or queue.

The paper drops a VM the moment it cannot be placed.  Real control planes
put an admission policy in front of the scheduler instead.  This example
compares three on the same overloaded trace (double the paper's arrival
rate):

1. **hard drop** — the paper's behavior, no policy at all;
2. **utilization gate** — the simulator's built-in admission control
   (``DDCSimulator(admission_threshold=u)`` rejects arrivals while any
   compute resource's cluster utilization exceeds ``u``; the same lever the
   scenario engine's ``AdmissionThreshold`` perturbation flips mid-run);
3. **retry queue** — a retry loop with a patience deadline: a small
   ``heapq`` event loop around the public scheduler API, without touching
   the scheduler.

Run:  python examples/admission_queue.py
"""

import heapq

from repro import paper_default
from repro.network import NetworkFabric
from repro.schedulers import create_scheduler
from repro.sim import DDCSimulator
from repro.topology import build_cluster
from repro.workloads import SyntheticWorkloadParams, generate_synthetic, resolve_all

RETRY_INTERVAL = 50.0
PATIENCE = 1200.0  # how long a queued request may wait before giving up


def overloaded_trace():
    """Double the paper's arrival rate: the cluster saturates mid-trace."""
    return generate_synthetic(
        SyntheticWorkloadParams(count=2000, mean_interarrival=5.0), seed=0
    )


def run_gated(threshold: float | None) -> tuple[int, int]:
    """Returns (placed, rejected) under the built-in utilization gate."""
    sim = DDCSimulator(
        paper_default(), "risa", keep_records=False, admission_threshold=threshold
    )
    summary = sim.run(overloaded_trace()).summary
    return summary.scheduled_vms, summary.dropped_vms


def run_queued(patience: float) -> tuple[int, int]:
    """Returns (placed, abandoned) under a retry queue with ``patience``."""
    spec = paper_default()
    cluster = build_cluster(spec)
    fabric = NetworkFabric(spec, cluster)
    scheduler = create_scheduler("risa", spec, cluster, fabric)
    requests = resolve_all(overloaded_trace(), spec)

    # Events are (time, seq, kind, payload, deadline).  ``seq`` breaks
    # equal-time ties in push order: arrivals (pushed first) before retries
    # and departures, and those in the order they were scheduled.
    events = [
        (request.vm.arrival, seq, "try", request, request.vm.arrival + patience)
        for seq, request in enumerate(requests)
    ]
    heapq.heapify(events)
    seq = len(events)
    placed = 0
    abandoned = 0
    while events:
        now, _, kind, payload, deadline = heapq.heappop(events)
        if kind == "depart":
            scheduler.release(payload)
            continue
        placement = scheduler.schedule(payload)
        if placement is not None:
            placed += 1
            heapq.heappush(
                events, (now + payload.vm.lifetime, seq, "depart", placement, None)
            )
        elif patience == 0.0 or now + RETRY_INTERVAL > deadline:
            abandoned += 1
        else:
            heapq.heappush(
                events, (now + RETRY_INTERVAL, seq, "try", payload, deadline)
            )
        seq += 1
    return placed, abandoned


def main() -> None:
    print(f"{'policy':>24s} {'placed':>7s} {'turned away':>11s}")
    placed, dropped = run_gated(None)
    print(f"{'hard drop (paper)':>24s} {placed:7d} {dropped:11d}")
    for threshold in (0.7, 0.9):
        placed, rejected = run_gated(threshold)
        print(f"{f'gate at {threshold:.0%} util':>24s} {placed:7d} {rejected:11d}")
    for patience in (300.0, PATIENCE):
        placed, abandoned = run_queued(patience)
        print(f"{f'queue, patience {patience:.0f}':>24s} {placed:7d} {abandoned:11d}")
    print(
        "\nThe utilization gate sheds load *before* the scheduler burns time"
        "\non doomed placements; the retry queue converts hard drops into"
        "\ndelayed placements.  Both are extensions the paper leaves to"
        "\nfuture work — the gate is one constructor argument, the queue is"
        "\na short heap-driven loop around the public scheduler API."
    )


if __name__ == "__main__":
    main()
