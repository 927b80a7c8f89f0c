"""Micro-benchmarks: per-decision scheduler cost and substrate hot paths.

These are genuine pytest-benchmark measurements (many rounds) of the
operations that dominate Figures 11-12: a single scheduling decision per
algorithm at steady-state utilization, a fabric circuit round-trip, and
the Equation (1) energy kernel.  Flat-engine dispatch cost is the e2e
ledger's ``sim.engine_us_per_event``.
"""

import itertools

import pytest

from repro.config import paper_default
from repro.network import NetworkFabric
from repro.photonics import path_switch_energy_j
from repro.schedulers import PAPER_SCHEDULERS, create_scheduler
from repro.topology import build_cluster
from repro.types import ResourceType
from repro.workloads import generate_synthetic, resolve_all


def steady_state(name: str):
    """A scheduler warmed to ~50 % utilization with churn-like history."""
    spec = paper_default()
    cluster = build_cluster(spec)
    fabric = NetworkFabric(spec, cluster)
    scheduler = create_scheduler(name, spec, cluster, fabric)
    requests = resolve_all(generate_synthetic(seed=1)[:1200], spec)
    placements = []
    for request in requests[:900]:
        placement = scheduler.schedule(request)
        if placement is not None:
            placements.append(placement)
    for placement in placements[::3]:  # churn: release a third
        scheduler.release(placement)
    return scheduler, itertools.cycle(requests[900:])


@pytest.mark.parametrize("name", PAPER_SCHEDULERS)
def test_single_decision(benchmark, name):
    """One schedule+release round-trip at steady state (Fig 11/12 kernel)."""
    scheduler, feed = steady_state(name)

    def decide():
        placement = scheduler.schedule(next(feed))
        if placement is not None:
            scheduler.release(placement)
        return placement

    benchmark(decide)


def test_fabric_circuit_roundtrip(benchmark):
    spec = paper_default()
    cluster = build_cluster(spec)
    fabric = NetworkFabric(spec, cluster)
    cpu = cluster.boxes(ResourceType.CPU)[0]
    ram = cluster.boxes(ResourceType.RAM)[0]

    def roundtrip():
        circuit = fabric.allocate_flow(cpu.box_id, ram.box_id, 20.0)
        fabric.release(circuit)

    benchmark(roundtrip)


def test_energy_model_kernel(benchmark):
    """Equation (1) over an inter-rack path (the Fig 9 inner loop)."""
    energy = paper_default().energy
    path = (64, 256, 512, 256, 64)
    benchmark(path_switch_energy_j, path, 6300.0, energy)
