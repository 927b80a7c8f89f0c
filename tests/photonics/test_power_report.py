"""Tests for workload-level optical power aggregation."""

import random
from types import SimpleNamespace

import pytest

from repro.config import PRESETS, EnergyConfig, tiny_test
from repro.network import NetworkFabric
from repro.photonics import PowerReport, path_switch_energy_j, vm_optical_energy
from repro.topology import build_cluster
from repro.types import ResourceType


@pytest.fixture
def circuits():
    spec = tiny_test()
    cluster = build_cluster(spec)
    fabric = NetworkFabric(spec, cluster)
    cpu = cluster.boxes(ResourceType.CPU)[0]
    ram_same = cluster.boxes(ResourceType.RAM)[0]
    ram_other = [b for b in cluster.boxes(ResourceType.RAM) if b.rack_index == 1][0]
    intra = fabric.allocate_flow(cpu.box_id, ram_same.box_id, 20.0)
    inter = fabric.allocate_flow(cpu.box_id, ram_other.box_id, 20.0)
    return intra, inter


def test_vm_energy_breakdown(circuits):
    intra, _ = circuits
    entry = vm_optical_energy(0, [intra], 10.0, EnergyConfig())
    assert entry.switch_energy_j > 0
    assert entry.transceiver_energy_j > 0
    assert entry.total_j == pytest.approx(
        entry.switch_energy_j + entry.transceiver_energy_j
    )


def test_inter_rack_vm_costs_more(circuits):
    intra, inter = circuits
    cfg = EnergyConfig()
    e_intra = vm_optical_energy(0, [intra], 10.0, cfg).total_j
    e_inter = vm_optical_energy(1, [inter], 10.0, cfg).total_j
    assert e_inter > 1.5 * e_intra


def test_report_accumulates(circuits):
    intra, inter = circuits
    report = PowerReport(energy_config=EnergyConfig())
    report.record_vm(0, [intra], 10.0)
    report.record_vm(1, [inter], 10.0)
    assert len(report.per_vm) == 2
    assert report.total_energy_j == pytest.approx(
        sum(e.total_j for e in report.per_vm)
    )


def test_average_power(circuits):
    intra, _ = circuits
    report = PowerReport(energy_config=EnergyConfig())
    report.record_vm(0, [intra], 10.0)
    assert report.average_power_w(100.0) == pytest.approx(
        report.total_energy_j / 100.0
    )
    assert report.average_power_kw(100.0) == pytest.approx(
        report.average_power_w(100.0) / 1e3
    )


def test_average_power_zero_makespan(circuits):
    report = PowerReport(energy_config=EnergyConfig())
    assert report.average_power_w(0.0) == 0.0


def test_seconds_per_time_unit_scaling(circuits):
    intra, _ = circuits
    fast = PowerReport(energy_config=EnergyConfig(seconds_per_time_unit=1.0))
    slow = PowerReport(energy_config=EnergyConfig(seconds_per_time_unit=2.0))
    fast.record_vm(0, [intra], 10.0)
    slow.record_vm(0, [intra], 10.0)
    # Longer real-time lifetime -> more trim/transceiver energy.
    assert slow.total_energy_j > fast.total_energy_j


def preset_paths(spec):
    """Every switch-radix path a preset's fabric can resolve (one per LCA
    level), built the way ``NetworkFabric.resolve_path`` builds them."""
    topo = spec.network.fabric_topology()
    paths = []
    for lca in range(1, topo.num_tiers + 1):
        up = [topo.switch_ports_at(level) for level in range(lca + 1)]
        paths.append((*up, *up[-2::-1]))
    return paths


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_memoized_equation_1_is_bit_identical(preset):
    """The per-report memo prices every switch as ``reconfig + trim * T``:
    the same float operations, in the same order, as Equation (1) evaluated
    afresh — so per-VM and accumulated energies match bit for bit."""
    spec = PRESETS[preset]()
    energy = spec.energy
    paths = preset_paths(spec)
    rng = random.Random(preset)
    report = PowerReport(energy_config=energy)
    expected_total = 0.0
    for vm_id in range(60):
        circuits = [
            SimpleNamespace(
                switch_ports=rng.choice(paths), demand_gbps=10.0, hop_count=2
            )
            for _ in range(rng.randint(1, 3))
        ]
        lifetime = rng.choice((0.0, rng.uniform(0.0, 1.0), rng.expovariate(1e-3)))
        lifetime_s = lifetime * energy.seconds_per_time_unit
        expected = 0.0
        for circuit in circuits:
            expected += path_switch_energy_j(circuit.switch_ports, lifetime_s, energy)
        entry = report.record_vm(vm_id, circuits, lifetime)
        assert entry.switch_energy_j == expected
        assert vm_optical_energy(vm_id, circuits, lifetime, energy).switch_energy_j == expected
        expected_total += expected
    assert report.switch_energy_j == expected_total


def test_negative_lifetime_rejected_by_report(circuits):
    intra, _ = circuits
    report = PowerReport(energy_config=EnergyConfig())
    with pytest.raises(ValueError):
        report.record_vm(0, [intra], -1.0)
