"""Randomized lockstep property test for the two state backends.

One random operation stream — box allocate/release, circuit
reserve/release, checkpoint/restore — is applied to two identical worlds,
one per ``REPRO_STATE_BACKEND``.  After every step the worlds must agree on
every observable: snapshots, rack aggregates, capacity-index answers, tier
totals — and the array backend's flat state must be internally consistent
with its own object views (box availability = capacity − brick occupancy,
rack maxima = max over the rack's boxes, tier used = sum over that tier's
links, bundle aggregates = sum over member links).
"""

import random

import pytest

from repro.config import tiny_test
from repro.sim import DDCSimulator
from repro.state import STATE_BACKEND_ENV, state_backend
from repro.types import RESOURCE_ORDER

DEMANDS = (5.0, 12.5, 25.0, 50.0)


@pytest.fixture(autouse=True)
def _arrays_default(monkeypatch):
    monkeypatch.setenv(STATE_BACKEND_ENV, "arrays")


class World:
    """One backend's cluster+fabric plus the receipts needed to undo."""

    def __init__(self, mode):
        self.mode = mode
        with state_backend(mode):
            sim = DDCSimulator(tiny_test(), "risa")
        self.cluster = sim.cluster
        self.fabric = sim.fabric
        self.allocations = []  # (box, receipt)
        self.circuits = []

    def observables(self):
        cluster, fabric = self.cluster, self.fabric
        index = cluster.capacity_index
        probes = {}
        for rtype in RESOURCE_ORDER:
            for units in (1, 8, 16, 64):
                box = index.first_fit(rtype, units) if index else None
                probes[(rtype.value, units)] = None if box is None else box.box_id
        return {
            "cluster": cluster.snapshot(),
            "fabric": fabric.snapshot(),
            "totals": {t.value: cluster.total_avail(t) for t in RESOURCE_ORDER},
            "rack_max": [
                [rack.max_avail(t) for t in RESOURCE_ORDER] for rack in cluster.racks
            ],
            "rack_total": [
                [rack.total_avail(t) for t in RESOURCE_ORDER] for rack in cluster.racks
            ],
            "tiers": [fabric.tier_used_gbps(t) for t in fabric.tiers],
            "utils": {t.value: cluster.utilization(t) for t in RESOURCE_ORDER},
            "index_probes": probes,
        }

    def check_array_consistency(self):
        """The flat arrays must agree with the object views they back."""
        sa = self.cluster.state_arrays
        fa = self.fabric.state_arrays
        if sa is None:
            assert self.mode == "objects"
            return
        for tpos, rtype in enumerate(RESOURCE_ORDER):
            boxes = self.cluster.boxes(rtype)
            for pos, box in enumerate(boxes):
                brick_sum = sum(b.used_units for b in box.bricks)
                assert box.used_units == brick_sum
                assert int(sa.box_avail[tpos][pos]) == box.capacity_units - brick_sum
            for rack in self.cluster.racks:
                expected = max(
                    (b.avail_units for b in rack.boxes(rtype)), default=0
                )
                assert sa.rack_max_value(tpos, rack.index) == expected
        by_tier = {t: 0.0 for t in self.fabric.tiers}
        for level, tier in enumerate(self.fabric.tiers):
            for bundle in self.fabric.tier_bundles(level):
                member_sum = sum(l.used_gbps for l in bundle.links)
                assert bundle.used_gbps == pytest.approx(member_sum, abs=1e-6)
                by_tier[tier] += member_sum
        for tier in self.fabric.tiers:
            assert float(fa.tier_used[tier.level]) == pytest.approx(
                by_tier[tier], abs=1e-6
            )


def random_walk(seed, steps=250):
    rng = random.Random(seed)
    worlds = [World("arrays"), World("objects")]
    box_ids = [b.box_id for t in RESOURCE_ORDER for b in worlds[0].cluster.boxes(t)]
    checkpoints = []

    for step in range(steps):
        op = rng.choices(
            ("alloc", "free", "flow", "unflow", "checkpoint", "restore"),
            weights=(30, 20, 25, 15, 5, 5),
        )[0]
        if op == "alloc":
            rtype = rng.choice(RESOURCE_ORDER)
            pos = rng.randrange(len(worlds[0].cluster.boxes(rtype)))
            units = rng.choice((1, 3, 8, 16))
            outcomes = set()
            for w in worlds:
                box = w.cluster.boxes(rtype)[pos]
                if box.can_fit(units) and units > 0:
                    w.allocations.append((box, box.allocate(units)))
                    outcomes.add(True)
                else:
                    outcomes.add(False)
            assert len(outcomes) == 1  # both worlds made the same decision
        elif op == "free" and worlds[0].allocations:
            i = rng.randrange(len(worlds[0].allocations))
            for w in worlds:
                box, receipt = w.allocations.pop(i)
                box.release(receipt)
        elif op == "flow":
            a, b = rng.sample(box_ids, 2)
            demand = rng.choice(DEMANDS)
            got = set()
            for w in worlds:
                circuit = w.fabric.allocate_flow(a, b, demand)
                if circuit is not None:
                    w.circuits.append(circuit)
                got.add(circuit is not None)
            assert len(got) == 1
        elif op == "unflow" and worlds[0].circuits:
            i = rng.randrange(len(worlds[0].circuits))
            for w in worlds:
                w.fabric.release(w.circuits.pop(i))
        elif op == "checkpoint":
            checkpoints.append(
                [(w.cluster.snapshot(), w.fabric.snapshot()) for w in worlds]
            )
        elif op == "restore" and checkpoints:
            snap = rng.choice(checkpoints)
            for w, (cl, fb) in zip(worlds, snap):
                w.cluster.restore(cl)
                w.fabric.restore(fb)
                # Receipts straddling the restore are void; start fresh.
                w.allocations.clear()
                w.circuits.clear()

        obs = [w.observables() for w in worlds]
        assert obs[0] == obs[1], f"step {step} ({op}): backends diverged"
        for w in worlds:
            w.check_array_consistency()


@pytest.mark.parametrize("seed", range(4))
def test_random_walk_lockstep(seed):
    random_walk(seed)


def test_restore_after_fork_divergence():
    """Two checkpoints, interleaved restores: the array backend's bulk
    restore must rebuild rack maxima and index answers exactly."""
    random_walk(seed=99, steps=120)


def assert_native_columns(sim):
    """Every state and gauge column is a list of native Python scalars —
    ints for occupancy, floats for bandwidth and gauges.  ``np.float64``
    subclasses ``float``, hence the exact ``type`` checks."""
    sa = sim.cluster.state_arrays
    fa = sim.fabric.state_arrays
    bank = sim.collector._bank
    int_columns = [
        *sa.brick_used, *sa.brick_capacity, *sa.box_offsets, *sa.box_capacity,
        *sa.box_avail, *sa.rack_max, fa.link_tier,
    ]
    float_columns = [
        fa.link_used, fa.link_capacity, fa.bundle_used, fa.tier_used,
        fa.tier_capacity, bank.value, bank.last_time, bank.start_time,
        bank.integral, bank.peak,
    ]
    for column in int_columns:
        assert type(column) is list
        assert all(type(x) is int for x in column)
    for column in float_columns:
        assert type(column) is list
        assert all(type(x) is float for x in column)


def test_no_numpy_scalar_reenters_state_core(monkeypatch):
    """Batched departures, checkpoint/restore, a fork, a tier rescale and a
    link fault all write back native scalars: a numpy scalar in a column
    would silently slow every later per-VM read and write."""
    from repro.topology import Cluster
    from repro.workloads import SyntheticWorkloadParams, TraceColumns, generate_synthetic

    batch_sizes = []
    apply_release_batch = Cluster.apply_release_batch

    def counting(self, allocations):
        batch_sizes.append(len(allocations))
        return apply_release_batch(self, allocations)

    monkeypatch.setattr(Cluster, "apply_release_batch", counting)
    vms = generate_synthetic(SyntheticWorkloadParams(count=240), seed=1)
    times = sorted(vm.arrival for vm in vms)
    sim = DDCSimulator(tiny_test(), "risa")
    sim.start_run(TraceColumns.from_vms(vms))
    sim.advance(until=times[len(times) // 2])
    assert_native_columns(sim)
    checkpoint = sim.full_checkpoint()
    sim.fabric.scale_tier_capacity(-1, 0.5)
    sim.fabric.fail_links(-1, 0, count=1)
    sim.advance(until=times[3 * len(times) // 4])
    assert_native_columns(sim)
    child = sim.fork()
    child.finish()
    assert_native_columns(child)
    sim.restore_run(checkpoint)
    assert_native_columns(sim)
    sim.finish()
    assert_native_columns(sim)
    assert batch_sizes  # the fused departure path ran
