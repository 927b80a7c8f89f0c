"""The end-to-end DDC simulator.

:class:`DDCSimulator` wires a cluster, fabric, scheduler, and metrics
collector together, then drives a VM trace through a discrete-event engine:
each VM arrives at its trace time, is scheduled (or dropped), and — if
placed — departs after its lifetime, releasing compute and network
resources.  Scheduler decision time is measured with ``perf_counter`` around
the ``schedule()`` call only, which is the Figure 11/12 quantity.

The calendar is :class:`~repro.sim.engine.FlatEngine`: arrivals stream lazily
from the trace, departures sit on a heap, and schedule/drop/release run as
direct calls.  Its tie rules fix the event order: at equal times arrivals fire
before departures, and equal-time departures fire in placement-commit order.
Every run of consecutive departures (up to the next arrival) reaches
:meth:`DDCSimulator._handle_departure_batch`, which releases it with fused
array arithmetic, or one event at a time when the batch is small, a rack is
drained, the state is not array-backed, or the scheduler overrides
``release``.  Both routes produce the same bits.

Forkable runs
-------------
Beyond the one-shot :meth:`DDCSimulator.run`, the simulator supports a
*stateful* run protocol for what-if studies: :meth:`start_run` binds the
trace, :meth:`advance` drives it to any horizon, :meth:`full_checkpoint`
captures the complete run state in O(cluster + links + active VMs) — compute
and network occupancy, link capacities, metric tallies and gauge integrals,
the event calendar, scheduler cursors, and the event-log length —
:meth:`restore_run` rewinds to it in place, and :meth:`fork` clones the live
run into an independent simulator.  Continuations are bit-identical to the
uninterrupted run: same event digests, same :class:`RunSummary`.  The
scenario engine in :mod:`repro.experiments.scenarios` builds branching
what-if sweeps on these primitives.
"""

from __future__ import annotations

import bisect
import time as _time
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from ..config import ClusterSpec
from ..errors import SimulationError
from ..metrics import MetricsCollector, MetricsSnapshot, summarize
from ..network import NetworkFabric
from ..schedulers import Placement, Scheduler, create_scheduler
from ..topology import Cluster, build_cluster
from ..types import RESOURCE_ORDER
from ..workloads import (
    DEFAULT_CHUNK_SIZE,
    ColumnarArrivals,
    ResolvedRequest,
    TraceColumns,
    VMRequest,
    resolve_iter,
)
from .engine import EngineSnapshot, FlatEngine
from .event_log import EventLog
from .results import SimulationResult

#: Below this many departures a batch is applied through the scalar path:
#: the numpy setup costs more than it saves on tiny runs.
_MIN_FAST_BATCH = 4


@dataclass(frozen=True, slots=True)
class SimCheckpoint:
    """Resource-state checkpoint of a simulator (compute + network).

    Captures per-box brick occupancy and per-link reserved bandwidth — the
    state an oversubscribed what-if run mutates.  It deliberately excludes
    metrics, the event log, and scheduler cursors: a rollback rewinds the
    *cluster*, not the experiment record.  For a rewind of the whole
    experiment, see :class:`RunCheckpoint`.
    """

    cluster: tuple[tuple[int, ...], ...]
    fabric: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class RunCheckpoint:
    """Full-state checkpoint of a mid-trace run (the fork point).

    Everything :meth:`DDCSimulator.restore_run` needs to resume with a
    guaranteed bit-identical continuation: resource occupancy, link
    capacities (what-if perturbations are part of run state), the engine
    calendar (departure heap + arrival position + tie-break counter), the
    metrics collector's scalar state, scheduler-private state, the event-log
    length, and the admission-control setting.  Append-only histories
    (records, per-VM energy, the event log) are captured by *length* only —
    O(1) each — so checkpoints cost O(cluster + links + active VMs), not
    O(trace).
    """

    time: float
    cluster: tuple[tuple[int, ...], ...]
    drained_racks: tuple[int, ...]
    fabric_used: tuple[float, ...]
    fabric_capacity: tuple[float, ...]
    engine: EngineSnapshot
    metrics: MetricsSnapshot
    scheduler_state: object | None
    event_count: int
    admission_threshold: float | None
    #: Down-link bookkeeping (link id -> pre-fault capacity) and the
    #: not-yet-fired fault schedule.  Default to empty so checkpoints from
    #: fault-free runs keep their pre-fault shape.
    fabric_faults: tuple[tuple[int, float], ...] = ()
    pending_faults: tuple = ()


class DDCSimulator:
    """Simulate one scheduler over one VM trace."""

    def __init__(
        self,
        spec: ClusterSpec,
        scheduler: str | Scheduler,
        cluster: Cluster | None = None,
        fabric: NetworkFabric | None = None,
        event_log: EventLog | None = None,
        engine: str = "flat",
        keep_records: bool = True,
        admission_threshold: float | None = None,
        chunk_size: int | None = None,
    ) -> None:
        # ``engine`` survives only so callers that name the flat calendar
        # explicitly keep working; it is the one engine there is.
        if engine != "flat":
            raise SimulationError(f"unknown engine {engine!r}; the only engine is 'flat'")
        self.spec = spec
        self.cluster = cluster if cluster is not None else build_cluster(spec)
        self.fabric = fabric if fabric is not None else NetworkFabric(spec, self.cluster)
        if isinstance(scheduler, str):
            self.scheduler = create_scheduler(scheduler, spec, self.cluster, self.fabric)
        else:
            if scheduler.cluster is not self.cluster or scheduler.fabric is not self.fabric:
                raise SimulationError(
                    "scheduler instance must share the simulator's cluster/fabric"
                )
            self.scheduler = scheduler
        # keep_records=False trades per-VM records for O(1) metric memory —
        # the sweep-workload mode (summaries stay exact either way).
        self.collector = MetricsCollector(
            spec, self.cluster, self.fabric, keep_records=keep_records
        )
        self.event_log = event_log
        #: Utilization-based admission control: a new arrival is rejected
        #: (dropped without consulting the scheduler) while any compute
        #: resource's cluster utilization exceeds this fraction.  ``None``
        #: (the default) disables the gate — bit-identical to the paper's
        #: schedule-or-drop behavior.  Mutable mid-run: the scenario
        #: engine's admission branches flip it at the fork point.
        self.admission_threshold = admission_threshold
        #: Arrival-resolution batch size for columnar traces (how many VMs
        #: are resolved into request objects at a time).
        self.chunk_size = DEFAULT_CHUNK_SIZE if chunk_size is None else int(chunk_size)
        # The fused departure path requires the array state backend on both
        # cluster and fabric, the array gauge bank, and the stock release
        # path — a scheduler that overrides release() gets the scalar loop,
        # always.
        self._batch_fast = (
            self.cluster.state_arrays is not None
            and self.fabric.state_arrays is not None
            and self.collector.has_gauge_bank()
            and type(self.scheduler).release is Scheduler.release
        )
        # Stateful (forkable) run machinery; populated by start_run().
        # Exactly one of _trace (object traces) / _source (columnar traces)
        # is set during a stateful run.
        self._flat: FlatEngine | None = None
        self._trace: tuple[ResolvedRequest, ...] | None = None
        self._source: ColumnarArrivals | None = None
        # Scheduled fault timeline: (when, seq, action) ascending.  The seq
        # counter breaks same-time ties by insertion order, so a restored or
        # forked run fires an identical fault sequence.
        self._pending_faults: list[tuple[float, int, object]] = []
        self._fault_seq = 0

    # ------------------------------------------------------------------ #
    # What-if checkpointing (oversubscription rollback)
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> SimCheckpoint:
        """Capture current compute and network occupancy."""
        return SimCheckpoint(
            cluster=self.cluster.snapshot(), fabric=self.fabric.snapshot()
        )

    def rollback(self, checkpoint: SimCheckpoint) -> None:
        """Rewind compute and network occupancy to a prior checkpoint.

        Both restores run through the public occupancy APIs, whose change
        listeners keep every derived structure — cluster totals, rack
        caches, the capacity index, bundle aggregates and free-link
        indexes, tier counters — consistent with the rewound occupancy;
        an oversubscribed trial run leaves no trace.
        """
        self.cluster.restore(checkpoint.cluster)
        self.fabric.restore(checkpoint.fabric)

    # ------------------------------------------------------------------ #
    # Lifecycle handlers (the calendar calls these directly)
    # ------------------------------------------------------------------ #

    def _admission_rejects(self) -> bool:
        """True when the admission gate should turn the arrival away."""
        threshold = self.admission_threshold
        return any(
            self.cluster.utilization(rtype) > threshold for rtype in RESOURCE_ORDER
        )

    def _handle_arrival(self, request: ResolvedRequest, now: float) -> Placement | None:
        """Schedule-or-drop one arrival; returns the placement (None = drop)."""
        if self.event_log is not None:
            self.event_log.record(now, "arrival", request.vm_id)
        if self.admission_threshold is not None and self._admission_rejects():
            # Rejected at admission: dropped without a scheduler decision
            # (and without contributing to Figure 11/12 scheduler time).
            self.collector.record_drop(request, now)
            if self.event_log is not None:
                self.event_log.record(now, "drop", request.vm_id)
            return None
        start = _time.perf_counter()
        placement = self.scheduler.schedule(request)
        self.collector.add_scheduler_time(_time.perf_counter() - start)
        if placement is None:
            self.collector.record_drop(request, now)
            if self.event_log is not None:
                self.event_log.record(now, "drop", request.vm_id)
            return None
        self.collector.record_assignment(placement, now)
        if self.event_log is not None:
            self.event_log.record(
                now, "placement", request.vm_id,
                racks=tuple(sorted(placement.racks)),
            )
        return placement

    def _handle_departure(self, placement: Placement, now: float) -> None:
        """Release one placed VM's compute and network resources."""
        self.scheduler.release(placement)
        self.collector.record_release(now)
        if self.event_log is not None:
            self.event_log.record(now, "departure", placement.vm_id)

    def _handle_departure_batch(
        self, batch: list[tuple[float, Placement]]
    ) -> None:
        """Apply a run of consecutive departures from the calendar.

        Tiny batches, non-array configurations, overridden scheduler
        release paths, and drained-rack states (whose sticky re-occupation
        is inherently per-box) fall back to the per-event handler —
        bit-identical by construction, just without the fused arithmetic.
        """
        if (
            self._batch_fast
            and len(batch) >= _MIN_FAST_BATCH
            and not self.cluster.drained_racks
        ):
            self._apply_departure_batch(batch)
            return
        for now, placement in batch:
            self._handle_departure(placement, now)

    def _apply_departure_batch(
        self, batch: list[tuple[float, Placement]]
    ) -> None:
        """Fused release of a departure run (the tentpole fast path).

        Compute receipts scatter into the occupancy arrays in one pass per
        resource type; the per-event utilization series is reconstructed
        *exactly* from the pre-batch totals plus an integer cumulative sum
        (int64 -> float64 conversion is exact and the division is the same
        correctly-rounded ``avail / cap`` the scalar path computes, so each
        gauge row is bit-identical to what per-event sampling would have
        seen).  Network circuits release through the sequential scalar
        chain with only the free-link tree upkeep deferred to the batch
        boundary.  Gauge rows then replay through the bank's batched fold
        with the same per-row change gate the collector applies per event.
        """
        cluster = self.cluster
        fabric = self.fabric
        tiers = fabric.tiers
        num_tiers = len(tiers)
        n = len(batch)
        start_avail = [cluster.total_avail(rtype) for rtype in RESOURCE_ORDER]
        comp_caps = [cluster.total_capacity(rtype) for rtype in RESOURCE_ORDER]
        times = np.empty(n, dtype=np.float64)
        released = np.zeros((n, len(RESOURCE_ORDER)), dtype=np.int64)
        allocations = []
        groups = []
        for i, (now, placement) in enumerate(batch):
            times[i] = now
            allocations.append(placement.cpu)
            released[i, 0] = placement.cpu.units
            allocations.append(placement.ram)
            released[i, 1] = placement.ram.units
            if placement.storage is not None:
                allocations.append(placement.storage)
                released[i, 2] = placement.storage.units
            groups.append(placement.circuits)
        cluster.apply_release_batch(allocations)
        rows = fabric.release_batch(groups)
        values = np.empty((n, num_tiers + 3), dtype=np.float64)
        for i, tier in enumerate(tiers):
            cap = fabric.tier_capacity_gbps(tier)
            if cap == 0:
                values[:, i] = 0.0
            else:
                np.divide(rows[:, i], cap, out=values[:, i])
        for tpos in range(len(RESOURCE_ORDER)):
            col = num_tiers + tpos
            cap = comp_caps[tpos]
            if cap == 0:
                values[:, col] = 0.0
            else:
                avail = start_avail[tpos] + np.cumsum(released[:, tpos])
                np.divide(avail, cap, out=values[:, col])
                np.subtract(1.0, values[:, col], out=values[:, col])
        self.collector.record_release_batch(times, values)
        if self.event_log is not None:
            for now, placement in batch:
                self.event_log.record(now, "departure", placement.vm_id)

    # ------------------------------------------------------------------ #
    # One-shot runs
    # ------------------------------------------------------------------ #

    def _arrival_ordered(
        self, vms: Iterable[VMRequest] | TraceColumns, stream: bool
    ) -> Iterator[ResolvedRequest] | ColumnarArrivals:
        """Lazily resolve the trace in arrival order.

        Already-sorted inputs stream without copies; unsorted ones get one
        stable sort (preserving trace order among equal arrivals).  With
        ``stream=True`` a non-sequence iterable is consumed lazily as-is —
        the caller guarantees arrival order (the calendar raises otherwise)
        and resolution errors surface at the offending arrival instead of
        up-front.

        A :class:`TraceColumns` trace never becomes a request list: it is
        (stably) sorted as arrays if needed and wrapped in a
        :class:`ColumnarArrivals` source that resolves one
        :attr:`chunk_size` slice at a time.
        """
        if isinstance(vms, TraceColumns):
            if not vms.is_sorted():
                vms = vms.sorted_by_arrival()
            return ColumnarArrivals(vms, self.spec, self.chunk_size)
        if not isinstance(vms, (list, tuple)):
            if stream:
                return resolve_iter(vms, self.spec)
            vms = list(vms)
        if any(vms[i].arrival > vms[i + 1].arrival for i in range(len(vms) - 1)):
            vms = sorted(vms, key=lambda vm: vm.arrival)
        return resolve_iter(vms, self.spec)

    def _result(self, end_time: float) -> SimulationResult:
        summary = summarize(self.scheduler.name, self.collector)
        return SimulationResult(
            scheduler=self.scheduler.name,
            spec=self.spec,
            summary=summary,
            records=tuple(self.collector.records),
            end_time=end_time,
        )

    def run(
        self,
        vms: Iterable[VMRequest] | TraceColumns,
        until: float | None = None,
        stream: bool = False,
    ) -> SimulationResult:
        """Run the trace to completion (or ``until``) and summarize.

        Any iterable of requests is accepted in any order (unsorted traces
        are sorted first).  ``stream=True`` instead consumes a
        lazily-produced, arrival-sorted iterable without ever materializing
        it — O(active VMs) memory for arbitrarily long traces.  A
        :class:`TraceColumns` trace always streams: per-VM request objects
        exist only for the chunk currently being dispatched.
        """
        if self._pending_faults:
            if stream:
                raise SimulationError(
                    "a scheduled fault timeline cannot run with stream=True "
                    "(the run is driven statefully)"
                )
            # Route through the stateful machinery so the fault timeline
            # fires — this is the "cold run with the same fault schedule"
            # side of the fork-equivalence contract.
            self.start_run(vms)
            end_time = self.advance(until)
            return self._result(end_time)
        end_time = FlatEngine().run(
            self._arrival_ordered(vms, stream),
            self._handle_arrival,
            self._handle_departure,
            until=until,
            on_departures=self._handle_departure_batch,
        )
        return self._result(end_time)

    # ------------------------------------------------------------------ #
    # Stateful (forkable) runs
    # ------------------------------------------------------------------ #

    @property
    def run_started(self) -> bool:
        """True once :meth:`start_run` has bound a trace."""
        return self._flat is not None

    @property
    def now(self) -> float:
        """Current clock of the stateful run."""
        return self._require_run().now

    @property
    def trace(self) -> tuple[ResolvedRequest, ...]:
        """The resolved, arrival-ordered trace of the stateful run.

        Columnar stateful runs never materialize a request tuple; asking
        for one raises (iterate :attr:`arrival_source` instead).
        """
        self._require_run()
        if self._trace is None:
            raise SimulationError(
                "this run streams a columnar trace; there is no materialized "
                "request tuple (use arrival_source to iterate it)"
            )
        return self._trace

    @property
    def arrival_source(self) -> ColumnarArrivals | None:
        """The columnar arrival source of the stateful run (None when the
        run was started from an object trace)."""
        self._require_run()
        return self._source

    def _require_run(self) -> FlatEngine:
        if self._flat is None:
            raise SimulationError(
                "no stateful run is active; call start_run(vms) first"
            )
        return self._flat

    def start_run(self, vms: Iterable[VMRequest] | TraceColumns) -> None:
        """Begin a resumable run: resolve and bind the trace.

        Unlike :meth:`run`, no events are processed yet — drive the clock
        with :meth:`advance` / :meth:`finish`.  Object traces materialize a
        resolved request tuple (checkpoints store an *index* into it);
        :class:`TraceColumns` traces instead bind a re-seekable
        :class:`ColumnarArrivals` source, so even forkable million-VM runs
        keep O(chunk) request objects resident.
        """
        ordered = self._arrival_ordered(vms, stream=False)
        self._flat = FlatEngine()
        if isinstance(ordered, ColumnarArrivals):
            self._source = ordered
            self._trace = None
            self._flat.bind_arrivals(ordered)
        else:
            self._source = None
            self._trace = tuple(ordered)
            self._flat.bind_arrivals(iter(self._trace))

    def schedule_fault(self, when: float, action: object) -> None:
        """Queue a perturbation to fire at clock time ``when``.

        ``action`` is anything with an ``apply(sim)`` method — the scenario
        engine's :class:`~repro.experiments.scenarios.Perturbation` protocol
        (link failures, flap recoveries, bundle degrades, ...).  The next
        :meth:`advance` / :meth:`finish` drives the engine to ``when``
        first — processing every event at exactly ``when`` — then fires the
        action, so the fault lands at the same point of the event stream in
        a cold run, a restored run, and a fork.  Same-time faults fire in
        scheduling order.  One-shot :meth:`run` honors the timeline too.
        """
        bisect.insort(self._pending_faults, (when, self._fault_seq, action))
        self._fault_seq += 1

    @property
    def pending_faults(self) -> tuple[tuple[float, object], ...]:
        """The not-yet-fired fault timeline as ``(when, action)`` pairs."""
        return tuple((when, action) for when, _seq, action in self._pending_faults)

    def advance(self, until: float | None = None) -> float:
        """Drive the stateful run (to ``until``, or until the trace drains).

        Returns the clock.  Events exactly at ``until`` are processed;
        later ones wait for the next call — so an ``advance(t)`` /
        checkpoint / ``advance()`` sequence replays the uninterrupted run
        event for event.  Scheduled faults due by ``until`` fire in order,
        each after the events at its own fire time.
        """
        engine = self._require_run()
        while self._pending_faults:
            when, _seq, action = self._pending_faults[0]
            if until is not None and when > until:
                break
            if when > engine.now:
                engine.advance(
                    self._handle_arrival,
                    self._handle_departure,
                    until=when,
                    on_departures=self._handle_departure_batch,
                )
            self._pending_faults.pop(0)
            action.apply(self)
        return engine.advance(
            self._handle_arrival,
            self._handle_departure,
            until=until,
            on_departures=self._handle_departure_batch,
        )

    def finish(self) -> SimulationResult:
        """Drain the remaining trace (firing any scheduled faults) and
        summarize the run."""
        self._require_run()
        return self._result(self.advance())

    def full_checkpoint(self) -> RunCheckpoint:
        """Capture the complete state of the stateful run (the fork point).

        O(cluster + links + active VMs): occupancy snapshots, scalar metric
        tallies and gauge integrals, the departure heap, and the lengths of
        the append-only histories.  Restoring (or forking from) it resumes
        with bit-identical event digests and summaries.
        """
        engine = self._require_run()
        return RunCheckpoint(
            time=engine.now,
            cluster=self.cluster.snapshot(),
            drained_racks=tuple(sorted(self.cluster.drained_racks)),
            fabric_used=self.fabric.snapshot(),
            fabric_capacity=self.fabric.capacity_snapshot(),
            engine=engine.snapshot(),
            metrics=self.collector.snapshot(),
            scheduler_state=self.scheduler.snapshot_state(),
            event_count=len(self.event_log) if self.event_log is not None else 0,
            admission_threshold=self.admission_threshold,
            fabric_faults=self.fabric.fault_snapshot(),
            pending_faults=tuple(self._pending_faults),
        )

    def restore_run(self, checkpoint: RunCheckpoint) -> None:
        """Rewind the stateful run to a :meth:`full_checkpoint` in place.

        Capacities restore before occupancy (occupancy validates against
        capacity), occupancy restores through the listener-backed APIs (all
        derived indexes follow), histories truncate back to their
        checkpoint lengths, and the engine re-binds the trace suffix.  Any
        perturbation the abandoned branch applied — admission thresholds,
        tier capacity scaling, pod drains — is undone wholesale.
        """
        engine = self._require_run()
        self.fabric.restore_capacities(checkpoint.fabric_capacity)
        self.fabric.restore_faults(checkpoint.fabric_faults)
        self._pending_faults = list(checkpoint.pending_faults)
        self.cluster.restore(checkpoint.cluster)
        if checkpoint.drained_racks:
            # The snapshot already holds the drained occupancy; this only
            # re-arms the stickiness cluster.restore() lifted.
            self.cluster.drain_racks(checkpoint.drained_racks)
        self.fabric.restore(checkpoint.fabric_used)
        self.collector.restore(checkpoint.metrics)
        self.scheduler.restore_state(checkpoint.scheduler_state)
        if self.event_log is not None:
            self.event_log.truncate(checkpoint.event_count)
        self.admission_threshold = checkpoint.admission_threshold
        if self._source is not None:
            # The source re-seeks itself to the snapshot's arrival index.
            engine.restore(checkpoint.engine, self._source)
        else:
            assert self._trace is not None
            suffix = self._trace[checkpoint.engine.next_arrival_index:]
            engine.restore(checkpoint.engine, iter(suffix))

    def fork(self) -> "DDCSimulator":
        """Clone the live stateful run into an independent simulator.

        The fork gets its own cluster, fabric, scheduler, collector, and
        event log, all rewound to this run's current state — including any
        perturbations already applied — and resumes from the same mid-trace
        position with a guaranteed bit-identical continuation.  Committed
        placements on the departure calendar are re-bound to the clone's
        boxes and links (receipts are plain data; circuits are re-pointed by
        link id), so neither run can observe the other's mutations.  The
        resolved trace itself is immutable and shared.

        Cost: O(cluster + links + active VMs) for the calendar and occupancy
        state — but the accumulated histories (the event log, and per-VM
        records/power entries under ``keep_records=True``) must be *copied*
        so the branches can append independently, which is O(events so far).
        Record-free runs with no event log (the sweep/scenario default) keep
        forks cheap; for many branches off one point, prefer
        :meth:`full_checkpoint`/:meth:`restore_run`, which rewind histories
        by length instead of copying them.

        The clone's scheduler is built from ``type(self.scheduler)``, not
        from its registry name, so an unregistered subclass forks into
        itself.
        """
        engine = self._require_run()
        cluster = build_cluster(self.spec)
        fabric = NetworkFabric(self.spec, cluster)
        clone = DDCSimulator(
            self.spec,
            type(self.scheduler)(self.spec, cluster, fabric),
            cluster=cluster,
            fabric=fabric,
            event_log=EventLog(self.event_log.events)
            if self.event_log is not None
            else None,
            keep_records=self.collector.keep_records,
            admission_threshold=self.admission_threshold,
            chunk_size=self.chunk_size,
        )
        clone.fabric.restore_capacities(self.fabric.capacity_snapshot())
        clone.fabric.restore_faults(self.fabric.fault_snapshot())
        clone._pending_faults = list(self._pending_faults)
        clone._fault_seq = self._fault_seq
        clone.cluster.restore(self.cluster.snapshot())
        if self.cluster.drained_racks:
            clone.cluster.drain_racks(sorted(self.cluster.drained_racks))
        clone.fabric.restore(self.fabric.snapshot())
        # Copy-on-fork: share the frozen per-VM entries, then rewind the
        # clone's collector onto them (the snapshot lengths match exactly).
        clone.collector.records.extend(self.collector.records)
        clone.collector.power.per_vm.extend(self.collector.power.per_vm)
        clone.collector.restore(self.collector.snapshot())
        clone.scheduler.restore_state(self.scheduler.snapshot_state())
        links = clone.fabric.links_by_id()
        snap = engine.snapshot()
        rebound = tuple(
            (when, seq, self._rebind_placement(placement, links))
            for when, seq, placement in snap.departures
        )
        clone._trace = self._trace
        clone._source = self._source
        clone._flat = FlatEngine()
        if self._source is not None:
            # The columnar source is immutable and re-seekable — shared.
            clone._flat.restore(replace(snap, departures=rebound), self._source)
        else:
            assert self._trace is not None
            clone._flat.restore(
                replace(snap, departures=rebound),
                iter(self._trace[snap.next_arrival_index:]),
            )
        return clone

    @staticmethod
    def _rebind_placement(placement: Placement, links: dict) -> Placement:
        """Re-point a placement's circuits at another fabric's link objects.

        Box allocations are plain data (ids + brick slices) and transfer
        as-is; circuits hold live :class:`~repro.network.link.Link` objects
        and must be re-bound by link id so releases hit the clone's fabric.
        """
        circuits = tuple(
            replace(circuit, links=tuple(links[l.link_id] for l in circuit.links))
            for circuit in placement.circuits
        )
        return replace(placement, circuits=circuits)


def simulate(
    spec: ClusterSpec,
    scheduler: str,
    vms: Iterable[VMRequest] | TraceColumns,
    keep_records: bool = True,
) -> SimulationResult:
    """One-shot convenience wrapper: fresh cluster, run, summarize."""
    return DDCSimulator(spec, scheduler, keep_records=keep_records).run(vms)
