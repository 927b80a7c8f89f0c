"""Per-run metric collection.

One :class:`MetricsCollector` accompanies one (scheduler, workload) run and
accumulates everything the paper's figures need: per-VM placement records
(Figures 5, 7, 10), time-weighted network/compute utilization (Figure 8 and
the Section 5.1 utilization quotes), optical energy (Figure 9), and the
scheduler-only wall-clock time (Figures 11-12).

Network gauges are per fabric tier: the leaf tier samples as ``intra_net``
and the top tier as ``inter_net`` (the paper's two Figure 8 series — on the
two-tier fabric those are the only tiers), and every intermediate tier gets
its own ``<name>_net`` gauge (``pod_net`` on a pod/spine fabric).

Large sweeps that only need :class:`~repro.metrics.summary.RunSummary`
scalars can pass ``keep_records=False``: scalar tallies (drop counts,
inter-rack counts, latency sums) are maintained incrementally and the
per-VM :class:`VMRecord` list stays empty, so memory stays O(1) in trace
length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ClusterSpec
from ..errors import SimulationError
from ..network import NetworkFabric
from ..photonics import PowerReport
from ..schedulers import Placement
from ..state import arrays_enabled
from ..topology import Cluster
from ..types import RESOURCE_ORDER, ResourceType, TierId
from ..workloads import ResolvedRequest
from .gauges import GaugeBank, TimeWeightedGauge


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """O(1) copy-on-fork state of a :class:`MetricsCollector`.

    Everything a mid-run fork needs to continue bit-identically: the scalar
    tallies, every gauge's six scalars (including its raw pending-fold
    register — see :mod:`repro.metrics.gauges`), the power report's energy
    totals, and the *length* of the append-only per-VM lists (records rewind
    by truncation, they are never copied)."""

    record_count: int
    scheduler_time_s: float
    first_arrival: float | None
    last_event_time: float
    total_requests: int
    scheduled_count: int
    inter_rack_count: int
    latency_sum_ns: float
    latency_count: int
    gauges: tuple[tuple[str, tuple[float, float, float, float, float, float]], ...]
    power: tuple[float, float, int]


@dataclass(frozen=True, slots=True)
class VMRecord:
    """Outcome of one VM request."""

    vm_id: int
    arrival: float
    lifetime: float
    scheduled: bool
    intra_rack: bool
    cpu_ram_intra: bool
    racks_spanned: int
    racks: tuple[int, ...]
    cpu_ram_latency_ns: float | None
    optical_energy_j: float
    #: Fabric tiers the VM's circuits climb (1 = same rack); 0 for drops.
    tier_distance: int = 0


def tier_gauge_name(tier: TierId, num_tiers: int) -> str:
    """The gauge label of one fabric tier.

    The leaf tier keeps the paper's ``intra_net`` name and the top tier
    ``inter_net`` (so two-tier runs read exactly as before); intermediate
    tiers are labelled ``<name>_net``.
    """
    if tier.level == 0:
        return "intra_net"
    if tier.level == num_tiers - 1:
        return "inter_net"
    return f"{tier.name}_net"


@dataclass(slots=True)
class MetricsCollector:
    """Accumulates a run's records, gauges, energy, and timing."""

    spec: ClusterSpec
    cluster: Cluster
    fabric: NetworkFabric
    keep_records: bool = True
    records: list[VMRecord] = field(default_factory=list)
    power: PowerReport = field(init=False)
    scheduler_time_s: float = 0.0
    first_arrival: float | None = None
    last_event_time: float = 0.0
    _gauges: dict[str, TimeWeightedGauge] = field(default_factory=dict)
    _net_gauges: tuple[tuple[TierId, TimeWeightedGauge], ...] = field(
        init=False, default=()
    )
    #: Array-backed gauge store (``REPRO_STATE_BACKEND=arrays``); when set,
    #: ``_gauges``/``_net_gauges`` stay empty and the bank is authoritative.
    _bank: GaugeBank | None = field(init=False, default=None)
    _net_tiers: tuple[TierId, ...] = field(init=False, default=())
    _values_buf: list = field(init=False, default_factory=list)
    # State-version fingerprint of the last full sample; -1 forces the next
    # sample to recompute every utilization (construction, reset, restore).
    _cluster_version: int = field(init=False, default=-1)
    _fabric_version: int = field(init=False, default=-1)
    # Scalar tallies maintained on every event so summaries never need the
    # per-VM record list (the keep_records=False path).
    total_requests: int = field(init=False, default=0)
    scheduled_count: int = field(init=False, default=0)
    inter_rack_count: int = field(init=False, default=0)
    latency_sum_ns: float = field(init=False, default=0.0)
    latency_count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.power = PowerReport(energy_config=self.spec.energy)
        tiers = self.fabric.tiers
        self._net_tiers = tuple(tiers)
        names = [tier_gauge_name(tier, len(tiers)) for tier in tiers]
        names += ["cpu", "ram", "storage"]
        self._gauges = {}
        self._net_gauges = ()
        self._bank = None
        if arrays_enabled():
            self._bank = GaugeBank(names)
            self._values_buf = [0.0] * len(names)
        else:
            net_pairs = []
            for tier in tiers:
                gauge = TimeWeightedGauge()
                self._gauges[tier_gauge_name(tier, len(tiers))] = gauge
                net_pairs.append((tier, gauge))
            self._net_gauges = tuple(net_pairs)
            for name in ("cpu", "ram", "storage"):
                self._gauges[name] = TimeWeightedGauge()
        self._cluster_version = -1
        self._fabric_version = -1
        self.total_requests = 0
        self.scheduled_count = 0
        self.inter_rack_count = 0
        self.latency_sum_ns = 0.0
        self.latency_count = 0

    # ------------------------------------------------------------------ #
    # Event hooks
    # ------------------------------------------------------------------ #

    def _sample_gauges(self, now: float) -> None:
        """Refresh every gauge from cluster/fabric state at ``now``.

        When neither the cluster nor the fabric changed since the last full
        sample (their version counters match), every utilization reads the
        same value — drop-heavy runs hit this constantly: a rejected VM
        touches no state, so the tick only advances the gauges' pending
        clock (a scalar store in the bank).

        When the versions *did* change, the fresh utilizations are compared
        against the current gauge values and the integrals fold only when at
        least one actually differs.  The collector — not the gauges — owns
        this change gate on purpose: the fold points (which define the exact
        IEEE-754 grouping of the accumulated averages) become a pure
        function of the sampled value series, identical across state
        backends, per-event vs batched departures, and cold vs restored runs.  In
        particular, a restored collector's forced recompute (versions reset
        to ``-1``) lands on equal values and takes the same no-fold path the
        uninterrupted run took.
        """
        cv = self.cluster.version
        fv = self.fabric.version
        if cv == self._cluster_version and fv == self._fabric_version:
            if self._bank is not None:
                self._bank.advance_all(now)
            else:
                for gauge in self._gauges.values():
                    gauge.advance(now)
            self.last_event_time = max(self.last_event_time, now)
            return
        self._cluster_version = cv
        self._fabric_version = fv
        fabric = self.fabric
        cluster = self.cluster
        if self._bank is not None:
            buf = self._values_buf
            for i, tier in enumerate(self._net_tiers):
                buf[i] = fabric.tier_utilization(tier)
            k = len(self._net_tiers)
            buf[k] = cluster.utilization(ResourceType.CPU)
            buf[k + 1] = cluster.utilization(ResourceType.RAM)
            buf[k + 2] = cluster.utilization(ResourceType.STORAGE)
            # Plain-float equality is safe here: utilizations are never
            # -0.0 (``used / cap`` and ``1.0 - avail / cap`` with
            # non-negative operands) and NaN never enters a gauge.  The
            # bank's value column is a list, so this compares in place.
            if buf == self._bank.value:
                self._bank.advance_all(now)
            else:
                self._bank.update_all(now, buf)
        else:
            pairs = [
                (gauge, fabric.tier_utilization(tier))
                for tier, gauge in self._net_gauges
            ]
            pairs.append(
                (self._gauges["cpu"], cluster.utilization(ResourceType.CPU))
            )
            pairs.append(
                (self._gauges["ram"], cluster.utilization(ResourceType.RAM))
            )
            pairs.append(
                (
                    self._gauges["storage"],
                    cluster.utilization(ResourceType.STORAGE),
                )
            )
            if all(gauge.value == value for gauge, value in pairs):
                for gauge, _ in pairs:
                    gauge.advance(now)
            else:
                for gauge, value in pairs:
                    gauge.update(now, value)
        self.last_event_time = max(self.last_event_time, now)

    def _note_arrival(self, now: float) -> None:
        if self.first_arrival is None:
            self.first_arrival = now
            # Restart gauge windows at the first arrival so idle lead-in
            # time does not dilute the averages.
            if self._bank is not None:
                self._bank.restart_all(now)
            else:
                for gauge in self._gauges.values():
                    gauge.restart(now)

    def record_assignment(self, placement: Placement, now: float) -> None:
        """Record a successful placement (after the scheduler committed)."""
        self._note_arrival(now)
        request = placement.request
        energy = self.power.record_vm(
            request.vm_id, list(placement.circuits), request.vm.lifetime
        )
        latency = self.spec.latency.cpu_ram_rtt_ns(placement.cpu_ram_intra)
        racks = placement.racks
        intra_rack = len(racks) == 1
        self.total_requests += 1
        self.scheduled_count += 1
        if not intra_rack:
            self.inter_rack_count += 1
        self.latency_sum_ns += latency
        self.latency_count += 1
        if self.keep_records:
            self.records.append(
                VMRecord(
                    vm_id=request.vm_id,
                    arrival=request.vm.arrival,
                    lifetime=request.vm.lifetime,
                    scheduled=True,
                    intra_rack=intra_rack,
                    cpu_ram_intra=placement.cpu_ram_intra,
                    racks_spanned=len(racks),
                    racks=tuple(sorted(racks)),
                    cpu_ram_latency_ns=latency,
                    optical_energy_j=energy.total_j,
                    tier_distance=placement.tier_distance,
                )
            )
        self._sample_gauges(now)

    def record_drop(self, request: ResolvedRequest, now: float) -> None:
        """Record a dropped VM."""
        self._note_arrival(now)
        self.total_requests += 1
        if self.keep_records:
            self.records.append(
                VMRecord(
                    vm_id=request.vm_id,
                    arrival=request.vm.arrival,
                    lifetime=request.vm.lifetime,
                    scheduled=False,
                    intra_rack=False,
                    cpu_ram_intra=False,
                    racks_spanned=0,
                    racks=(),
                    cpu_ram_latency_ns=None,
                    optical_energy_j=0.0,
                )
            )
        self._sample_gauges(now)

    def record_release(self, now: float) -> None:
        """Record a departure (gauges drop)."""
        self._sample_gauges(now)

    def record_release_batch(self, times, values) -> None:
        """Record a run of consecutive departures in one call.

        ``times`` is the non-decreasing event times and ``values`` a
        ``(len(times), len(gauges))`` float64 matrix whose row ``i`` holds
        every gauge's utilization *after* event ``i`` — computed by the
        simulator's batched release path from the exact same expressions
        :meth:`_sample_gauges` evaluates per event.  The bank replays the
        rows with the identical per-row change gate, so fold points (and
        summary bits) match the scalar path; only the per-event sampling
        cost is gone.  Requires the array gauge store.
        """
        bank = self._bank
        if bank is None:
            raise SimulationError(
                "record_release_batch requires the array gauge store "
                "(REPRO_STATE_BACKEND=arrays)"
            )
        bank.update_all_batch(times, values)
        t = float(times[-1])
        if t > self.last_event_time:
            self.last_event_time = t
        self._cluster_version = self.cluster.version
        self._fabric_version = self.fabric.version

    def has_gauge_bank(self) -> bool:
        """True when gauges live in the array-backed bank — the precondition
        of :meth:`record_release_batch` (simulator fast-path gating)."""
        return self._bank is not None

    def add_scheduler_time(self, seconds: float) -> None:
        """Accumulate wall-clock time spent inside scheduler decisions."""
        self.scheduler_time_s += seconds

    def reset(self) -> None:
        """Return the collector to its just-built state (records, gauges,
        power, tallies, and timing all cleared).

        After a completed run every resource is back in the pool, so a reset
        lets the same simulator replay another trace without rebuilding the
        cluster/fabric wiring.
        """
        self.records.clear()
        self.scheduler_time_s = 0.0
        self.first_arrival = None
        self.last_event_time = 0.0
        self.__post_init__()

    # ------------------------------------------------------------------ #
    # Fork support
    # ------------------------------------------------------------------ #

    def snapshot(self) -> MetricsSnapshot:
        """Capture the collector's full state in O(gauges) scalars."""
        return MetricsSnapshot(
            record_count=len(self.records),
            scheduler_time_s=self.scheduler_time_s,
            first_arrival=self.first_arrival,
            last_event_time=self.last_event_time,
            total_requests=self.total_requests,
            scheduled_count=self.scheduled_count,
            inter_rack_count=self.inter_rack_count,
            latency_sum_ns=self.latency_sum_ns,
            latency_count=self.latency_count,
            gauges=(
                self._bank.snapshot_tuples()
                if self._bank is not None
                else tuple(
                    (name, gauge.snapshot()) for name, gauge in self._gauges.items()
                )
            ),
            power=self.power.snapshot(),
        )

    def restore(self, snap: MetricsSnapshot) -> None:
        """Rewind to a state captured by :meth:`snapshot`.

        The per-VM record list is truncated back (snapshots rewind an
        append-only history, they never regrow it), the raw gauge integrals
        are written back verbatim, and the power tallies reset — so a forked
        continuation reproduces the uninterrupted run's summary bit for bit.
        """
        if snap.record_count > len(self.records):
            raise SimulationError(
                f"metrics snapshot holds {snap.record_count} records but the "
                f"collector has only {len(self.records)}; snapshots rewind "
                "this collector's own history"
            )
        names = tuple(name for name, _ in snap.gauges)
        if names != self.gauge_names():
            raise SimulationError(
                f"metrics snapshot gauges {names} do not match this "
                f"collector's gauges {self.gauge_names()}"
            )
        del self.records[snap.record_count:]
        self.scheduler_time_s = snap.scheduler_time_s
        self.first_arrival = snap.first_arrival
        self.last_event_time = snap.last_event_time
        self.total_requests = snap.total_requests
        self.scheduled_count = snap.scheduled_count
        self.inter_rack_count = snap.inter_rack_count
        self.latency_sum_ns = snap.latency_sum_ns
        self.latency_count = snap.latency_count
        if self._bank is not None:
            self._bank.restore_tuples(snap.gauges)
        else:
            for name, state in snap.gauges:
                self._gauges[name].restore(state)
        self.power.restore(snap.power)
        # The restored world may differ arbitrarily from the live one; force
        # the next sample to recompute every utilization.
        self._cluster_version = -1
        self._fabric_version = -1

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    @property
    def makespan(self) -> float:
        """Time from the first arrival to the last recorded event."""
        if self.first_arrival is None:
            return 0.0
        return self.last_event_time - self.first_arrival

    def average_utilization(self, gauge: str) -> float:
        """Time-weighted average of one gauge over the run so far."""
        if self._bank is not None:
            return self._bank.average(gauge)
        return self._gauges[gauge].average()

    def peak_utilization(self, gauge: str) -> float:
        """Peak value of one gauge."""
        if self._bank is not None:
            return self._bank.peak_of(gauge)
        return self._gauges[gauge].peak

    def gauge_names(self) -> tuple[str, ...]:
        """Names accepted by :meth:`average_utilization`."""
        if self._bank is not None:
            return self._bank.names
        return tuple(self._gauges)

    def net_gauge_names(self) -> tuple[str, ...]:
        """The network gauges only, leaf tier first."""
        return tuple(
            tier_gauge_name(tier, len(self._net_tiers))
            for tier in self._net_tiers
        )

    def compute_utilization_averages(self) -> dict[ResourceType, float]:
        """Time-weighted compute utilization per resource type."""
        keys = {ResourceType.CPU: "cpu", ResourceType.RAM: "ram", ResourceType.STORAGE: "storage"}
        return {t: self.average_utilization(keys[t]) for t in RESOURCE_ORDER}
