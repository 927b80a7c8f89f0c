"""Outside-in span tracer for the end-to-end benchmark.

Nothing under ``src/`` carries timers yet, so the traced repetition wraps
the calls *into* each layer from here: subclasses of the registered
scheduler classes, ``NetworkFabric``, ``Cluster`` and ``MetricsCollector``
that time exactly the layer's public entry points and are handed to the
real ``DDCSimulator`` through its ``cluster=`` / ``fabric=`` / scheduler
arguments (the collector is swapped onto ``sim.collector``).  The
subclasses keep empty ``__slots__`` and leave ``Scheduler.release`` alone,
so the simulator's fused departure-batch path stays live and the traced run
reproduces the untraced event digest bit for bit.

A span is ``(name, run, start, end, parent, count)``: ``parent`` is the index
of the enclosing span (-1 for a run's root) and ``count`` a tally taken at
the same boundary (placements, circuits, rows, ...).  Spans stay in memory
until the benchmark writes ``trace-<workload>.json`` at exit.
"""

from __future__ import annotations

from time import perf_counter

from repro.metrics import MetricsCollector
from repro.network import LinkSelectionPolicy, NetworkFabric
from repro.schedulers import scheduler_class
from repro.topology import Cluster

#: ``sim``-layer spans that only group other spans; their self time is the
#: simulator's own (calendar, handler glue, scalar compute release, in-run
#: resolve) and sums to ``sim.residual_s``.
CONTAINERS = frozenset(
    {"sim.run", "sim.arrival_phase", "sim.drain_phase", "sim.prefix", "sim.branch"}
)

class Tracer:
    """In-memory span recorder (single thread, strictly nested spans).

    Spans live in parallel columns of atoms rather than one object each, so
    a few hundred thousand of them add nothing for the garbage collector to
    traverse during the traced run.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.runs: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[int] = []
        self.top = -1
        self.run = ""
        #: Placements committed by the current run (photonics replay input).
        self.placements: list = []

    def begin_run(self, run: str) -> int:
        """Open the root span of one simulator run."""
        self.run = run
        self.top = -1
        self.placements = []
        return self.push("sim.run")

    def push(self, name: str) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.runs.append(self.run)
        self.parents.append(self.top)
        self.ends.append(0.0)
        self.counts.append(0)
        self.top = index
        self.starts.append(perf_counter())
        return index

    def pop(self, index: int, count: int = 0) -> None:
        self.ends[index] = perf_counter()
        self.counts[index] = count
        self.top = self.parents[index]

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]


class TracedClasses:
    """The traced collaborator classes, closed over one :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        push, pop = tracer.push, tracer.pop

        def timed(name: str, method, sized_arg: int | None = None):
            """``method`` inside a span; the span counts 1, or the length of
            one positional argument (the batch entry points)."""

            def wrapper(self, *args):
                index = push(name)
                try:
                    return method(self, *args)
                finally:
                    pop(index, 1 if sized_arg is None else len(args[sized_arg]))

            return wrapper

        class TracedCluster(Cluster):
            __slots__ = ()
            apply_release_batch = timed("topology.release_batch", Cluster.apply_release_batch, 0)

        class TracedFabric(NetworkFabric):
            __slots__ = ()
            release = timed("network.release", NetworkFabric.release)

            def allocate_flows(self, flows, policy=LinkSelectionPolicy.FIRST_FIT):
                index = push("network.reserve")
                reserved = 0
                try:
                    circuits = NetworkFabric.allocate_flows(self, flows, policy)
                    reserved = circuits is not None
                    return circuits
                finally:
                    pop(index, reserved)

            def release_batch(self, groups):
                circuits = sum(len(group) for group in groups)
                index = push("network.release_batch")
                try:
                    return NetworkFabric.release_batch(self, groups)
                finally:
                    pop(index, circuits)

        class TracedCollector(MetricsCollector):
            __slots__ = ()
            record_assignment = timed(
                "metrics.record_assignment", MetricsCollector.record_assignment
            )
            record_drop = timed("metrics.record_drop", MetricsCollector.record_drop)
            record_release = timed("metrics.record_release", MetricsCollector.record_release)
            record_release_batch = timed(
                "metrics.record_release_batch", MetricsCollector.record_release_batch, 0
            )

        self.tracer = tracer
        self.cluster = TracedCluster
        self.fabric = TracedFabric
        self.collector = TracedCollector

    def scheduler(self, name: str) -> type:
        """Subclass of the registered scheduler overriding only ``schedule``
        (an overridden ``release`` would switch the batch fast path off)."""
        base = scheduler_class(name)
        tracer = self.tracer
        push, pop = tracer.push, tracer.pop

        def schedule(self, request):
            index = push("schedulers.schedule")
            placed = 0
            try:
                placement = base.schedule(self, request)
                if placement is not None:
                    placed = 1
                    tracer.placements.append(placement)
                return placement
            finally:
                pop(index, placed)

        return type("Traced" + base.__name__, (base,), {"schedule": schedule})


def span_totals(tracer: Tracer) -> dict[tuple[str, str], list]:
    """Aggregate spans per ``(name, run)``: ``[duration, self, calls, n]``.

    Self time is a span's duration minus its direct children's durations.
    """
    durations = tracer.durations()
    child_time = [0.0] * len(durations)
    for duration, parent in zip(durations, tracer.parents):
        if parent >= 0:
            child_time[parent] += duration
    totals: dict[tuple[str, str], list] = {}
    for key, duration, children, count in zip(
        zip(tracer.names, tracer.runs), durations, child_time, tracer.counts
    ):
        entry = totals.setdefault(key, [0.0, 0.0, 0, 0])
        entry[0] += duration
        entry[1] += duration - children
        entry[2] += 1
        entry[3] += count
    return totals


def traced_wall(tracer: Tracer) -> float:
    """Wall of the traced runs (their root spans) minus the time the
    benchmark spent hashing event logs inside them."""
    return sum(
        duration if parent < 0 else -duration
        for name, duration, parent in zip(tracer.names, tracer.durations(), tracer.parents)
        if parent < 0 or name == "trace.digest"
    )


def layer_metrics(tracer: Tracer, schedulers) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition.

    Times are summed over the repetition's runs; a layer that did not run
    reads 0.  Counts come from the same spans, so ratios are measured where
    the work happens.
    """
    by_name: dict[str, list] = {}
    by_scheduler: dict[str, list] = {name: [0.0, 0.0, 0, 0] for name in schedulers}
    for (name, run), entry in span_totals(tracer).items():
        total = by_name.setdefault(name, [0.0, 0.0, 0, 0])
        for i, value in enumerate(entry):
            total[i] += value
        if name == "schedulers.schedule":
            for i, value in enumerate(entry):
                by_scheduler[run.rsplit("/", 1)[1]][i] += value

    def get(name: str) -> list:
        return by_name.get(name, [0.0, 0.0, 0, 0])

    out: dict[str, float] = {}
    for scheduler, (duration, self_time, calls, placed) in by_scheduler.items():
        out[f"schedulers.schedule_s.{scheduler}"] = duration
        # The only child of a schedule span is network.reserve: self time is
        # the decision plus the compute commit.
        out[f"schedulers.schedule_self_s.{scheduler}"] = self_time
        out[f"schedulers.placed_ratio.{scheduler}"] = placed / calls if calls else 0.0
    out["schedulers.calls"] = get("schedulers.schedule")[2]

    duration, _, calls, reserved = get("network.reserve")
    out["network.reserve_s"] = duration
    out["network.reserve_calls"] = calls
    out["network.reserve_failed"] = calls - reserved
    out["network.release_s"], _, out["network.release_calls"], _ = get("network.release")
    (out["network.release_batch_s"], _, out["network.release_batch_calls"],
     out["network.release_batch_circuits"]) = get("network.release_batch")

    (out["topology.release_batch_s"], _, out["topology.release_batch_calls"],
     out["topology.release_batch_allocs"]) = get("topology.release_batch")

    records = ("assignment", "drop", "release", "release_batch")
    for record in records:
        out[f"metrics.record_{record}_s"] = get(f"metrics.record_{record}")[0]
    out["metrics.record_calls"] = sum(get(f"metrics.record_{r}")[2] for r in records)
    rows = get("metrics.record_release_batch")[3]
    scalar = get("metrics.record_release")[2]
    out["metrics.release_batch_rows"] = rows
    out["sim.batched_departure_ratio"] = rows / (rows + scalar) if rows + scalar else 0.0

    out["sim.residual_s"] = sum(get(name)[1] for name in CONTAINERS)
    for name in ("arrival_phase", "drain_phase", "prefix", "branch", "checkpoint", "restore"):
        out[f"sim.{name}_s"] = get(f"sim.{name}")[0]
    out["sim.checkpoints"] = get("sim.checkpoint")[2]
    out["sim.restores"] = get("sim.restore")[2]
    for name in ("fig11", "fig12", "perturb_apply"):
        out[f"experiments.{name}_s"] = get(f"experiments.{name}")[0]
    out["trace.spans"] = len(tracer.starts)
    return out


def trace_document(tracer: Tracer) -> dict:
    """JSON form of the spans: parallel columns, names and run ids interned,
    times in seconds from the first span's start."""
    names: dict[str, int] = {}
    runs: dict[str, int] = {}
    origin = tracer.starts[0] if tracer.starts else 0.0
    columns = {
        "name": [names.setdefault(name, len(names)) for name in tracer.names],
        "run": [runs.setdefault(run, len(runs)) for run in tracer.runs],
        "start_s": [start - origin for start in tracer.starts],
        "end_s": [end - origin for end in tracer.ends],
        "parent": tracer.parents,
        "count": tracer.counts,
    }
    return {"names": list(names), "runs": list(runs), "spans": columns}
