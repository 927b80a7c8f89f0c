"""The four benchmark workloads (closed loop, single process, single thread).

Each workload builds its inputs from a seed in :meth:`Workload.setup`, then
runs fixed-size *repetitions*: :meth:`Workload.rep` drives the program the
way its users do (``simulate()``, ``DDCSimulator.run``, the figure drivers,
``run_scenario_tree``) and returns the host timings plus one :class:`Op` per
operation for the correctness check.  With a tracer the same repetition runs
through the traced collaborators of :mod:`e2e_tracing` and attaches an event
log, so it also yields event digests.

Sizes are constants of the benchmark (see README.md for how they were cut
from the issue's sizes to fit the driver's time cap); ``scale`` shrinks them
for the self-test only.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from repro import DDCSimulator, PAPER_SCHEDULERS, NetworkFabric, build_cluster, simulate
from repro.config import paper_default, pod_scale, scaled
from repro.experiments import (
    ScenarioTree,
    admission_branches,
    link_failure_branches,
    oversubscription_branches,
    pod_failure_branches,
    run_fig11,
    run_fig12,
    run_scenario_tree,
)
from repro.experiments.workload_cache import azure_workload, synthetic_workload
from repro.photonics import PowerReport
from repro.schedulers import create_scheduler
from repro.sim import EventLog, FlatEngine
from repro.types import RESOURCE_ORDER
from repro.workloads import (
    ColumnarArrivals,
    SyntheticWorkloadParams,
    TraceColumns,
    generate_synthetic,
    generate_synthetic_columns,
    resolve_all,
    synthesize_azure,
)

from e2e_tracing import TracedClasses, Tracer

SCHEDULERS = PAPER_SCHEDULERS

#: Requests sampled by the topology replay drives.
REPLAY_SAMPLES = 2000


def summary_dict(summary) -> dict:
    """``RunSummary`` minus its one host-time field: the simulated outcome."""
    out = summary.as_dict()
    del out["scheduler_time_s"]
    return out


@dataclass(slots=True)
class Op:
    """One operation's checkable outcome."""

    op_id: str
    offered: int | None = None
    summary: dict | None = None
    digest: str | None = None
    ok: bool = True
    detail: str = ""


@dataclass(slots=True)
class Rep:
    """Host timings and operations of one repetition."""

    wall: float = 0.0
    sched_time: dict = field(default_factory=lambda: dict.fromkeys(SCHEDULERS, 0.0))
    sched_vms: dict = field(default_factory=lambda: dict.fromkeys(SCHEDULERS, 0))
    run_wall: dict = field(default_factory=lambda: dict.fromkeys(SCHEDULERS, 0.0))
    ops: list = field(default_factory=list)
    #: Figure shape checks that read false (advisory ones included).
    shape_checks_failed: int = 0

    def add_run(self, scheduler: str, wall: float, sched_time: float, vms: int) -> None:
        self.wall += wall
        self.run_wall[scheduler] += wall
        self.sched_time[scheduler] += sched_time
        self.sched_vms[scheduler] += vms


def traced_simulator(spec, scheduler: str, classes: TracedClasses, run_id: str, **kwargs):
    """A real ``DDCSimulator`` wired with the traced collaborators.

    Opens the run's root span and a ``topology.build`` span around the
    construction ``simulate()`` users pay per run; the caller pops the root.
    """
    tracer = classes.tracer
    root = tracer.begin_run(run_id)
    build = tracer.push("topology.build")
    cluster = build_cluster(spec)
    # Same slot layout, so the instance can adopt the timing subclass.
    cluster.__class__ = classes.cluster
    fabric = classes.fabric(spec, cluster)
    sim = DDCSimulator(
        spec,
        classes.scheduler(scheduler)(spec, cluster, fabric),
        cluster=cluster,
        fabric=fabric,
        event_log=EventLog(),
        **kwargs,
    )
    sim.collector = classes.collector(
        spec, cluster, fabric, keep_records=sim.collector.keep_records
    )
    tracer.pop(build)
    return sim, root


class Workload:
    """Base: common set-up (generate, build, warm up) and replay drives."""

    name = ""
    #: Fewest timed repetitions a run reports a median over.
    r_min = 3

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale
        self.spec = self.make_spec()

    def size(self, full: int) -> int:
        return max(1, round(full * self.scale))

    # -- per-workload hooks ------------------------------------------------
    def make_spec(self):
        raise NotImplementedError

    def generate(self, seed: int) -> None:
        """Build ``self.traces`` (name -> trace) and any other input."""
        raise NotImplementedError

    def rep(self, tracer: Tracer | None = None) -> Rep:
        raise NotImplementedError

    def offered_vms(self) -> int:
        """Offered VMs of one repetition (the ``vms_per_s`` numerator)."""
        return len(SCHEDULERS) * sum(len(trace) for trace in self.traces.values())

    def reference_ops(self) -> dict[str, dict]:
        """Independently computed summaries an unpinned run checks against."""
        return {}

    # -- shared machinery --------------------------------------------------
    def setup(self, seed: int) -> dict[str, float]:
        """Everything before the first timed run; returns its breakdown."""
        start = perf_counter()
        self.generate(seed)
        generated = perf_counter()
        for scheduler in SCHEDULERS:
            cluster = build_cluster(self.spec)
            fabric = NetworkFabric(self.spec, cluster)
            create_scheduler(scheduler, self.spec, cluster, fabric)
        built = perf_counter()
        trace = next(iter(self.traces.values()))
        warm = trace.slice(0, 500) if isinstance(trace, TraceColumns) else trace[:500]
        for scheduler in SCHEDULERS:
            DDCSimulator(self.spec, scheduler).run(warm)
        return {
            "workloads.generate_s": generated - start,
            "topology.build_s": (built - generated) / len(SCHEDULERS),
        }

    def replays(self, tracer: Tracer, untraced: list[Rep]) -> dict[str, float]:
        """Per-layer numbers that need a dedicated drive (trace mode only):
        single layers driven on the first trace and its half-way state."""
        spec = self.spec
        out = {}

        # Per-VM resolve of object traces; the chunk-vectorised column path
        # (resolve_columns + draining iter_requests) for columns.
        start = perf_counter()
        resolved = [
            list(ColumnarArrivals(trace, spec).iter_requests())
            if isinstance(trace, TraceColumns)
            else resolve_all(trace, spec)
            for trace in self.traces.values()
        ]
        out["workloads.resolve_us_per_vm"] = (
            (perf_counter() - start) / sum(len(requests) for requests in resolved) * 1e6
        )
        requests = resolved[0]
        trace = next(iter(self.traces.values()))

        def hold(request, now):
            return request

        def ignore(*_):
            return None

        gc.collect()
        start = perf_counter()
        FlatEngine().run(requests, hold, ignore, on_departures=ignore)
        out["sim.engine_us_per_event"] = (perf_counter() - start) / (2 * len(requests)) * 1e6

        half = len(requests) // 2
        sim = DDCSimulator(spec, "risa")
        sim.start_run(trace)
        sim.advance(until=requests[half].vm.arrival)
        index = sim.cluster.capacity_index
        sampled = requests[half : half + REPLAY_SAMPLES]
        samples = [
            (rtype, request.units.get(rtype))
            for request in sampled
            for rtype in RESOURCE_ORDER
            if request.units.get(rtype) > 0
        ]
        racks = sim.cluster.num_racks
        start = perf_counter()
        for i, (rtype, units) in enumerate(samples):
            rack = i % racks
            index.first_fit(rtype, units)
            index.first_fit_in_rack(rtype, units, rack)
            index.best_fit_in_rack(rtype, units, rack)
            index.rack_max_avail(rtype, rack)
        out["topology.index_query_us"] = (perf_counter() - start) / (4 * len(samples)) * 1e6
        fits = [(index.first_fit(rtype, units), units) for rtype, units in samples]
        fits = [(box, units) for box, units in fits if box is not None]
        start = perf_counter()
        for box, units in fits:
            box.release(box.allocate(units))
        out["topology.alloc_release_us"] = (perf_counter() - start) / len(sampled) * 1e6

        report = PowerReport(energy_config=spec.energy)
        placements = tracer.placements
        start = perf_counter()
        for placement in placements:
            report.record_vm(
                placement.vm_id, list(placement.circuits), placement.request.vm.lifetime
            )
        out["photonics.record_vm_us"] = (perf_counter() - start) / len(placements) * 1e6
        return out


class MatrixWorkload(Workload):
    """Traces x schedulers, one fresh simulator per cell."""

    def run_untraced(self, scheduler: str, trace):
        raise NotImplementedError

    def run_traced(self, sim, trace, tracer: Tracer):
        return sim.run(trace)

    def rep(self, tracer: Tracer | None = None) -> Rep:
        rep = Rep()
        classes = TracedClasses(tracer) if tracer is not None else None
        for trace_name, trace in self.traces.items():
            for scheduler in SCHEDULERS:
                op_id = f"{trace_name}/{scheduler}"
                gc.collect()
                digest = None
                start = perf_counter()
                if classes is None:
                    result = self.run_untraced(scheduler, trace)
                    wall = perf_counter() - start
                else:
                    sim, root = traced_simulator(
                        self.spec, scheduler, classes, f"{self.name}/{op_id}"
                    )
                    result = self.run_traced(sim, trace, tracer)
                    tracer.pop(root)
                    wall = perf_counter() - start
                    digest = sim.event_log.digest()
                summary = result.summary
                rep.add_run(scheduler, wall, summary.scheduler_time_s, len(trace))
                rep.ops.append(Op(op_id, len(trace), summary_dict(summary), digest))
        return rep


class Paper18Mix(MatrixWorkload):
    name = "paper18_mix"
    #: Azure-7500 (4.6 s of the issue's 10.5 s repetition) is left out so
    #: three repetitions fit one run; see README.md "Sizing".
    AZURE = (3000, 5000)

    def make_spec(self):
        return paper_default()

    def generate(self, seed: int) -> None:
        synthetic = generate_synthetic(SyntheticWorkloadParams(), seed)
        self.traces = {"synthetic": synthetic[: self.size(len(synthetic))]}
        for subset in self.AZURE:
            self.traces[f"azure-{subset}"] = synthesize_azure(subset, seed)[: self.size(subset)]

    def run_untraced(self, scheduler, trace):
        return simulate(self.spec, scheduler, trace)


class Sat128Churn(MatrixWorkload):
    name = "sat128_churn"
    #: 12 000 VMs at offered concurrency 9 000 on a cluster that holds
    #: ~7 000: fill, saturate, churn, then one ~7 k-VM drain burst.
    COUNT = 12000
    PARAMS = dict(mean_interarrival=0.5, base_lifetime=4500.0, lifetime_increment=0.0)

    def make_spec(self):
        return scaled(128)

    def generate(self, seed: int) -> None:
        params = SyntheticWorkloadParams(count=self.size(self.COUNT), **self.PARAMS)
        self.traces = {"churn": generate_synthetic_columns(params, seed)}

    def run_untraced(self, scheduler, trace):
        return DDCSimulator(self.spec, scheduler).run(trace)

    def run_traced(self, sim, trace, tracer):
        # The event stream of run(), split at the last arrival so the
        # arrival phase and the final drain burst are timed apart.
        sim.start_run(trace)
        phase = tracer.push("sim.arrival_phase")
        sim.advance(until=float(trace.arrival.max()))
        tracer.pop(phase)
        phase = tracer.push("sim.drain_phase")
        result = sim.finish()
        tracer.pop(phase)
        return result


class Fig1112Reference(Workload):
    name = "fig11_12_reference"
    r_min = 2

    def make_spec(self):
        return paper_default()

    def generate(self, seed: int) -> None:
        # Figure 11 at the paper's full size, figure 12 through the driver's
        # own quick mode (full figure 12 alone takes 24 s per repetition).
        self.seed = seed
        self.quick11 = self.scale < 1.0
        self.traces = {
            "synthetic": synthetic_workload(self.quick11, seed),
            "azure-3000": azure_workload(3000, True, seed),
        }

    def rep(self, tracer: Tracer | None = None) -> Rep:
        rep = Rep()
        drivers = (
            ("fig11", run_fig11, self.quick11, "synthetic"),
            ("fig12", run_fig12, True, "azure-3000"),
        )
        for figure, driver, quick, trace_name in drivers:
            gc.collect()
            start = perf_counter()
            if tracer is not None:
                root = tracer.begin_run(f"{self.name}/{figure}")
                span = tracer.push(f"experiments.{figure}")
            result = driver(quick=quick, seed=self.seed)
            if tracer is not None:
                tracer.pop(span)
                tracer.pop(root)
            wall = perf_counter() - start
            vms = len(self.traces[trace_name])
            row = result.rows[0]
            times = (
                {r["scheduler"]: r["scheduler_time_s"] for r in result.rows}
                if figure == "fig11"
                else {s: row[s] for s in SCHEDULERS}
            )
            # The drivers report scheduler time only; there is no per-scheduler
            # run wall to attribute.
            rep.wall += wall
            for scheduler in SCHEDULERS:
                rep.sched_time[scheduler] += times[scheduler]
                rep.sched_vms[scheduler] += vms
            for i, check in enumerate(result.checks):
                # Checks the driver itself marks advisory (quick-mode
                # timings) are reported, not failed.
                rep.ops.append(
                    Op(
                        f"{figure}/check{i}",
                        ok=check.passed or check.flaky,
                        detail=f"{check.description} [{check.detail}]",
                    )
                )
                rep.shape_checks_failed += not check.passed
        return rep

    def replays(self, tracer, untraced):
        # The same traces through the default (indexed, array-backed) path
        # in the same session: what index + arrays buy on the paper's traces.
        fast = Rep()
        for trace in self.traces.values():
            for scheduler in SCHEDULERS:
                summary = simulate(self.spec, scheduler, trace).summary
                fast.add_run(scheduler, 0.0, summary.scheduler_time_s, len(trace))
        return {
            f"schedulers.ref_over_fast.{scheduler}": statistics.median(
                rep.sched_time[scheduler] / rep.sched_vms[scheduler] for rep in untraced
            )
            / (fast.sched_time[scheduler] / fast.sched_vms[scheduler])
            for scheduler in SCHEDULERS
        }


class WhatifFork(Workload):
    name = "whatif_fork"
    COUNT = 3500

    def make_spec(self):
        return pod_scale(4, 9)

    def generate(self, seed: int) -> None:
        params = SyntheticWorkloadParams(count=self.size(self.COUNT), mean_interarrival=5.0)
        self.columns = generate_synthetic_columns(params, seed)
        self.traces = {"ramp": self.columns}
        self.tree = ScenarioTree(
            tuple(
                admission_branches([0.8])
                + oversubscription_branches([0.5])
                + pod_failure_branches([1])
                + link_failure_branches([0])
            ),
            fork_fraction=0.5,
        )

    def offered_vms(self) -> int:
        return len(self.tree.all_branches()) * super().offered_vms()

    def reference_ops(self) -> dict[str, dict]:
        # The baseline branch must reproduce the plain uninterrupted run.
        return {
            f"{scheduler}/baseline": summary_dict(
                DDCSimulator(self.spec, scheduler, keep_records=False).run(self.columns).summary
            )
            for scheduler in SCHEDULERS
        }

    def rep(self, tracer: Tracer | None = None) -> Rep:
        rep = Rep()
        classes = TracedClasses(tracer) if tracer is not None else None
        vms = len(self.columns)
        for scheduler in SCHEDULERS:
            gc.collect()
            start = perf_counter()
            if classes is None:
                outcome = run_scenario_tree(self.spec, scheduler, self.columns, self.tree)
                branches = [(b.branch, b.summary, None) for b in outcome.branches]
            else:
                branches = self.traced_tree(scheduler, classes)
            wall = perf_counter() - start
            rep.add_run(
                scheduler,
                wall,
                sum(summary.scheduler_time_s for _, summary, _ in branches),
                sum(summary.total_vms for _, summary, _ in branches),
            )
            for branch, summary, digest in branches:
                rep.ops.append(Op(f"{scheduler}/{branch}", vms, summary_dict(summary), digest))
        return rep

    def traced_tree(self, scheduler: str, classes: TracedClasses) -> list:
        """``run_scenario_tree``'s loop over the public run protocol, with a
        span around each step."""
        tracer = classes.tracer
        push, pop = tracer.push, tracer.pop
        sim, root = traced_simulator(
            self.spec, scheduler, classes, f"{self.name}/{scheduler}",
            engine="flat", keep_records=False,
        )
        sim.start_run(self.columns)
        fork_time = self.tree.fork_time(self.columns)
        span = push("sim.prefix")
        sim.advance(until=fork_time)
        pop(span)
        span = push("sim.checkpoint")
        checkpoint = sim.full_checkpoint()
        pop(span)
        branches = []
        for index, branch in enumerate(self.tree.all_branches()):
            if index:
                span = push("sim.restore")
                sim.restore_run(checkpoint)
                pop(span)
            span = push("experiments.perturb_apply")
            for perturbation in branch.perturbations:
                perturbation.apply(sim)
            pop(span)
            span = push("sim.branch")
            result = sim.finish()
            pop(span)
            span = push("trace.digest")
            digest = sim.event_log.digest()
            pop(span)
            branches.append((branch.name, result.summary, digest))
        pop(root)
        return branches


WORKLOADS = {
    cls.name: cls for cls in (Paper18Mix, Sat128Churn, Fig1112Reference, WhatifFork)
}
