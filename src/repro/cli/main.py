"""Command-line interface: ``python -m repro`` or the ``risa-repro`` script.

Subcommands
-----------
``run-all``      — regenerate every paper figure/table and print the report.
``experiment``   — run one experiment by id (toy1, toy2, fig5..fig12).
``simulate``     — run one scheduler on one workload and print the summary.
``generate``     — write a workload trace (synthetic or Azure-calibrated) to
                   a JSONL file.
``compare``      — run the paper's four schedulers on a workload and print a
                   side-by-side table.
``heatmap``      — simulate up to a point in time and print the cluster
                   occupancy heatmap plus stranding metrics.
``events``       — run one scheduler with the structured event log enabled
                   and write the JSONL trace (printing its digest).
``stats``        — multi-seed comparison with bootstrap confidence
                   intervals.
``topology``     — print the fabric tier tree (bundle counts, capacity,
                   oversubscription) of a named preset.
``topology-study`` — fan one workload over every scheduler × fabric preset
                   (two-tier, pod/spine, VL2, fat-tree) and print the
                   cross-topology comparison table and figure.
``scenarios``    — what-if branches (admission thresholds, tier
                   oversubscription, pod failure, link faults) forked off a
                   shared warm prefix instead of cold reruns.
``trace``        — the workload pipeline: synthesize named traces into
                   files (columnar ``.npz`` or JSONL by suffix), convert
                   between the formats, inspect a trace file, and list or
                   clear the on-disk workload store.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..analysis import compare_schedulers, compare_over_seeds, occupancy_table, placement_map, stats_table
from ..analysis.ascii_plot import ascii_table
from ..analysis.fragmentation import fragmentation_summary
from ..config import ClusterSpec, PRESETS, paper_default
from ..network import NetworkFabric
from ..sim import DDCSimulator, EventLog
from ..topology import build_cluster
from ..types import ResourceVector
from ..errors import SimulationError, TopologyError, WorkloadError
from ..experiments import (
    EXPERIMENTS,
    TOPOLOGY_STUDY_PRESETS,
    ScenarioTree,
    SimulationSession,
    admission_branches,
    link_failure_branches,
    oversubscription_branches,
    pod_failure_branches,
    render_report,
    run_all,
    run_experiment,
    run_topology_study,
)
from ..experiments import workload_cache
from ..experiments.sweep import build_workload
from ..schedulers import ALL_SCHEDULERS, PAPER_SCHEDULERS
from ..sim import simulate
from ..workloads import (
    SyntheticWorkloadParams,
    TraceColumns,
    generate_synthetic,
    load_trace,
    load_trace_npz,
    save_trace,
    save_trace_npz,
)


def _workload_from_args(args: argparse.Namespace):
    """Build the workload selected by --workload / --trace flags."""
    if getattr(args, "trace", None):
        return load_trace(args.trace)
    try:
        return list(build_workload(args.workload, args.count or None, args.seed))
    except WorkloadError as exc:
        raise SystemExit(str(exc)) from None


def render_topology(spec: ClusterSpec) -> str:
    """The fabric tier tree of one spec: hierarchy sketch plus a per-tier
    table of bundle counts, capacity, and oversubscription.

    Oversubscription of tier ``l`` is the aggregate capacity entering its
    child tier divided by this tier's aggregate uplink capacity — how much
    the traffic funnel narrows at that aggregation stage (1.0 = non-blocking
    relative to the tier below).
    """
    cluster = build_cluster(spec)
    fabric = NetworkFabric(spec, cluster)
    topo = fabric.topology
    num_racks = cluster.num_racks
    node_counts = (len(cluster.all_boxes()), *topo.node_counts(num_racks))
    level_names = ["box"] + [
        ("rack" if level == 1 else topo.tiers[level - 1].name)
        for level in range(1, topo.num_tiers + 1)
    ]

    lines = [
        f"{num_racks} racks in {cluster.num_pods} pod(s), "
        f"{node_counts[0]} boxes, {topo.num_tiers} link tiers"
    ]
    for level in range(topo.num_tiers, -1, -1):
        indent = "   " * (topo.num_tiers - level)
        branch = "" if level == topo.num_tiers else "└─ "
        uplinks = (
            ""
            if level == topo.num_tiers
            else (
                f", {topo.tiers[level].uplinks} x "
                f"{topo.tier_link_bandwidth_gbps(level):g} Gb/s uplinks each"
            )
        )
        lines.append(
            f"{indent}{branch}{level_names[level]} x{node_counts[level]} "
            f"({topo.switch_ports_at(level)} ports){uplinks}"
        )

    headers = ["tier", "name", "bundles", "links/bundle", "capacity Gb/s", "oversub"]
    rows = []
    for level in range(topo.num_tiers):
        tier = topo.tier_id(level)
        capacity = fabric.tier_capacity_gbps(tier)
        below = (
            fabric.tier_capacity_gbps(topo.tier_id(level - 1)) if level else None
        )
        oversub = "-" if below is None else f"{below / capacity:.2f}x"
        rows.append(
            [
                str(level),
                tier.name,
                str(node_counts[level]),
                str(topo.tiers[level].uplinks),
                f"{capacity:g}",
                oversub,
            ]
        )
    lines.append("")
    lines.append(ascii_table(headers, rows))
    return "\n".join(lines)


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        default="synthetic",
        help="synthetic | azure-3000 | azure-5000 | azure-7500",
    )
    parser.add_argument("--trace", help="JSONL trace file (overrides --workload)")
    parser.add_argument("--count", type=int, default=0, help="truncate to N VMs")
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="risa-repro",
        description="Reproduction of RISA (SC-W 2023): schedulers, simulator, "
        "and per-figure experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-all", help="regenerate every paper figure/table")
    p.add_argument("--quick", action="store_true", help="smaller workloads")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", help="write per-experiment JSON here")
    p.add_argument("--parallel", type=int, default=1,
                   help="fan experiments across N worker processes")

    p = sub.add_parser("experiment", help="run one experiment by id")
    p.add_argument("id", choices=sorted(EXPERIMENTS))
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="run one scheduler on one workload")
    p.add_argument("scheduler", choices=sorted(ALL_SCHEDULERS))
    _add_workload_flags(p)

    p = sub.add_parser("compare", help="run the paper's four schedulers")
    _add_workload_flags(p)

    p = sub.add_parser("generate", help="write a workload trace to JSONL")
    p.add_argument("output", help="output JSONL path")
    _add_workload_flags(p)

    p = sub.add_parser("heatmap", help="cluster occupancy heatmap mid-run")
    p.add_argument("scheduler", choices=sorted(ALL_SCHEDULERS))
    p.add_argument("--until", type=float, default=None,
                   help="simulation time to snapshot at (default: peak load)")
    _add_workload_flags(p)

    p = sub.add_parser("events", help="export the structured event log")
    p.add_argument("scheduler", choices=sorted(ALL_SCHEDULERS))
    p.add_argument("output", help="output JSONL path")
    _add_workload_flags(p)

    p = sub.add_parser("stats", help="multi-seed comparison with CIs")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds")
    p.add_argument("--count", type=int, default=300, help="VMs per seed")

    p = sub.add_parser(
        "topology", help="print the fabric tier tree of a config preset"
    )
    p.add_argument(
        "preset",
        nargs="?",
        default="paper",
        choices=sorted(PRESETS),
        help="config preset (default: paper)",
    )

    p = sub.add_parser(
        "topology-study",
        help="fan one workload over every scheduler × fabric preset",
    )
    p.add_argument("--schedulers", nargs="+", default=list(PAPER_SCHEDULERS),
                   choices=sorted(ALL_SCHEDULERS), metavar="NAME",
                   help="schedulers to compare (default: the paper's four)")
    p.add_argument("--presets", nargs="+", default=list(TOPOLOGY_STUDY_PRESETS),
                   choices=sorted(PRESETS), metavar="PRESET",
                   help="fabric presets to compare (default: "
                        f"{' '.join(TOPOLOGY_STUDY_PRESETS)})")
    p.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p.add_argument("--workload", default="synthetic",
                   help="synthetic | azure-3000 | azure-5000 | azure-7500")
    p.add_argument("--count", type=int, default=0, help="truncate to N VMs")
    p.add_argument("--parallel", type=int, default=1,
                   help="fan cells across N worker processes")
    p.add_argument("--figure-metric", default="inter_rack_percent",
                   metavar="METRIC",
                   help="summary metric for the grouped-bar figure "
                        "(default: inter_rack_percent)")

    p = sub.add_parser(
        "sweep", help="multi-seed × multi-scheduler sweep, optionally parallel"
    )
    p.add_argument("--schedulers", nargs="+", default=list(PAPER_SCHEDULERS),
                   choices=sorted(ALL_SCHEDULERS), metavar="NAME",
                   help="schedulers to sweep (default: the paper's four)")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds")
    p.add_argument("--workload", default="synthetic",
                   help="synthetic | azure-3000 | azure-5000 | azure-7500")
    p.add_argument("--count", type=int, default=0, help="truncate to N VMs")
    p.add_argument("--parallel", type=int, default=1,
                   help="fan runs across N worker processes")

    p = sub.add_parser(
        "scenarios",
        help="what-if branches forked off a shared warm prefix",
    )
    p.add_argument("--schedulers", nargs="+", default=["risa"],
                   choices=sorted(ALL_SCHEDULERS), metavar="NAME",
                   help="schedulers to study (default: risa)")
    p.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p.add_argument("--workload", default="synthetic",
                   help="synthetic | azure-3000 | azure-5000 | azure-7500")
    p.add_argument("--count", type=int, default=0, help="truncate to N VMs")
    p.add_argument("--preset", default="paper", choices=sorted(PRESETS),
                   help="cluster/fabric preset (default: paper; pod presets "
                        "enable pod-failure and spine studies)")
    p.add_argument("--fork-at", type=float, default=0.5, metavar="FRACTION",
                   help="fork after this fraction of arrivals (default: 0.5)")
    p.add_argument("--admission", type=float, nargs="+", default=[],
                   metavar="UTIL", help="one branch per admission threshold "
                   "(reject arrivals above this utilization)")
    p.add_argument("--scale-tier", type=float, nargs="+", default=[],
                   metavar="FACTOR", help="one branch per capacity factor on "
                   "the top (spine) tier")
    p.add_argument("--fail-pod", type=int, nargs="+", default=[],
                   metavar="POD", help="one branch per failed (drained) pod")
    p.add_argument("--fail-links", type=int, nargs="+", default=[],
                   metavar="NODE", help="one branch per failed uplink bundle "
                   "on the top tier (all links of that node go down)")
    p.add_argument("--parallel", type=int, default=1,
                   help="fan (scheduler, seed) trees across N workers")

    p = sub.add_parser(
        "trace",
        help="synthesize, convert, or inspect trace files; manage the "
             "on-disk workload store",
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    t = tsub.add_parser(
        "synthesize", help="generate a named workload into a trace file"
    )
    t.add_argument("output", help="output path (.npz = columnar, else JSONL)")
    t.add_argument("--workload", default="synthetic",
                   help="synthetic | azure-3000 | azure-5000 | azure-7500")
    t.add_argument("--count", type=int, default=0, help="truncate to N VMs")
    t.add_argument("--seed", type=int, default=0, help="workload RNG seed")

    t = tsub.add_parser(
        "convert", help="convert a trace between JSONL and columnar .npz"
    )
    t.add_argument("input", help="input trace (.npz or JSONL)")
    t.add_argument("output", help="output trace (format follows the suffix)")

    t = tsub.add_parser("inspect", help="summarize a trace file")
    t.add_argument("path", help="trace file (.npz or JSONL)")

    t = tsub.add_parser(
        "cache", help="list (or clear) the on-disk workload store"
    )
    t.add_argument("--clear", action="store_true",
                   help="delete every store entry")
    return parser


def _run_trace_command(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand family (workload pipeline tooling)."""
    if args.trace_command == "synthesize":
        try:
            columns = workload_cache.cached_columns(
                args.workload, args.count or None, args.seed
            )
        except WorkloadError as exc:
            raise SystemExit(str(exc)) from None
        output = Path(args.output)
        if output.suffix.lower() == ".npz":
            # Stamp the trace's provenance into the file, like a store entry.
            count = save_trace_npz(
                columns,
                output,
                metadata={
                    "workload": args.workload,
                    "count": args.count or None,
                    "seed": args.seed,
                },
            )
        else:
            count = save_trace(columns, output)
        print(f"wrote {count} VM requests to {args.output}")
        return 0

    if args.trace_command == "convert":
        source = Path(args.input)
        try:
            # .npz input stays columnar (no object materialization);
            # JSONL input comes up as objects and converts on write.
            trace: TraceColumns | list
            if source.suffix.lower() == ".npz":
                trace = load_trace_npz(source)
            else:
                trace = load_trace(source)
            count = save_trace(trace, args.output)
        except WorkloadError as exc:
            raise SystemExit(str(exc)) from None
        print(f"converted {count} VM requests: {args.input} -> {args.output}")
        return 0

    if args.trace_command == "inspect":
        path = Path(args.path)
        metadata: dict = {}
        try:
            if path.suffix.lower() == ".npz":
                columns, metadata = load_trace_npz(path, with_metadata=True)
            else:
                columns = TraceColumns.from_vms(load_trace(path))
        except WorkloadError as exc:
            raise SystemExit(str(exc)) from None
        print(f"{path}: {len(columns)} VM requests")
        if len(columns):
            arrival = columns.arrival
            print(f"  arrival span     {arrival[0]:g} .. {arrival[-1]:g}"
                  f" (sorted: {columns.is_sorted()})")
            print(f"  lifetime         {columns.lifetime.min():g}"
                  f" .. {columns.lifetime.max():g}")
            print(f"  cpu cores        {columns.cpu_cores.min()}"
                  f" .. {columns.cpu_cores.max()}")
            print(f"  ram gb           {columns.ram_gb.min():g}"
                  f" .. {columns.ram_gb.max():g}")
            print(f"  storage gb       {columns.storage_gb.min():g}"
                  f" .. {columns.storage_gb.max():g}")
        for key, value in sorted(metadata.items()):
            print(f"  meta {key:12s} {value}")
        return 0

    if args.trace_command == "cache":
        root = workload_cache.cache_dir()
        if root is None:
            print(
                "workload store disabled "
                f"({workload_cache.CACHE_ENV_VAR} is off)"
            )
            return 0
        if args.clear:
            removed = workload_cache.clear_cache()
            print(f"removed {removed} entries from {root}")
            return 0
        entries = workload_cache.cache_entries()
        print(f"{len(entries)} entries in {root}")
        for path in entries:
            size_kib = path.stat().st_size / 1024
            print(f"  {path.name:48s} {size_kib:8.1f} KiB")
        return 0

    raise SystemExit(
        f"unhandled trace command {args.trace_command!r}"
    )  # pragma: no cover


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "run-all":
        results = run_all(quick=args.quick, seed=args.seed,
                          output_dir=args.output_dir, parallel=args.parallel)
        print(render_report(results))
        return 0 if all(r.shape_ok for r in results) else 1

    if args.command == "experiment":
        result = run_experiment(args.id, quick=args.quick, seed=args.seed)
        print(result.report())
        return 0 if result.shape_ok else 1

    if args.command == "simulate":
        vms = _workload_from_args(args)
        result = simulate(paper_default(), args.scheduler, vms)
        for key, value in result.summary.as_dict().items():
            print(f"{key:32s} {value}")
        return 0

    if args.command == "compare":
        vms = _workload_from_args(args)
        comparison = compare_schedulers(paper_default(), vms, PAPER_SCHEDULERS)
        print(
            comparison.table(
                [
                    "scheduled_vms",
                    "dropped_vms",
                    "inter_rack_assignments",
                    "inter_rack_percent",
                    "avg_cpu_ram_latency_ns",
                    "avg_optical_power_kw",
                    "scheduler_time_s",
                ]
            )
        )
        return 0

    if args.command == "generate":
        vms = _workload_from_args(args)
        count = save_trace(vms, args.output)
        print(f"wrote {count} VM requests to {args.output}")
        return 0

    if args.command == "heatmap":
        vms = _workload_from_args(args)
        until = args.until
        if until is None:
            # Snapshot at the median departure: near peak concurrency.
            departures = sorted(vm.departure for vm in vms)
            until = departures[len(departures) // 2]
        sim = DDCSimulator(paper_default(), args.scheduler)
        sim.run(vms, until=until)
        print(f"cluster occupancy at t={until:g} under {args.scheduler}:")
        print(placement_map(sim.cluster))
        print()
        print(occupancy_table(sim.cluster))
        reference = ResourceVector(cpu=2, ram=4, storage=2)  # the typical VM
        print()
        for key, value in fragmentation_summary(sim.cluster, reference).items():
            print(f"{key:24s} {value:.4f}")
        return 0

    if args.command == "events":
        vms = _workload_from_args(args)
        log = EventLog()
        sim = DDCSimulator(paper_default(), args.scheduler, event_log=log)
        sim.run(vms)
        log.audit()
        count = log.save(args.output)
        print(f"wrote {count} events to {args.output}")
        print(f"digest: {log.digest()}")
        return 0

    if args.command == "stats":
        def factory(seed: int):
            return generate_synthetic(
                SyntheticWorkloadParams(count=args.count), seed=seed
            )

        stats = compare_over_seeds(
            paper_default(),
            factory,
            schedulers=PAPER_SCHEDULERS,
            metrics=("inter_rack_assignments", "avg_cpu_ram_latency_ns",
                     "avg_optical_power_kw"),
            seeds=tuple(range(args.seeds)),
        )
        print(stats_table(stats))
        return 0

    if args.command == "topology":
        spec = PRESETS[args.preset]()
        print(f"fabric topology of preset {args.preset!r}:")
        print(render_topology(spec))
        return 0

    if args.command == "topology-study":
        if args.seeds < 1:
            raise SystemExit("--seeds must be at least 1")
        try:
            result = run_topology_study(
                schedulers=tuple(args.schedulers),
                presets=tuple(args.presets),
                seeds=tuple(range(args.seeds)),
                workload=args.workload,
                count=args.count or None,
                parallel=args.parallel,
            )
        except (SimulationError, WorkloadError) as exc:
            raise SystemExit(str(exc)) from None
        print(
            f"{len(result.presets())} fabrics x {len(result.schedulers())} "
            f"schedulers x {args.seeds} seed(s):"
        )
        print(
            result.table(
                [
                    "scheduled_vms",
                    "dropped_vms",
                    "inter_rack_percent",
                    "avg_inter_net_utilization",
                    "avg_optical_power_kw",
                ]
            )
        )
        print()
        try:
            print(result.figure(args.figure_metric))
        except KeyError:
            raise SystemExit(
                f"unknown figure metric {args.figure_metric!r}; see the "
                "table columns for valid summary metrics"
            ) from None
        return 0

    if args.command == "sweep":
        session = SimulationSession(paper_default(), parallel=args.parallel)
        try:
            result = session.sweep(
                schedulers=tuple(args.schedulers),
                seeds=tuple(range(args.seeds)),
                workload=args.workload,
                count=args.count or None,
            )
        except WorkloadError as exc:
            raise SystemExit(str(exc)) from None
        print(
            result.table(
                [
                    "scheduled_vms",
                    "dropped_vms",
                    "inter_rack_assignments",
                    "avg_cpu_ram_latency_ns",
                    "avg_optical_power_kw",
                ]
            )
        )
        return 0

    if args.command == "trace":
        return _run_trace_command(args)

    if args.command == "scenarios":
        if args.seeds < 1:
            raise SystemExit("--seeds must be at least 1")
        session = SimulationSession(PRESETS[args.preset](), parallel=args.parallel)
        try:
            branches = (
                admission_branches(args.admission)
                + oversubscription_branches(args.scale_tier)
                + pod_failure_branches(args.fail_pod)
                + link_failure_branches(args.fail_links)
            )
            if not branches:
                raise SystemExit(
                    "no branches requested; give at least one of --admission, "
                    "--scale-tier, --fail-pod, --fail-links"
                )
            tree = ScenarioTree(branches=tuple(branches), fork_fraction=args.fork_at)
            result = session.scenarios(
                tree,
                schedulers=tuple(args.schedulers),
                seeds=tuple(range(args.seeds)),
                workload=args.workload,
                count=args.count or None,
            )
        except (SimulationError, TopologyError, WorkloadError) as exc:
            # Domain errors (bad fork fraction, unknown pod, missing trace)
            # read as usage mistakes here, not tracebacks — this includes
            # ones re-raised out of pool workers under --parallel.
            raise SystemExit(str(exc)) from None
        print(
            f"{len(result.branch_names())} branches "
            f"(fork at {args.fork_at:g} of the trace; "
            f"t={result.outcomes[0].fork_time:g} for seed "
            f"{result.outcomes[0].seed}):"
        )
        print(
            result.table(
                [
                    "scheduled_vms",
                    "dropped_vms",
                    "inter_rack_percent",
                    "avg_inter_net_utilization",
                    "avg_optical_power_kw",
                ]
            )
        )
        return 0

    raise SystemExit(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
