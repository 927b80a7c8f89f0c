"""Branching what-if scenario studies off a shared warm prefix.

The paper's most interesting questions are counterfactuals: what happens to
drop rate, inter-rack placements, and tier utilization when admission is
tightened, spine links are oversubscribed, or a pod fails mid-trace?  A cold
sweep answers each point by rerunning the whole trace; this module instead
builds a :class:`ScenarioTree` — one *warm prefix* simulated once, then N
divergent branches forked from its :class:`~repro.sim.simulator.RunCheckpoint`
— so every branch pays only for its divergent suffix.

A branch is a named list of :class:`Perturbation`\\ s applied at the fork
point:

* :class:`AdmissionThreshold` — flip the simulator's utilization-based
  admission gate (per-pod admission studies tighten globally here; the gate
  reads cluster utilization);
* :class:`TierCapacityScale` — multiply one fabric tier's link capacities
  (spine-oversubscription sweeps, via
  :meth:`~repro.network.fabric.NetworkFabric.scale_tier_capacity`);
* :class:`PodFailure` — drain every rack of one pod through the
  listener-backed occupancy APIs (existing VMs finish, nothing new lands);
* :class:`LinkFailure` / :class:`LinkRestore` / :class:`LinkFlap` — take
  links of one bundle down (and back up) immediately or at scheduled clock
  times, through :meth:`~repro.network.fabric.NetworkFabric.fail_links`;
* :class:`BundleDegrade` — partial capacity loss on a single bundle.

Timed perturbations ride the simulator's fault timeline
(:meth:`~repro.sim.simulator.DDCSimulator.schedule_fault`), which is part of
:class:`~repro.sim.simulator.RunCheckpoint` — so a forked continuation with a
fault schedule matches a cold run of the same schedule bit for bit.

:func:`run_scenario_tree` executes one (scheduler, workload) tree in-process;
``SimulationSession.scenarios`` fans (scheduler, seed) trees across workers —
each worker simulates its warm prefix once per tree, not once per branch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..analysis.ascii_plot import ascii_table
from ..config import ClusterSpec
from ..errors import SimulationError
from ..metrics import RunSummary, aggregate_summaries
from ..sim import DDCSimulator
from ..workloads import TraceColumns, VMRequest

#: Reserved name of the unperturbed branch every tree carries by default.
BASELINE_BRANCH = "baseline"


@runtime_checkable
class Perturbation(Protocol):
    """Anything that can mutate a live simulator at the fork point.

    Implementations must be picklable (frozen dataclasses of plain values)
    so scenario points can cross the process-pool boundary, and must only
    mutate state that :meth:`~repro.sim.simulator.DDCSimulator.restore_run`
    rewinds — occupancy, link capacities, or the admission threshold.
    """

    def apply(self, sim: DDCSimulator) -> None:
        """Mutate ``sim`` in place (called once, at the fork point)."""
        ...


@dataclass(frozen=True, slots=True)
class AdmissionThreshold:
    """Set the utilization-based admission gate (``None`` disables it)."""

    threshold: float | None

    def __post_init__(self) -> None:
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise SimulationError(
                f"admission threshold must be in [0, 1], got {self.threshold}"
            )

    def apply(self, sim: DDCSimulator) -> None:
        sim.admission_threshold = self.threshold


@dataclass(frozen=True, slots=True)
class TierCapacityScale:
    """Scale one fabric tier's link capacities by ``factor``.

    ``tier`` is a level index (negative counts from the top: ``-1`` is the
    spine/top tier, the classic oversubscription lever) or a tier name.
    """

    factor: float
    tier: int | str = -1

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise SimulationError(
                f"tier capacity factor must be positive, got {self.factor}"
            )

    def apply(self, sim: DDCSimulator) -> None:
        sim.fabric.scale_tier_capacity(self.tier, self.factor)


@dataclass(frozen=True, slots=True)
class PodFailure:
    """Drain every rack of one pod (no new placements; tenants finish)."""

    pod_index: int

    def apply(self, sim: DDCSimulator) -> None:
        lo, hi = sim.cluster.pod_rack_range(self.pod_index)
        sim.cluster.drain_racks(range(lo, hi))


@dataclass(frozen=True, slots=True)
class LinkFailure:
    """Take links of one bundle down (the first ``count``, or all).

    ``tier``/``node`` address the bundle like :class:`TierCapacityScale`
    addresses a tier: a level index (negative from the top) or a tier name,
    plus the node id within it (tier 0 nodes are boxes).  With ``at=None``
    the failure lands at the fork point; otherwise it is queued on the
    simulator's fault timeline and fires at clock time ``at``.  In-flight
    circuits keep flowing; the downed links just offer no new headroom
    until a :class:`LinkRestore` brings them back.
    """

    tier: int | str = -1
    node: int = 0
    count: int | None = None
    at: float | None = None

    def apply(self, sim: DDCSimulator) -> None:
        if self.at is None:
            sim.fabric.fail_links(self.tier, self.node, self.count)
        else:
            sim.schedule_fault(self.at, replace(self, at=None))


@dataclass(frozen=True, slots=True)
class LinkRestore:
    """Bring downed links of one bundle back at their pre-fault capacity."""

    tier: int | str = -1
    node: int = 0
    count: int | None = None
    at: float | None = None

    def apply(self, sim: DDCSimulator) -> None:
        if self.at is None:
            sim.fabric.restore_links(self.tier, self.node, self.count)
        else:
            sim.schedule_fault(self.at, replace(self, at=None))


@dataclass(frozen=True, slots=True)
class LinkFlap:
    """A transient outage: links go down at ``down_at`` and recover at
    ``up_at``.  Both edges ride the fault timeline, so the flap replays
    identically in cold runs, restored runs, and forks."""

    down_at: float
    up_at: float
    tier: int | str = -1
    node: int = 0
    count: int | None = None

    def __post_init__(self) -> None:
        if self.up_at <= self.down_at:
            raise SimulationError(
                f"flap must recover after it fails: down_at={self.down_at}, "
                f"up_at={self.up_at}"
            )

    def apply(self, sim: DDCSimulator) -> None:
        sim.schedule_fault(
            self.down_at, LinkFailure(self.tier, self.node, self.count)
        )
        sim.schedule_fault(
            self.up_at, LinkRestore(self.tier, self.node, self.count)
        )


@dataclass(frozen=True, slots=True)
class BundleDegrade:
    """Partial capacity loss on one bundle: scale its links by ``factor``.

    Unlike :class:`TierCapacityScale` this hits a single bundle — the
    frayed-cable scenario.  ``at=None`` applies at the fork point; otherwise
    the degrade fires at clock time ``at`` via the fault timeline.
    """

    factor: float
    tier: int | str = -1
    node: int = 0
    at: float | None = None

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise SimulationError(
                f"bundle degrade factor must be positive, got {self.factor}"
            )

    def apply(self, sim: DDCSimulator) -> None:
        if self.at is None:
            sim.fabric.degrade_bundle(self.tier, self.node, self.factor)
        else:
            sim.schedule_fault(self.at, replace(self, at=None))


@dataclass(frozen=True, slots=True)
class ScenarioBranch:
    """One divergent branch: a name plus the perturbations it applies."""

    name: str
    perturbations: tuple = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("scenario branch needs a non-empty name")


@dataclass(frozen=True, slots=True)
class ScenarioTree:
    """A warm prefix and its divergent branches.

    ``fork_fraction`` places the fork point at the arrival time of the
    ``floor(fraction * len(trace))``-th arrival (events at exactly that time
    are part of the shared prefix).  With ``include_baseline`` (default) an
    unperturbed branch named :data:`BASELINE_BRANCH` runs first, giving
    every study its own control without a separate cold run.
    """

    branches: tuple[ScenarioBranch, ...]
    fork_fraction: float = 0.5
    include_baseline: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.fork_fraction < 1.0:
            raise SimulationError(
                f"fork_fraction must be in [0, 1), got {self.fork_fraction}"
            )
        names = [b.name for b in self.branches]
        if self.include_baseline:
            names.append(BASELINE_BRANCH)
        if len(set(names)) != len(names):
            raise SimulationError(f"scenario branch names must be unique: {names}")
        if not names:
            raise SimulationError("scenario tree has no branches")

    def all_branches(self) -> tuple[ScenarioBranch, ...]:
        """Branches in execution order (baseline first when included)."""
        base = (ScenarioBranch(BASELINE_BRANCH),) if self.include_baseline else ()
        return base + tuple(self.branches)

    def fork_time(self, vms: Sequence[VMRequest] | TraceColumns) -> float:
        """The absolute fork time for one trace (objects or columns).

        The columnar branch sorts the arrival column in place of the object
        comprehension — same float64 values, same index arithmetic, so both
        representations of one trace fork at the identical time.
        """
        if isinstance(vms, TraceColumns):
            if vms.arrival.shape[0] == 0:
                raise SimulationError("cannot fork an empty trace")
            times = np.sort(vms.arrival)
            return float(times[int(self.fork_fraction * times.shape[0])])
        if not vms:
            raise SimulationError("cannot fork an empty trace")
        times = sorted(vm.arrival for vm in vms)
        return times[int(self.fork_fraction * len(times))]


@dataclass(frozen=True, slots=True)
class BranchOutcome:
    """Scalar results of one branch's completed run."""

    branch: str
    summary: RunSummary
    end_time: float


@dataclass(frozen=True, slots=True)
class ScenarioOutcome:
    """All branch outcomes of one (scheduler, seed) tree."""

    scheduler: str
    seed: int
    fork_time: float
    branches: tuple[BranchOutcome, ...]

    def branch(self, name: str) -> BranchOutcome:
        """Look one branch up by name."""
        for outcome in self.branches:
            if outcome.branch == name:
                return outcome
        raise KeyError(
            f"no branch {name!r}; branches are {[b.branch for b in self.branches]}"
        )


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    """Every (scheduler, seed) outcome of one scenario study."""

    outcomes: tuple[ScenarioOutcome, ...]

    def __len__(self) -> int:
        return len(self.outcomes)

    def branch_names(self) -> tuple[str, ...]:
        """Branch names in execution order."""
        return tuple(b.branch for b in self.outcomes[0].branches)

    def schedulers(self) -> tuple[str, ...]:
        """Scheduler names in first-appearance order."""
        seen: dict[str, None] = {}
        for outcome in self.outcomes:
            seen.setdefault(outcome.scheduler, None)
        return tuple(seen)

    def summaries(self, scheduler: str, branch: str) -> tuple[RunSummary, ...]:
        """Per-seed summaries of one (scheduler, branch) cell."""
        return tuple(
            o.branch(branch).summary
            for o in self.outcomes
            if o.scheduler == scheduler
        )

    def aggregated(self) -> dict[tuple[str, str], dict]:
        """Seed-averaged metrics per (scheduler, branch)."""
        return {
            (scheduler, branch): aggregate_summaries(self.summaries(scheduler, branch))
            for scheduler in self.schedulers()
            for branch in self.branch_names()
        }

    def table(self, metrics: Sequence[str]) -> str:
        """ASCII table of seed-averaged metrics, one row per branch."""
        aggregated = self.aggregated()
        headers = ["scheduler", "branch", "runs", *metrics]
        rows = [
            [scheduler, branch, str(agg["runs"])]
            + [f"{agg[m]:.4g}" for m in metrics]
            for (scheduler, branch), agg in aggregated.items()
        ]
        return ascii_table(headers, rows)


def run_scenario_tree(
    spec: ClusterSpec,
    scheduler: str,
    vms: Sequence[VMRequest] | TraceColumns,
    tree: ScenarioTree,
    seed: int = 0,
    keep_records: bool = False,
) -> ScenarioOutcome:
    """Run one scenario tree: warm prefix once, then every branch off it.

    The simulator runs the shared prefix up to the tree's fork time, takes a
    :meth:`~repro.sim.simulator.DDCSimulator.full_checkpoint`, and then, per
    branch, rewinds to it, applies the branch's perturbations, and drains
    the remaining trace.  Branch continuations are bit-identical to cold
    runs of the same perturbed scenario — the baseline branch in particular
    reproduces the plain uninterrupted run exactly.

    ``vms`` may be a :class:`~repro.workloads.TraceColumns` trace, in which
    case the run streams it chunked (request objects exist only per
    dispatched chunk, for every branch) and produces the same digests and
    summaries as the object-trace form.
    """
    sim = DDCSimulator(spec, scheduler, keep_records=keep_records)
    sim.start_run(vms)
    fork_time = tree.fork_time(vms)
    sim.advance(until=fork_time)
    checkpoint = sim.full_checkpoint()
    outcomes = []
    for index, branch in enumerate(tree.all_branches()):
        if index:
            sim.restore_run(checkpoint)
        for perturbation in branch.perturbations:
            perturbation.apply(sim)
        result = sim.finish()
        outcomes.append(
            BranchOutcome(
                branch=branch.name, summary=result.summary, end_time=result.end_time
            )
        )
    return ScenarioOutcome(
        scheduler=scheduler,
        seed=seed,
        fork_time=fork_time,
        branches=tuple(outcomes),
    )


# ---------------------------------------------------------------------- #
# Branch builders (shared by the CLI and example studies)
# ---------------------------------------------------------------------- #


def admission_branches(thresholds: Sequence[float]) -> list[ScenarioBranch]:
    """One branch per admission threshold, named ``admit<=X``."""
    return [
        ScenarioBranch(f"admit<={t:g}", (AdmissionThreshold(t),)) for t in thresholds
    ]


def oversubscription_branches(
    factors: Sequence[float], tier: int | str = -1
) -> list[ScenarioBranch]:
    """One branch per capacity factor on one tier, named ``<tier>x<F>``."""
    label = tier if isinstance(tier, str) else ("top" if tier == -1 else f"tier{tier}")
    return [
        ScenarioBranch(f"{label}x{f:g}", (TierCapacityScale(f, tier),))
        for f in factors
    ]


def pod_failure_branches(pods: Sequence[int]) -> list[ScenarioBranch]:
    """One branch per failed pod, named ``pod<N>-down``."""
    return [ScenarioBranch(f"pod{p}-down", (PodFailure(p),)) for p in pods]


def link_failure_branches(
    nodes: Sequence[int], tier: int | str = -1, count: int | None = None
) -> list[ScenarioBranch]:
    """One branch per failed bundle, named ``links@<N>-down``."""
    return [
        ScenarioBranch(f"links@{n}-down", (LinkFailure(tier, n, count),))
        for n in nodes
    ]
