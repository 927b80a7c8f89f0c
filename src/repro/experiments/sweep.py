"""Parallel sweep orchestration.

A :class:`SimulationSession` fans (scheduler, seed, workload) simulation
points across ``concurrent.futures.ProcessPoolExecutor`` workers.  Points
reference workloads *by name and seed*, never by value: each worker process
loads the trace as columnar arrays through the content-addressed store in
:mod:`repro.experiments.workload_cache` (first toucher generates and writes
the ``.npz``; everyone else loads arrays in milliseconds), so a
four-scheduler sweep over one seed never pickles multi-megabyte VM lists
across the pool boundary — and never even *builds* per-VM objects beyond
the one :attr:`SweepPoint.chunk_size` slice being dispatched.

Results come back as picklable :class:`SweepOutcome` rows (summary scalars
only — per-VM records stay in the worker; each row carries the worker's
peak RSS) in submission order, so a ``parallel=1`` session and an N-worker
session produce identical output.

Scenario studies (:meth:`SimulationSession.scenarios`) schedule whole
:class:`~repro.experiments.scenarios.ScenarioTree`\\ s as points: one point
per (scheduler, seed), so each worker simulates the shared warm prefix
*once* and forks every what-if branch off it, instead of paying a cold
rerun per branch.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence, TypeVar

from ..analysis.ascii_plot import ascii_table
from ..config import PRESETS, ClusterSpec, paper_default
from ..errors import SimulationError
from ..memstats import peak_rss_bytes
from ..metrics import RunSummary, aggregate_summaries
from ..schedulers import PAPER_SCHEDULERS
from ..sim import DDCSimulator
from ..workloads import VMRequest
from .scenarios import ScenarioOutcome, ScenarioResult, ScenarioTree, run_scenario_tree
from .workload_cache import cached_columns

_PointT = TypeVar("_PointT")
_OutcomeT = TypeVar("_OutcomeT")


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One simulation to run: scheduler × seed × workload (by reference)."""

    scheduler: str
    seed: int = 0
    workload: str = "synthetic"
    count: int | None = None
    #: Sweeps only ship summary scalars back, so per-VM record retention
    #: defaults off — metric memory stays O(1) in trace length.
    keep_records: bool = False
    #: Arrival-resolution batch size (None = the simulator default).  The
    #: worker keeps at most one chunk of resolved request objects resident.
    chunk_size: int | None = None
    #: Cluster preset name (a :data:`~repro.config.PRESETS` key).  When set
    #: the point builds its own spec from the preset — the cross-topology
    #: study's lever — instead of using the session-pinned spec.  Ships as a
    #: short string, not a pickled ClusterSpec.
    preset: str | None = None


@dataclass(frozen=True, slots=True)
class SweepOutcome:
    """Scalar results of one sweep point."""

    point: SweepPoint
    summary: RunSummary
    end_time: float
    #: Peak resident set size of the worker process after this point ran
    #: (bytes; 0 = unknown).  A process-lifetime high-water mark — on a
    #: multi-point worker it reflects the largest point so far, not this
    #: point alone.
    peak_rss_bytes: int = 0


@dataclass(frozen=True, slots=True)
class SweepResult:
    """All outcomes of one sweep, in submission order."""

    outcomes: tuple[SweepOutcome, ...]

    def __len__(self) -> int:
        return len(self.outcomes)

    def summaries(self, scheduler: str) -> tuple[RunSummary, ...]:
        """Every per-seed summary for one scheduler, in seed order."""
        return tuple(
            o.summary for o in self.outcomes if o.point.scheduler == scheduler
        )

    def schedulers(self) -> tuple[str, ...]:
        """Scheduler names in first-appearance order."""
        seen: dict[str, None] = {}
        for outcome in self.outcomes:
            seen.setdefault(outcome.point.scheduler, None)
        return tuple(seen)

    def aggregated(self) -> dict[str, dict]:
        """Seed-averaged metrics per scheduler (see ``aggregate_summaries``)."""
        return {
            name: aggregate_summaries(self.summaries(name))
            for name in self.schedulers()
        }

    def table(self, metrics: Sequence[str]) -> str:
        """ASCII table of seed-averaged metrics, one row per scheduler."""
        aggregated = self.aggregated()
        headers = ["scheduler", "runs", *metrics]
        rows = [
            [name, str(agg["runs"])] + [f"{agg[m]:.4g}" for m in metrics]
            for name, agg in aggregated.items()
        ]
        return ascii_table(headers, rows)


# ---------------------------------------------------------------------- #
# Worker-side machinery (module level so the pool can pickle it)
# ---------------------------------------------------------------------- #

_WORKER_SPEC: ClusterSpec | None = None


def _init_worker(spec: ClusterSpec) -> None:
    """Pool initializer: pin the cluster spec once per worker process."""
    global _WORKER_SPEC
    _WORKER_SPEC = spec


@lru_cache(maxsize=16)
def _preset_spec(preset: str) -> ClusterSpec:
    """Resolve (and cache, per process) one named cluster preset."""
    try:
        factory = PRESETS[preset]
    except KeyError:
        raise SimulationError(
            f"unknown cluster preset {preset!r}; choose from {sorted(PRESETS)}"
        ) from None
    return factory()


@lru_cache(maxsize=32)
def build_workload(workload: str, count: int | None, seed: int) -> tuple[VMRequest, ...]:
    """Build (and cache, per process) one named workload trace as objects.

    Name parsing and generation go through the workload cache
    (:func:`~repro.experiments.workload_cache.cached_columns`); this wrapper
    only adds the object conversion for callers that still want
    :class:`VMRequest` tuples (scenario trees, the CLI's ``run`` command).
    Sweep points themselves stream the columns directly.
    """
    return tuple(cached_columns(workload, count, seed).to_vms())


def _run_point(point: SweepPoint) -> SweepOutcome:
    """Run one sweep point against the worker's pinned spec.

    The trace stays columnar end to end: loaded (or generated once) through
    the on-disk store, bound to the engine as a chunked arrival source —
    per-VM request objects exist only for the chunk being dispatched.
    """
    if point.preset is not None:
        spec = _preset_spec(point.preset)
    else:
        spec = _WORKER_SPEC if _WORKER_SPEC is not None else paper_default()
    columns = cached_columns(point.workload, point.count, point.seed)
    simulator = DDCSimulator(
        spec,
        point.scheduler,
        keep_records=point.keep_records,
        chunk_size=point.chunk_size,
    )
    result = simulator.run(columns)
    return SweepOutcome(
        point=point,
        summary=result.summary,
        end_time=result.end_time,
        peak_rss_bytes=peak_rss_bytes(),
    )


@dataclass(frozen=True, slots=True)
class ScenarioPoint:
    """One scenario tree to run: scheduler × seed × workload (by reference).

    The whole branch set of one (scheduler, seed) rides in a single point —
    that granularity is what lets the worker share the warm prefix across
    branches.
    """

    scheduler: str
    tree: ScenarioTree
    seed: int = 0
    workload: str = "synthetic"
    count: int | None = None
    keep_records: bool = False


def _run_scenario_point(point: ScenarioPoint) -> ScenarioOutcome:
    """Run one scenario tree against the worker's pinned spec.

    Like :func:`_run_point`, the trace stays columnar end to end: the tree
    forks off the sorted arrival column and every branch streams the
    chunked arrival source — no per-point :class:`VMRequest` list is ever
    materialized in the worker.
    """
    spec = _WORKER_SPEC if _WORKER_SPEC is not None else paper_default()
    columns = cached_columns(point.workload, point.count, point.seed)
    return run_scenario_tree(
        spec,
        point.scheduler,
        columns,
        point.tree,
        seed=point.seed,
        keep_records=point.keep_records,
    )


# ---------------------------------------------------------------------- #
# Session
# ---------------------------------------------------------------------- #


class SimulationSession:
    """Runs sweep points serially or across a process pool.

    ``parallel=1`` executes in-process (no pool, no pickling) — the path
    tests and small sweeps use; ``parallel=N`` spins up at most N workers,
    each initialized once with the session's spec.
    ``keep_records=False`` (the default) runs every point with per-VM record
    retention off — sweeps only consume summary scalars, so long traces no
    longer accumulate O(trace) ``VMRecord`` lists in the workers.
    """

    def __init__(
        self,
        spec: ClusterSpec | None = None,
        parallel: int = 1,
        keep_records: bool = False,
        chunk_size: int | None = None,
    ) -> None:
        self.spec = spec if spec is not None else paper_default()
        self.parallel = max(1, int(parallel))
        self.keep_records = keep_records
        #: Arrival-resolution batch size forwarded to every point — bounds
        #: each worker to one resolved chunk of request objects at a time
        #: regardless of trace length (None = simulator default).
        self.chunk_size = chunk_size

    def _map_points(
        self,
        runner: Callable[[_PointT], _OutcomeT],
        points: list[_PointT],
    ) -> list[_OutcomeT]:
        """Run ``runner`` over points serially or across the process pool,
        preserving submission order (shared by sweeps and scenario studies).
        """
        if self.parallel == 1 or len(points) <= 1:
            _init_worker(self.spec)
            return [runner(point) for point in points]
        workers = min(self.parallel, len(points))
        # Chunking keeps adjacent points (which sweep() orders seed-major,
        # i.e. sharing a workload) on the same worker, so its per-process
        # trace cache actually gets hits.
        chunksize = max(1, len(points) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.spec,),
        ) as pool:
            return list(pool.map(runner, points, chunksize=chunksize))

    def run_points(self, points: Iterable[SweepPoint]) -> SweepResult:
        """Execute points, preserving submission order in the result."""
        return SweepResult(outcomes=tuple(self._map_points(_run_point, list(points))))

    def sweep(
        self,
        schedulers: Sequence[str] = PAPER_SCHEDULERS,
        seeds: Sequence[int] = (0,),
        workload: str = "synthetic",
        count: int | None = None,
    ) -> SweepResult:
        """The common grid: every scheduler × every seed on one workload.

        Points are ordered seed-major (all schedulers of seed 0, then seed
        1, ...) so points sharing a trace sit adjacent — cache locality for
        the per-worker workload cache.
        """
        points = [
            SweepPoint(
                scheduler=scheduler,
                seed=seed,
                workload=workload,
                count=count,
                keep_records=self.keep_records,
                chunk_size=self.chunk_size,
            )
            for seed in seeds
            for scheduler in schedulers
        ]
        return self.run_points(points)

    # ------------------------------------------------------------------ #
    # Scenario studies (forked what-if branches off shared warm prefixes)
    # ------------------------------------------------------------------ #

    def run_scenario_points(self, points: Iterable[ScenarioPoint]) -> ScenarioResult:
        """Execute scenario trees, preserving submission order."""
        return ScenarioResult(
            outcomes=tuple(self._map_points(_run_scenario_point, list(points)))
        )

    def scenarios(
        self,
        tree: ScenarioTree,
        schedulers: Sequence[str] = PAPER_SCHEDULERS,
        seeds: Sequence[int] = (0,),
        workload: str = "synthetic",
        count: int | None = None,
    ) -> ScenarioResult:
        """Run one scenario tree for every scheduler × seed.

        Each (scheduler, seed) cell is a single point: its worker simulates
        the shared warm prefix once, then forks every branch (baseline
        included) off the same :class:`~repro.sim.simulator.RunCheckpoint` —
        on an N-branch tree forked at fraction f, that replaces N cold
        full-trace runs with one prefix plus N suffixes (~``1 + N·(1-f)``
        trace-equivalents).
        """
        points = [
            ScenarioPoint(
                scheduler=scheduler,
                tree=tree,
                seed=seed,
                workload=workload,
                count=count,
                keep_records=self.keep_records,
            )
            for seed in seeds
            for scheduler in schedulers
        ]
        return self.run_scenario_points(points)
