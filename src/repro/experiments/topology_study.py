"""Cross-topology scheduler study: the same trace over the topology zoo.

The paper evaluates its schedulers on one fixed two-tier fabric.  With the
tier-generic :class:`~repro.config.FabricTopology` and the topology-zoo
presets (``pod-scale``, ``vl2``, ``fat-tree``), the natural next question is
how the scheduler ranking holds up when the *fabric* changes: does RISA's
locality advantage survive a full-bisection VL2 core, or a fat tree whose
links fatten toward the root?

:func:`run_topology_study` fans the same workload over every
scheduler × preset cell through :class:`SimulationSession` — each cell is an
ordinary :class:`~repro.experiments.sweep.SweepPoint` carrying its preset
*by name*, so the process pool ships short strings, never pickled cluster
specs, and the per-worker trace cache is shared across presets.  Results
come back preset-aware: :meth:`TopologyStudyResult.table` prints one row per
(preset, scheduler) and :meth:`TopologyStudyResult.figure` renders the
paper-style grouped-bar comparison, one group per fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..analysis.ascii_plot import ascii_table, grouped_bars
from ..config import PRESETS
from ..errors import SimulationError
from ..metrics import aggregate_summaries
from ..schedulers import PAPER_SCHEDULERS
from .sweep import SimulationSession, SweepOutcome, SweepPoint

#: The default fabric line-up: the paper's two-tier cluster plus the three
#: multi-tier presets the zoo adds (pod/spine, VL2 Clos, fat tree).
TOPOLOGY_STUDY_PRESETS: tuple[str, ...] = ("paper", "pod-scale", "vl2", "fat-tree")


@dataclass(frozen=True, slots=True)
class TopologyStudyResult:
    """Every (preset, scheduler, seed) outcome of one cross-topology study."""

    outcomes: tuple[SweepOutcome, ...]

    def __len__(self) -> int:
        return len(self.outcomes)

    def presets(self) -> tuple[str, ...]:
        """Preset names in first-appearance order."""
        seen: dict[str, None] = {}
        for outcome in self.outcomes:
            seen.setdefault(outcome.point.preset or "paper", None)
        return tuple(seen)

    def schedulers(self) -> tuple[str, ...]:
        """Scheduler names in first-appearance order."""
        seen: dict[str, None] = {}
        for outcome in self.outcomes:
            seen.setdefault(outcome.point.scheduler, None)
        return tuple(seen)

    def aggregated(self) -> dict[tuple[str, str], dict]:
        """Seed-averaged metrics per (preset, scheduler)."""
        return {
            (preset, scheduler): aggregate_summaries(
                tuple(
                    o.summary
                    for o in self.outcomes
                    if (o.point.preset or "paper") == preset
                    and o.point.scheduler == scheduler
                )
            )
            for preset in self.presets()
            for scheduler in self.schedulers()
        }

    def table(self, metrics: Sequence[str]) -> str:
        """ASCII table of seed-averaged metrics, one row per cell."""
        aggregated = self.aggregated()
        headers = ["topology", "scheduler", "runs", *metrics]
        rows = [
            [preset, scheduler, str(agg["runs"])]
            + [f"{agg[m]:.4g}" for m in metrics]
            for (preset, scheduler), agg in aggregated.items()
        ]
        return ascii_table(headers, rows)

    def figure(self, metric: str = "inter_rack_percent") -> str:
        """Paper-style grouped bars: one group per fabric, one bar per
        scheduler — the cross-topology analogue of Figures 7-10."""
        aggregated = self.aggregated()
        presets = self.presets()
        series = {
            scheduler: [aggregated[(preset, scheduler)][metric] for preset in presets]
            for scheduler in self.schedulers()
        }
        return grouped_bars(
            list(presets),
            series,
            title=f"{metric} by fabric topology",
        )


def run_topology_study(
    schedulers: Sequence[str] = PAPER_SCHEDULERS,
    presets: Sequence[str] = TOPOLOGY_STUDY_PRESETS,
    seeds: Sequence[int] = (0,),
    workload: str = "synthetic",
    count: int | None = None,
    parallel: int = 1,
    session: SimulationSession | None = None,
) -> TopologyStudyResult:
    """Fan one workload over every scheduler × preset × seed cell.

    Points are ordered preset-major, then seed-major within a preset, so
    points sharing a trace stay adjacent for the per-worker workload cache.
    Pass an existing ``session`` to reuse its pool settings; its pinned spec
    is irrelevant here (every point carries a preset).
    """
    unknown = [p for p in presets if p not in PRESETS]
    if unknown:
        raise SimulationError(
            f"unknown presets {unknown}; choose from {sorted(PRESETS)}"
        )
    if session is None:
        session = SimulationSession(parallel=parallel)
    points = [
        SweepPoint(
            scheduler=scheduler,
            seed=seed,
            workload=workload,
            count=count,
            keep_records=session.keep_records,
            chunk_size=session.chunk_size,
            preset=preset,
        )
        for preset in presets
        for seed in seeds
        for scheduler in schedulers
    ]
    return TopologyStudyResult(outcomes=session.run_points(points).outcomes)
