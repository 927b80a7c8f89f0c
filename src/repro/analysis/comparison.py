"""Multi-scheduler comparison runs.

Every paper figure compares the four algorithms on an identical workload;
:func:`compare_schedulers` runs each scheduler on a *fresh* cluster with the
*same* trace and collects the summaries side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..config import ClusterSpec
from ..metrics import RunSummary
from ..schedulers import PAPER_SCHEDULERS
from ..sim import SimulationResult, simulate
from ..workloads import VMRequest
from .ascii_plot import ascii_table


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """Results of running several schedulers on one workload."""

    workload_name: str
    results: tuple[SimulationResult, ...]

    def summary(self, scheduler: str) -> RunSummary:
        """Summary for one scheduler by name."""
        for result in self.results:
            if result.scheduler == scheduler:
                return result.summary
        raise KeyError(f"no result for scheduler {scheduler!r}")

    @property
    def schedulers(self) -> tuple[str, ...]:
        """Scheduler names in run order."""
        return tuple(r.scheduler for r in self.results)

    def metric(self, attribute: str) -> dict[str, float]:
        """One summary attribute across schedulers."""
        return {r.scheduler: getattr(r.summary, attribute) for r in self.results}

    def table(self, attributes: Sequence[str]) -> str:
        """ASCII table of chosen summary attributes per scheduler."""
        headers = ["scheduler", *attributes]
        rows = [
            [r.scheduler] + [f"{getattr(r.summary, a):.4g}" for a in attributes]
            for r in self.results
        ]
        return ascii_table(headers, rows)


def compare_schedulers(
    spec: ClusterSpec,
    vms: Iterable[VMRequest],
    schedulers: Sequence[str] = PAPER_SCHEDULERS,
    workload_name: str = "workload",
) -> ComparisonResult:
    """Run each scheduler on a fresh cluster over the same trace."""
    trace = list(vms)
    results = tuple(simulate(spec, name, trace) for name in schedulers)
    return ComparisonResult(workload_name=workload_name, results=results)
