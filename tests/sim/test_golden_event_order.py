"""Golden event order: the calendar's tie rules, pinned as data.

``golden_event_order.json`` was recorded from the per-VM generator-process
engine that preceded :class:`~repro.sim.engine.FlatEngine`.  That engine
ordered events by scheduling sequence alone, so it is an independent oracle
for the flat calendar's tie rules: at equal times arrivals fire before
departures, equal-time departures fire in placement-commit order, and
equal-time arrivals keep trace order.

Each row holds one run's ``EventLog`` digest, end time, drop count, and the
sha256 of its summary with wall-clock scheduler time masked out.  The rows
cover the four paper schedulers over seeds 0-19 on the paper cluster, the
same four on an oversubscribed tiny cluster (drop and commit-rollback
paths), and an ``until``-truncated run.  Synthetic traces almost never put
two events at one instant, so rows with a ``quantum`` replay a tie-dense
variant of the trace (:func:`tie_dense`) in which every one of those rules
decides the order many times per run.
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import PRESETS
from repro.sim import DDCSimulator, EventLog
from repro.workloads import SyntheticWorkloadParams, generate_synthetic

ROWS = json.loads((Path(__file__).parent / "golden_event_order.json").read_text())


def tie_dense(vms, quantum):
    """Snap arrivals down to a ``quantum`` grid and give VM ``i`` a lifetime
    of ``quantum * (1 + i % 7)``: arrivals, departures and both against each
    other collide on the grid."""
    return [
        replace(
            vm,
            arrival=math.floor(vm.arrival / quantum) * quantum,
            lifetime=quantum * (1 + i % 7),
        )
        for i, vm in enumerate(vms)
    ]


def summary_sha256(summary) -> str:
    d = summary.as_dict()
    d.pop("scheduler_time_s")  # wall clock: legitimately nondeterministic
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


def row_id(row) -> str:
    ties = "" if row["quantum"] is None else "-ties"
    cut = "" if row["until"] is None else "-until"
    return f"{row['preset']}-{row['scheduler']}-seed{row['seed']}{ties}{cut}"


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_flat_engine_reproduces_golden_row(row):
    vms = generate_synthetic(
        SyntheticWorkloadParams(count=row["count"]), seed=row["seed"]
    )
    if row["quantum"] is not None:
        vms = tie_dense(vms, row["quantum"])
    log = EventLog()
    sim = DDCSimulator(PRESETS[row["preset"]](), row["scheduler"], event_log=log)
    result = sim.run(vms, until=row["until"])
    if row["until"] is None:
        log.audit()
    assert log.digest() == row["digest"]
    assert result.end_time == row["end_time"]
    assert result.summary.dropped_vms == row["dropped_vms"]
    assert summary_sha256(result.summary) == row["summary_sha256"]


def test_table_covers_drops_and_ties():
    """The oversubscribed rows drop VMs and the tie-dense rows exist, so
    neither path is pinned vacuously."""
    tiny = [row for row in ROWS if row["preset"] == "tiny"]
    assert len(tiny) == 8
    assert all(row["dropped_vms"] > 0 for row in tiny)
    assert sum(row["quantum"] is not None for row in ROWS) == 25
