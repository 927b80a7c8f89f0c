"""Benchmark harness configuration.

Each ``bench_fig*`` file regenerates one paper figure at full workload size
(the paper's 2500-VM synthetic trace and the 3000/5000/7500 Azure subsets)
and asserts its shape checks.  Figure-regeneration benchmarks run exactly
once per session (``rounds=1``) — the measured quantity is the end-to-end
experiment wall time; the *output* is the regenerated figure, printed so
``pytest benchmarks/ --benchmark-only -s`` shows the ASCII figures.

Set ``REPRO_BENCH_QUICK=1`` to run the reduced workloads instead.

Every benchmark session also merges its measurements into a consolidated
``BENCH_results.json`` (override the path with ``REPRO_BENCH_RESULTS``):
one flat ``{test name -> {min_s, mean_s, rounds, quick, extra_info}}`` map,
updated in place across the separate per-file pytest invocations CI runs,
so the per-PR performance trajectory stays machine-readable from a single
artifact instead of five pytest-benchmark dumps.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.memstats import peak_rss_bytes

def bench_quick() -> bool:
    """Whether to run reduced-size workloads."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


@pytest.fixture(scope="session")
def quick() -> bool:
    """Session-wide quick-mode flag."""
    return bench_quick()


def results_path() -> Path:
    """Where the consolidated results land (repo root by default)."""
    return Path(os.environ.get("REPRO_BENCH_RESULTS", "BENCH_results.json"))


def pytest_sessionfinish(session, exitstatus):
    """Merge this session's benchmark stats into ``BENCH_results.json``.

    CI runs each ``bench_*.py`` file as its own pytest invocation; merging
    (rather than overwriting) consolidates them all into one file.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    path = results_path()
    try:
        consolidated = json.loads(path.read_text())
    except (OSError, ValueError):
        consolidated = {}
    # One per-session number (ru_maxrss is process-lifetime), stamped on
    # every entry: CI runs each bench file as its own pytest invocation, so
    # it reflects that file's heaviest benchmark.
    session_rss = peak_rss_bytes()
    for bench in bench_session.benchmarks:
        stats = bench.stats
        consolidated[bench.name] = {
            "min_s": stats.min,
            "mean_s": stats.mean,
            "rounds": stats.rounds,
            "quick": bench_quick(),
            "peak_rss_bytes": session_rss,
            "extra_info": dict(bench.extra_info),
        }
    path.write_text(json.dumps(consolidated, indent=2, sort_keys=True) + "\n")


def run_figure(benchmark, driver, quick: bool):
    """Benchmark one experiment driver once and validate its shape."""
    result = benchmark.pedantic(
        driver, kwargs={"quick": quick, "seed": 0}, rounds=1, iterations=1
    )
    benchmark.extra_info["peak_rss_bytes"] = peak_rss_bytes()
    assert result.shape_ok, result.report()
    print()
    print(result.report())
    return result
