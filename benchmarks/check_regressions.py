#!/usr/bin/env python
"""Benchmark regression gate over the consolidated ``BENCH_results.json``.

CI's bench-smoke job merges every quick-mode benchmark file into one
``BENCH_results.json`` (see ``benchmarks/conftest.py``), then runs this
script as its last step: each benchmark's ``min_s`` is compared against the
committed ``benchmarks/baseline.json`` and the job fails when any benchmark
slowed down by more than ``--tolerance`` x.  Only quick-mode entries
participate — full-mode numbers vary with workload size and belong to the
nightly run, not the gate.

The tolerance is deliberately loose (default 3x): shared CI runners are
noisy, and the gate is after order-of-magnitude cliffs (an accidentally
quadratic loop, a dropped cache), not single-digit-percent drift.  The
benchmark files' own asserted ratio gates (indexed >= 3x, fork >= 3x, ...)
stay the precision instruments; this is the coarse net under everything
else.

Refreshing the baseline
-----------------------
After an intentional perf change (or to enroll new benchmarks), regenerate
the quick-mode results and rewrite the baseline::

    REPRO_BENCH_QUICK=1 REPRO_BENCH_RESULTS=/tmp/bench.json \\
        python -m pytest benchmarks/bench_micro.py \\
            benchmarks/bench_scaling.py benchmarks/bench_fabric.py \\
            benchmarks/bench_checkpoint.py benchmarks/bench_array_core.py \\
            benchmarks/bench_workload_stream.py -q
    python benchmarks/check_regressions.py --results /tmp/bench.json --update

and commit the updated ``benchmarks/baseline.json`` with a note on why the
numbers moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_RESULTS = Path("BENCH_results.json")
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
DEFAULT_TOLERANCE = 3.0


def load_quick_entries(path: Path) -> dict[str, dict]:
    """The quick-mode benchmark entries of one consolidated results file."""
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise SystemExit(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SystemExit(f"{path} should hold one {{name -> stats}} object")
    return {
        name: entry
        for name, entry in data.items()
        if isinstance(entry, dict) and entry.get("quick")
    }


def compare(
    results: dict[str, dict],
    baseline: dict[str, dict],
    tolerance: float,
) -> tuple[list[str], list[str], list[str]]:
    """Diff current quick-mode results against the baseline.

    Returns ``(regressions, missing, new)`` name lists: benchmarks slower
    than ``tolerance x`` their baseline ``min_s``, baseline benchmarks the
    run did not produce, and benchmarks the baseline has not enrolled yet.
    Only the first list fails the gate; the others are advisory (a partial
    local rerun legitimately skips files, and new benchmarks enroll on the
    next ``--update``).
    """
    regressions, missing, new = [], [], []
    for name, base in sorted(baseline.items()):
        entry = results.get(name)
        if entry is None:
            missing.append(name)
            continue
        budget = base["min_s"] * tolerance
        if entry["min_s"] > budget:
            regressions.append(
                f"{name}: min {entry['min_s']:.4g}s > {budget:.4g}s "
                f"(baseline {base['min_s']:.4g}s x tolerance {tolerance:g})"
            )
    new.extend(sorted(set(results) - set(baseline)))
    return regressions, missing, new


def write_baseline(path: Path, results: dict[str, dict]) -> None:
    """Rewrite the baseline from the current quick-mode results."""
    baseline = {
        name: {"min_s": entry["min_s"], "mean_s": entry.get("mean_s"), "quick": True}
        for name, entry in sorted(results.items())
    }
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when quick-mode benchmarks regress past tolerance"
    )
    parser.add_argument(
        "--results", type=Path, default=DEFAULT_RESULTS,
        help="consolidated results file (default: BENCH_results.json)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="committed baseline file (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"allowed min_s slowdown factor (default: {DEFAULT_TOLERANCE:g})",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the current results and exit",
    )
    args = parser.parse_args(argv)
    if args.tolerance <= 1.0:
        parser.error("--tolerance must exceed 1.0 (it is a slowdown factor)")

    results = load_quick_entries(args.results)
    if not results:
        raise SystemExit(f"{args.results} holds no quick-mode benchmark entries")

    if args.update:
        write_baseline(args.baseline, results)
        print(f"baseline rewritten: {len(results)} benchmarks -> {args.baseline}")
        return 0

    baseline = load_quick_entries(Path(args.baseline))
    if not baseline:
        raise SystemExit(
            f"{args.baseline} holds no quick-mode entries; generate one with --update"
        )
    regressions, missing, new = compare(results, baseline, args.tolerance)
    checked = len(baseline) - len(missing)
    print(
        f"checked {checked}/{len(baseline)} baseline benchmarks "
        f"at tolerance {args.tolerance:g}x"
    )
    for name in missing:
        print(f"  note: baseline benchmark not in this run: {name}")
    for name in new:
        print(f"  note: not enrolled in the baseline yet: {name}")
    if regressions:
        print(f"{len(regressions)} regression(s):", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
