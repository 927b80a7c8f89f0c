#!/usr/bin/env python3
"""Paired A/B of the end-to-end benchmark: a git revision against the worktree.

    python benchmarks/ab.py --parent HEAD~1 --workload paper18_mix --seed 0 --pairs 10
    python benchmarks/ab.py --aa --workload sat128_churn --seed 0 --pairs 10

The parent side is materialised with ``git archive REV | tar -x`` into a
temporary directory; the change side is the worktree.  ``--aa`` runs the
worktree against itself (no archive): an A/A run whose table shows how far
two identical trees drift apart on this host right now.  Each pair runs one
``benchmarks/e2e/run.py --workload W --seed N --trace 0`` pass per side, each
in a fresh interpreter from that side's own tree, alternating which side goes
first so slow drift on the host lands on both sides equally.

For every end-to-end metric of ``BENCHMARK.json`` it prints both medians
with quartiles, the median change, the parent's spread (interquartile range
over median — under ``--aa``, the host's current noise), and how many of the
K pairs the change won in the metric's ``better`` direction.  A gain is
marked ``resolved`` only
when the change wins at least 0.9*K pairs *and* the two medians differ by
more than the parent's interquartile range; the mirror image is marked
``worse``.

Exit status is 0 when every pass completed and both sides report the same
total of failed operations, 1 otherwise, 2 on a usage error (for example a
revision git cannot archive).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"

#: Share of the pairs the change must win for a gain to count as resolved.
MIN_WIN_SHARE = 0.9


def materialise(rev: str, dest: Path) -> Path:
    """Extract ``rev``'s committed files into a new directory ``dest`` (no
    worktree, no network: the objects come from this repository).  Raises
    ``RuntimeError`` naming the revision when git cannot archive it."""
    dest.mkdir()
    archive = subprocess.Popen(
        ["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    untar = subprocess.run(
        ["tar", "-x", "-C", str(dest)], stdin=archive.stdout, capture_output=True
    )
    archive.stdout.close()
    error = archive.stderr.read().decode().strip() or untar.stderr.decode().strip()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"ab.py: cannot materialise {rev!r}: {error}")
    return dest


def run_pass(tree: Path, args) -> dict:
    """One untraced benchmark pass from ``tree`` in a fresh interpreter.

    Returns ``{"ok", "failed", "pinned", "metrics", "error"}``: ``ok``
    when the pass exited 0 and printed its result line; ``failed`` the
    operations it reported as failed (None when it printed no result);
    ``pinned`` whether its outcomes were checked against ``expected.json``.
    """
    command = [
        sys.executable, str(tree / RUNNER), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", "0",
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.scale != 1.0:
        command += ["--scale", str(args.scale)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    pinned = any("pinned=True" in line for line in lines)
    if result is None:
        return {
            "ok": False, "failed": None, "pinned": pinned, "metrics": {},
            "error": done.stderr[-2000:],
        }
    return {
        "ok": done.returncode == 0,
        "failed": result["failed"],
        "pinned": pinned,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "error": done.stderr[-2000:] if done.returncode else None,
    }


def quartiles(samples: list[float]) -> tuple[float, float]:
    """``(q1, q3)``; one sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def compare_metric(parent: list[float], change: list[float], better: str) -> dict:
    """Paired statistics of one metric over K (parent, change) pairs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, q3 = quartiles(parent)
    shift = abs(change_median - parent_median) > q3 - q1
    need = MIN_WIN_SHARE * len(parent)
    verdict = "-"
    if wins >= need and shift:
        verdict = "resolved"
    elif losses >= need and shift:
        verdict = "worse"
    return {
        "parent": (parent_median, q1, q3),
        "spread": (q3 - q1) / parent_median if parent_median else 0.0,
        "change": (change_median, *quartiles(change)),
        "delta": change_median / parent_median - 1.0 if parent_median else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "verdict": verdict,
    }


def exit_status(parent_runs: list[dict], change_runs: list[dict]) -> int:
    """1 when any pass failed or the sides' failed-operation totals differ."""
    if not all(run["ok"] for run in parent_runs + change_runs):
        return 1
    totals = [sum(run["failed"] for run in runs) for runs in (parent_runs, change_runs)]
    return 0 if totals[0] == totals[1] else 1


def report(metrics: list[dict], parent_runs: list[dict], change_runs: list[dict]) -> None:
    """The per-metric table, over the pairs where both passes printed."""
    pairs = [
        (p, c) for p, c in zip(parent_runs, change_runs)
        if p["metrics"] and c["metrics"]
    ]
    if pairs:
        print(f"{'metric':26s} {'parent median [q1, q3]':>30s} "
              f"{'change median [q1, q3]':>30s} {'delta':>8s} {'spread':>7s} "
              f"{'wins':>6s}  verdict")
    for metric in metrics if pairs else []:
        name = metric["name"]
        row = compare_metric(
            [p["metrics"][name] for p, _ in pairs],
            [c["metrics"][name] for _, c in pairs],
            metric["better"],
        )
        cells = [
            "{:.4g} [{:.4g}, {:.4g}]".format(*row[side]) for side in ("parent", "change")
        ]
        print(f"{name:26s} {cells[0]:>30s} {cells[1]:>30s} {row['delta']:>+8.1%} "
              f"{row['spread']:>7.1%} {row['wins']:>3d}/{row['pairs']:<2d}  {row['verdict']}")
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        failed = [run["failed"] for run in runs]
        print(f"{side}: {sum(run['ok'] for run in runs)}/{len(runs)} passes ok, "
              f"failed ops per pass {failed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sides = parser.add_mutually_exclusive_group(required=True)
    sides.add_argument("--parent", help="git revision of the baseline")
    sides.add_argument("--aa", action="store_true",
                       help="run the worktree against itself (A/A noise check)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one pass (default: BENCHMARK.json)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every trace (self-test only)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        try:
            parent = ROOT if args.aa else materialise(args.parent, Path(tmp) / "parent")
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        parent_runs: list[dict] = []
        change_runs: list[dict] = []
        for pair in range(args.pairs):
            order = [("parent", parent, parent_runs), ("change", ROOT, change_runs)]
            if pair % 2:
                order.reverse()
            for side, tree, runs in order:
                run = run_pass(tree, args)
                runs.append(run)
                status = "ok" if run["ok"] else "FAILED"
                print(f"pair {pair + 1}/{args.pairs} {side}: {status} "
                      f"failed={run['failed']} pinned={run['pinned']}", flush=True)
                if run["error"]:
                    print(run["error"], file=sys.stderr)
    report(spec["end_to_end"], parent_runs, change_runs)
    return exit_status(parent_runs, change_runs)


if __name__ == "__main__":
    sys.exit(main())
