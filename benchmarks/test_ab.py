"""Self-test of the paired A/B runner (not collected by tier-1).

    python -m pytest benchmarks/test_ab.py -q

The statistics are checked on synthetic samples; one scaled run of
``HEAD`` against the worktree (``--scale 0.05``, one-second passes) checks
the plumbing end to end, and one scaled ``--aa`` run (the worktree against
itself, eight pairs of half-second passes) checks that identical trees do
not resolve a difference.  About 25 seconds in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import ab

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def ab_run(tmp_path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    return subprocess.run(
        [sys.executable, str(HERE / "ab.py"), *args],
        capture_output=True, text=True, cwd=ROOT, env=env,
    )


def test_wins_follow_the_better_direction():
    parent = [10.0, 11.0, 10.5, 10.2, 10.8]
    lower = [7.0, 7.5, 7.2, 7.1, 7.3]
    row = ab.compare_metric(parent, lower, "lower")
    assert (row["wins"], row["verdict"]) == (5, "resolved")
    assert row["delta"] < 0
    row = ab.compare_metric(parent, lower, "higher")
    assert (row["wins"], row["verdict"]) == (0, "worse")
    q1, q3 = ab.quartiles(parent)
    assert row["spread"] == (q3 - q1) / 10.5


def test_resolution_needs_both_wins_and_a_shift_beyond_the_parent_iqr():
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    # Every pair won, but by less than the parent's spread: unresolved.
    tiny = [p - 0.05 for p in parent]
    row = ab.compare_metric(parent, tiny, "lower")
    assert row["wins"] == 10 and row["verdict"] == "-"
    # A large shift with only 8/10 wins (< 0.9 * K): unresolved.
    mixed = [p - 3.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    row = ab.compare_metric(parent, mixed, "lower")
    assert row["wins"] == 8 and row["verdict"] == "-"
    # 9/10 wins and a shift beyond the IQR: resolved.
    nine = [p - 3.0 for p in parent[:9]] + [parent[9] + 1.0]
    assert ab.compare_metric(parent, nine, "lower")["verdict"] == "resolved"


def test_exit_status_flags_failed_passes_and_count_mismatch():
    ok = {"ok": True, "failed": 0}
    assert ab.exit_status([ok, ok], [ok, ok]) == 0
    assert ab.exit_status([ok, ok], [ok, {"ok": False, "failed": None}]) == 1
    flaky = {"ok": True, "failed": 1}
    assert ab.exit_status([ok, flaky], [ok, ok]) == 1
    assert ab.exit_status([flaky], [flaky]) == 0


def test_unknown_revision_is_a_usage_error(tmp_path):
    done = ab_run(tmp_path, "--parent", "no-such-rev", "--workload", "paper18_mix")
    assert done.returncode == 2
    assert "no-such-rev" in done.stderr


def test_scaled_aa_run(tmp_path):
    done = ab_run(
        tmp_path, "--parent", "HEAD", "--workload", "paper18_mix", "--seed", "0",
        "--pairs", "2", "--scale", "0.05", "--seconds", "1",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    # Alternating order: parent first in pair 1, change first in pair 2.
    assert [line.split(":")[0] for line in lines[:4]] == [
        "pair 1/2 parent", "pair 1/2 change", "pair 2/2 change", "pair 2/2 parent",
    ]
    for metric in SPEC["end_to_end"]:
        row = next(line for line in lines if line.startswith(metric["name"] + " "))
        assert "/2" in row
    assert "parent: 2/2 passes ok" in done.stdout
    assert "change: 2/2 passes ok" in done.stdout


def test_scaled_aa_run_resolves_nothing(tmp_path):
    pairs = 8  # 0.9 * 8 needs 8/8 wins: a chance 8/8 is rare on noise alone
    done = ab_run(
        tmp_path, "--aa", "--workload", "paper18_mix", "--seed", "0",
        "--pairs", str(pairs), "--scale", "0.05", "--seconds", "0.5",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    header = next(line for line in lines if line.startswith("metric "))
    assert "spread" in header
    for metric in SPEC["end_to_end"]:
        row = next(line for line in lines if line.startswith(metric["name"] + " "))
        assert f"/{pairs}" in row
        assert "resolved" not in row, done.stdout
    assert f"parent: {pairs}/{pairs} passes ok" in done.stdout
    assert f"change: {pairs}/{pairs} passes ok" in done.stdout


def test_aa_and_parent_are_exclusive(tmp_path):
    done = ab_run(tmp_path, "--aa", "--parent", "HEAD", "--workload", "paper18_mix")
    assert done.returncode == 2
    assert "not allowed with" in done.stderr
