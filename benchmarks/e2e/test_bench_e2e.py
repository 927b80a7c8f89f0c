"""Self-test of the end-to-end benchmark (not collected by tier-1).

    python -m pytest benchmarks/e2e -q

Drives every workload at ``--scale 0.05`` (``fig11_12_reference`` through the
figure drivers' quick mode) and checks the harness, not the program's speed.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
SMOKE = ["--seed", "0", "--seconds", "1", "--scale", "0.05"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
CONTAINERS = {"sim.run", "sim.arrival_phase", "sim.drain_phase", "sim.prefix", "sim.branch"}


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], capture_output=True, text=True, cwd=ROOT)


@pytest.fixture(scope="module")
def result(tmp_path_factory) -> dict:
    """One full smoke run: every workload, untraced and traced pass."""
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = run(*SMOKE, "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_metric_names_equal_the_declared_sets(result):
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    for kind in ("end_to_end", "per_layer"):
        units = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
        assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in units)
        for workload in WORKLOADS:
            passed = result["workloads"][workload][kind]
            assert passed["status"] == "completed" and passed["error"] is None
            assert passed["completed_reps"] == passed["total_reps"] >= 1
            assert passed["ops_failed"] == 0 < passed["ops_attempted"]
            assert {n: m["unit"] for n, m in passed["metrics"].items()} == units
    for workload in WORKLOADS:
        for metric in result["workloads"][workload]["end_to_end"]["metrics"].values():
            assert metric["value"] > 0


def test_run_record_is_hermetic_and_stamped(result):
    record = result["record"]
    assert set(record) == {"git_rev", "seed", "seconds", "scale", "nproc", "python", "numpy"}
    assert record["scale"] == 0.05 and result["claim"] is None
    assert not list((HERE / "out").glob("cache-*")), "workload cache directories left behind"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_top_level_spans_plus_residual_equal_traced_wall(result, workload):
    trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
    spans = trace["spans"]
    names = [trace["names"][i] for i in spans["name"]]
    durations = [end - start for start, end in zip(spans["start_s"], spans["end_s"])]
    parents = spans["parent"]
    self_time = list(durations)
    for duration, parent in zip(durations, parents):
        if parent >= 0:
            self_time[parent] -= duration
            assert spans["start_s"][parent] <= spans["end_s"][parent]
    wall = sum(d for d, p in zip(durations, parents) if p < 0)
    top = sum(
        d for d, p, n in zip(durations, parents, names)
        if n not in CONTAINERS and p >= 0 and names[p] in CONTAINERS
    )
    residual = sum(s for s, n in zip(self_time, names) if n in CONTAINERS)
    assert wall > 0
    assert top + residual == pytest.approx(wall, rel=1e-9)
    metrics = result["workloads"][workload]["per_layer"]["metrics"]
    assert metrics["sim.residual_s"]["value"] == pytest.approx(residual, rel=1e-9)
    assert metrics["trace.spans"]["value"] == len(names)


def test_counts_repeat_exactly_and_result_line_has_the_contract_shape(result):
    done = run("--workload", "sat128_churn", "--trace", "1", *SMOKE)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert all(set(metric) == {"value", "unit"} for metric in line["metrics"].values())
    first = result["workloads"]["sat128_churn"]["per_layer"]["metrics"]
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]
    assert len(exact) == 20
    assert {n: line["metrics"][n]["value"] for n in exact} == {
        n: first[n]["value"] for n in exact
    }
    assert line["metrics"]["sim.batched_departure_ratio"]["value"] > 0


def test_corrupted_pin_fails_the_run(tmp_path):
    pins_path = tmp_path / "expected.json"
    done = run("--update-expected", "--expected", str(pins_path), *SMOKE)
    assert done.returncode == 0, done.stderr
    pins = json.loads(pins_path.read_text())
    assert set(pins["workloads"]) == set(WORKLOADS)
    ok = run("--workload", "sat128_churn", "--trace", "1", "--expected", str(pins_path), *SMOKE)
    assert ok.returncode == 0 and "pinned=True" in ok.stdout, ok.stdout + ok.stderr

    bad = copy.deepcopy(pins)
    bad["workloads"]["sat128_churn"]["churn/risa"]["digest"] = "0" * 64
    pins_path.write_text(json.dumps(bad))
    done = run("--workload", "sat128_churn", "--trace", "1", "--expected", str(pins_path), *SMOKE)
    assert done.returncode != 0
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
    assert "event digest" in done.stderr

    bad = copy.deepcopy(pins)
    bad["workloads"]["sat128_churn"]["churn/nalb"]["summary"]["dropped_vms"] += 1
    pins_path.write_text(json.dumps(bad))
    done = run("--workload", "sat128_churn", "--trace", "0", "--expected", str(pins_path), *SMOKE)
    assert done.returncode != 0
    assert json.loads(done.stdout.splitlines()[-1])["failed"] > 0
    assert "dropped_vms" in done.stderr


def test_compare(result, tmp_path):
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(result))
    refused = run("compare", str(scaled), str(scaled))
    assert refused.returncode == 2 and "refusing" in refused.stdout

    base = copy.deepcopy(result)
    base["record"]["scale"] = 1.0
    a = tmp_path / "a.json"
    a.write_text(json.dumps(base))
    same = run("compare", str(a), str(a))
    assert same.returncode == 0, same.stdout
    assert "within bounds" in same.stdout

    slower = copy.deepcopy(base)
    metric = slower["workloads"]["whatif_fork"]["end_to_end"]["metrics"]["vms_per_s"]
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "vms_per_s")
    factor = 1.0 - bound - 0.05
    metric["value"] *= factor
    metric["samples"] = [sample * factor for sample in metric["samples"]]
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slower))
    breach = run("compare", str(a), str(b))
    assert breach.returncode == 1 and "BREACH" in breach.stdout

    recount = copy.deepcopy(base)
    recount["workloads"]["paper18_mix"]["per_layer"]["metrics"]["schedulers.calls"]["value"] += 1
    b.write_text(json.dumps(recount))
    breach = run("compare", str(a), str(b))
    assert breach.returncode == 1 and "counts differ" in breach.stdout


def test_paper18_traces_are_what_the_figure_drivers_simulate(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_WORKLOAD_CACHE", str(tmp_path))
    monkeypatch.syspath_prepend(str(HERE))
    from e2e_workloads import Paper18Mix
    from repro.experiments.workload_cache import azure_workload, synthetic_workload

    workload = Paper18Mix()
    workload.generate(3)
    assert workload.traces["synthetic"] == synthetic_workload(False, 3)
    for subset in Paper18Mix.AZURE:
        assert workload.traces[f"azure-{subset}"] == list(azure_workload(subset, False, 3))
    assert workload.offered_vms() == 4 * (2500 + sum(Paper18Mix.AZURE))
