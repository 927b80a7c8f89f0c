"""Tests for the parallel sweep orchestration layer."""

import pytest

from repro.config import tiny_test
from repro.errors import WorkloadError
from repro.experiments import SimulationSession, SweepPoint, run_all
from repro.experiments.sweep import build_workload


def _masked(summary):
    d = summary.as_dict()
    d.pop("scheduler_time_s")  # wall clock: varies across processes
    return d


class TestWorkloadCache:
    def test_synthetic_by_reference(self):
        vms = build_workload("synthetic", 40, 0)
        assert len(vms) == 40
        assert build_workload("synthetic", 40, 0) is vms  # per-process cache hit

    def test_azure_subset_truncated(self):
        vms = build_workload("azure-3000", 25, 0)
        assert len(vms) == 25

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload("gcp-9000", None, 0)

    def test_non_numeric_azure_subset_rejected(self):
        with pytest.raises(WorkloadError, match="numeric subset"):
            build_workload("azure-big", None, 0)

    def test_count_zero_means_empty_trace(self):
        assert build_workload("synthetic", 0, 0) == ()


class TestSimulationSession:
    def test_sweep_grid_order(self):
        session = SimulationSession(tiny_test(), parallel=1)
        result = session.sweep(schedulers=("risa", "nulb"), seeds=(0, 1), count=30)
        assert len(result) == 4
        # Seed-major: points sharing a trace are adjacent (cache locality).
        assert [(o.point.scheduler, o.point.seed) for o in result.outcomes] == [
            ("risa", 0), ("nulb", 0), ("risa", 1), ("nulb", 1),
        ]
        assert result.schedulers() == ("risa", "nulb")
        assert len(result.summaries("risa")) == 2

    def test_aggregated_means_per_scheduler(self):
        session = SimulationSession(tiny_test(), parallel=1)
        result = session.sweep(schedulers=("risa",), seeds=(0, 1), count=30)
        agg = result.aggregated()["risa"]
        assert agg["runs"] == 2
        summaries = result.summaries("risa")
        expected = (summaries[0].scheduled_vms + summaries[1].scheduled_vms) / 2
        assert agg["scheduled_vms"] == expected

    def test_table_renders(self):
        session = SimulationSession(tiny_test(), parallel=1)
        result = session.sweep(schedulers=("risa",), seeds=(0,), count=20)
        table = result.table(["scheduled_vms", "dropped_vms"])
        assert "risa" in table and "scheduled_vms" in table

    def test_parallel_matches_serial(self):
        points = [
            SweepPoint(scheduler=s, seed=seed, count=40)
            for s in ("risa", "nulb") for seed in (0, 1)
        ]
        serial = SimulationSession(tiny_test(), parallel=1).run_points(points)
        parallel = SimulationSession(tiny_test(), parallel=2).run_points(points)
        assert [o.point for o in serial.outcomes] == [o.point for o in parallel.outcomes]
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert _masked(a.summary) == _masked(b.summary)
            assert a.end_time == b.end_time


class TestParallelRunAll:
    def test_subset_selection(self):
        results = run_all(quick=True, experiments=["toy1", "toy2"])
        assert [r.experiment_id for r in results] == ["toy1", "toy2"]

    def test_unknown_subset_rejected(self):
        with pytest.raises(KeyError):
            run_all(quick=True, experiments=["fig99"])

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_all(quick=True, experiments=["toy1", "toy2"])
        parallel = run_all(quick=True, experiments=["toy1", "toy2"], parallel=2,
                           output_dir=tmp_path)
        assert [r.experiment_id for r in parallel] == [r.experiment_id for r in serial]
        for a, b in zip(serial, parallel):
            assert a.shape_ok and b.shape_ok
            assert a.rows == b.rows
        assert (tmp_path / "summary.json").exists()


class TestStreamingSweep:
    def test_outcomes_record_peak_rss(self):
        session = SimulationSession(tiny_test(), parallel=1)
        result = session.sweep(schedulers=("risa",), seeds=(0,), count=20)
        assert result.outcomes[0].peak_rss_bytes > 0

    def test_chunk_size_flows_to_points(self):
        session = SimulationSession(tiny_test(), parallel=1, chunk_size=512)
        result = session.sweep(schedulers=("risa",), seeds=(0,), count=20)
        assert result.outcomes[0].point.chunk_size == 512

    def test_chunked_matches_default(self):
        """Sharded execution (tiny chunks) is bit-identical to the default."""
        schedulers, seeds = ("risa", "nulb"), (0, 1)
        default = SimulationSession(tiny_test(), parallel=1).sweep(
            schedulers=schedulers, seeds=seeds, count=40
        )
        chunked = SimulationSession(tiny_test(), parallel=2, chunk_size=7).sweep(
            schedulers=schedulers, seeds=seeds, count=40
        )
        for a, b in zip(default.outcomes, chunked.outcomes):
            assert _masked(a.summary) == _masked(b.summary)
            assert a.end_time == b.end_time
