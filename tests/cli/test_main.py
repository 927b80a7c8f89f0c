"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_ids_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_scheduler_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "nope"])


class TestCommands:
    def test_experiment_toy1(self, capsys):
        assert main(["experiment", "toy1"]) == 0
        out = capsys.readouterr().out
        assert "toy1" in out and "PASS" in out

    def test_simulate_small(self, capsys):
        code = main(["simulate", "risa", "--workload", "synthetic", "--count", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduled_vms" in out

    def test_compare_small(self, capsys):
        code = main(["compare", "--workload", "synthetic", "--count", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "risa_bf" in out

    def test_generate_and_reuse_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["generate", str(trace), "--workload", "synthetic",
                     "--count", "25"]) == 0
        assert trace.exists()
        assert main(["simulate", "risa", "--trace", str(trace)]) == 0

    def test_generate_azure_subset(self, tmp_path):
        trace = tmp_path / "azure.jsonl"
        assert main(["generate", str(trace), "--workload", "azure-3000",
                     "--count", "100"]) == 0
        from repro.workloads import load_trace

        vms = load_trace(trace)
        assert len(vms) == 100
        assert all(vm.storage_gb == 128.0 for vm in vms)

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "risa", "--workload", "gcp-9000"])

    def test_topology_default_preset(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "'paper'" in out
        assert "intra_rack" in out and "inter_rack" in out
        assert "oversub" in out

    def test_topology_pod_preset(self, capsys):
        assert main(["topology", "pod-scale"]) == 0
        out = capsys.readouterr().out
        assert "spine" in out and "pod" in out
        assert "4 pod(s)" in out

    def test_topology_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["topology", "nonesuch"])

    def test_topology_vl2_preset(self, capsys):
        assert main(["topology", "vl2"]) == 0
        out = capsys.readouterr().out
        assert "aggregation" in out and "intermediate" in out
        assert "16 racks" in out
        # VL2's heterogeneous links: 200 Gb/s box tier, 400 Gb/s switch tiers.
        assert "200 Gb/s" in out and "400 Gb/s" in out

    def test_topology_fat_tree_preset(self, capsys):
        assert main(["topology", "fat-tree"]) == 0
        out = capsys.readouterr().out
        assert "core" in out and "agg1" in out
        assert "16 racks" in out
        assert "800 Gb/s" in out  # the toward-the-core bandwidth ramp

    def test_topology_study_smoke(self, capsys):
        code = main(["topology-study", "--schedulers", "risa",
                     "--presets", "tiny", "tiny-pod", "--count", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 fabrics x 1 schedulers" in out
        assert "tiny-pod" in out and "topology" in out
        assert "inter_rack_percent by fabric topology" in out

    def test_topology_study_validates_inputs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topology-study", "--presets", "nope"])
        with pytest.raises(SystemExit, match="--seeds"):
            main(["topology-study", "--seeds", "0"])
        with pytest.raises(SystemExit, match="figure metric"):
            main(["topology-study", "--schedulers", "risa", "--presets",
                  "tiny", "--count", "20", "--figure-metric", "nonesuch"])


class TestNewCommands:
    def test_heatmap(self, capsys):
        code = main(["heatmap", "risa", "--workload", "synthetic", "--count", "80"])
        assert code == 0
        out = capsys.readouterr().out
        assert "legend" in out and "stranded_cpu" in out

    def test_heatmap_explicit_until(self, capsys):
        code = main(["heatmap", "nulb", "--workload", "synthetic",
                     "--count", "50", "--until", "100.0"])
        assert code == 0
        assert "t=100" in capsys.readouterr().out

    def test_events_export(self, tmp_path, capsys):
        out_file = tmp_path / "events.jsonl"
        code = main(["events", "risa", str(out_file), "--workload",
                     "synthetic", "--count", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "digest:" in out
        from repro.sim import EventLog

        log = EventLog.load(out_file)
        log.audit()
        assert log.summary_counts()["arrival"] == 30

    def test_stats(self, capsys):
        code = main(["stats", "--seeds", "2", "--count", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ci_low" in out and "risa_bf" in out


class TestSweepFlags:
    def test_sweep_serial(self, capsys):
        code = main(["sweep", "--schedulers", "risa", "nulb", "--seeds", "2",
                     "--count", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "risa" in out and "nulb" in out and "scheduled_vms" in out

    def test_sweep_parallel(self, capsys):
        code = main(["sweep", "--schedulers", "risa", "--seeds", "2",
                     "--count", "30", "--parallel", "2"])
        assert code == 0
        assert "scheduled_vms" in capsys.readouterr().out

    def test_sweep_scheduler_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--schedulers", "nope"])

    def test_run_all_accepts_parallel_flag(self):
        args = build_parser().parse_args(["run-all", "--quick", "--parallel", "4"])
        assert args.parallel == 4


class TestTraceCommands:
    def test_synthesize_npz(self, tmp_path, capsys):
        out_file = tmp_path / "trace.npz"
        code = main(["trace", "synthesize", str(out_file),
                     "--workload", "synthetic", "--count", "60"])
        assert code == 0
        assert "wrote 60 VM requests" in capsys.readouterr().out
        assert out_file.exists()

    def test_synthesize_requires_known_workload(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["trace", "synthesize", str(tmp_path / "t.npz"),
                  "--workload", "gcp-9000"])

    def test_convert_roundtrip(self, tmp_path, capsys):
        npz, jsonl = tmp_path / "t.npz", tmp_path / "t.jsonl"
        main(["trace", "synthesize", str(npz),
              "--workload", "synthetic", "--count", "25"])
        assert main(["trace", "convert", str(npz), str(jsonl)]) == 0
        assert "converted 25 VM requests" in capsys.readouterr().out
        back = tmp_path / "back.npz"
        assert main(["trace", "convert", str(jsonl), str(back)]) == 0
        from repro.workloads import load_trace_npz

        assert load_trace_npz(back) == load_trace_npz(npz)

    def test_inspect_reports_stats_and_metadata(self, tmp_path, capsys):
        npz = tmp_path / "t.npz"
        main(["trace", "synthesize", str(npz),
              "--workload", "synthetic", "--count", "30", "--seed", "2"])
        capsys.readouterr()
        assert main(["trace", "inspect", str(npz)]) == 0
        out = capsys.readouterr().out
        assert "30 VM requests" in out
        assert "arrival span" in out and "sorted: True" in out
        assert "meta workload" in out and "meta seed" in out

    def test_inspect_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["trace", "inspect", str(tmp_path / "nope.npz")])

    def test_cache_list_and_clear(self, tmp_path, capsys):
        main(["trace", "synthesize", str(tmp_path / "t.npz"),
              "--workload", "synthetic", "--count", "20"])
        capsys.readouterr()
        assert main(["trace", "cache"]) == 0
        out = capsys.readouterr().out
        assert "1 entries in" in out and "synthetic-n20-s0-" in out
        assert main(["trace", "cache", "--clear"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_cache_disabled_message(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE", "off")
        assert main(["trace", "cache"]) == 0
        assert "workload store disabled" in capsys.readouterr().out
