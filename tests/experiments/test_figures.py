"""Shape tests for every figure driver (quick mode).

These are the paper's headline claims, machine-checked end to end:
the full-size versions run in the benchmark harness; the quick versions here
use smaller workloads with identical dynamics.
"""

import gc

import pytest

from repro.experiments import (
    EXPERIMENTS,
    render_report,
    run_experiment,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
)
from repro.experiments.figures import _gc_paused

# Module-scoped cache: each driver runs once in quick mode.
_RESULTS = {}


def result_of(driver):
    if driver not in _RESULTS:
        _RESULTS[driver] = driver(quick=True, seed=0)
    return _RESULTS[driver]


@pytest.mark.parametrize(
    "driver",
    [run_fig5, run_fig6, run_fig7, run_fig8, run_fig9, run_fig10, run_fig11, run_fig12],
    ids=["fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"],
)
def test_figure_shape_checks_pass(driver):
    result = result_of(driver)
    assert result.shape_ok, result.report()


def test_fig5_rows_have_all_schedulers():
    result = result_of(run_fig5)
    assert {r["scheduler"] for r in result.rows} == {"nulb", "nalb", "risa", "risa_bf"}


def test_fig6_exact_histograms():
    result = result_of(run_fig6)
    assert all(r["cpu_matches_paper"] and r["ram_matches_paper"] for r in result.rows)


def test_fig7_risa_zero_everywhere():
    result = result_of(run_fig7)
    for row in result.rows:
        assert row["risa"] == 0.0
        assert row["risa_bf"] == 0.0


def test_fig9_reduction_in_paper_band():
    result = result_of(run_fig9)
    for row in result.rows:
        reduction = 1.0 - row["risa"] / min(row["nulb"], row["nalb"])
        assert 0.20 <= reduction <= 0.50


def test_fig10_risa_at_intra_rtt():
    result = result_of(run_fig10)
    for row in result.rows:
        assert row["risa"] == 110.0


def test_result_serialization(tmp_path):
    result = result_of(run_fig5)
    path = tmp_path / "fig5.json"
    result.save(path)
    import json

    data = json.loads(path.read_text())
    assert data["experiment_id"] == "fig5"
    assert data["shape_ok"] is True


def test_run_experiment_dispatch():
    result = run_experiment("toy1")
    assert result.experiment_id == "toy1"
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_registry_lists_all_experiments():
    assert set(EXPERIMENTS) == {
        "toy1", "toy2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
        "fig11", "fig12", "ext_alpha", "ext_basis", "ext_burst", "ext_scale",
    }


@pytest.mark.parametrize("enabled", [True, False])
def test_timing_gc_pause_restores_prior_state(enabled):
    """The timed runs pause the collector and leave it as they found it."""
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with _gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_render_report_header():
    results = [result_of(run_fig5)]
    report = render_report(results)
    assert "1/1" in report
