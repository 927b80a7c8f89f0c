"""Drivers for every evaluation figure (Figures 5-12).

Each ``run_fig*`` function regenerates one paper figure: it runs the four
algorithms on the corresponding workload, renders the figure as ASCII, and
evaluates the paper's qualitative claims as shape checks.  ``quick=True``
shrinks workloads for test/CI speed; the shapes are preserved.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from ..analysis import ComparisonResult, compare_schedulers, grouped_bars
from ..config import paper_default
from ..schedulers import PAPER_SCHEDULERS
from ..sim import simulate
from ..state import state_backend
from ..topology import placement_mode
from ..workloads import azure_subset_counts, cpu_histogram, ram_histogram
from .base import ExperimentResult
from .workload_cache import azure_subsets, azure_workload, synthetic_workload


def _compare_synthetic(quick: bool, seed: int) -> ComparisonResult:
    spec = paper_default()
    return compare_schedulers(
        spec, synthetic_workload(quick, seed), PAPER_SCHEDULERS, "synthetic"
    )


def _compare_azure(subset: int, quick: bool, seed: int) -> ComparisonResult:
    spec = paper_default()
    return compare_schedulers(
        spec, azure_workload(subset, quick, seed), PAPER_SCHEDULERS, f"azure-{subset}"
    )


def _azure_series(quick: bool, seed: int, attribute: str) -> tuple[list[int], dict[str, list[float]]]:
    """Run all Azure subsets and extract one metric per scheduler."""
    subsets = list(azure_subsets(quick))
    series: dict[str, list[float]] = {name: [] for name in PAPER_SCHEDULERS}
    for subset in subsets:
        comparison = _compare_azure(subset, quick, seed)
        for name in PAPER_SCHEDULERS:
            series[name].append(getattr(comparison.summary(name), attribute))
    return subsets, series


# --------------------------------------------------------------------- #
# Figure 5 — inter-rack VM assignments, synthetic workload
# --------------------------------------------------------------------- #

def run_fig5(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Figure 5: number of inter-rack VM assignments (synthetic)."""
    comparison = _compare_synthetic(quick, seed)
    counts = comparison.metric("inter_rack_assignments")
    rows = [{"scheduler": k, "inter_rack_assignments": v} for k, v in counts.items()]
    rendered = grouped_bars(
        ["synthetic"],
        {k: [v] for k, v in counts.items()},
        title="Inter-rack VM assignments (paper: NULB 255, NALB 255, RISA 7, RISA-BF 2)",
    )
    result = ExperimentResult(
        "fig5", "Inter-rack VM assignments, synthetic workload", "Figure 5",
        rows, rendered,
    )
    baseline_min = min(counts["nulb"], counts["nalb"])
    risa_max = max(counts["risa"], counts["risa_bf"])
    result.check(
        "NULB and NALB both make far more inter-rack assignments than "
        "RISA/RISA-BF (paper: 255 vs 7 and 2)",
        baseline_min >= 5 * max(risa_max, 1),
        f"baselines >= {baseline_min}, RISA-family <= {risa_max}",
    )
    result.check(
        "RISA-BF makes no more inter-rack assignments than RISA",
        counts["risa_bf"] <= counts["risa"],
        f"risa={counts['risa']}, risa_bf={counts['risa_bf']}",
    )
    return result


# --------------------------------------------------------------------- #
# Figure 6 — workload characterization of the Azure subsets
# --------------------------------------------------------------------- #

def run_fig6(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Figure 6: CPU/RAM distributions of the Azure traces."""
    rows = []
    renders = []
    all_exact = True
    for subset in azure_subsets(quick):
        vms = azure_workload(subset, quick=False, seed=seed)  # full composition
        cpu_hist = cpu_histogram(vms)
        ram_hist = ram_histogram(vms)
        cpu_expected, ram_expected = azure_subset_counts(subset)
        cpu_ok = cpu_hist == dict(cpu_expected)
        ram_ok = ram_hist == dict(ram_expected)
        all_exact = all_exact and cpu_ok and ram_ok
        rows.append(
            {
                "subset": subset,
                "cpu_histogram": cpu_hist,
                "ram_histogram": {str(k): v for k, v in ram_hist.items()},
                "cpu_matches_paper": cpu_ok,
                "ram_matches_paper": ram_ok,
            }
        )
        renders.append(
            f"Azure-{subset} CPU cores: "
            + ", ".join(f"{k}c x{v}" for k, v in cpu_hist.items())
            + f"\nAzure-{subset} RAM GB:   "
            + ", ".join(f"{k:g}GB x{v}" for k, v in ram_hist.items())
        )
    result = ExperimentResult(
        "fig6", "CPU and RAM distribution of the Azure traces", "Figure 6",
        rows, "\n".join(renders),
    )
    result.check(
        "Synthesized traces reproduce the paper's Figure 6 histograms exactly",
        all_exact,
    )
    return result


# --------------------------------------------------------------------- #
# Figure 7 — percentage of inter-rack VM assignments, Azure
# --------------------------------------------------------------------- #

def run_fig7(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Figure 7: % inter-rack VM assignments per Azure subset."""
    subsets, series = _azure_series(quick, seed, "inter_rack_percent")
    rows = [
        {"subset": subsets[i], **{name: series[name][i] for name in PAPER_SCHEDULERS}}
        for i in range(len(subsets))
    ]
    rendered = grouped_bars(
        [f"Azure-{s}" for s in subsets], series, unit="%",
        title="% inter-rack VM assignments (paper: NULB up to 52%, RISA/RISA-BF 0%)",
    )
    result = ExperimentResult(
        "fig7", "Percentage of inter-rack VM assignments, Azure", "Figure 7",
        rows, rendered,
    )
    result.check(
        "RISA and RISA-BF have zero inter-rack assignments on every subset",
        all(v == 0.0 for name in ("risa", "risa_bf") for v in series[name]),
    )
    result.check(
        "NULB and NALB both exceed 25% inter-rack on every subset",
        all(v > 25.0 for name in ("nulb", "nalb") for v in series[name]),
        f"nulb={series['nulb']}, nalb={series['nalb']}",
    )
    return result


# --------------------------------------------------------------------- #
# Figure 8 — intra-/inter-rack network utilization, Azure
# --------------------------------------------------------------------- #

def run_fig8(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Figure 8: average network utilization per tier, Azure subsets."""
    subsets = list(azure_subsets(quick))
    intra: dict[str, list[float]] = {n: [] for n in PAPER_SCHEDULERS}
    inter: dict[str, list[float]] = {n: [] for n in PAPER_SCHEDULERS}
    drops: dict[str, list[int]] = {n: [] for n in PAPER_SCHEDULERS}
    for subset in subsets:
        comparison = _compare_azure(subset, quick, seed)
        for name in PAPER_SCHEDULERS:
            summary = comparison.summary(name)
            intra[name].append(100.0 * summary.avg_intra_net_utilization)
            inter[name].append(100.0 * summary.avg_inter_net_utilization)
            drops[name].append(summary.dropped_vms)
    rows = [
        {
            "subset": subsets[i],
            **{f"intra_{n}": intra[n][i] for n in PAPER_SCHEDULERS},
            **{f"inter_{n}": inter[n][i] for n in PAPER_SCHEDULERS},
        }
        for i in range(len(subsets))
    ]
    rendered = (
        grouped_bars([f"Azure-{s}" for s in subsets], intra, unit="%",
                     title="Intra-rack network utilization (equal across algorithms)")
        + "\n"
        + grouped_bars([f"Azure-{s}" for s in subsets], inter, unit="%",
                       title="Inter-rack network utilization (0 for RISA/RISA-BF)")
    )
    result = ExperimentResult(
        "fig8", "Network utilization by tier, Azure", "Figure 8", rows, rendered
    )
    for i, subset in enumerate(subsets):
        values = [intra[n][i] for n in PAPER_SCHEDULERS]
        spread = max(values) - min(values)
        result.check(
            f"Azure-{subset}: intra-rack utilization equal across algorithms "
            "(no VM dropped, every flow crosses its rack switch)",
            spread <= 0.02 * max(max(values), 1e-9),
            f"values={[round(v, 3) for v in values]}",
        )
    result.check(
        "Inter-rack utilization is zero for RISA and RISA-BF everywhere",
        all(v == 0.0 for n in ("risa", "risa_bf") for v in inter[n]),
    )
    result.check(
        "No VM was dropped on any Azure subset (paper reports zero drops)",
        all(d == 0 for n in PAPER_SCHEDULERS for d in drops[n]),
        f"drops={drops}",
    )
    if len(subsets) > 1:
        result.check(
            "Intra-rack utilization increases with subset size "
            "(paper: 30.4% -> 35.4% -> 42.6%)",
            all(
                intra["risa"][i] < intra["risa"][i + 1]
                for i in range(len(subsets) - 1)
            ),
            f"risa intra={[round(v, 2) for v in intra['risa']]}",
        )
    return result


# --------------------------------------------------------------------- #
# Figure 9 — optical component power, Azure
# --------------------------------------------------------------------- #

def run_fig9(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Figure 9: average optical power (kW) per Azure subset."""
    subsets, series = _azure_series(quick, seed, "avg_optical_power_kw")
    rows = [
        {"subset": subsets[i], **{n: series[n][i] for n in PAPER_SCHEDULERS}}
        for i in range(len(subsets))
    ]
    rendered = grouped_bars(
        [f"Azure-{s}" for s in subsets], series, unit=" kW",
        title="Optical component power (paper Azure-3000: NULB 5.22, NALB 5.27, RISA/BF 3.36 kW; ~33% less)",
    )
    result = ExperimentResult(
        "fig9", "Power consumption for optical components, Azure", "Figure 9",
        rows, rendered,
    )
    for i, subset in enumerate(subsets):
        baseline = min(series["nulb"][i], series["nalb"][i])
        risa_power = series["risa"][i]
        reduction = 100.0 * (1.0 - risa_power / baseline) if baseline else 0.0
        result.check(
            f"Azure-{subset}: RISA reduces optical power by roughly a third "
            "vs NULB/NALB (paper: 33-36%)",
            20.0 <= reduction <= 50.0,
            f"reduction={reduction:.1f}%",
        )
    result.check(
        "RISA and RISA-BF consume (essentially) the same power",
        all(
            abs(series["risa"][i] - series["risa_bf"][i])
            <= 0.05 * max(series["risa"][i], 1e-9)
            for i in range(len(subsets))
        ),
    )
    return result


# --------------------------------------------------------------------- #
# Figure 10 — average CPU-RAM round-trip latency, Azure
# --------------------------------------------------------------------- #

def run_fig10(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Figure 10: average CPU-RAM round-trip latency (ns) per subset."""
    subsets, series = _azure_series(quick, seed, "avg_cpu_ram_latency_ns")
    rows = [
        {"subset": subsets[i], **{n: series[n][i] for n in PAPER_SCHEDULERS}}
        for i in range(len(subsets))
    ]
    rendered = grouped_bars(
        [f"Azure-{s}" for s in subsets], series, unit=" ns",
        title="Average CPU-RAM RTT (paper Azure-3000: NULB 226, NALB 216, RISA/BF 110 ns)",
    )
    result = ExperimentResult(
        "fig10", "Average CPU-RAM round-trip latency, Azure", "Figure 10",
        rows, rendered,
    )
    result.check(
        "RISA and RISA-BF sit at exactly the intra-rack RTT (110 ns)",
        all(v == 110.0 for n in ("risa", "risa_bf") for v in series[n]),
        f"risa={series['risa']}",
    )
    result.check(
        "NULB/NALB average latency is at least ~1.5x RISA's "
        "(paper: ~2x, 226 vs 110 ns)",
        all(v >= 165.0 for n in ("nulb", "nalb") for v in series[n]),
        f"nulb={[round(v, 1) for v in series['nulb']]}, "
        f"nalb={[round(v, 1) for v in series['nalb']]}",
    )
    return result


# --------------------------------------------------------------------- #
# Figures 11-12 — scheduler execution time
# --------------------------------------------------------------------- #

#: Wall-clock repetitions for the timing figures; the per-scheduler minimum
#: is reported (the standard estimator under one-sided measurement noise).
TIMING_REPEATS = 3

#: Quick mode shrinks the workload until single runs take milliseconds, so
#: scheduler-time ratios get noisy; more repeats tighten the minimum.
TIMING_REPEATS_QUICK = 5

#: Multiplicative slack on quick-mode timing *ordering* checks: with
#: millisecond-scale measurements a faster scheduler can lose by a few
#: percent to cache/interrupt noise without the ordering being wrong.
QUICK_TIMING_SLACK = 1.10


@contextmanager
def _reference_placement():
    """Run with the paper's reference (linear-scan) placement search.

    Figures 11-12 plot the execution-time *of the algorithms as the paper
    implemented them* — NALB is the slowest precisely because it sorts the
    candidate list per VM.  The capacity index deliberately optimizes those
    scans away, which would erase the figure's subject, so the timing
    drivers pin ``REPRO_PLACEMENT_INDEX=naive`` for their measured runs —
    and ``REPRO_STATE_BACKEND=objects`` alongside it, because the paper's
    scans read plain object attributes; routing them through the array
    backend's views would distort the same measurement the other way.
    """
    with placement_mode("naive"), state_backend("objects"):
        yield


@contextmanager
def _gc_paused():
    """Collector off for the block, then back to its prior state (as ``timeit``)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _min_times(trace, repeats: int = TIMING_REPEATS) -> dict[str, float]:
    """Per-scheduler minimum of ``scheduler_time_s`` over GC-paused runs."""
    best: dict[str, float] = {}
    for _ in range(repeats):
        for name in PAPER_SCHEDULERS:
            with _gc_paused():
                value = simulate(paper_default(), name, trace).summary.scheduler_time_s
            if name not in best or value < best[name]:
                best[name] = value
    return best


def run_fig11(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Figure 11: scheduling wall-clock time, synthetic workload."""
    repeats = TIMING_REPEATS_QUICK if quick else TIMING_REPEATS
    with _reference_placement():
        times = _min_times(synthetic_workload(quick, seed), repeats)
    rows = [{"scheduler": k, "scheduler_time_s": v} for k, v in times.items()]
    rendered = grouped_bars(
        ["synthetic"], {k: [v] for k, v in times.items()}, unit=" s",
        title="Scheduling time (paper: NULB 233s, NALB 865s, RISA 111s, RISA-BF 112s; ordering matters)",
    )
    result = ExperimentResult(
        "fig11", "Execution time, synthetic workload", "Figure 11", rows, rendered
    )
    # Quick mode measures milliseconds: give the ordering a small
    # multiplicative slack and mark the checks flaky (advisory) — a shared
    # CI box can invert close timings without the reproduction being wrong.
    slack = QUICK_TIMING_SLACK if quick else 1.0
    result.check(
        "RISA and RISA-BF are both faster than NULB, which is faster than "
        "NALB (paper ordering)",
        max(times["risa"], times["risa_bf"]) < slack * times["nulb"]
        and times["nulb"] < slack * times["nalb"],
        f"times={ {k: round(v, 4) for k, v in times.items()} }",
        flaky=quick,
    )
    nalb_margin = 1.3 if quick else 1.5
    result.check(
        "NALB is the slowest by a clear margin (paper: ~3.7x NULB)",
        times["nalb"] >= nalb_margin * times["nulb"],
        f"nalb/nulb={times['nalb'] / max(times['nulb'], 1e-12):.2f}",
        flaky=quick,
    )
    return result


def run_fig12(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Figure 12: scheduling wall-clock time, Azure subsets."""
    subsets = list(azure_subsets(quick))
    repeats = TIMING_REPEATS_QUICK if quick else TIMING_REPEATS
    series: dict[str, list[float]] = {name: [] for name in PAPER_SCHEDULERS}
    with _reference_placement():
        for subset in subsets:
            times = _min_times(azure_workload(subset, quick, seed), repeats)
            for name in PAPER_SCHEDULERS:
                series[name].append(times[name])
    rows = [
        {"subset": subsets[i], **{n: series[n][i] for n in PAPER_SCHEDULERS}}
        for i in range(len(subsets))
    ]
    rendered = grouped_bars(
        [f"Azure-{s}" for s in subsets], series, unit=" s",
        title="Scheduling time (paper Azure-7500: NULB 10361s, NALB 15929s, RISA 3679s, RISA-BF 4013s)",
    )
    result = ExperimentResult(
        "fig12", "Execution time, Azure workloads", "Figure 12", rows, rendered
    )
    slack = QUICK_TIMING_SLACK if quick else 1.0
    for i, subset in enumerate(subsets):
        result.check(
            f"Azure-{subset}: RISA-family faster than NULB faster than NALB",
            max(series["risa"][i], series["risa_bf"][i]) < slack * series["nulb"][i]
            and series["nulb"][i] < slack * series["nalb"][i],
            f"{ {n: round(series[n][i], 4) for n in PAPER_SCHEDULERS} }",
            flaky=quick,
        )
    return result
