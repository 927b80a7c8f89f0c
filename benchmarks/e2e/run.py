#!/usr/bin/env python3
"""End-to-end + per-layer performance ledger of the RISA simulator.

    python3 benchmarks/e2e/run.py --seed 0                 # every workload, both passes
    python3 benchmarks/e2e/run.py --workload paper18_mix --seed 0 --seconds 24 --trace 0
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --update-expected

With ``--workload`` this process *is* the benchmark of one workload (the form
the benchmark driver calls): it builds the inputs from ``--seed``, measures
fixed-size repetitions for ``--seconds`` seconds, checks every simulated
outcome, prints each metric by name and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0`` (untraced repetitions only), the per-layer metrics with
``--trace 1`` (one traced repetition, see e2e_tracing.py).  Without
``--workload`` it runs every workload of BENCHMARK.json that way, each pass
in its own fresh interpreter, one after another, and writes the result JSON.

All timings are host time.  Simulated statistics are the correctness oracle.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Set-up time is the median over this many fresh interpreters (this one
#: plus probes); scaled smoke runs take the one sample they already have.
SETUP_SAMPLES = 5

#: Units of per-layer metrics that must repeat exactly between two runs.
EXACT_UNITS = ("count", "ratio")


def declared() -> dict:
    return json.loads(BENCHMARK.read_text())


# ---------------------------------------------------------------------- #
# One workload, in this process
# ---------------------------------------------------------------------- #


@contextmanager
def hermetic_environment():
    """Drop every ``REPRO_*`` variable (by prefix: the benchmark names no
    knob) and point the workload cache at a fresh directory in the checkout,
    removed on the way out."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    OUT.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    os.environ["REPRO_WORKLOAD_CACHE"] = cache
    try:
        yield
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")


def import_program() -> float:
    """Put the checkout's ``src`` on the path and import ``repro``."""
    require_program()
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import repro  # noqa: F401

    return perf_counter() - start


def load_pins(path: Path, workload: str, seed: int, scale: float) -> dict | None:
    """The pinned outcomes of one workload, when they apply to this run."""
    import numpy

    if not path.is_file():
        return None
    pins = json.loads(path.read_text())
    if pins["seed"] != seed or pins["scale"] != scale:
        return None
    here = (platform.python_version(), numpy.__version__)
    there = (pins["python"], pins["numpy"])
    if [v.split(".")[:2] for v in here] != [v.split(".")[:2] for v in there]:
        print(
            f"run.py: pins were made with python/numpy {there}, this is {here}; "
            "falling back to self-consistency checks",
            file=sys.stderr,
        )
        return None
    return pins["workloads"].get(workload)


def check_ops(workload, reps: list, pinned: dict | None) -> tuple[int, int, list[str]]:
    """Count operations and failures over ``reps``.

    Pinned runs compare every summary (and, where an event log was attached,
    its digest) with expected.json.  Unpinned runs reduce to: repetitions
    agree with each other (so traced == untraced), independently computed
    references hold, and ``total_vms`` equals the trace length.
    """
    expected = pinned
    if expected is None:
        expected = {
            op.op_id: {"summary": op.summary} for op in reps[0].ops if op.summary is not None
        }
        for op_id, summary in workload.reference_ops().items():
            expected[op_id] = {"summary": summary}
    expected = json.loads(json.dumps(expected))
    attempted = failed = 0
    messages = []
    for index, rep in enumerate(reps):
        for op in rep.ops:
            attempted += 1
            problem = None
            want = expected.get(op.op_id)
            if not op.ok:
                problem = f"shape check is false: {op.detail}"
            elif op.summary is None:
                pass
            elif op.summary["total_vms"] != op.offered:
                problem = f"total_vms {op.summary['total_vms']} != offered {op.offered}"
            elif want is None:
                problem = "no expected outcome"
            elif json.loads(json.dumps(op.summary)) != want["summary"]:
                keys = [k for k, v in want["summary"].items() if op.summary.get(k) != v]
                problem = f"summary differs in {keys}"
            elif op.digest is not None and want.get("digest") not in (None, op.digest):
                problem = f"event digest {op.digest[:12]} != expected {want['digest'][:12]}"
            if problem:
                failed += 1
                messages.append(f"{workload.name} rep {index} {op.op_id}: {problem}")
    return attempted, failed, messages


def setup_probes(args) -> list[float]:
    """Set-up time of further fresh interpreters, one after another."""
    samples = []
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", str(args.scale), "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def timed_pass(workload, args, setup_s: float, reps: list) -> dict:
    """Untraced repetitions for ``--seconds``; the end-to-end metrics."""
    from repro.memstats import peak_rss_bytes

    from e2e_workloads import SCHEDULERS

    r_min = workload.r_min if args.scale == 1.0 else 1
    begin = perf_counter()
    while True:
        reps.append(workload.rep())
        elapsed = perf_counter() - begin
        if len(reps) >= r_min and elapsed + statistics.median(r.wall for r in reps) > args.seconds:
            break
    offered = workload.offered_vms()
    samples = {"vms_per_s": [offered / rep.wall for rep in reps]}
    for scheduler in SCHEDULERS:
        samples[f"sched_us_per_vm.{scheduler}"] = [
            rep.sched_time[scheduler] / rep.sched_vms[scheduler] * 1e6 for rep in reps
        ]
    samples["setup_s"] = [setup_s] + (setup_probes(args) if args.scale == 1.0 else [])
    samples["peak_rss_mb"] = [peak_rss_bytes() / 2**20]
    return samples


def traced_pass(workload, args, breakdown: dict, reps: list) -> tuple[dict, dict]:
    """Untraced repetitions, then one traced one; the per-layer metrics."""
    from e2e_tracing import Tracer, layer_metrics, trace_document, traced_wall
    from e2e_workloads import SCHEDULERS

    begin = perf_counter()
    while True:
        reps.append(workload.rep())
        median = statistics.median(rep.wall for rep in reps)
        # Leave room for the traced repetition (about 1.25 untraced ones).
        if perf_counter() - begin + 2.25 * median > args.seconds:
            break
    untraced = list(reps)
    tracer = Tracer()
    reps.append(workload.rep(tracer))
    values = dict(breakdown)
    values.update(layer_metrics(tracer, SCHEDULERS))
    per_scheduler = workload.offered_vms() / len(SCHEDULERS)
    for scheduler in SCHEDULERS:
        values[f"sim.run_us_per_vm.{scheduler}"] = (
            statistics.median(rep.run_wall[scheduler] for rep in untraced) / per_scheduler * 1e6
        )
    values["trace.overhead_ratio"] = traced_wall(tracer) / median
    values["workloads.vms"] = workload.offered_vms()
    values["experiments.shape_checks_failed"] = sum(rep.shape_checks_failed for rep in reps)
    values.update(workload.replays(tracer, untraced))
    return {name: [value] for name, value in values.items()}, trace_document(tracer)


def run_workload(args) -> int:
    import_s = import_program()
    from e2e_workloads import WORKLOADS

    spec = declared()
    workload = WORKLOADS[args.workload](args.scale)
    breakdown = workload.setup(args.seed)
    breakdown["repro.import_s"] = import_s
    setup_s = perf_counter() - _PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    detail = {"status": "failed", "completed_reps": 0, "total_reps": 0, "error": None}
    reps: list = []
    try:
        if args.trace:
            samples, document = traced_pass(workload, args, breakdown, reps)
            (OUT / f"trace-{workload.name}.json").write_text(json.dumps(document))
        else:
            samples = timed_pass(workload, args, setup_s, reps)
        pinned = load_pins(Path(args.expected), workload.name, args.seed, args.scale)
        attempted, failed, messages = check_ops(workload, reps, pinned)
    except Exception:
        # A repetition that raises is a failed run, reported as such.
        detail.update(
            error=traceback.format_exc(), completed_reps=len(reps), total_reps=len(reps) + 1
        )
        print(detail["error"], file=sys.stderr)
        if args.detail:
            Path(args.detail).write_text(json.dumps(detail, indent=1))
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    unknown = sorted(set(samples) - set(units))
    if unknown:
        sys.exit(f"run.py: metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {
        name: {"value": statistics.median(samples.get(name, [0.0])), "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"{workload.name:20s} {name:36s} {metric['value']:14.6g} {metric['unit']}")
    for message in messages:
        print("FAILED", message, file=sys.stderr)
    print(
        f"{workload.name:20s} ops_attempted={attempted} ops_failed={failed} "
        f"reps={len(reps)} pinned={pinned is not None}"
    )
    if args.detail:
        detail.update(
            status="completed" if not failed else "failed",
            completed_reps=len(reps), total_reps=len(reps),
            ops_attempted=attempted, ops_failed=failed, ops_per_rep=len(reps[0].ops),
            pinned=pinned is not None, messages=messages,
            metrics={
                name: dict(metric, samples=samples.get(name, [0.0]))
                for name, metric in metrics.items()
            },
        )
        Path(args.detail).write_text(json.dumps(detail, indent=1))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------- #
# Every workload, each pass in its own interpreter
# ---------------------------------------------------------------------- #


def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def run_all(args) -> int:
    import numpy

    spec = declared()
    OUT.mkdir(exist_ok=True)
    result = {
        "schema": 1,
        "claim": None,
        "record": {
            "git_rev": git_rev(), "seed": args.seed, "seconds": args.seconds,
            "scale": args.scale, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
        },
        "workloads": {},
    }
    failed = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        entry = result["workloads"][workload] = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            detail_path = OUT / f"detail-{os.getpid()}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale), "--expected", args.expected,
                "--detail", str(detail_path),
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
            sys.stdout.flush()
            if detail_path.is_file():
                detail = json.loads(detail_path.read_text())
                detail_path.unlink()
            else:
                detail = {"status": "failed", "completed_reps": 0, "total_reps": 0,
                          "error": f"exit code {done.returncode}, no detail written"}
            entry[kind] = detail
            failed = failed or done.returncode != 0 or detail["status"] != "completed"
    out = Path(args.out) if args.out else OUT / f"result-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")
    return 1 if failed else 0


def update_expected(args) -> int:
    """Regenerate the pins from one traced repetition per workload."""
    import_program()
    import numpy

    from e2e_tracing import Tracer
    from e2e_workloads import WORKLOADS

    pins = {
        "seed": args.seed, "scale": args.scale,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "workloads": {},
    }
    for name, cls in WORKLOADS.items():
        workload = cls(args.scale)
        workload.setup(args.seed)
        pins["workloads"][name] = {
            op.op_id: {"summary": op.summary, "digest": op.digest}
            for op in workload.rep(Tracer()).ops
            if op.summary is not None
        }
    Path(args.expected).write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.expected}")
    return 0


# ---------------------------------------------------------------------- #
# compare A.json B.json
# ---------------------------------------------------------------------- #


def quartile_spread(samples: list[float]) -> tuple[float, float, float]:
    """``(q1, q3, (q3 - q1) / median)``; a single sample has no spread."""
    if len(samples) < 2:
        return samples[0], samples[0], 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3, (q3 - q1) / statistics.median(samples)


def compare(path_a: str, path_b: str) -> int:
    spec = declared()
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    for path, result in ((path_a, a), (path_b, b)):
        if result["record"]["scale"] != 1.0:
            print(f"compare: {path} is a scaled smoke run (scale "
                  f"{result['record']['scale']}); refusing to compare it")
            return 2
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    breaches = 0
    print(f"{'workload':20s} {'metric':24s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'worse by':>9s} {'bound':>6s}")
    for workload in (entry["name"] for entry in spec["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        incomplete = [
            f"{side}:{kind}"
            for side, w in (("A", wa), ("B", wb))
            for kind in ("end_to_end", "per_layer")
            if w is None or w[kind]["status"] != "completed"
        ]
        if incomplete:
            print(f"{workload:20s} BREACH not completed in {incomplete}")
            breaches += 1
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ma, mb = wa["end_to_end"]["metrics"][name], wb["end_to_end"]["metrics"][name]
            qa, qb = quartile_spread(ma["samples"]), quartile_spread(mb["samples"])
            change = (mb["value"] - ma["value"]) / ma["value"]
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                verdict = "BREACH"
                breaches += 1
            elif max(qa[2], qb[2]) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{workload:20s} {name:24s} "
                f"{ma['value']:12.5g} [{qa[0]:9.5g},{qa[1]:9.5g}] "
                f"{mb['value']:12.5g} [{qb[0]:9.5g},{qb[1]:9.5g}] "
                f"{worse:+9.2%} {bound:6.0%} {verdict} ({metric['unit']}, "
                f"n={len(ma['samples'])}/{len(mb['samples'])})"
            )
        unequal = [
            name for name in exact
            if wa["per_layer"]["metrics"][name]["value"] != wb["per_layer"]["metrics"][name]["value"]
        ]
        unequal += [
            f"{kind}.{key}"
            for kind in ("end_to_end", "per_layer")
            for key in ("ops_per_rep", "ops_failed")
            if wa[kind][key] != wb[kind][key]
        ]
        if unequal:
            print(f"{workload:20s} BREACH counts differ: {unequal}")
            breaches += 1
        else:
            print(f"{workload:20s} {len(exact) + 4} counts identical")
    print("compare:", "BREACH" if breaches else "within bounds")
    return 1 if breaches else 0


# ---------------------------------------------------------------------- #


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=["compare"])
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time of one pass "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every trace (self-test only; results are stamped)")
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--update-expected", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="result JSON of a full run")
    args = parser.parse_args()
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare needs exactly two result files")
        return compare(*args.files)
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.update_expected or args.workload:
        with hermetic_environment():
            return update_expected(args) if args.update_expected else run_workload(args)
    require_program()
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
