"""The benchmark's one command.

Driver form (``BENCHMARK.json``), one workload per process::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Without ``--workload`` it runs every workload, each in its own
subprocess (so ``peak_rss_mb`` is that workload's alone), ``--runs``
times with consecutive seeds, adds a traced run per workload with
``--trace``, and writes the lot plus an environment stamp to ``--out``
for ``compare.py``::

    python3 benchmarks/e2e/run.py --seed 7 --runs 10 --trace --out benchmarks/e2e/out/a.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from benchmarks.e2e.metrics import RUN_SECONDS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data, two passes, 100 service operations")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads form: runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "run.json")
    return parser.parse_args(argv)


def check_environment() -> None:
    """Refuse to run where the numbers would mean something else."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT}/src/repro not found: the benchmark needs the repository it measures")
    if os.environ.get("REPRO_DISABLE_NUMPY"):
        sys.exit("REPRO_DISABLE_NUMPY is set: studied_compiled would silently become a "
                 "different workload; unset it")
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0``: set iteration order is then
    the same in every run, which takes one source of run-to-run spread
    out of plan shapes and timings."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])


def pin_to_one_cpu() -> list[int]:
    """Keep every thread of this process on one CPU; returns the CPUs
    it could use before.  The programs measured are bound by the
    interpreter lock, so a second CPU adds no capacity, only migrations
    and cross-CPU lock hand-offs: unpinned, ``service_mixed`` completes
    4 % fewer queries per second on the dev box and its throughput
    spreads 11 % between runs instead of 2 %."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    allowed = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {allowed[-1]})
    except OSError:  # not permitted here: run unpinned rather than not at all
        return []
    return allowed


def environment_stamp() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpus_pinned_to": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


# -- one workload, in this process ------------------------------------------


def run_untraced(workload, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    from benchmarks.e2e.calibration import normalise
    from benchmarks.e2e.timed import CYCLE_OPS, percentile, run_timed, set_up

    setups, raw_setups = [], []
    attempted = failed = 0
    prepared = None
    for _ in range(1 if smoke else SETUPS):
        if prepared is not None:
            prepared.close()
            prepared = None  # free the data before generating it again
        prepared = set_up(workload, seed)
        setups.append(normalise(prepared.setup_s, prepared.kernel_ms))
        raw_setups.append(prepared.setup_s)
        attempted += len(workload.queries)
        failed += prepared.warm_failed
    gc.collect()
    gc.freeze()
    limits = {}
    if smoke:
        # R = 2 on the serial workloads, 100 operations on the service.
        limits = {"max_ops": 50} if workload.kind == "service" else {"min_passes": 2}
        seconds = 60.0 if workload.kind == "service" else 0.0
    samples = run_timed(prepared, seed, seconds, **limits)
    prepared.close()
    service = workload.kind == "service"
    completed = samples.attempted - samples.failed
    latency = samples.by_query(normalised=True)
    per_query = {name: statistics.median(ms) for name, ms in latency.items()}
    kernel_ms = samples.mean_kernel_ms()
    if service:
        busy_s = normalise(samples.busy_s, kernel_ms)
    else:
        busy_s = sum(sum(ms) for ms in latency.values()) / 1000.0
    bytes_scanned = samples.mean_bytes_scanned(CYCLE_OPS if service else None)
    metrics = {
        "setup_s": statistics.median(setups),
        "suite_ms": sum(per_query.values()),
        "throughput_qps": completed / busy_s,
        "bytes_scanned_mb": bytes_scanned * len(workload.queries) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = samples.by_query(normalised=False)
    pooled = sorted(op.ms for op in samples.ops)
    detail = {
        "scale": workload.scale,
        "samples": len(pooled),
        "passes": min(len(ms) for ms in raw.values()),
        "errors": samples.errors,
        "kernel_ms": kernel_ms,
        "query_ms": per_query,
        "query_bytes": {
            name: statistics.fmean(op.bytes_scanned for op in samples.ops if op.name == name)
            for name in per_query
        },
        # The clock as read, for comparison with the calibrated numbers.
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "suite_ms": sum(statistics.median(ms) for ms in raw.values()),
            "suite_min_ms": sum(min(ms) for ms in raw.values()),
            "query_ms_p50": percentile(pooled, 0.5),
            "query_ms_p99": percentile(pooled, 0.99),
            "throughput_qps": completed / samples.busy_s,
        },
    }
    return {
        "correct": failed + samples.failed == 0,
        "attempted": attempted + samples.attempted,
        "failed": failed + samples.failed,
        "metrics": metrics,
    }, detail


def run_traced(workload, seed: int, seconds: float, smoke: bool, cpus: list[int]) -> tuple[dict, dict]:
    from benchmarks.e2e.timed import set_up
    from benchmarks.e2e.traced import TracedRun

    prepared = set_up(workload, seed)
    traced = TracedRun(prepared, seed, seconds, repeats=1 if smoke else 2, worker_cpus=cpus)
    try:
        metrics = traced.run()
    finally:
        prepared.close()
    trace_path = OUT_DIR / f"trace_{workload.name}.jsonl"
    traced.tracer.write(trace_path)
    failed = traced.failed + prepared.warm_failed
    return {
        "correct": failed == 0,
        "attempted": traced.attempted + len(workload.queries),
        "failed": failed,
        "metrics": metrics,
    }, {"scale": workload.scale, "spans": len(traced.tracer.spans),
        "phase_s": traced.phase_s, "trace_file": str(trace_path.relative_to(ROOT))}


def run_one(args: argparse.Namespace) -> int:
    from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
    from benchmarks.e2e.workloads import SMOKE_SCALE, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}: expected one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seconds = args.seconds
    if args.smoke:
        workload = replace(workload, scale=SMOKE_SCALE)
        seconds = min(seconds, 0.5)
    started = time.perf_counter()
    cpus = pin_to_one_cpu()
    if args.trace:
        result, detail = run_traced(workload, args.seed, seconds, args.smoke, cpus)
    else:
        result, detail = run_untraced(workload, args.seed, seconds, args.smoke)
    units = PER_LAYER if args.trace else END_TO_END
    if set(result["metrics"]) != set(units):
        raise AssertionError(
            f"metrics out of step with metrics.py: {set(result['metrics']) ^ set(units)}"
        )
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": units[name][0]} for name in units
    }
    for name, entry in result["metrics"].items():
        print(f"{name:<36} {entry['value']:>14.6g} {entry['unit']}")
    detail.update(
        workload=workload.name, seed=args.seed, seconds=seconds, trace=args.trace,
        wall_s=time.perf_counter() - started, env=environment_stamp(),
    )
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


# -- every workload, one subprocess each --------------------------------------


def spawn(workload: str, seed: int, args: argparse.Namespace, trace: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"{workload} (seed {seed}, trace {trace}) exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    run = json.loads(lines[-1])
    run["detail"] = json.loads(lines[-2].removeprefix("detail "))
    run["metrics"] = {name: entry["value"] for name, entry in run["metrics"].items()}
    return run


def summarize(runs: list[dict]) -> tuple[dict, dict]:
    """Per metric: the median over runs, and the interquartile range as
    a share of it (the driver's spread; needs at least two runs)."""
    median, spread = {}, {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        median[name] = statistics.median(values)
        if len(values) >= 2 and median[name]:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread[name] = (q3 - q1) / abs(median[name])
    return median, spread


def paper_figures(report: dict) -> dict:
    """Figures 1 and 2 from the two studied workloads' untraced runs."""
    fused = report["studied_fused"]["runs"][0]
    base = report["studied_baseline"]["runs"][0]
    out = {
        "paper.fig1_latency_ratio": report["studied_fused"]["median"]["suite_ms"]
        / report["studied_baseline"]["median"]["suite_ms"],
        "paper.fig2_bytes_fraction": report["studied_fused"]["median"]["bytes_scanned_mb"]
        / report["studied_baseline"]["median"]["bytes_scanned_mb"],
    }
    for name in sorted(fused["detail"]["query_ms"]):
        out[f"paper.fig1.{name}"] = (
            fused["detail"]["query_ms"][name] / base["detail"]["query_ms"][name]
        )
        out[f"paper.fig2.{name}"] = (
            fused["detail"]["query_bytes"][name] / base["detail"]["query_bytes"][name]
        )
    return out


def run_all(args: argparse.Namespace) -> int:
    from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
    from benchmarks.e2e.workloads import WORKLOADS

    started = time.perf_counter()
    report: dict = {}
    failed = 0
    #: The stamp of the processes that measured (this one only spawns them).
    env: dict = {}

    def measured(name: str, seed: int, trace: int) -> dict:
        run = spawn(name, seed, args, trace)
        env.update(run["detail"].pop("env"))
        return run

    for name in WORKLOADS:
        runs = [measured(name, args.seed + i, trace=0) for i in range(args.runs)]
        median, spread = summarize(runs)
        entry = report[name] = {"runs": runs, "median": median, "spread": spread}
        failed += sum(run["failed"] for run in runs)
        print(f"== {name}: {args.runs} run(s), seeds {args.seed}..{args.seed + args.runs - 1}")
        for metric, (unit, _, bound) in END_TO_END.items():
            spread_text = f"  spread {spread[metric]:.3f}" if metric in spread else ""
            print(f"{metric:<36} {median[metric]:>14.6g} {unit:<6} bound {bound}{spread_text}")
        print(f"{'failed_share':<36} {sum(r['failed'] for r in runs) / sum(r['attempted'] for r in runs):>14.6g} ratio")
        if args.trace:
            traced = entry["traced"] = measured(name, args.seed, trace=1)
            failed += traced["failed"]
            for metric, (unit, _) in PER_LAYER.items():
                print(f"{metric:<36} {traced['metrics'][metric]:>14.6g} {unit}")
    paper = paper_figures(report)
    print("== paper (derived from studied_fused / studied_baseline, never gated)")
    for metric, value in paper.items():
        print(f"{metric:<36} {value:>14.6g} ratio")
    document = {
        "env": env,
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds, "smoke": args.smoke,
        "wall_s": time.perf_counter() - started,
        "workloads": report,
        "paper": paper,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    check_environment()
    args = parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
