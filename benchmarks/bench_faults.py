"""Fault-tolerance overhead guard: the fault-free hot path must stay
within budget with checksums + deadline guards enabled.

What no ``benchmarks/e2e`` workload loads: the same plans with
``verify_checksums`` toggled (every ruler workload runs guarded only).

Times a scan-heavy workload subset twice on identical plans:

* **bare** — checksum verification off, no deadline (the pre-existing
  fast path: ``Store._read_chunk_values`` returns the chunk directly);
* **guarded** — per-read checksum verification on and a generous
  deadline armed (so every block boundary pays the checkpoint test),
  i.e. the failure-detection machinery without any failures.

Writes ``BENCH_faults.json`` (per-query times, geomean and
time-weighted overhead) and exits non-zero when the *time-weighted*
overhead (total guarded time over total bare time — robust to noise on
sub-millisecond queries) exceeds ``--max-overhead`` (default 10%), so
CI catches a fault-tolerance feature that taxes the common case::

    PYTHONPATH=src python benchmarks/bench_faults.py
    PYTHONPATH=src python benchmarks/bench_faults.py --scale tiny --repeat 1
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time

from repro.engine.batch_executor import execute_batch
from repro.engine.executor import execute
from repro.engine.metrics import ResourceLimits, RunContext
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import WORKLOAD_QUERIES

#: Named dataset scales.
SCALES = {"tiny": 0.02, "small": 0.05, "default": 0.2}

#: Scan-dominated queries: the worst case for per-chunk verification
#: overhead, since chunk reads are the work.
QUERIES = ("q09", "q28", "q88", "w12", "w98", "x01", "x03", "x05", "x06")

#: The guarded run's deadline: generous enough to never fire, present
#: enough that every checkpoint pays the comparison.
GUARD_TIMEOUT_MS = 600_000.0


def parse_scale(text: str) -> float:
    return SCALES[text] if text in SCALES else float(text)


def geomean(values: list[float]) -> float:
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def time_best(runner, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        runner()
        best = min(best, time.perf_counter() - start)
    return best


def bench_query(store, plan, engine: str, block_rows: int, repeat: int) -> dict:
    def run(guarded: bool) -> list:
        store.verify_checksums = guarded
        limits = ResourceLimits(timeout_ms=GUARD_TIMEOUT_MS) if guarded else None
        ctx = RunContext(store, limits=limits)
        if engine == "batch":
            return list(execute_batch(plan, ctx, block_rows=block_rows))
        return list(execute(plan, ctx))

    bare_rows, guarded_rows = run(False), run(True)
    if bare_rows != guarded_rows:
        raise AssertionError("guarded run changed results")
    bare_s = time_best(lambda: run(False), repeat)
    guarded_s = time_best(lambda: run(True), repeat)
    return {
        "bare_s": bare_s,
        "guarded_s": guarded_s,
        "overhead": guarded_s / max(bare_s, 1e-9),
        "rows_out": len(bare_rows),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default="small",
        help=f"dataset scale: {', '.join(SCALES)} or a float (default: small)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--engine", choices=("row", "batch"), default="batch")
    parser.add_argument("--block-rows", type=int, default=1024)
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.10,
        help="fail when geomean guarded/bare - 1 exceeds this (default 0.10)",
    )
    parser.add_argument("--out", default="BENCH_faults.json")
    args = parser.parse_args(argv)

    scale = parse_scale(args.scale)
    print(f"generating dataset (scale={scale}) ...", flush=True)
    store = generate_dataset(scale=scale, seed=args.seed)
    session = Session(store, OptimizerConfig(engine=args.engine))

    queries = {}
    for name in QUERIES:
        plan, _ = session.plan(WORKLOAD_QUERIES[name])
        result = bench_query(store, plan, args.engine, args.block_rows, args.repeat)
        queries[name] = result
        print(
            f"  {name}: bare={result['bare_s']*1000:8.1f}ms "
            f"guarded={result['guarded_s']*1000:8.1f}ms "
            f"overhead={(result['overhead']-1)*100:+5.1f}%",
            flush=True,
        )
    store.verify_checksums = True  # leave the store in its default state

    total_bare = sum(q["bare_s"] for q in queries.values())
    total_guarded = sum(q["guarded_s"] for q in queries.values())
    weighted = total_guarded / max(total_bare, 1e-9)
    report = {
        "benchmark": "faults_overhead",
        "scale": scale,
        "engine": args.engine,
        "repeat": args.repeat,
        "python": platform.python_version(),
        "guard_timeout_ms": GUARD_TIMEOUT_MS,
        "queries": queries,
        "geomean_overhead": geomean([q["overhead"] for q in queries.values()]),
        "weighted_overhead": weighted,
        "max_overhead": args.max_overhead,
        "total_bare_s": total_bare,
        "total_guarded_s": total_guarded,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(
        f"\noverhead of checksums+deadline on the fault-free path: "
        f"{(weighted-1)*100:+.1f}% time-weighted, "
        f"{(report['geomean_overhead']-1)*100:+.1f}% geomean "
        f"(budget {args.max_overhead*100:.0f}%)"
    )
    print(f"wrote {args.out}")
    if weighted - 1.0 > args.max_overhead:
        print(
            f"FAIL: time-weighted overhead {(weighted-1)*100:.1f}% exceeds "
            f"budget {args.max_overhead*100:.0f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
