"""Parallel smoke: the workload at ``--workers 4`` must be
byte-identical to the serial run — and stay so under fault injection.

Runs all 32 TPC-DS proxy workload queries three times on the batch
engine against one dataset:

* serially (``workers=1``, the reference);
* fragment-parallel (``--workers``), asserting per
  query identical result rows (canonical order) and identical
  ``bytes_scanned`` / ``rows_scanned`` (scale-out never changes what a
  query reads);
* fragment-parallel *under chaos* (``--fault-rate`` on every partition
  read, per-fragment retry), asserting the same — a poisoned read
  retries on another worker without changing the answer — and that
  faults actually fired.

Writes a ``PARALLEL_metrics.json`` report and exits non-zero on any
mismatch, so CI can run it as a gate::

    PYTHONPATH=src python benchmarks/parallel_smoke.py
    PYTHONPATH=src python benchmarks/parallel_smoke.py --scale 0.02 --workers 4
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.storage.faults import RetryPolicy
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import WORKLOAD_QUERIES


def run_workload(store, config: OptimizerConfig, *, quiet_retry: bool = False) -> dict:
    results = {}
    with Session(store, config) as session:
        if quiet_retry:
            # Deterministic backoff without wall-clock cost: the smoke
            # gate measures correctness, not latency.
            session._retry_policy = RetryPolicy(
                max_retries=config.max_retries,
                seed=config.fault_seed,
                sleep=lambda s: None,
            )
        for name in sorted(WORKLOAD_QUERIES):
            result = session.execute(WORKLOAD_QUERIES[name])
            results[name] = {
                "rows": result.sorted_rows(),
                "bytes_scanned": result.metrics.bytes_scanned,
                "rows_scanned": result.metrics.rows_scanned,
                "retries": result.metrics.retries,
                "faults_injected": result.metrics.faults_injected,
            }
    store.fault_injector = None
    return results


def _compare(phase: str, reference: dict, candidate: dict, failures: list) -> dict:
    per_query = {}
    for name in sorted(WORKLOAD_QUERIES):
        ok_rows = candidate[name]["rows"] == reference[name]["rows"]
        ok_bytes = (
            candidate[name]["bytes_scanned"] == reference[name]["bytes_scanned"]
            and candidate[name]["rows_scanned"] == reference[name]["rows_scanned"]
        )
        if not ok_rows:
            failures.append(f"{phase}/{name}: rows differ from serial run")
        if not ok_bytes:
            failures.append(
                f"{phase}/{name}: scan accounting differs from serial run "
                f"({candidate[name]['bytes_scanned']} vs "
                f"{reference[name]['bytes_scanned']} bytes)"
            )
        per_query[name] = {
            "rows_match": ok_rows,
            "accounting_match": ok_bytes,
            "bytes_scanned": candidate[name]["bytes_scanned"],
            "retries": candidate[name]["retries"],
            "faults_injected": candidate[name]["faults_injected"],
        }
        status = "ok" if ok_rows and ok_bytes else "FAIL"
        print(
            f"  {name}: {status} faults={candidate[name]['faults_injected']}",
            flush=True,
        )
    return per_query


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7, help="dataset seed")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--fault-rate", type=float, default=0.05)
    parser.add_argument("--fault-seed", type=int, default=7)
    parser.add_argument("--retries", type=int, default=4)
    parser.add_argument("--out", default="PARALLEL_metrics.json")
    args = parser.parse_args(argv)

    print(f"generating dataset (scale={args.scale}) ...", flush=True)
    store = generate_dataset(scale=args.scale, seed=args.seed)
    failures: list[str] = []

    print("== serial reference (workers=1) ==", flush=True)
    serial = run_workload(store, OptimizerConfig(engine="batch"))

    print(f"== parallel run (workers={args.workers}) ==", flush=True)
    parallel = run_workload(
        store,
        OptimizerConfig(engine="batch", workers=args.workers),
    )
    parallel_per_query = _compare("parallel", serial, parallel, failures)

    print(
        f"== chaos-parallel run (workers={args.workers}, "
        f"fault_rate={args.fault_rate}) ==",
        flush=True,
    )
    chaos = run_workload(
        store,
        OptimizerConfig(
            engine="batch",
            workers=args.workers,
            fault_rate=args.fault_rate,
            fault_seed=args.fault_seed,
            max_retries=args.retries,
        ),
        quiet_retry=True,
    )
    chaos_per_query = _compare("chaos-parallel", serial, chaos, failures)
    total_faults = sum(q["faults_injected"] for q in chaos.values())
    if args.fault_rate > 0 and total_faults == 0:
        failures.append(
            "chaos-parallel: no faults injected over the whole workload — "
            "the injector never reached the fragment read path"
        )

    report = {
        "benchmark": "parallel_smoke",
        "scale": args.scale,
        "workers": args.workers,
        "fault_rate": args.fault_rate,
        "fault_seed": args.fault_seed,
        "python": platform.python_version(),
        "parallel": {"queries": parallel_per_query},
        "chaos_parallel": {
            "queries": chaos_per_query,
            "total_faults_injected": total_faults,
            "total_retries": sum(q["retries"] for q in chaos.values()),
        },
        "failures": failures,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
    print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"parallel smoke passed: workload byte-identical at "
        f"workers={args.workers}, serial and under {args.fault_rate:.0%} faults "
        f"({total_faults} injected)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
