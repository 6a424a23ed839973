"""Chaos smoke: the full workload under fault injection must be
byte-identical to a fault-free run.

Runs all 32 TPC-DS proxy workload queries twice per engine — once on a
clean store, once on an identical store with a deterministic fault
injector (``--fault-rate``/``--fault-seed``) and bounded retries — and
asserts, per query:

* identical result rows (canonical order);
* identical ``bytes_scanned`` (retries never double-charge accounting);

and, over the whole chaos run, that retries actually happened (the
injector really was in the read path).  Writes a ``CHAOS_metrics.json``
report (per-query retry/fault counters plus injector totals) and exits
non-zero on any mismatch, so CI can run it as a gate::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
    PYTHONPATH=src python benchmarks/chaos_smoke.py --scale 0.02 --fault-rate 0.05 --fault-seed 7
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.storage.faults import FaultInjector, RetryPolicy
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import WORKLOAD_QUERIES


def run_workload(args, engine: str, chaos: bool) -> tuple[Session, dict]:
    store = generate_dataset(scale=args.scale, seed=args.seed)
    if chaos and args.fault_rate > 0:
        store.fault_injector = FaultInjector(args.fault_rate, seed=args.fault_seed)
    config = OptimizerConfig(
        engine=engine, fault_seed=args.fault_seed, max_retries=args.retries
    )
    session = Session(store, config)
    if chaos:
        # Deterministic backoff without wall-clock cost: the smoke
        # gate measures correctness, not latency.
        session._retry_policy = RetryPolicy(
            max_retries=args.retries, seed=args.fault_seed, sleep=lambda s: None
        )
    results = {}
    for name in sorted(WORKLOAD_QUERIES):
        result = session.execute(WORKLOAD_QUERIES[name])
        results[name] = {
            "rows": result.sorted_rows(),
            "bytes_scanned": result.metrics.bytes_scanned,
            "retries": result.metrics.retries,
            "faults_injected": result.metrics.faults_injected,
            "checksum_verifications": result.metrics.checksum_verifications,
        }
    return session, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7, help="dataset seed")
    parser.add_argument("--fault-rate", type=float, default=0.05)
    parser.add_argument("--fault-seed", type=int, default=7)
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument(
        "--engines", nargs="*", default=["row", "batch"], choices=["row", "batch"]
    )
    parser.add_argument("--out", default="CHAOS_metrics.json")
    args = parser.parse_args(argv)

    report = {
        "benchmark": "chaos_smoke",
        "scale": args.scale,
        "fault_rate": args.fault_rate,
        "fault_seed": args.fault_seed,
        "retries": args.retries,
        "python": platform.python_version(),
        "engines": {},
    }
    failures = []
    for engine in args.engines:
        print(f"== engine={engine}: clean run ==", flush=True)
        _, clean = run_workload(args, engine, chaos=False)
        print(
            f"== engine={engine}: chaos run "
            f"(fault_rate={args.fault_rate}, seed={args.fault_seed}, "
            f"retries={args.retries}) ==",
            flush=True,
        )
        chaos_session, chaos = run_workload(args, engine, chaos=True)

        total_retries = sum(q["retries"] for q in chaos.values())
        total_faults = sum(q["faults_injected"] for q in chaos.values())
        per_query = {}
        for name in sorted(WORKLOAD_QUERIES):
            ok_rows = chaos[name]["rows"] == clean[name]["rows"]
            ok_bytes = chaos[name]["bytes_scanned"] == clean[name]["bytes_scanned"]
            if not ok_rows:
                failures.append(f"{engine}/{name}: rows differ under chaos")
            if not ok_bytes:
                failures.append(
                    f"{engine}/{name}: bytes_scanned "
                    f"{chaos[name]['bytes_scanned']} != {clean[name]['bytes_scanned']}"
                    " (double-charged retry?)"
                )
            per_query[name] = {
                "rows_match": ok_rows,
                "bytes_match": ok_bytes,
                "bytes_scanned": chaos[name]["bytes_scanned"],
                "retries": chaos[name]["retries"],
                "faults_injected": chaos[name]["faults_injected"],
                "checksum_verifications": chaos[name]["checksum_verifications"],
            }
            status = "ok" if ok_rows and ok_bytes else "FAIL"
            print(
                f"  {name}: {status} retries={chaos[name]['retries']} "
                f"faults={chaos[name]['faults_injected']}",
                flush=True,
            )
        injector = chaos_session.store.fault_injector
        if args.fault_rate > 0 and total_retries == 0:
            failures.append(
                f"{engine}: no retries over the whole workload — the injector "
                "never reached the read path"
            )
        report["engines"][engine] = {
            "queries": per_query,
            "total_retries": total_retries,
            "total_faults_injected": total_faults,
            "injector_stats": None
            if injector is None
            else {
                "transient_faults": injector.stats.transient_faults,
                "corruptions": injector.stats.corruptions,
            },
        }
        print(
            f"== engine={engine}: retries={total_retries} faults={total_faults} ==",
            flush=True,
        )

    report["failures"] = failures
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
    print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos smoke passed: workload byte-identical under fault injection")
    return 0


if __name__ == "__main__":
    sys.exit(main())
