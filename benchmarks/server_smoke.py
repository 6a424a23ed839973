"""Server smoke: the query service under modest concurrent load.

A fast CI gate for the serving layer (DESIGN.md §14): a handful of
client threads drive an overlapping dashboard workload through the full
admission → queue → degradation → session stack, optionally with fault
injection and one mid-run worker SIGKILL, and every result is checked
byte-for-byte against a serial cache-off baseline.  Writes
``SERVER_metrics.json`` (p50/p99 latency, degradations, shared-execution
and cache hits, admission counters) and exits non-zero on any wrong
result or on a hang-shaped anomaly (queries submitted but never
resolved)::

    PYTHONPATH=src python benchmarks/server_smoke.py
    PYTHONPATH=src python benchmarks/server_smoke.py --fault-rate 0.05 --kill-worker-after 8
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from repro.optimizer.config import OptimizerConfig
from repro.server.loadgen import run_load, serial_baseline
from repro.server.service import QueryService, ServiceConfig
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import WORKLOAD_QUERIES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--per-client", type=int, default=8)
    parser.add_argument("--num-queries", type=int, default=8,
                        help="dashboard size: distinct queries drawn from")
    parser.add_argument("--dispatchers", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--fault-rate", type=float, default=0.02)
    parser.add_argument("--kill-worker-after", type=int, default=None,
                        help="SIGKILL one worker after N completed queries")
    parser.add_argument("--tenants", type=int, default=2)
    parser.add_argument("--out", default="SERVER_metrics.json")
    args = parser.parse_args(argv)

    store = generate_dataset(scale=args.scale, seed=args.seed)
    queries = list(WORKLOAD_QUERIES.values())[: args.num_queries]
    print(f"== baseline: {len(queries)} queries, serial, cache off ==",
          flush=True)
    baseline = serial_baseline(store, queries, engine="batch")

    config = ServiceConfig(
        base=OptimizerConfig(
            engine="batch",
            enable_plan_cache=True,
            workers=args.workers,
            fault_rate=args.fault_rate,
            fault_seed=args.seed,
        ),
        dispatchers=args.dispatchers,
        max_queue_depth=max(64, args.clients * 4),
    )
    print(
        f"== load: {args.clients} clients x {args.per_client} queries, "
        f"fault_rate={args.fault_rate}, "
        f"kill_worker_after={args.kill_worker_after} ==",
        flush=True,
    )
    with QueryService(store, config) as service:
        report = run_load(
            service,
            queries,
            baseline,
            clients=args.clients,
            per_client=args.per_client,
            seed=args.seed,
            tenants=tuple(f"tenant{i}" for i in range(args.tenants)),
            kill_worker_after=args.kill_worker_after,
        )

    failures = []
    if report.wrong_results:
        failures.append(f"{report.wrong_results} wrong results")
    expected = args.clients * args.per_client
    if report.queries_run != expected:
        failures.append(
            f"only {report.queries_run}/{expected} queries resolved "
            "(hang or lost ticket)"
        )
    if args.kill_worker_after is not None and report.workers_killed != 1:
        failures.append(
            f"killer killed {report.workers_killed} workers, wanted 1"
        )

    out = {
        "benchmark": "server_smoke",
        "scale": args.scale,
        "clients": args.clients,
        "per_client": args.per_client,
        "fault_rate": args.fault_rate,
        "kill_worker_after": args.kill_worker_after,
        "python": platform.python_version(),
        "report": report.as_dict(),
        "failures": failures,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True, default=str)
    print(f"wrote {args.out}")
    print(
        f"== ok={report.ok}/{report.queries_run} "
        f"p50={report.percentile(0.5):.1f}ms "
        f"p99={report.percentile(0.99):.1f}ms "
        f"bytes_reduction={report.bytes_reduction:.1%} "
        f"degradations={report.degradations} "
        f"cache_hits={report.cache_hits} shared_hits={report.shared_hits} ==",
        flush=True,
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("server smoke passed: every result byte-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
