"""Resilience acceptance benchmark for the query service (ISSUE 9).

What no ``benchmarks/e2e`` workload loads: 64 clients and 5% transient
faults (``service_mixed`` is 2 fault-free clients).

Two phases against one service, every result byte-checked against a
serial cache-off baseline:

1. **burst** — every client fires the *same cold query* at once: the
   in-flight registry elects one leader per dispatcher collision and
   fans its result out to the followers (the paper's pay-once pattern,
   concurrent edition);
2. **dashboard** — 64 clients draw from a small overlapping dashboard
   workload at a 5% transient-fault rate.

Gates (exit 1 on any miss):

* zero wrong results — every degraded, retried, shared, or
  cache-replayed execution is byte-identical to the serial baseline;
* ``>= --min-bytes-reduction`` (default 30%) of baseline bytes *not*
  scanned thanks to shared execution on the dashboard phase;
* p99 latency within ``--p99-budget-ms``;
* every degradation the clients observed is accounted for in the
  service's own metrics (nothing degrades silently).

Writes ``BENCH_server.json``::

    PYTHONPATH=src python benchmarks/bench_server.py --scale 0.02
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from repro.optimizer.config import OptimizerConfig
from repro.server.loadgen import run_load, serial_baseline
from repro.server.service import QueryService, ServiceConfig
from repro.storage.faults import FaultInjector
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import WORKLOAD_QUERIES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--per-client", type=int, default=4)
    parser.add_argument("--num-queries", type=int, default=8)
    parser.add_argument("--dispatchers", type=int, default=8)
    parser.add_argument("--fault-rate", type=float, default=0.05)
    parser.add_argument("--min-bytes-reduction", type=float, default=0.30)
    parser.add_argument("--p99-budget-ms", type=float, default=15_000.0)
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--out", default="BENCH_server.json")
    args = parser.parse_args(argv)

    store = generate_dataset(scale=args.scale, seed=args.seed)
    queries = list(WORKLOAD_QUERIES.values())[: args.num_queries]
    print(f"== baseline: {len(queries)} queries, serial, cache off ==",
          flush=True)
    baseline = serial_baseline(store, queries, engine="batch")

    if args.fault_rate > 0:
        store.fault_injector = FaultInjector(args.fault_rate, seed=args.seed)
    config = ServiceConfig(
        base=OptimizerConfig(
            engine="batch",
            enable_plan_cache=True,
            fault_seed=args.seed,
        ),
        dispatchers=args.dispatchers,
        max_queue_depth=max(128, args.clients * 4),
    )
    with QueryService(store, config) as service:
        # Phase 1: one cold query, every client at once.  The first
        # arrivals race into the dispatchers together, so one leader
        # executes and its followers share the result in flight; the
        # rest replay it from the cache.
        print(f"== phase 1 (burst): {args.clients} clients x 1 identical "
              "cold query ==", flush=True)
        burst = run_load(
            service,
            queries[:1],
            baseline,
            clients=args.clients,
            per_client=1,
            seed=args.seed,
            tenants=tuple(f"tenant{i}" for i in range(args.tenants)),
        )
        print(f"== phase 2 (dashboard): {args.clients} clients x "
              f"{args.per_client} queries, fault_rate={args.fault_rate} ==",
              flush=True)
        dashboard = run_load(
            service,
            queries,
            baseline,
            clients=args.clients,
            per_client=args.per_client,
            seed=args.seed + 1,
            tenants=tuple(f"tenant{i}" for i in range(args.tenants)),
        )
        service_metrics = service.metrics()

    failures = []
    wrong = burst.wrong_results + dashboard.wrong_results
    if wrong:
        failures.append(f"{wrong} wrong results (must be 0)")
    expected = args.clients * (1 + args.per_client)
    resolved = burst.queries_run + dashboard.queries_run
    if resolved != expected:
        failures.append(f"only {resolved}/{expected} queries resolved")
    if dashboard.bytes_reduction < args.min_bytes_reduction:
        failures.append(
            f"bytes reduction {dashboard.bytes_reduction:.1%} < "
            f"{args.min_bytes_reduction:.0%} floor"
        )
    p99 = dashboard.percentile(0.99)
    if p99 > args.p99_budget_ms:
        failures.append(f"p99 {p99:.0f}ms over {args.p99_budget_ms:.0f}ms budget")
    observed = burst.degradations + dashboard.degradations
    if service_metrics["degradations"] != observed:
        failures.append(
            f"degradation accounting mismatch: clients saw {observed}, "
            f"service recorded {service_metrics['degradations']}"
        )
    shared = service_metrics["plan_cache"].get("inflight_followers", 0)
    if shared + burst.shared_hits + dashboard.shared_hits == 0:
        failures.append("no shared execution happened in the burst phase")

    out = {
        "benchmark": "bench_server",
        "scale": args.scale,
        "clients": args.clients,
        "per_client": args.per_client,
        "fault_rate": args.fault_rate,
        "python": platform.python_version(),
        "burst": burst.as_dict(),
        "dashboard": dashboard.as_dict(),
        "service_metrics": service_metrics,
        "failures": failures,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True, default=str)
    print(f"wrote {args.out}")
    print(
        f"== dashboard: ok={dashboard.ok}/{dashboard.queries_run} "
        f"p50={dashboard.percentile(0.5):.1f}ms p99={p99:.1f}ms "
        f"bytes_reduction={dashboard.bytes_reduction:.1%} "
        f"degradations={observed} inflight_followers={shared} ==",
        flush=True,
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("server bench passed: resilient under load and faults")
    return 0


if __name__ == "__main__":
    sys.exit(main())
