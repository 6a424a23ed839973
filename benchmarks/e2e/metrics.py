"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` carries the same lists for the driver; the self-tests
fail when the two disagree.  Definitions are in README.md.
"""

from __future__ import annotations

import re

from repro.tpcds.queries import STUDIED_QUERIES

#: How long one run measures when the driver calls it.
RUN_SECONDS = 15

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: name -> (unit, better, bound).  Measured with tracing off; ``bound``
#: is the share of the parent's median a change may worsen the metric by.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "suite_ms": ("ms", "lower", 0.10),
    "throughput_qps": ("1/s", "higher", 0.10),
    "bytes_scanned_mb": ("MB", "lower", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

_MS = ("ms", "lower")
_COUNT = ("count", "lower")

#: name -> (unit, better).  From the traced run; never gated.
PER_LAYER: dict[str, tuple[str, str]] = {
    "sql.lex_ms": _MS,
    "sql.parse_ms": _MS,
    "sql.bind_ms": _MS,
    "sql.tokens": _COUNT,
    "sql.plan_nodes": _COUNT,
    "optimizer.total_ms": _MS,
    "optimizer.classical_ms": _MS,
    "optimizer.fusion_rules_ms": _MS,
    "optimizer.join_order_ms": _MS,
    "optimizer.fact_simplify_ms": _MS,
    "optimizer.cross_query_reuse_ms": _MS,
    "optimizer.cost.price_ms": _MS,
    "optimizer.stats.estimate_ms": _MS,
    "optimizer.rules_fired": ("count", "higher"),
    "optimizer.fusion_rules_fired": ("count", "higher"),
    "optimizer.cost_declined": _COUNT,
    "optimizer.plan_nodes_out": _COUNT,
    "fusion.fuse_ms": _MS,
    "fusion.fuse_success_share": ("ratio", "higher"),
    "algebra.fingerprint_ms": _MS,
    "engine.batch.execute_ms": _MS,
    "engine.row.execute_ms": _MS,
    "engine.compiled.execute_cold_ms": _MS,
    "engine.compiled.execute_warm_ms": _MS,
    "engine.compiled.compile_ms": _MS,
    "engine.parallel.execute_ms": _MS,
    "engine.rows_scanned": _COUNT,
    "engine.peak_state_rows": _COUNT,
    "engine.total_state_rows": _COUNT,
    "engine.pipelines_compiled": _COUNT,
    "engine.plan_cache.cold_ms": _MS,
    "engine.plan_cache.warm_ms": _MS,
    "engine.plan_cache.hit_rate": ("ratio", "higher"),
    "engine.plan_cache.bytes_saved_mb": ("MB", "higher"),
    "engine.plan_cache.evictions": _COUNT,
    "storage.scan_ms": _MS,
    "storage.scan_vectors_ms": _MS,
    "storage.scan_mb_per_s": ("MB/s", "higher"),
    "storage.partitions_read": _COUNT,
    "server.admission_us": ("us", "lower"),
    "server.queue_wait_ms_p50": _MS,
    "server.queue_wait_ms_p99": _MS,
    "server.query_ms_p50": _MS,
    "server.query_ms_p99": _MS,
    "server.overhead_ms": _MS,
    "server.rejected": _COUNT,
    "server.demotions": _COUNT,
    "server.shared_hits": ("count", "higher"),
    "server.cache_hit_rate": ("ratio", "higher"),
    "tpcds.generate_s": ("s", "lower"),
    "tpcds.rows_total": _COUNT,
    "session.execute_ms_p50": _MS,
    "session.execute_ms_p90": _MS,
    "trace.coverage": ("ratio", "higher"),
    "trace.residual_ms": _MS,
    "trace.overhead_share": ("ratio", "lower"),
    "failed_share": ("ratio", "lower"),
    "paper.fig1_latency_ratio": ("ratio", "lower"),
    "paper.fig2_bytes_fraction": ("ratio", "lower"),
    **{f"paper.fig1.{q}": ("ratio", "lower") for q in STUDIED_QUERIES},
    **{f"paper.fig2.{q}": ("ratio", "lower") for q in STUDIED_QUERIES},
}


def as_benchmark_json(workloads) -> dict:
    """``BENCHMARK.json`` as this code would write it."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
