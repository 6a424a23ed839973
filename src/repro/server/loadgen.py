"""Concurrent load generation + byte-identity oracle for the service.

Shared by ``benchmarks/bench_server.py`` and
``benchmarks/server_smoke.py``: drives N client threads against a
:class:`~repro.server.service.QueryService` and checks every result
byte-for-byte against a serial, cache-off baseline computed up front.

Correctness is the point: a degraded, retried, cache-replayed or
leader/follower-shared execution must return *exactly* the rows the
plain serial engine returns, in the same order.  Results are compared
by SHA-256 over ``repr(rows)`` — any reordering or value drift flips
the hash.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass, field

from repro.engine.session import Session
from repro.errors import AdmissionRejectedError, ReproError
from repro.optimizer.config import OptimizerConfig

#: Submissions a client makes of one query before it counts as rejected.
_SUBMIT_ATTEMPTS = 8


def rows_digest(rows: list[tuple]) -> str:
    """Order-sensitive fingerprint of a result set."""
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def serial_baseline(
    store, queries: list[str], engine: str = "batch"
) -> dict[str, dict]:
    """Ground truth per query: digest + bytes scanned, computed on a
    fresh serial session with caching off (nothing shared, no reuse)."""
    config = OptimizerConfig(engine=engine, enable_plan_cache=False, workers=1)
    baseline: dict[str, dict] = {}
    with Session(store, config) as session:
        for sql in queries:
            result = session.execute(sql)
            baseline[sql] = {
                "digest": rows_digest(result.rows),
                "bytes_scanned": result.metrics.accounting.bytes_scanned,
                "rows": len(result.rows),
            }
    return baseline


@dataclass
class LoadReport:
    """Everything a benchmark wants to serialize about one run."""

    queries_run: int = 0
    ok: int = 0
    wrong_results: int = 0
    rejected: int = 0
    errors_by_type: dict[str, int] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    bytes_scanned: float = 0.0
    baseline_bytes: float = 0.0
    degradations: int = 0
    shared_hits: int = 0
    cache_hits: int = 0
    service_metrics: dict = field(default_factory=dict)

    @property
    def bytes_reduction(self) -> float:
        """Fraction of baseline bytes *not* scanned thanks to sharing."""
        if self.baseline_bytes <= 0:
            return 0.0
        return 1.0 - self.bytes_scanned / self.baseline_bytes

    def percentile(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]

    def as_dict(self) -> dict:
        return {
            "queries_run": self.queries_run,
            "ok": self.ok,
            "wrong_results": self.wrong_results,
            "rejected": self.rejected,
            "errors_by_type": dict(self.errors_by_type),
            "latency_ms": {
                "p50": self.percentile(0.50),
                "p99": self.percentile(0.99),
            },
            "bytes_scanned": self.bytes_scanned,
            "baseline_bytes": self.baseline_bytes,
            "bytes_reduction": self.bytes_reduction,
            "degradations": self.degradations,
            "shared_hits": self.shared_hits,
            "cache_hits": self.cache_hits,
            "service_metrics": self.service_metrics,
        }


def run_load(
    service,
    queries: list[str],
    baseline: dict[str, dict],
    clients: int = 8,
    per_client: int = 10,
    seed: int = 7,
    tenants: tuple[str, ...] = ("default",),
) -> LoadReport:
    """Drive ``clients`` threads of ``per_client`` queries each.

    Each client draws queries from ``queries`` with its own seeded RNG
    (deterministic per (seed, client) — the interleaving is not, which
    is the point).  Rejected submissions are retried after the
    advertised ``retry_after_ms``, up to ``_SUBMIT_ATTEMPTS`` times
    (clients that give up count as ``rejected``).
    """
    report = LoadReport()
    lock = threading.Lock()

    def client(index: int) -> None:
        rng = random.Random(seed * 1009 + index)
        tenant = tenants[index % len(tenants)]
        for _ in range(per_client):
            sql = rng.choice(queries)
            started = time.monotonic()
            try:
                ticket = None
                for attempt in range(_SUBMIT_ATTEMPTS):
                    try:
                        ticket = service.submit(sql, tenant=tenant)
                        break
                    except AdmissionRejectedError as exc:
                        if attempt == _SUBMIT_ATTEMPTS - 1:
                            raise
                        time.sleep(min(exc.retry_after_ms, 200.0) / 1000.0)
                assert ticket is not None
                result = ticket.result()
            except ReproError as exc:
                with lock:
                    report.queries_run += 1
                    name = type(exc).__name__
                    if isinstance(exc, AdmissionRejectedError):
                        report.rejected += 1
                    report.errors_by_type[name] = (
                        report.errors_by_type.get(name, 0) + 1
                    )
                continue
            latency_ms = (time.monotonic() - started) * 1000.0
            expected = baseline[sql]
            metrics = result.metrics
            with lock:
                report.queries_run += 1
                report.latencies_ms.append(latency_ms)
                if rows_digest(result.rows) == expected["digest"]:
                    report.ok += 1
                else:
                    report.wrong_results += 1
                report.bytes_scanned += metrics.accounting.bytes_scanned
                report.baseline_bytes += expected["bytes_scanned"]
                report.degradations += len(metrics.degradations)
                report.shared_hits += metrics.shared_hits
                report.cache_hits += metrics.cache_hits

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.service_metrics = service.metrics()
    return report
