"""The concurrent multi-tenant query service (DESIGN.md §14).

:class:`QueryService` stacks the pieces of this package on top of
:class:`~repro.engine.session.Session`:

* ``submit`` passes the :class:`~repro.server.admission.AdmissionController`
  (or raises), then enqueues a ticket on a FIFO queue;
* dispatcher threads pop tickets, enforce the *queue-wait* deadline
  (:class:`~repro.errors.QueryQueueTimeoutError`) and charge the wait
  against the admission-to-completion deadline, then execute the query
  on the service's one serial :class:`~repro.engine.session.Session`,
  which shares the store and the plan cache (so cross-query reuse and
  leader/follower shared execution work across tenants) and keeps no
  plan memo, so every query is planned afresh (DESIGN.md §8, "Plan
  memo");
* a query that fails with :class:`~repro.errors.DataCorruptionError`
  is re-run once on a second, cache-less session: the corrupt cache
  entry was evicted on detection, and the cache-less run cannot replay
  another one.  Every other error reaches the ticket on its first
  attempt.

Fragment parallelism (``workers > 1``) runs only through ``Session``;
the service refuses a base configuration that asks for it.

The service is synchronous-friendly: ``execute`` is submit + wait, and
``metrics()`` returns a plain-dict snapshot (latency percentiles,
admission counters, shared-execution totals) that the benchmarks
serialize directly.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro.engine.plan_cache import MIB, PlanCache
from repro.engine.session import QueryResult, Session
from repro.errors import (
    DataCorruptionError,
    QueryQueueTimeoutError,
    QueryTimeoutError,
    ReproError,
)
from repro.optimizer.config import OptimizerConfig
from repro.server.admission import AdmissionController

#: Dispatcher queue-poll period (seconds): bounds shutdown latency.
_DISPATCH_POLL_S = 0.05

#: Longest a ticket may wait in the queue before it is dropped with
#: :class:`~repro.errors.QueryQueueTimeoutError`.
QUEUE_TIMEOUT_MS = 10_000.0

#: Admission-to-completion deadline per query.  Queue wait is charged
#: against it, so a query that waited 2s of a 10s budget gets 8s of
#: execution.
QUERY_TIMEOUT_MS = 60_000.0

#: Latency reservoir size: percentiles are computed over the most
#: recent this-many completions, so a long-running service neither
#: grows without bound nor sorts an ever-larger list per snapshot.
_LATENCY_RESERVOIR = 4096


@dataclass
class ServiceConfig:
    """Tunables for :class:`QueryService`."""

    #: Optimizer configuration of the service's session; the
    #: corruption re-run uses it with the plan cache off.
    base: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(enable_plan_cache=True)
    )
    #: Dispatcher (query-executing) threads.
    dispatchers: int = 4
    #: Admission queue bound (global, across tenants).
    max_queue_depth: int = 64


class QueryTicket:
    """Handle for one submitted query; resolves to a result or error."""

    __slots__ = ("sql", "tenant", "enqueued_at", "_done", "_result", "_error")

    def __init__(self, sql: str, tenant: str):
        self.sql = sql
        self.tenant = tenant
        self.enqueued_at = time.monotonic()
        self._done = threading.Event()
        self._result: QueryResult | None = None
        self._error: BaseException | None = None

    def resolve(self, result: QueryResult) -> None:
        self._result = result
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block until the query finishes; re-raises its error."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"query still running after {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class _ServiceMetrics:
    """Service-level counters + latency reservoir, all under one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.queue_timeouts = 0
        self.degradations = 0
        self.shared_hits = 0
        self.shared_fanout = 0
        self.cache_hits = 0
        self.bytes_scanned = 0.0
        self.latencies_ms: deque[float] = deque(maxlen=_LATENCY_RESERVOIR)
        self.latency_max_ms = 0.0
        self.errors_by_type: dict[str, int] = {}

    def record_success(self, latency_ms: float, metrics) -> None:
        with self._lock:
            self.completed += 1
            self.latencies_ms.append(latency_ms)
            if latency_ms > self.latency_max_ms:
                self.latency_max_ms = latency_ms
            self.degradations += len(metrics.degradations)
            self.shared_hits += metrics.shared_hits
            self.shared_fanout += metrics.shared_fanout
            self.cache_hits += metrics.cache_hits
            self.bytes_scanned += metrics.accounting.bytes_scanned

    def record_failure(self, error: BaseException) -> None:
        name = type(error).__name__
        with self._lock:
            self.failed += 1
            if isinstance(error, QueryQueueTimeoutError):
                self.queue_timeouts += 1
            self.errors_by_type[name] = self.errors_by_type.get(name, 0) + 1

    def record_submit(self) -> None:
        with self._lock:
            self.submitted += 1

    @staticmethod
    def _percentile(sorted_values: list[float], q: float) -> float:
        if not sorted_values:
            return 0.0
        index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
        return sorted_values[index]

    def snapshot(self) -> dict:
        with self._lock:
            latencies = sorted(self.latencies_ms)
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "queue_timeouts": self.queue_timeouts,
                "degradations": self.degradations,
                "shared_hits": self.shared_hits,
                "shared_fanout": self.shared_fanout,
                "cache_hits": self.cache_hits,
                "bytes_scanned": self.bytes_scanned,
                "errors_by_type": dict(self.errors_by_type),
                "latency_ms": {
                    "p50": self._percentile(latencies, 0.50),
                    "p99": self._percentile(latencies, 0.99),
                    "max": self.latency_max_ms,
                },
            }


class QueryService:
    """A concurrent, admission-controlled query service over one store."""

    def __init__(self, store, config: ServiceConfig | None = None):
        self.store = store
        self.config = config or ServiceConfig()
        base = self.config.base
        if base.workers > 1:
            raise ValueError(
                "QueryService runs serial sessions: fragment parallelism "
                "(workers > 1) runs only through Session until ROADMAP "
                "item 4 is done"
            )
        #: One cross-query cache for every tenant: shared execution and
        #: reuse work across tenants by design (results are keyed by
        #: plan fingerprint, not by who asked).
        self.plan_cache: PlanCache | None = None
        if base.enable_plan_cache:
            self.plan_cache = PlanCache(base.cache_budget_mb * MIB)
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth
        )
        self._session = self._new_session(base)
        #: The cache-less session of the corruption re-run, built on
        #: first use so that a service which never sees corruption
        #: builds one session.
        self._uncached_session: Session | None = None
        self._uncached_lock = threading.Lock()
        self._queue: queue_module.Queue = queue_module.Queue()
        self._metrics = _ServiceMetrics()
        self._stop = threading.Event()
        #: Fences ``submit`` against ``close``: the stop flag is only
        #: set (and checked) under this lock, so a ticket can never be
        #: enqueued after close() drained the queue — it would hang its
        #: caller forever and leak the tenant's admission slot.
        self._submit_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        for i in range(self.config.dispatchers):
            thread = threading.Thread(
                target=self._dispatch_loop, name=f"repro-dispatch-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    # -- public API --------------------------------------------------------

    def submit(self, sql: str, tenant: str = "default") -> QueryTicket:
        """Admit + enqueue one query; raises
        :class:`~repro.errors.AdmissionRejectedError` when shed."""
        with self._submit_lock:
            if self._stop.is_set():
                raise ReproError("the query service is closed")
            self._metrics.record_submit()
            self.admission.admit(tenant)  # raises on rejection
            ticket = QueryTicket(sql, tenant)
            self._queue.put(ticket)
        return ticket

    def execute(self, sql: str, tenant: str = "default") -> QueryResult:
        """Submit and wait; the blocking convenience entry point."""
        return self.submit(sql, tenant=tenant).result()

    def metrics(self) -> dict:
        """A point-in-time snapshot of every service-level counter."""
        snap = self._metrics.snapshot()
        snap["admission"] = {
            "admitted": self.admission.stats.admitted,
            "rejected": self.admission.stats.rejected,
            "rejected_queue_full": self.admission.stats.rejected_queue_full,
            "rejected_rate_limited": self.admission.stats.rejected_rate_limited,
            "rejected_quota": self.admission.stats.rejected_quota,
        }
        if self.plan_cache is not None:
            stats = self.plan_cache.stats
            snap["plan_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "stale_rejected": stats.stale_rejected,
                "inflight_leaders": self.plan_cache.inflight.leaders,
                "inflight_followers": self.plan_cache.inflight.followers,
            }
        return snap

    def close(self) -> None:
        """Stop dispatchers, fail queued tickets, release resources."""
        with self._submit_lock:
            if self._stop.is_set():
                return
            self._stop.set()
        # Any submit that won the lock race enqueued before the stop
        # flag was set, so the drain below is guaranteed to see it.
        for thread in self._threads:
            thread.join(timeout=10.0)
        while True:
            try:
                ticket = self._queue.get_nowait()
            except queue_module.Empty:
                break
            self.admission.on_dequeue()
            self.admission.release(ticket.tenant)
            ticket.fail(ReproError("the query service is closed"))
        self._session.close()
        with self._uncached_lock:
            if self._uncached_session is not None:
                self._uncached_session.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _new_session(self, config: OptimizerConfig) -> Session:
        return Session(self.store, config, plan_cache=self.plan_cache, plan_memo=False)

    def _uncached(self) -> Session:
        with self._uncached_lock:
            if self._uncached_session is None:
                self._uncached_session = self._new_session(
                    replace(self.config.base, enable_plan_cache=False)
                )
            return self._uncached_session

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                ticket = self._queue.get(timeout=_DISPATCH_POLL_S)
            except queue_module.Empty:
                continue
            self.admission.on_dequeue()
            try:
                self._run_ticket(ticket)
            finally:
                self.admission.release(ticket.tenant)

    def _run_ticket(self, ticket: QueryTicket) -> None:
        wait_ms = (time.monotonic() - ticket.enqueued_at) * 1000.0
        if wait_ms > QUEUE_TIMEOUT_MS or QUERY_TIMEOUT_MS - wait_ms <= 0.0:
            limit = min(QUEUE_TIMEOUT_MS, QUERY_TIMEOUT_MS)
            error = QueryQueueTimeoutError(
                f"query waited {wait_ms:.0f}ms in the admission queue "
                f"(limit {limit:.0f}ms)"
            )
            self._metrics.record_failure(error)
            ticket.fail(error)
            return

        def run(session: Session) -> QueryResult:
            # The admission-to-completion budget is recomputed per run
            # so the corruption re-run is charged for the time spent.
            elapsed = (time.monotonic() - ticket.enqueued_at) * 1000.0
            remaining_ms = QUERY_TIMEOUT_MS - elapsed
            if remaining_ms <= 0.0:
                raise QueryTimeoutError(
                    f"query deadline ({QUERY_TIMEOUT_MS:.0f}ms) "
                    f"exhausted after {elapsed:.0f}ms"
                )
            return session.execute(ticket.sql, timeout_ms=remaining_ms)

        try:
            try:
                result = run(self._session)
            except DataCorruptionError:
                # The corrupt entry was evicted when detected; a second
                # one in the same plan would fail a cached re-run too.
                if self.plan_cache is None:
                    raise
                result = run(self._uncached())
                result.metrics.degradations.append("cache->nocache:DataCorruptionError")
        except BaseException as exc:  # noqa: BLE001 - delivered to the caller
            self._metrics.record_failure(exc)
            ticket.fail(exc)
            return
        result.metrics.queue_wait_ms = wait_ms
        latency_ms = (time.monotonic() - ticket.enqueued_at) * 1000.0
        self._metrics.record_success(latency_ms, result.metrics)
        ticket.resolve(result)
