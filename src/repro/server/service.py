"""The concurrent multi-tenant query service (DESIGN.md §14).

:class:`QueryService` stacks the pieces of this package on top of
:class:`~repro.engine.session.Session`:

* ``submit`` passes the :class:`~repro.server.admission.AdmissionController`
  (or raises), then enqueues a ticket on a priority queue (tenant
  priority, FIFO within a class);
* dispatcher threads pop tickets, enforce the *queue-wait* deadline
  (:class:`~repro.errors.QueryQueueTimeoutError`) and charge the wait
  against the admission-to-completion deadline, then execute through
  the :class:`~repro.server.degrade.DegradationSupervisor`;
* one :class:`~repro.engine.session.Session` per degradation rung, all
  sharing the store, the plan cache (so cross-query reuse and
  leader/follower shared execution work across rungs and tenants), and
  the self-healing :class:`~repro.engine.parallel.WorkerPool`;
* a maintenance thread runs ``WorkerPool.health_check`` on a short
  period, so crashed or frozen workers are replaced even while the
  dispatchers are blocked inside queries.

The service is synchronous-friendly: ``execute`` is submit + wait, and
``metrics()`` returns a plain-dict snapshot (latency percentiles,
admission/breaker/pool counters, shared-execution totals) that the
benchmarks serialize directly.
"""

from __future__ import annotations

import itertools
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.engine.parallel import WorkerPool
from repro.engine.plan_cache import MIB, PlanCache
from repro.engine.session import QueryResult, Session
from repro.errors import QueryQueueTimeoutError, QueryTimeoutError, ReproError
from repro.optimizer.config import OptimizerConfig
from repro.server.admission import AdmissionController, TenantQuota
from repro.server.degrade import CircuitBreaker, DegradationSupervisor, Rung

#: Dispatcher queue-poll period (seconds): bounds shutdown latency.
_DISPATCH_POLL_S = 0.05

#: Latency reservoir size: percentiles are computed over the most
#: recent this-many completions, so a long-running service neither
#: grows without bound nor sorts an ever-larger list per snapshot.
_LATENCY_RESERVOIR = 4096


@dataclass
class ServiceConfig:
    """Tunables for :class:`QueryService`."""

    #: Base optimizer configuration; the top ladder rung runs exactly
    #: this, lower rungs are derived by
    #: :meth:`repro.server.degrade.Rung.config`.
    base: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(enable_plan_cache=True)
    )
    #: Dispatcher (query-executing) threads.
    dispatchers: int = 4
    #: Admission queue bound (global, across tenants).
    max_queue_depth: int = 64
    #: Longest a ticket may wait in the queue before it is dropped
    #: with :class:`~repro.errors.QueryQueueTimeoutError`.
    queue_timeout_ms: float = 10_000.0
    #: Admission-to-completion deadline per query (None = unlimited).
    #: Queue wait is charged against it, so a query that waited 2s of
    #: a 10s budget gets 8s of execution.
    query_timeout_ms: float | None = 60_000.0
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    #: Circuit-breaker shape shared by every rung.
    breaker_window_s: float = 30.0
    breaker_failure_threshold: float = 0.5
    breaker_min_samples: int = 5
    breaker_cooldown_s: float = 5.0
    #: Worker-pool health-check period (0 disables the thread).
    health_interval_s: float = 0.25
    #: Worker heartbeat silence tolerated before a worker is declared
    #: frozen and killed.
    heartbeat_timeout_s: float = 2.0


class QueryTicket:
    """Handle for one submitted query; resolves to a result or error."""

    __slots__ = (
        "sql",
        "tenant",
        "priority",
        "seq",
        "enqueued_at",
        "_done",
        "_result",
        "_error",
    )

    def __init__(self, sql: str, tenant: str, priority: int, seq: int):
        self.sql = sql
        self.tenant = tenant
        self.priority = priority
        self.seq = seq
        self.enqueued_at = time.monotonic()
        self._done = threading.Event()
        self._result: QueryResult | None = None
        self._error: BaseException | None = None

    def __lt__(self, other: "QueryTicket") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)

    def resolve(self, result: QueryResult) -> None:
        self._result = result
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

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
        #: One shared cross-query cache for every rung/session: shared
        #: execution and reuse work across tenants by design (results
        #: are keyed by plan fingerprint, not by who asked).
        self.plan_cache: PlanCache | None = None
        if base.enable_plan_cache:
            self.plan_cache = PlanCache(base.cache_budget_mb * MIB)
        #: One shared self-healing pool for every parallel rung.
        self.pool: WorkerPool | None = None
        if base.workers > 1:
            self.pool = WorkerPool(
                store,
                base.workers,
                heartbeat_timeout_s=self.config.heartbeat_timeout_s,
            )
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            default_quota=self.config.default_quota,
            quotas=self.config.quotas,
        )
        service_config = self.config

        def _breaker() -> CircuitBreaker:
            return CircuitBreaker(
                window_s=service_config.breaker_window_s,
                failure_threshold=service_config.breaker_failure_threshold,
                min_samples=service_config.breaker_min_samples,
                cooldown_s=service_config.breaker_cooldown_s,
            )

        self.supervisor = DegradationSupervisor(
            Rung(
                engine=base.engine,
                parallel=base.workers > 1,
                cache=base.enable_plan_cache,
            ),
            breaker_factory=_breaker,
        )
        self._sessions: dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        self._queue: queue_module.PriorityQueue = queue_module.PriorityQueue()
        self._seq = itertools.count()
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
        if self.pool is not None and self.config.health_interval_s > 0:
            thread = threading.Thread(
                target=self._maintenance_loop, name="repro-maintenance", daemon=True
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
            quota = self.admission.admit(tenant)  # raises on rejection
            ticket = QueryTicket(sql, tenant, quota.priority, next(self._seq))
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
        snap["breakers"] = self.supervisor.breaker_states()
        if self.pool is not None:
            snap["pool"] = {
                "respawns": self.pool.respawns,
                "rebuilds": self.pool.rebuilds,
                "hung_workers_killed": self.pool.hung_workers_killed,
                "workers": len(self.pool.worker_ids),
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

    def worker_pids(self) -> dict[int, int]:
        """Live fragment-worker pids (chaos tests kill these)."""
        return {} if self.pool is None else self.pool.worker_pids()

    def health_check(self) -> list[int]:
        """Run one pool health check now; returns replaced worker ids."""
        return [] if self.pool is None else self.pool.health_check()

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
        with self._sessions_lock:
            sessions, self._sessions = dict(self._sessions), {}
        for session in sessions.values():
            session.close()
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _session_for(self, rung: Rung) -> Session:
        with self._sessions_lock:
            session = self._sessions.get(rung.name)
            if session is None:
                session = Session(
                    self.store,
                    rung.config(self.config.base),
                    worker_pool=self.pool if rung.parallel else None,
                    plan_cache=self.plan_cache,
                )
                self._sessions[rung.name] = session
            return session

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
        config = self.config
        if wait_ms > config.queue_timeout_ms:
            error = QueryQueueTimeoutError(
                f"query waited {wait_ms:.0f}ms in the admission queue "
                f"(limit {config.queue_timeout_ms:.0f}ms)"
            )
            self._metrics.record_failure(error)
            ticket.fail(error)
            return
        if config.query_timeout_ms is not None:
            if config.query_timeout_ms - wait_ms <= 0.0:
                error = QueryQueueTimeoutError(
                    f"queue wait ({wait_ms:.0f}ms) consumed the whole "
                    f"query deadline ({config.query_timeout_ms:.0f}ms)"
                )
                self._metrics.record_failure(error)
                ticket.fail(error)
                return

        def run(rung: Rung, sql: str) -> QueryResult:
            # The admission-to-completion budget is recomputed per rung
            # so ladder retries are charged for the time already spent.
            remaining_ms: float | None = None
            if config.query_timeout_ms is not None:
                elapsed = (time.monotonic() - ticket.enqueued_at) * 1000.0
                remaining_ms = config.query_timeout_ms - elapsed
                if remaining_ms <= 0.0:
                    raise QueryTimeoutError(
                        f"query deadline ({config.query_timeout_ms:.0f}ms) "
                        f"exhausted after {elapsed:.0f}ms"
                    )
            return self._session_for(rung).execute(sql, timeout_ms=remaining_ms)

        try:
            result = self.supervisor.execute(run, ticket.sql)
        except BaseException as exc:  # noqa: BLE001 - delivered to the caller
            self._metrics.record_failure(exc)
            ticket.fail(exc)
            return
        result.metrics.queue_wait_ms = wait_ms
        latency_ms = (time.monotonic() - ticket.enqueued_at) * 1000.0
        self._metrics.record_success(latency_ms, result.metrics)
        ticket.resolve(result)

    def _maintenance_loop(self) -> None:
        interval = self.config.health_interval_s
        while not self._stop.wait(interval):
            pool = self.pool
            if pool is None:
                return
            try:
                pool.health_check()
            except Exception:  # pragma: no cover - keep the nurse alive
                pass
