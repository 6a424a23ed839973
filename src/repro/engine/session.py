"""Query sessions: the end-to-end entry point.

A :class:`Session` owns a data store, its catalog, and an optimizer
configuration, and runs SQL end to end — parse, bind, optimize,
execute — returning rows plus the execution metrics the benchmarks
report (wall time, bytes scanned, peak operator state).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace

from repro.algebra.operators import PlanNode
from repro.algebra.printer import explain
from repro.catalog.catalog import Catalog
from repro.engine.batch_executor import execute_batch
from repro.engine.compiled import execute_compiled
from repro.engine.executor import execute
from repro.engine.metrics import (
    Profiler,
    QueryMetrics,
    ResourceLimits,
    RunContext,
    Stopwatch,
)
from repro.engine.parallel import WorkerPool, execute_parallel
from repro.engine.plan_cache import MIB, PlanCache
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.pipeline import optimize
from repro.sql.binder import Binder
from repro.storage.columnar import Store
from repro.storage.faults import FaultInjector, RetryPolicy


@dataclass
class QueryResult:
    """Rows + schema + metrics for one executed query."""

    columns: tuple[str, ...]
    rows: list[tuple]
    metrics: QueryMetrics
    logical_plan: PlanNode
    optimized_plan: PlanNode
    fired_rules: list[str] = field(default_factory=list)

    def explain(self) -> str:
        return explain(self.optimized_plan)

    def sorted_rows(self) -> list[tuple]:
        """Rows in a canonical order, for result comparisons."""
        return sorted(self.rows, key=lambda r: tuple((v is None, str(v)) for v in r))


#: Serializes configuration writes to a *shared* store (fault-injector
#: install, strict-block / checksum / latency flags): sessions over the
#: same store may be constructed from concurrent server threads.
_STORE_CONFIG_LOCK = threading.Lock()


class Session:
    """A connection-like object bound to one store + configuration.

    Safe for concurrent use from multiple threads: each ``execute``
    gets its own :class:`RunContext`/metrics, the plan cache serializes
    internally, and ``cancel()`` aborts every in-flight query.  The
    fragment worker pool serializes parallel queries (fragments within
    one query still run concurrently).
    """

    def __init__(
        self,
        store: Store,
        config: OptimizerConfig | None = None,
        worker_pool: WorkerPool | None = None,
        plan_cache: PlanCache | None = None,
    ):
        self.store = store
        self.config = config if config is not None else OptimizerConfig()
        # Fault-tolerance wiring: chaos configuration installs a
        # deterministic injector on the (shared) store; the retry
        # policy and per-query limits are session-local.  Attributes on
        # the store are only touched when the config asks for it, so a
        # vanilla session never perturbs a store it shares.
        with _STORE_CONFIG_LOCK:
            if self.config.fault_rate > 0 and store.fault_injector is None:
                store.fault_injector = FaultInjector(
                    fault_rate=self.config.fault_rate, seed=self.config.fault_seed
                )
            if self.config.strict_blocks is not None:
                store.strict_blocks = self.config.strict_blocks
            if not self.config.verify_checksums:
                store.verify_checksums = False
            if self.config.io_latency_ms > 0:
                store.io_latency_ms = self.config.io_latency_ms
        #: Fragment worker pool for ``workers > 1`` (DESIGN.md §13).
        #: Created lazily on the first parallel query unless the caller
        #: supplies a shared pool (e.g. the differential oracle, which
        #: amortizes one pool across many single-query sessions).
        self._pool = worker_pool
        self._pool_owned = worker_pool is None
        self._partition_counts: dict[str, int] | None = None
        self._retry_policy = RetryPolicy(
            max_retries=self.config.max_retries,
            base_delay_ms=self.config.retry_base_delay_ms,
            seed=self.config.fault_seed,
        )
        self._limits = ResourceLimits(
            timeout_ms=self.config.timeout_ms,
            max_spool_rows=self.config.max_spool_rows,
            max_state_rows=self.config.max_state_rows,
        )
        #: In-flight query contexts (one per executing thread) plus the
        #: lock guarding them and the lazily-created pool/partitions.
        self._active_ctxs: set[RunContext] = set()
        self._state_lock = threading.Lock()
        self._cancel_pending = False
        self.catalog = Catalog()
        store.load_catalog(self.catalog)
        self._binder = Binder(self.catalog)
        #: Cross-query subplan result cache (§ cross-query reuse);
        #: lives as long as the session, like Athena's per-workgroup
        #: result reuse window.  A caller-supplied cache (e.g. the
        #: query service sharing one cache across its ladder sessions)
        #: is used as-is when the config enables caching.
        self.plan_cache: PlanCache | None = None
        if self.config.enable_plan_cache:
            if plan_cache is not None:
                self.plan_cache = plan_cache
            else:
                self.plan_cache = PlanCache(self.config.cache_budget_mb * MIB)

    # -- parallel execution plumbing ---------------------------------------

    def _partitions(self) -> dict[str, int]:
        """Stored partition counts for the ParallelPlan pass (cached;
        refreshed by reload_table)."""
        with self._state_lock:
            if self._partition_counts is None:
                self._partition_counts = {
                    table.name.lower(): self.store.partition_count(table.name)
                    for table in self.catalog.tables()
                    if self.store.has(table.name)
                }
            return self._partition_counts

    def _ensure_pool(self) -> WorkerPool:
        with self._state_lock:
            if self._pool is None:
                self._pool = WorkerPool(self.store, self.config.workers)
                self._pool_owned = True
            return self._pool

    def close(self) -> None:
        """Release session resources (the owned worker pool).  Shared
        pools passed into the constructor are left running — their
        owner closes them.  Idempotent."""
        with self._state_lock:
            pool, owned = self._pool, self._pool_owned
            self._pool = None
        if pool is not None and owned:
            pool.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _bind_and_optimize(self, sql: str):
        """Parse + bind + optimize: ``(bound, optimized, optimizer
        context)``.  The caller releases the cache pins the cache-aware
        pass may have taken, raised or not."""
        # A fresh Binder per call: binding keeps per-query scratch
        # state on the instance, so concurrent binds must not share it
        # (the catalog and its column allocator are safe to share).
        bound = Binder(self.catalog).bind_sql(sql)
        optimized, opt_ctx = optimize(
            bound.plan,
            self.catalog,
            self.config,
            plan_cache=self.plan_cache,
            partition_counts=(
                self._partitions() if self.config.workers > 1 else None
            ),
        )
        return bound, optimized, opt_ctx

    def plan(self, sql: str) -> tuple[PlanNode, tuple[str, ...]]:
        """Parse + bind + optimize; returns (plan, output names)."""
        try:
            bound, optimized, _ = self._bind_and_optimize(sql)
        finally:
            # plan() has no execution phase, so hits pinned during the
            # cache-aware pass must not outlive the call.
            if self.plan_cache is not None:
                self.plan_cache.release_pins()
        return optimized, bound.column_names

    def execute(self, sql: str, *, timeout_ms: float | None = None) -> QueryResult:
        """Run a SQL query end to end with the configured engine.

        ``timeout_ms`` overrides the session's configured deadline for
        this one query — the server uses it to charge queue wait
        against the same admission-to-completion deadline.
        """
        run_ctx: RunContext | None = None
        start = time.perf_counter()
        try:
            bound, optimized, opt_ctx = self._bind_and_optimize(sql)
            planning_s = time.perf_counter() - start
            limits = self._limits
            if timeout_ms is not None:
                limits = replace(limits, timeout_ms=timeout_ms)
            run_ctx = RunContext(
                self.store,
                plan_cache=self.plan_cache,
                retry_policy=self._retry_policy,
                limits=limits,
            )
            with self._state_lock:
                self._active_ctxs.add(run_ctx)
                cancel_now = self._cancel_pending
                self._cancel_pending = False
            run_ctx.metrics.planning_s = planning_s
            if cancel_now:
                run_ctx.cancel()
            if self.config.profile:
                run_ctx.profiler = Profiler()
            with Stopwatch(run_ctx.metrics):
                if self.config.workers > 1:
                    # Run every Exchange subtree on the worker pool
                    # first; the engine dispatch below then executes
                    # the plan top serially, replaying the gathered
                    # fragment results at each Exchange.
                    execute_parallel(
                        optimized, run_ctx, self.config, self._ensure_pool()
                    )
                if self.config.engine == "batch":
                    rows = list(
                        execute_batch(
                            optimized, run_ctx, block_rows=self.config.batch_rows
                        )
                    )
                elif self.config.engine == "compiled":
                    rows = list(
                        execute_compiled(
                            optimized,
                            run_ctx,
                            block_rows=self.config.batch_rows,
                            vectors=self.config.vectors,
                        )
                    )
                else:
                    rows = list(execute(optimized, run_ctx))
            if run_ctx.profiler is not None:
                run_ctx.metrics.operator_times = dict(run_ctx.profiler.records)
            if self.store.strict_blocks == "verify":
                # Strict mode: any operator that mutated a handed-out
                # block vector in place corrupted stored data — fail
                # the query rather than poison later ones.
                self.store.verify_integrity()
        finally:
            if run_ctx is not None:
                with self._state_lock:
                    self._active_ctxs.discard(run_ctx)
            # Entries pinned at planning time stay safe from eviction
            # for exactly the execution of this query.  Pins are
            # per-thread, so this releases only this query's pins.
            if self.plan_cache is not None:
                self.plan_cache.release_pins()
        run_ctx.metrics.deadline_remaining_ms = run_ctx.deadline_remaining_ms
        run_ctx.metrics.rows_output = len(rows)
        return QueryResult(
            bound.column_names,
            rows,
            run_ctx.metrics,
            bound.plan,
            optimized,
            list(opt_ctx.fired),
        )

    def cancel(self) -> None:
        """Cooperatively cancel every in-flight query; each aborts with
        :class:`~repro.errors.QueryCancelledError` at the next block
        boundary.  With no query in flight, the *next* ``execute`` is
        cancelled immediately (so single-threaded callers and tests can
        exercise the path deterministically)."""
        with self._state_lock:
            active = list(self._active_ctxs)
            if not active:
                self._cancel_pending = True
        for ctx in active:
            ctx.cancel()

    def reload_table(self, name: str) -> None:
        """Pick up replaced data for ``name`` (after ``store.put``).

        Re-registers the table (bumping its catalog version) and
        eagerly evicts every cached cross-query result whose lineage
        includes it.
        """
        self.store.register_table(name, self.catalog)
        if self.plan_cache is not None:
            # The new catalog version fences concurrent populations:
            # a put racing this invalidation cannot resurrect an entry
            # built against the replaced data.
            self.plan_cache.invalidate_table(
                name, min_version=self.catalog.table_version(name)
            )
        # Fragment workers hold a fork-time copy of the store, and the
        # cached partition counts may be stale: drop both (a new owned
        # pool forks lazily on the next parallel query; a shared pool
        # is merely disowned — its owner is responsible for it).
        with self._state_lock:
            self._partition_counts = None
            pool, owned = self._pool, self._pool_owned
            self._pool = None
            self._pool_owned = True
        if pool is not None and owned:
            pool.close()

    def explain(self, sql: str) -> str:
        plan, _ = self.plan(sql)
        return explain(plan)
