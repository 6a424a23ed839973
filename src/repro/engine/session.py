"""Query sessions: the end-to-end entry point.

A :class:`Session` owns a data store, its catalog, and an optimizer
configuration, and runs SQL end to end — parse, bind, optimize,
execute — returning rows plus the execution metrics the benchmarks
report (wall time, bytes scanned, peak operator state).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.algebra.operators import PlanNode, Scan
from repro.algebra.printer import explain
from repro.algebra.visitors import collect
from repro.catalog.catalog import Catalog
from repro.engine.batch_executor import execute_batch
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
from repro.optimizer.context import OptimizerContext
from repro.optimizer.pipeline import split_pipeline
from repro.optimizer.rule import run_pipeline
from repro.sql.binder import Binder, BoundQuery
from repro.storage.columnar import Store
from repro.storage.faults import RetryPolicy

#: Entries of a session's plan memo; the least recently used goes first
#: beyond it.
PLAN_MEMO_SIZE = 256


@dataclass(frozen=True)
class _Planned:
    """One plan memo entry: a query planned up to its per-execution
    passes, and the catalog version of every table it scans."""

    bound: BoundQuery
    #: The plan just before ``CrossQueryReuse`` / ``ParallelPlan``.
    plan: PlanNode
    fired: tuple[str, ...]
    versions: tuple[tuple[str, int], ...]


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
        plan_memo: bool = True,
    ):
        self.store = store
        self.config = config if config is not None else OptimizerConfig()
        #: Fragment worker pool for ``workers > 1`` (DESIGN.md §13).
        #: Created lazily on the first parallel query unless the caller
        #: supplies a shared pool (e.g. the differential oracle, which
        #: amortizes one pool across many single-query sessions).
        self._pool = worker_pool
        self._pool_owned = worker_pool is None
        self._partition_counts: dict[str, int] | None = None
        # The retry policy and per-query limits are session-local.
        # Faults, read latency and checksum checks are the store's own
        # switches, which no session writes.
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
        #: The plan memo (DESIGN.md §8, "Plan memo"): SQL text -> its
        #: planned query, guarded by ``_state_lock``.  ``plan_memo=False``
        #: (the query service's sessions) plans every query afresh.
        self._memo: OrderedDict[str, _Planned] = OrderedDict()
        self._memo_size = PLAN_MEMO_SIZE if plan_memo else 0
        #: Cross-query subplan result cache (§ cross-query reuse);
        #: lives as long as the session, like Athena's per-workgroup
        #: result reuse window.  A caller-supplied cache (e.g. the
        #: query service sharing one cache across its sessions)
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
        context, memo hit)``.  A memoized plan skips everything but the
        per-execution passes.  The caller releases the cache pins the
        cache-aware pass may have taken, raised or not."""
        head, tail = split_pipeline(self.config)
        ctx = OptimizerContext(
            self.catalog,
            self.config,
            plan_cache=self.plan_cache,
            partition_counts=(
                self._partitions() if self.config.workers > 1 else None
            ),
        )
        with self._state_lock:
            planned = self._memo.get(sql)
            if planned is not None:
                self._memo.move_to_end(sql)
        hit = planned is not None and all(
            self.catalog.table_version(t) == v for t, v in planned.versions
        )
        if hit:
            ctx.fired.extend(planned.fired)
        else:
            # Versions are read before binding: a reload racing this
            # plan leaves an entry that can only miss.
            versions = {
                t.name.lower(): self.catalog.table_version(t.name)
                for t in self.catalog.tables()
            }
            # A fresh Binder per call: binding keeps per-query scratch
            # state on the instance, so concurrent binds must not share
            # it (the catalog and its column allocator are safe to share).
            bound = Binder(self.catalog).bind_sql(sql)
            tables = sorted({scan.table.lower() for scan in collect(bound.plan, Scan)})
            planned = _Planned(
                bound,
                run_pipeline(bound.plan, head, ctx),
                tuple(ctx.fired),
                tuple((t, versions.get(t, 0)) for t in tables),
            )
            if self._memo_size:
                with self._state_lock:
                    self._memo[sql] = planned
                    self._memo.move_to_end(sql)
                    if len(self._memo) > self._memo_size:
                        self._memo.popitem(last=False)
        return planned.bound, run_pipeline(planned.plan, tail, ctx), ctx, hit

    def plan(self, sql: str) -> tuple[PlanNode, tuple[str, ...]]:
        """Parse + bind + optimize; returns (plan, output names)."""
        try:
            bound, optimized, _, _ = self._bind_and_optimize(sql)
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
            bound, optimized, opt_ctx, memo_hit = self._bind_and_optimize(sql)
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
            run_ctx.metrics.plan_memo_hit = memo_hit
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
