"""Query execution metrics.

These are the paper's experimental axes:

* **wall time** — the latency axis of Figure 1;
* **bytes scanned** — the data-read axis of Figure 2 and the quantity
  Athena bills for;
* **peak operator state** — the memory-pressure proxy behind the §V.C
  observation that removing a duplicated common expression halves the
  intermediate state and avoids spilling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.storage.accounting import ScanAccounting


@dataclass(frozen=True)
class ResourceLimits:
    """Per-query execution budgets (None = unlimited).

    ``timeout_ms`` is the per-query deadline, enforced cooperatively at
    block boundaries.  ``max_spool_rows`` bounds the rows of any single
    plan-cache population;
    ``max_state_rows`` bounds total resident operator state (join build
    sides, aggregation hash tables, sorts, windows) — the stand-in for
    a per-query memory budget.
    """

    timeout_ms: float | None = None
    max_spool_rows: int | None = None
    max_state_rows: int | None = None

    def __post_init__(self) -> None:
        if self.timeout_ms is not None and self.timeout_ms < 0:
            raise ValueError("timeout_ms must be non-negative")
        if self.max_spool_rows is not None and self.max_spool_rows <= 0:
            raise ValueError("max_spool_rows must be positive")
        if self.max_state_rows is not None and self.max_state_rows <= 0:
            raise ValueError("max_state_rows must be positive")


#: The default: no deadline, no budgets.
NO_LIMITS = ResourceLimits()


@dataclass
class QueryMetrics:
    """Metrics for one query execution."""

    wall_time_s: float = 0.0
    #: Parse + bind + optimize, which ``wall_time_s`` (execution only)
    #: leaves out; their sum is the latency a ``Session.execute`` caller
    #: sees.  Zero for a plan executed without a session.
    planning_s: float = 0.0
    #: True when ``planning_s`` covered only the per-execution passes:
    #: the session's plan memo already held this SQL text's plan.
    plan_memo_hit: bool = False
    rows_output: int = 0
    peak_state_rows: int = 0
    #: Sum of all rows ever admitted to stateful operators.  In a
    #: distributed engine that evaluates union branches concurrently
    #: (the paper's §V.C memory discussion), this is the better proxy
    #: for resident state than the serial executor's peak.
    total_state_rows: int = 0
    #: Cross-query plan-cache activity (repro.engine.plan_cache):
    #: subplans replayed from cache, subplans materialized into it, the
    #: scan bytes those replays avoided, and the rows replayed.
    cache_hits: int = 0
    cache_populations: int = 0
    cache_bytes_saved: float = 0.0
    cache_replayed_rows: int = 0
    #: Fault-tolerance counters: transient read retries performed,
    #: faults the chaos injector delivered to this query, chunk/entry
    #: checksum verifications, and (when a deadline was configured) how
    #: much of it was left at the end of the query.
    retries: int = 0
    faults_injected: int = 0
    checksum_verifications: int = 0
    deadline_remaining_ms: float | None = None
    #: Always 0: the engine generates no code any more.  Kept because
    #: the benchmark ruler reads it (``engine.pipelines_compiled``).
    pipelines_compiled: int = 0
    #: Concurrent shared execution (DESIGN.md §14): subplans this query
    #: did *not* execute because a fingerprint-equal execution was
    #: already in flight — the query bound itself as a follower to the
    #: leader's single execution and replayed the fanned-out result.
    shared_hits: int = 0
    #: Populations of this query that had followers bound to them when
    #: they completed (the leader side of shared execution).
    shared_fanout: int = 0
    #: The query service's corruption re-run: one record
    #: ("cache->nocache:DataCorruptionError") when a corrupt plan-cache
    #: entry sent the query to the service's cache-less session.  Empty
    #: when the first run succeeded or the query ran outside the server.
    degradations: list[str] = field(default_factory=list)
    #: Milliseconds the query waited in the service admission queue
    #: before a worker thread picked it up (None outside the server).
    queue_wait_ms: float | None = None
    #: Per-operator cumulative wall time in seconds, keyed by a stable
    #: display label ("Scan(store_sales) #3", "Join #1").
    #: Populated only when profiling is enabled
    #: (``OptimizerConfig(profile=True)`` / ``--profile``); times are
    #: inclusive of child operators.
    operator_times: dict[str, float] = field(default_factory=dict)
    accounting: ScanAccounting = field(default_factory=ScanAccounting)

    @property
    def bytes_scanned(self) -> float:
        return self.accounting.bytes_scanned

    @property
    def rows_scanned(self) -> int:
        return self.accounting.rows_scanned

    @property
    def partitions_read(self) -> int:
        return self.accounting.partitions_read

    def summary(self) -> str:
        text = (
            f"wall={self.wall_time_s*1000:.1f}ms "
            f"plan={self.planning_s*1000:.1f}ms "
            f"{'plan_memo=hit ' if self.plan_memo_hit else ''}"
            f"bytes={self.bytes_scanned/1024:.1f}KiB "
            f"rows_scanned={self.rows_scanned} "
            f"partitions={self.partitions_read} "
            f"peak_state={self.peak_state_rows} "
            f"rows_out={self.rows_output}"
        )
        if self.cache_hits or self.cache_populations:
            text += (
                f" cache_hits={self.cache_hits}"
                f" cache_populations={self.cache_populations}"
                f" cache_saved={self.cache_bytes_saved/1024:.1f}KiB"
            )
        if self.retries or self.faults_injected:
            text += f" retries={self.retries} faults={self.faults_injected}"
        if self.deadline_remaining_ms is not None:
            text += f" deadline_left={self.deadline_remaining_ms:.0f}ms"
        if self.shared_hits or self.shared_fanout:
            text += (
                f" shared_hits={self.shared_hits}"
                f" shared_fanout={self.shared_fanout}"
            )
        if self.degradations:
            text += f" degradations={len(self.degradations)}"
        return text

    def profile_report(self) -> str:
        """The ``--profile`` breakdown: one line per operator, slowest
        first.  Times are cumulative (a parent includes its children),
        so they do not sum to the query total."""
        if not self.operator_times:
            return "(no profile recorded; enable profiling)"
        width = max(len(label) for label in self.operator_times)
        lines = ["operator wall times (cumulative, incl. children):"]
        ordered = sorted(
            self.operator_times.items(), key=lambda kv: kv[1], reverse=True
        )
        for label, seconds in ordered:
            lines.append(f"  {label:<{width}}  {seconds * 1000:9.3f}ms")
        return "\n".join(lines)


class Profiler:
    """Per-operator wall-time recorder for one query execution.

    Each engine wraps every operator's row/block iterator in
    :meth:`wrap`; the time spent inside ``next()`` (which includes the
    operator's whole upstream pipeline) accumulates under a stable
    label.  Re-executions of the same node (ScalarApply re-running its
    subquery) accumulate into the same label.
    """

    def __init__(self):
        self.records: dict[str, float] = {}
        self._labels: dict[int, str] = {}
        self._sequence = 0

    def label(self, plan) -> str:
        """A stable display label for one plan node instance, of the
        form "Name(table) #n"."""
        key = id(plan)
        label = self._labels.get(key)
        if label is None:
            text = plan.name
            table = getattr(plan, "table", None)
            if table is not None:
                text = f"{text}({table})"
            self._sequence += 1
            label = f"{text} #{self._sequence}"
            self._labels[key] = label
        return label

    def wrap(self, label: str, iterator):
        """Meter an iterator's production time under ``label``."""
        perf = time.perf_counter
        records = self.records

        def metered():
            total = 0.0
            it = iter(iterator)
            try:
                while True:
                    start = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        total += perf() - start
                        return
                    total += perf() - start
                    yield item
            finally:
                records[label] = records.get(label, 0.0) + total

        return metered()


class RunContext:
    """Shared state for one query execution.

    Holds the store, the scan accounting, the correlation environment
    for ScalarApply, and the live-state tracker used to compute peak
    operator memory (in resident rows).
    """

    def __init__(
        self,
        store,
        plan_cache=None,
        retry_policy=None,
        limits: ResourceLimits | None = None,
        clock=time.monotonic,
    ):
        self.store = store
        self.metrics = QueryMetrics()
        self.env: dict[int, object] = {}
        #: Compiled scan predicates, keyed by (id(plan), compiler).
        #: Plans outlive their RunContext, so identity keys are stable;
        #: caching here lets ScalarApply re-execute a subquery without
        #: recompiling its scan predicates on every outer row.
        self.scan_predicate_cache: dict[tuple, object] = {}
        #: The session's cross-query plan cache (None when disabled).
        self.plan_cache = plan_cache
        #: Whether the block engine's scans hand out NumPy vector
        #: columns (``execute_batch(vectors="numpy")``) or lists.
        self.vector_blocks = False
        #: ``id``s of the Scan nodes the block engine may hand out as
        #: runs of partition chunks: those with no early-terminating
        #: ancestor, which the plan drains whole (``execute_batch``).
        self.drained_scans: frozenset[int] = frozenset()
        #: Optional :class:`Profiler`; engines wrap operator iterators
        #: when set (``OptimizerConfig(profile=True)``).
        self.profiler: Profiler | None = None
        #: Gathered results of executed Exchange subtrees, keyed by
        #: ``exchange_id``: the parallel scheduler fills this before
        #: running the plan top, and the engines' Exchange operators
        #: replay the rows instead of re-executing the subtree.  Empty
        #: in serial execution, where Exchange is a pass-through.
        self.exchange_results: dict[int, list[tuple]] = {}
        #: Morsel restriction for partition-parallel fragment workers:
        #: ``(table_name, lo, hi)`` limits scans of that table to
        #: partitions with lo <= index < hi.  Skipped partitions are
        #: never charged to accounting (each morsel charges exactly its
        #: own window, so the merged totals equal a serial scan's).
        self.partition_window: tuple[str, int, int] | None = None
        #: Extra cooperative cancellation probe consulted by
        #: ``checkpoint()`` — the worker side of cross-process
        #: cancellation (a multiprocessing.Event's ``is_set``).
        self.cancel_check = None
        #: Accounting override stack: CachePopulate pushes a tee so the
        #: subplan's scans are metered (for ``saved_bytes``) while still
        #: charging the query; ``accounting`` is a property so scans
        #: that start inside the populate window see the override.
        self._accounting_overrides: list = []
        self._state_rows = 0
        #: Fault tolerance: retry policy for transient storage faults
        #: (None = no retrying) and per-query limits.  The deadline is
        #: fixed at context creation, i.e. when the query starts.
        self.retry_policy = retry_policy
        self.limits = limits if limits is not None else NO_LIMITS
        self.clock = clock
        self._deadline: float | None = None
        if self.limits.timeout_ms is not None:
            self._deadline = clock() + self.limits.timeout_ms / 1000.0
        self._cancelled = False

    def cancel(self) -> None:
        """Request cooperative cancellation; the query aborts with
        :class:`~repro.errors.QueryCancelledError` at the next block
        boundary."""
        self._cancelled = True

    def checkpoint(self) -> None:
        """Cooperative cancellation/deadline check, called at block
        boundaries (partition reads, block flattening, keyed
        operators).  Near-free when neither is configured."""
        if self._cancelled or (
            self.cancel_check is not None and self.cancel_check()
        ):
            raise QueryCancelledError(
                "query cancelled; partial results were discarded"
            )
        if self._deadline is not None and self.clock() > self._deadline:
            raise QueryTimeoutError(
                f"query exceeded its {self.limits.timeout_ms:.0f}ms deadline; "
                "raise timeout_ms (--timeout-ms) or reduce the data scanned"
            )

    @property
    def deadline_remaining_ms(self) -> float | None:
        """Milliseconds left before the deadline (None = no deadline)."""
        if self._deadline is None:
            return None
        return max(0.0, (self._deadline - self.clock()) * 1000.0)

    @property
    def accounting(self) -> ScanAccounting:
        if self._accounting_overrides:
            return self._accounting_overrides[-1]
        return self.metrics.accounting

    def push_accounting(self, accounting) -> None:
        self._accounting_overrides.append(accounting)

    def pop_accounting(self) -> None:
        self._accounting_overrides.pop()

    def state_add(self, rows: int) -> None:
        self._state_rows += rows
        self.metrics.total_state_rows += rows
        if self._state_rows > self.metrics.peak_state_rows:
            self.metrics.peak_state_rows = self._state_rows
        limit = self.limits.max_state_rows
        if limit is not None and self._state_rows > limit:
            raise ResourceExhaustedError(
                f"resident operator state of {self._state_rows} rows exceeds "
                f"max_state_rows={limit} (join build sides, aggregation hash "
                "tables, sorts and cache populations count); raise the budget "
                "or reduce the working set"
            )

    def state_remove(self, rows: int) -> None:
        self._state_rows -= rows


class Stopwatch:
    """Context manager measuring wall time into a QueryMetrics."""

    def __init__(self, metrics: QueryMetrics):
        self.metrics = metrics
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.metrics.wall_time_s = time.perf_counter() - self._start
