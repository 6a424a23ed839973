"""Streaming plan execution.

Operators are Python generators pulling from their children — the
single-process analogue of Athena's streaming execution, in which
intermediate results flow producer→consumer without materialization.
The property the paper's motivation rests on holds here by
construction: a common subexpression that appears twice in a plan is
*executed* twice, re-scanning its inputs (and re-charging the scan
accounting).

Pipeline-breaking operators (hash join build sides, aggregation,
sort, window, mark-distinct) register their resident state with the
:class:`~repro.engine.metrics.RunContext` so peak memory pressure is
observable (the §V.C spilling discussion).
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Callable, Iterator

from repro.algebra.expressions import (
    TRUE,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    columns_in,
    conjuncts,
    make_and,
)
from repro.algebra.operators import (
    CachePopulate,
    CachedScan,
    EnforceSingleRow,
    Exchange,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    MarkDistinct,
    PlanNode,
    Project,
    Repartition,
    ScalarApply,
    Scan,
    Sort,
    Spool,
    UnionAll,
    Values,
    Window,
)
from repro.algebra.schema import Column
from repro.engine.evaluator import (
    Aggregator,
    canon_key,
    compile_expression,
    lower_aggregates,
)
from repro.engine.metrics import RunContext
from repro.engine.plan_cache import entry_checksum, entry_from_rows
from repro.errors import (
    DataCorruptionError,
    ExecutionError,
    ResourceExhaustedError,
)
from repro.storage.accounting import ScanAccounting, TeeAccounting
from repro.storage.columnar import ColumnChunk

Row = tuple


def execute(plan: PlanNode, ctx: RunContext) -> Iterator[Row]:
    """Execute ``plan``, yielding output rows.

    Each call produces a fresh execution (fresh operator state); the
    ScalarApply fallback relies on this to re-run its subquery per
    outer row.
    """
    rows = _dispatch_row(plan, ctx)
    profiler = ctx.profiler
    if profiler is not None:
        return profiler.wrap(profiler.label(plan), rows)
    return rows


def _dispatch_row(plan: PlanNode, ctx: RunContext) -> Iterator[Row]:
    if isinstance(plan, Scan):
        return _run_scan(plan, ctx)
    if isinstance(plan, Values):
        return iter(plan.rows)
    if isinstance(plan, Filter):
        return _run_filter(plan, ctx)
    if isinstance(plan, Project):
        return _run_project(plan, ctx)
    if isinstance(plan, Join):
        return _run_join(plan, ctx)
    if isinstance(plan, GroupBy):
        return _run_group_by(plan, ctx)
    if isinstance(plan, MarkDistinct):
        return _run_mark_distinct(plan, ctx)
    if isinstance(plan, Window):
        return _run_window(plan, ctx)
    if isinstance(plan, UnionAll):
        return _run_union_all(plan, ctx)
    if isinstance(plan, Sort):
        return _run_sort(plan, ctx)
    if isinstance(plan, Limit):
        return islice(execute(plan.child, ctx), plan.count)
    if isinstance(plan, EnforceSingleRow):
        return _run_enforce_single_row(plan, ctx)
    if isinstance(plan, ScalarApply):
        return _run_scalar_apply(plan, ctx)
    if isinstance(plan, Spool):
        return _run_spool(plan, ctx)
    if isinstance(plan, CachedScan):
        return _run_cached_scan(plan, ctx)
    if isinstance(plan, CachePopulate):
        return _run_cache_populate(plan, ctx)
    if isinstance(plan, Exchange):
        return _run_exchange(plan, ctx)
    if isinstance(plan, Repartition):
        # Bag-identity: placement only matters to the fragment
        # scheduler, which never routes a Repartition to an engine.
        return execute(plan.child, ctx)
    raise ExecutionError(f"no executor for operator {plan.name}")


def _run_exchange(plan: Exchange, ctx: RunContext) -> Iterator[Row]:
    """Replay gathered fragment results, or pass through serially.

    The parallel scheduler executes the subtree under each Exchange on
    the worker pool and deposits the gathered rows (in exact serial
    order) into ``ctx.exchange_results``; what remains of the plan then
    runs in-process and replays them here.  Without an entry — serial
    execution of a parallel-shaped plan — the node is the identity.
    """
    gathered = ctx.exchange_results.get(plan.exchange_id)
    if gathered is None:
        yield from execute(plan.child, ctx)
        return
    for row in gathered:
        yield row


def _check_spool_budget(ctx: RunContext, rows: int, what: str) -> None:
    """Enforce ``max_spool_rows`` on a materialized intermediate."""
    limit = ctx.limits.max_spool_rows
    if limit is not None and rows > limit:
        raise ResourceExhaustedError(
            f"{what} materialized {rows} rows, exceeding max_spool_rows="
            f"{limit}; raise the budget or make the subexpression more "
            "selective"
        )


def _run_spool(plan: "Spool", ctx: RunContext) -> Iterator[Row]:
    cache = ctx.spool_cache.get(plan.spool_id)
    if cache is None:
        ctx.checkpoint()
        cache = list(execute(plan.child, ctx))
        _check_spool_budget(ctx, len(cache), f"spool {plan.spool_id}")
        ctx.spool_cache[plan.spool_id] = cache
        # Materialized state stays resident for the rest of the query.
        ctx.state_add(len(cache))
        ctx.metrics.spooled_rows += len(cache)
    ctx.metrics.spool_read_rows += len(cache)
    return iter(cache)


# -- cross-query plan cache ----------------------------------------------


def _cached_entry(plan: CachedScan, ctx: RunContext):
    """Fetch (and meter) the entry behind a CachedScan.

    The optimizer only installs CachedScan after a pinned planning-time
    hit, so a missing cache or entry here means the plan is being
    executed outside the session that planned it.
    """
    cache = ctx.plan_cache
    if cache is None:
        raise ExecutionError("CachedScan requires the session's plan cache")
    entry = cache.replay(plan.fingerprint)
    if entry is None:
        raise ExecutionError(
            f"plan-cache entry {plan.fingerprint} disappeared before execution"
        )
    if entry.checksum is not None:
        # A corrupt replayed vector would poison every consumer of this
        # entry; verify before handing bytes out, evicting on mismatch.
        ctx.metrics.checksum_verifications += 1
        if entry_checksum(entry.columns) != entry.checksum:
            cache.evict(plan.fingerprint)
            raise DataCorruptionError(
                f"plan-cache entry {plan.fingerprint} failed checksum "
                "verification and was evicted; re-running the query will "
                "recompute it from storage"
            )
    ctx.metrics.cache_hits += 1
    ctx.metrics.cache_bytes_saved += entry.saved_bytes
    ctx.metrics.cache_replayed_rows += entry.row_count
    return entry


def _run_cached_scan(plan: CachedScan, ctx: RunContext) -> Iterator[Row]:
    entry = _cached_entry(plan, ctx)
    vectors = [entry.columns[token] for token in plan.column_tokens]
    if vectors:
        yield from zip(*vectors)
    else:
        yield from ((),) * entry.row_count


#: Upper bound (seconds) a follower waits for an in-flight leader
#: before giving up and executing the subplan itself — shared execution
#: degrades to independent execution, never to a hang.
_SHARED_WAIT_CAP_S = 30.0

#: Follower poll interval: bounds cancellation/deadline latency while
#: waiting on a leader.
_SHARED_POLL_S = 0.01


def _await_inflight(execution, ctx: RunContext):
    """Block (checkpoint-aware) until the leader publishes its entry.

    Returns the entry, or None when the leader failed or the wait
    capped out; cancellation and the query deadline abort the wait the
    same way they abort a scan.
    """
    cap_s = _SHARED_WAIT_CAP_S
    remaining = ctx.deadline_remaining_ms
    if remaining is not None:
        cap_s = min(cap_s, remaining / 1000.0)
    give_up_at = ctx.clock() + cap_s
    while True:
        if execution.ready.wait(_SHARED_POLL_S):
            return execution.entry
        ctx.checkpoint()
        if ctx.clock() > give_up_at:
            return None


def _replay_inflight_entry(plan: CachePopulate, ctx: RunContext, entry) -> list[Row]:
    """Materialize a follower's rows from the leader's published entry
    (token-keyed vectors, so alpha-equivalent consumers reconstruct
    their own column order)."""
    ctx.metrics.shared_hits += 1
    ctx.metrics.cache_bytes_saved += entry.saved_bytes
    ctx.metrics.cache_replayed_rows += entry.row_count
    vectors = [entry.columns[token] for token in plan.column_tokens]
    if vectors:
        return list(zip(*vectors))
    return [()] * entry.row_count


def _materialize_for_cache(plan: CachePopulate, ctx: RunContext, rows_of) -> list[Row]:
    """Drain the populate child with scan accounting teed into a local
    meter, admit the entry, and return the materialized rows.

    ``rows_of`` abstracts over the engines (row tuples either way).

    Concurrent shared execution: when another query is populating the
    same fingerprint *right now*, this query binds as a follower to
    that single execution and replays the fanned-out entry instead of
    re-scanning (zero bytes charged).  The leader publishes its entry
    to followers directly, even when the byte-budgeted cache refuses to
    admit it.
    """
    cache = ctx.plan_cache
    registry = getattr(cache, "inflight", None)
    execution = None
    if registry is not None:
        is_leader, execution = registry.claim(plan.fingerprint)
        if not is_leader:
            entry = _await_inflight(execution, ctx)
            # Fingerprints are semantic (version-free), so a leader
            # that planned before a reload_table can publish an entry
            # built against retired table versions — a follower planned
            # after the bump must not replay it.
            if (
                entry is not None
                and entry.table_versions == plan.table_versions
                and all(token in entry.columns for token in plan.column_tokens)
            ):
                return _replay_inflight_entry(plan, ctx, entry)
            # Leader failed or the wait capped out: execute locally,
            # unregistered (a late re-claim could livelock behind a
            # string of failing leaders).
            execution = None
    try:
        meter = ScanAccounting()
        ctx.push_accounting(TeeAccounting(ctx.accounting, meter))
        try:
            rows = rows_of()
        finally:
            ctx.pop_accounting()
        _check_spool_budget(ctx, len(rows), "plan-cache population")
        entry = entry_from_rows(plan, rows, meter.bytes_scanned)
        # Like a spool, the materialized result stays resident — but
        # only if it was actually admitted to the cache.
        ctx.state_add(len(rows))
        if cache.put(entry):
            ctx.metrics.cache_populations += 1
        else:
            ctx.state_remove(len(rows))
    except BaseException:
        if execution is not None:
            registry.fail(execution)
        raise
    if execution is not None:
        stale = getattr(cache, "is_stale", None)
        if stale is not None and stale(entry):
            # A concurrent invalidate_table fenced off this entry's
            # table versions while it was being materialized (put()
            # refused it as stale_rejected); fanning it out would serve
            # rows from the replaced table.  Fail the execution so
            # followers run against current data themselves.
            registry.fail(execution)
        elif registry.publish(execution, entry):
            ctx.metrics.shared_fanout += 1
    return rows


def _run_cache_populate(plan: CachePopulate, ctx: RunContext) -> Iterator[Row]:
    cache = ctx.plan_cache
    if cache is None or cache.has(plan.fingerprint):
        yield from execute(plan.child, ctx)
        return
    yield from _materialize_for_cache(
        plan, ctx, lambda: list(execute(plan.child, ctx))
    )


# -- scans ---------------------------------------------------------------

_NO_ROW = object()


def _partition_pruner(scan: Scan) -> Callable[[ColumnChunk], bool] | None:
    """Build a chunk-level min/max check from the scan predicate's
    conjuncts on the partition column.  Returns None when the predicate
    cannot prune."""
    if scan.predicate is None:
        return None
    checks: list[Callable[[ColumnChunk], bool]] = []
    by_cid = {col.cid: src for col, src in zip(scan.columns, scan.source_names)}

    def source_name(expr: Expression) -> str | None:
        if isinstance(expr, ColumnRef):
            return by_cid.get(expr.column.cid)
        return None

    for term in conjuncts(scan.predicate):
        if isinstance(term, IsNull):
            # IS NULL never prunes: chunk min/max are computed over
            # non-NULL values only, so a partition whose stats look
            # fully bounded can still contain NULLs.
            continue
        if isinstance(term, Comparison):
            left, right, op = term.left, term.right, term.op
            if isinstance(right, ColumnRef) and isinstance(left, Literal):
                term = term.commuted()
                left, right, op = term.left, term.right, term.op
            name = source_name(left)
            if name is None or not isinstance(right, Literal) or right.value is None:
                continue
            value = right.value
            checks.append(_range_check(name, op, value))
        elif isinstance(term, InList) and all(
            isinstance(i, Literal) for i in term.items
        ):
            name = source_name(term.operand)
            if name is None:
                continue
            values = [i.value for i in term.items if i.value is not None]
            checks.append(_in_check(name, values))
    if not checks:
        return None

    def prune(chunk: ColumnChunk) -> bool:
        if chunk.min_value is None or chunk.max_value is None:
            return True  # all-NULL or empty chunk: cannot prune safely
        return all(check(chunk) for check in checks)

    return prune


def _range_check(name: str, op: str, value: object) -> Callable[[ColumnChunk], bool]:
    def check(chunk: ColumnChunk) -> bool:
        if chunk.name.lower() != name.lower():
            return True
        low, high = chunk.min_value, chunk.max_value
        try:
            if op == "=":
                return low <= value <= high
            if op == "<":
                return low < value
            if op == "<=":
                return low <= value
            if op == ">":
                return high > value
            if op == ">=":
                return high >= value
        except TypeError:
            return True
        return True  # <> cannot prune on ranges

    return check


def _in_check(name: str, values: list[object]) -> Callable[[ColumnChunk], bool]:
    def check(chunk: ColumnChunk) -> bool:
        if chunk.name.lower() != name.lower():
            return True
        low, high = chunk.min_value, chunk.max_value
        try:
            return any(low <= v <= high for v in values)
        except TypeError:
            return True

    return check


def scan_predicate(plan: Scan, ctx: RunContext, compile=None) -> Callable:
    """Fetch (or compile and memoize) the scan's compiled predicate.

    ``compile`` is the expression compiler to use: the scalar
    ``compile_expression`` by default, the block compiler for the
    block engines.  Cached per :class:`RunContext`: within one
    execution the correlation environment is a single dict, so a Scan
    re-executed many times (ScalarApply re-runs its subquery per outer
    row) compiles its predicate once instead of once per run.
    """
    compile = compile or compile_expression
    key = (id(plan), compile)
    predicate = ctx.scan_predicate_cache.get(key)
    if predicate is None:
        predicate = compile(plan.predicate, plan.columns, ctx.env)
        ctx.scan_predicate_cache[key] = predicate
    return predicate


def _run_scan(plan: Scan, ctx: RunContext) -> Iterator[Row]:
    rows = ctx.store.scan(
        plan.table,
        plan.source_names,
        ctx.accounting,
        partition_predicate=_partition_pruner(plan),
        runtime=ctx,
    )
    if plan.predicate is None:
        yield from rows
        return
    # Compilation is deferred until the first row arrives: a scan whose
    # partitions were all pruned (or whose table is empty) never pays
    # for compiling its predicate.
    first = next(rows, _NO_ROW)
    if first is _NO_ROW:
        return
    predicate = scan_predicate(plan, ctx)
    if predicate(first) is True:
        yield first
    for row in rows:
        if predicate(row) is True:
            yield row


# -- row-at-a-time operators -----------------------------------------------


def _run_filter(plan: Filter, ctx: RunContext) -> Iterator[Row]:
    condition = compile_expression(plan.condition, plan.child.output_columns, ctx.env)
    for row in execute(plan.child, ctx):
        if condition(row) is True:
            yield row


def _run_project(plan: Project, ctx: RunContext) -> Iterator[Row]:
    child_columns = plan.child.output_columns
    indexes = {c.cid: i for i, c in enumerate(child_columns)}
    # Pass-through column references resolve to plain tuple indexes
    # (int slots); only computed expressions pay a closure call.
    slots: list = []
    for _, expr in plan.assignments:
        if isinstance(expr, ColumnRef) and expr.column.cid in indexes:
            slots.append(indexes[expr.column.cid])
        else:
            slots.append(compile_expression(expr, child_columns, ctx.env))
    if all(isinstance(s, int) for s in slots):
        if not slots:
            for _ in execute(plan.child, ctx):
                yield ()
            return
        getter = itemgetter(*slots)
        if len(slots) == 1:
            for row in execute(plan.child, ctx):
                yield (getter(row),)
        else:
            for row in execute(plan.child, ctx):
                yield getter(row)
        return
    for row in execute(plan.child, ctx):
        yield tuple(
            row[slot] if type(slot) is int else slot(row) for slot in slots
        )


# -- joins ---------------------------------------------------------------


def _split_join_condition(
    condition: Expression | None,
    left_columns: tuple[Column, ...],
    right_columns: tuple[Column, ...],
):
    """Split a join condition into hashable equi-pairs and a residual."""
    left_set = {c.cid for c in left_columns}
    right_set = {c.cid for c in right_columns}
    equi: list[tuple[Expression, Expression]] = []
    residual: list[Expression] = []
    for term in conjuncts(condition):
        if isinstance(term, Comparison) and term.op == "=":
            lcols = {c.cid for c in columns_in(term.left)}
            rcols = {c.cid for c in columns_in(term.right)}
            if lcols and rcols and lcols <= left_set and rcols <= right_set:
                equi.append((term.left, term.right))
                continue
            if lcols and rcols and lcols <= right_set and rcols <= left_set:
                equi.append((term.right, term.left))
                continue
        residual.append(term)
    return equi, make_and(residual) if residual else TRUE


def _run_join(plan: Join, ctx: RunContext) -> Iterator[Row]:
    left_columns = plan.left.output_columns
    right_columns = plan.right.output_columns

    if plan.kind is JoinKind.CROSS:
        right_rows = list(execute(plan.right, ctx))
        ctx.state_add(len(right_rows))
        try:
            for left_row in execute(plan.left, ctx):
                for right_row in right_rows:
                    yield left_row + right_row
        finally:
            ctx.state_remove(len(right_rows))
        return

    equi, residual = _split_join_condition(plan.condition, left_columns, right_columns)
    combined = left_columns + right_columns
    residual_fn = (
        None if residual == TRUE else compile_expression(residual, combined, ctx.env)
    )
    pad = (None,) * len(right_columns)
    semi_like = plan.kind in (JoinKind.SEMI, JoinKind.ANTI)

    if equi:
        left_keys = [compile_expression(l, left_columns, ctx.env) for l, _ in equi]
        right_keys = [compile_expression(r, right_columns, ctx.env) for _, r in equi]
        table: dict[tuple, list[Row]] = {}
        build_rows = 0
        for row in execute(plan.right, ctx):
            key = tuple(fn(row) for fn in right_keys)
            if any(k is None for k in key):
                continue  # NULL keys never join
            table.setdefault(key, []).append(row)
            build_rows += 1
        ctx.state_add(build_rows)
        try:
            for left_row in execute(plan.left, ctx):
                key = tuple(fn(left_row) for fn in left_keys)
                matched = False
                if not any(k is None for k in key):
                    for right_row in table.get(key, ()):
                        if residual_fn is None or residual_fn(left_row + right_row) is True:
                            matched = True
                            if plan.kind is JoinKind.SEMI:
                                break
                            if plan.kind in (JoinKind.INNER, JoinKind.LEFT):
                                yield left_row + right_row
                if semi_like:
                    if matched == (plan.kind is JoinKind.SEMI):
                        yield left_row
                elif plan.kind is JoinKind.LEFT and not matched:
                    yield left_row + pad
        finally:
            ctx.state_remove(build_rows)
        return

    # No hashable equi-conjuncts: nested loop against a materialized right.
    right_rows = list(execute(plan.right, ctx))
    ctx.state_add(len(right_rows))
    try:
        for left_row in execute(plan.left, ctx):
            matched = False
            for right_row in right_rows:
                if residual_fn is None or residual_fn(left_row + right_row) is True:
                    matched = True
                    if plan.kind is JoinKind.SEMI:
                        break
                    if plan.kind in (JoinKind.INNER, JoinKind.LEFT):
                        yield left_row + right_row
            if semi_like:
                if matched == (plan.kind is JoinKind.SEMI):
                    yield left_row
            elif plan.kind is JoinKind.LEFT and not matched:
                yield left_row + pad
    finally:
        ctx.state_remove(len(right_rows))


# -- aggregation -------------------------------------------------------------


def _run_group_by(plan: GroupBy, ctx: RunContext) -> Iterator[Row]:
    child_columns = plan.child.output_columns
    key_fns = [
        compile_expression(ColumnRef(k), child_columns, ctx.env) for k in plan.keys
    ]
    shared_fns, agg_specs = lower_aggregates(
        plan.aggregates, lambda e: compile_expression(e, child_columns, ctx.env)
    )

    groups: dict[tuple, list[Aggregator]] = {}
    group_count = 0
    try:
        for row in execute(plan.child, ctx):
            key = tuple(canon_key(fn(row)) for fn in key_fns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [Aggregator(f, d) for f, d, _, _ in agg_specs]
                groups[key] = accumulators
                group_count += 1
                ctx.state_add(1)
            values = [fn(row) for fn in shared_fns]
            for acc, (_, _, arg_slot, mask_slot) in zip(accumulators, agg_specs):
                if mask_slot is not None and values[mask_slot] is not True:
                    continue
                if arg_slot is None:
                    acc.add_count_star()
                else:
                    acc.add(values[arg_slot])
        if plan.is_scalar and not groups:
            # Global aggregation over empty input still yields one row.
            accumulators = [Aggregator(f, d) for f, d, _, _ in agg_specs]
            yield tuple(acc.result() for acc in accumulators)
            return
        for key, accumulators in groups.items():
            yield key + tuple(acc.result() for acc in accumulators)
    finally:
        ctx.state_remove(group_count)


def mark_distinct_chain(plan: MarkDistinct, ctx: RunContext, compile):
    """``(input, specs)`` of a whole MarkDistinct chain: the plan under
    the innermost marker and, innermost first (the output column
    order), each marker's ``(key positions, mask closure)`` — the mask
    compiled by ``compile`` against the input's schema plus the markers
    before it, None for TRUE."""
    chain: list[MarkDistinct] = [plan]
    cursor = plan.child
    while isinstance(cursor, MarkDistinct):
        chain.append(cursor)
        cursor = cursor.child
    chain.reverse()

    col_index = {c.cid: i for i, c in enumerate(cursor.output_columns)}
    specs: list[tuple[list[int], object]] = []
    schema = tuple(cursor.output_columns)
    for node in chain:
        try:
            indexes = [col_index[c.cid] for c in node.columns]
        except KeyError as exc:
            raise ExecutionError(
                f"MarkDistinct references unavailable column: {exc}"
            ) from None
        mask_fn = None if node.mask == TRUE else compile(node.mask, schema, ctx.env)
        specs.append((indexes, mask_fn))
        col_index[node.marker.cid] = len(schema)
        schema = schema + (node.marker,)
    return cursor, specs


def _run_mark_distinct(plan: MarkDistinct, ctx: RunContext) -> Iterator[Row]:
    """Executes a whole chain of MarkDistinct operators in one pass —
    the paper's §III.F mentions "processing a chain of MarkDistinct
    operators … holistically rather than one pair at a time"; here that
    means one tuple build per row instead of one per operator."""
    cursor, specs = mark_distinct_chain(plan, ctx, compile_expression)
    seen_sets: list[set] = [set() for _ in specs]
    added = 0
    try:
        for row in execute(cursor, ctx):
            extended = list(row)
            for (indexes, mask_fn), seen in zip(specs, seen_sets):
                if mask_fn is not None and mask_fn(extended) is not True:
                    extended.append(False)
                    continue
                key = tuple(canon_key(extended[i]) for i in indexes)
                if key in seen:
                    extended.append(False)
                else:
                    seen.add(key)
                    added += 1
                    ctx.state_add(1)
                    extended.append(True)
            yield tuple(extended)
    finally:
        ctx.state_remove(added)


def _run_window(plan: Window, ctx: RunContext) -> Iterator[Row]:
    child_columns = plan.child.output_columns
    part_indexes = [list(child_columns).index(c) for c in plan.partition_by]
    arg_fns = [
        None if f.argument is None else compile_expression(f.argument, child_columns, ctx.env)
        for f in plan.functions
    ]
    rows = list(execute(plan.child, ctx))
    ctx.state_add(len(rows))
    try:
        partitions: dict[tuple, list[Aggregator]] = {}
        for row in rows:
            key = tuple(canon_key(row[i]) for i in part_indexes)
            accumulators = partitions.get(key)
            if accumulators is None:
                accumulators = [Aggregator(f.func) for f in plan.functions]
                partitions[key] = accumulators
            for acc, arg_fn in zip(accumulators, arg_fns):
                if arg_fn is None:
                    acc.add_count_star()
                else:
                    acc.add(arg_fn(row))
        results = {
            key: tuple(acc.result() for acc in accumulators)
            for key, accumulators in partitions.items()
        }
        for row in rows:
            key = tuple(canon_key(row[i]) for i in part_indexes)
            yield row + results[key]
    finally:
        ctx.state_remove(len(rows))


# -- set operations, sorting, scalar plumbing -------------------------------


def _run_union_all(plan: UnionAll, ctx: RunContext) -> Iterator[Row]:
    for child, branch in zip(plan.inputs, plan.input_columns):
        child_columns = list(child.output_columns)
        indexes = [child_columns.index(c) for c in branch]
        for row in execute(child, ctx):
            yield tuple(row[i] for i in indexes)


def _run_sort(plan: Sort, ctx: RunContext) -> Iterator[Row]:
    rows = list(execute(plan.child, ctx))
    ctx.state_add(len(rows))
    try:
        child_columns = plan.child.output_columns
        for key in reversed(plan.keys):
            fn = compile_expression(key.expression, child_columns, ctx.env)

            def sort_key(row: Row, fn=fn) -> tuple:
                value = fn(row)
                # NULLs last ascending / first descending; the 1-tuple
                # trick avoids comparing None with None.
                return (1,) if value is None else (0, value)

            rows.sort(key=sort_key, reverse=not key.ascending)
        yield from rows
    finally:
        ctx.state_remove(len(rows))


def _run_enforce_single_row(plan: EnforceSingleRow, ctx: RunContext) -> Iterator[Row]:
    rows = list(islice(execute(plan.child, ctx), 2))
    if len(rows) > 1:
        raise ExecutionError("scalar subquery returned more than one row")
    if rows:
        yield rows[0]
    else:
        yield (None,) * len(plan.output_columns)


def _run_scalar_apply(plan: ScalarApply, ctx: RunContext) -> Iterator[Row]:
    input_columns = plan.input.output_columns
    value_index = list(plan.subquery.output_columns).index(plan.value)
    for row in execute(plan.input, ctx):
        for column, value in zip(input_columns, row):
            ctx.env[column.cid] = value
        sub_rows = list(islice(execute(plan.subquery, ctx), 2))
        if len(sub_rows) > 1:
            raise ExecutionError("correlated scalar subquery returned more than one row")
        value = sub_rows[0][value_index] if sub_rows else None
        yield row + (value,)
