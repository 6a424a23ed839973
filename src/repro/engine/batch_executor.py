"""Vectorized (batch) plan execution.

The second execution backend: operators stream **row blocks** instead
of single rows.  A block is ``(cols, n)`` — one Python list per output
column plus a row count — produced at the scan directly from the
storage layer's column chunks (no per-row tuple construction before
the filter) and carried through Filter/Project/UnionAll in columnar
form.  Expressions evaluate through the block compiler,
:func:`repro.engine.vectors.compile_expression_block`, which over list
columns runs one list comprehension per expression node per block,
amortizing the interpreter's per-row closure overhead that dominates
the row engine.

Joins work on **positions**, not tuples (:func:`_run_join`): the build
side is buffered once as columns, every join kind is an iteration over
``(probe lane, build position)`` index pairs in probe order, the
residual is a block closure evaluated per slice of candidate pairs over
just the columns it reads, and only surviving pairs gather output
columns.  Scalar aggregation feeds whole column vectors to its
accumulators.  Keyed GroupBy, MarkDistinct, Window and Sort keep their
state on positions too: they are callers of the one keyed core
(:mod:`repro.engine.keyed` — factorize key columns to group codes,
reduce every aggregate per code, gather back) and emit column blocks.
Only ScalarApply, EnforceSingleRow and the row-tuple caches of Spool /
CachePopulate still convert blocks to row tuples.

Equivalence contract (enforced by ``tests/test_engine_ab.py``): for
any plan both engines produce the same result multiset and identical
``bytes_scanned`` / ``rows_scanned`` / ``partitions_read`` /
``spooled_rows`` / ``spool_read_rows``.  Only wall time and internal
block bookkeeping (and, under early termination, the exact state-row
counts of partially drained operators) may differ.  Two
invariants make the metric half of this hold by construction:

* scans charge accounting per partition chunk (shared
  :meth:`~repro.storage.columnar.Store.scan_blocks` path), and blocks
  never span a partition boundary — so early termination (Limit,
  EnforceSingleRow) can over-read at most the tail of a block that
  lies in an already-charged partition;
* buffered operators flush their output at every input-block boundary
  instead of accumulating across blocks, so they never pull more input
  blocks than needed to satisfy downstream demand.

Blocks are immutable by convention: operators may pass column vectors
through by reference (Project/UnionAll are zero-copy for pass-through
columns) but never mutate one in place.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterator

from repro.algebra.expressions import TRUE, ColumnRef, columns_in
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
from repro.engine.evaluator import Aggregator, lower_aggregates
from repro.engine.executor import (
    _cached_entry,
    _check_spool_budget,
    _materialize_for_cache,
    _partition_pruner,
    _split_join_condition,
    mark_distinct_chain,
    scan_predicate,
)
from repro.engine.keyed import (
    GroupState,
    block_slices,
    buffer_blocks,
    mark_first,
    sort_positions,
)
from repro.engine.metrics import RunContext
from repro.engine.vectors import (
    accumulate_block,
    compact_block,
    compile_expression_block,
    take_rows,
)
from repro.errors import ExecutionError

#: Default rows per block — large enough to amortize per-block costs,
#: small enough to keep resident intermediates bounded.
DEFAULT_BLOCK_ROWS = 1024

Row = tuple
#: A block: (column vectors, row count).  Zero-column blocks carry
#: their row count explicitly.
Block = tuple[list, int]


def execute_batch(
    plan: PlanNode, ctx: RunContext, block_rows: int = DEFAULT_BLOCK_ROWS
) -> Iterator[Row]:
    """Execute ``plan`` with the batch engine, yielding output rows."""
    return _iter_rows(plan, ctx, block_rows)


def execute_blocks(
    plan: PlanNode, ctx: RunContext, block_rows: int = DEFAULT_BLOCK_ROWS
) -> Iterator[Block]:
    """Execute ``plan``, yielding output blocks.

    Like the row engine's ``execute``, each call produces a fresh
    execution; ScalarApply relies on this to re-run its subquery.

    This is the engine's single recursion point: when the context
    carries a ``block_dispatch`` override (installed by the compiled
    engine under ``vectors="numpy"``), every operator's child fetch
    routes through it, so whole subtrees run over vector blocks —
    including subtrees under operators that themselves take lists.
    """
    dispatch = ctx.block_dispatch
    if dispatch is not None:
        return dispatch(plan, ctx, block_rows)
    blocks = dispatch_blocks_batch(plan, ctx, block_rows)
    profiler = ctx.profiler
    if profiler is not None:
        return profiler.wrap(profiler.label(plan), blocks)
    return blocks


def dispatch_blocks_batch(
    plan: PlanNode, ctx: RunContext, block_rows: int
) -> Iterator[Block]:
    """The batch operator table (no dispatch override applied)."""
    operator = BLOCK_OPERATORS.get(type(plan))
    if operator is None:
        raise ExecutionError(f"no batch executor for operator {plan.name}")
    return operator(plan, ctx, block_rows)


def _run_values(plan: Values, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    return _blocks_from_row_list(list(plan.rows), len(plan.columns), block_rows)


def _run_repartition(
    plan: Repartition, ctx: RunContext, block_rows: int
) -> Iterator[Block]:
    # Bag-identity: the fragment scheduler consumes Repartition before
    # the plan reaches an engine; serially it passes through.
    return execute_blocks(plan.child, ctx, block_rows)


def _run_exchange(
    plan: Exchange, ctx: RunContext, block_rows: int
) -> Iterator[Block]:
    """Replay gathered fragment rows as blocks, or pass through.

    See the row engine's ``_run_exchange``: the parallel scheduler
    deposits gathered rows (already in exact serial order) into
    ``ctx.exchange_results`` keyed by exchange id; absent an entry the
    node is the identity.
    """
    gathered = ctx.exchange_results.get(plan.exchange_id)
    if gathered is None:
        return execute_blocks(plan.child, ctx, block_rows)
    return _blocks_from_row_list(
        list(gathered), len(plan.output_columns), block_rows
    )


# -- block plumbing ------------------------------------------------------


def _iter_rows(plan: PlanNode, ctx: RunContext, block_rows: int) -> Iterator[Row]:
    """Flatten a block stream into row tuples (one zip per block).

    Also a cooperative cancellation/deadline point: the result and
    every row-tuple consumer (Spool, CachePopulate, ScalarApply,
    EnforceSingleRow) funnel through here, so checking once per block
    bounds how far past a deadline any pipeline can run.
    """
    for cols, n in execute_blocks(plan, ctx, block_rows):
        ctx.checkpoint()
        if cols:
            yield from zip(*cols)
        else:
            yield from (() for _ in range(n))


def _rows_block(rows: list[Row], width: int) -> Block:
    """Build one block from a non-empty list of row tuples."""
    if width:
        return [list(c) for c in zip(*rows)], len(rows)
    return [], len(rows)


def _blocks_from_row_list(
    rows: list[Row], width: int, block_rows: int
) -> Iterator[Block]:
    for start in range(0, len(rows), block_rows):
        yield _rows_block(rows[start : start + block_rows], width)


# -- scans ---------------------------------------------------------------


def _run_scan(plan: Scan, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    blocks = ctx.store.scan_blocks(
        plan.table,
        plan.source_names,
        ctx.accounting,
        partition_predicate=_partition_pruner(plan),
        block_rows=block_rows,
        runtime=ctx,
        as_vectors=ctx.vector_blocks,
    )
    if plan.predicate is None:
        yield from blocks
        return
    predicate = None
    for cols, n in blocks:
        if predicate is None:
            # Deferred like the row engine: a fully pruned scan never
            # compiles, and re-executions share the per-run cache.
            predicate = scan_predicate(plan, ctx, compile_expression_block)
        out_cols, out_n = compact_block(cols, n, predicate(cols, n))
        if out_n:
            yield out_cols, out_n


# -- stateless block operators -------------------------------------------
#
# Representation-polymorphic, so the compiled engine runs these very
# functions: ``fetch`` produces the child's block stream (there:
# undelisted vector blocks).


def _run_filter(
    plan: Filter, ctx: RunContext, block_rows: int, fetch=execute_blocks
) -> Iterator[Block]:
    condition = compile_expression_block(
        plan.condition, plan.child.output_columns, ctx.env
    )
    for cols, n in fetch(plan.child, ctx, block_rows):
        out_cols, out_n = compact_block(cols, n, condition(cols, n))
        if out_n:
            yield out_cols, out_n


def _run_project(
    plan: Project, ctx: RunContext, block_rows: int, fetch=execute_blocks
) -> Iterator[Block]:
    child_columns = plan.child.output_columns
    indexes = {c.cid: i for i, c in enumerate(child_columns)}
    # Pass-through column references copy the vector reference (free);
    # only computed expressions evaluate.
    slots: list = []
    for _, expr in plan.assignments:
        if isinstance(expr, ColumnRef) and expr.column.cid in indexes:
            slots.append(indexes[expr.column.cid])
        else:
            slots.append(compile_expression_block(expr, child_columns, ctx.env))
    for cols, n in fetch(plan.child, ctx, block_rows):
        yield [cols[s] if type(s) is int else s(cols, n) for s in slots], n


def _run_union_all(
    plan: UnionAll, ctx: RunContext, block_rows: int, fetch=execute_blocks
) -> Iterator[Block]:
    for child, branch in zip(plan.inputs, plan.input_columns):
        child_columns = list(child.output_columns)
        indexes = [child_columns.index(c) for c in branch]
        for cols, n in fetch(child, ctx, block_rows):
            yield [cols[i] for i in indexes], n


def _run_limit(
    plan: Limit, ctx: RunContext, block_rows: int, fetch=execute_blocks
) -> Iterator[Block]:
    remaining = plan.count
    if remaining <= 0:
        return
    for cols, n in fetch(plan.child, ctx, block_rows):
        if n >= remaining:
            if n > remaining:
                cols = [c[:remaining] for c in cols]
                n = remaining
            yield cols, n
            return
        remaining -= n
        yield cols, n


# -- joins ---------------------------------------------------------------


#: Most candidate (probe, build) pairs expanded at once, in this join
#: and in the compiled engine's array join.  A skewed key would
#: otherwise materialize |probe block| x |build| index pairs; with the
#: bound, every index list of a join (and every block it yields) stays
#: under this many lanes plus one probe block.
_JOIN_PAIR_SLICE = 1 << 16


def _run_join(plan: Join, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    """Every join kind as an iteration over ``(probe lane, build
    position)`` pairs; columns are gathered only for pairs that survive.

    The build side is buffered once as columns.  Equi joins map each
    key tuple to its build positions (a dict: hash equality, build
    insertion order); CROSS and joins without an equi conjunct pair
    every probe lane with every build row.  Pairs leave in probe order
    — the row engine's emission order — a slice of at most
    ``min(_JOIN_PAIR_SLICE, block_rows)`` at a time; the residual runs
    once per slice over a gather of just the columns it reads.
    """
    left_columns = plan.left.output_columns
    right_columns = plan.right.output_columns
    kind = plan.kind
    equi, residual = [], TRUE
    if kind is not JoinKind.CROSS:
        equi, residual = _split_join_condition(
            plan.condition, left_columns, right_columns
        )
    left_keys = [compile_expression_block(l, left_columns, ctx.env) for l, _ in equi]
    right_keys = [compile_expression_block(r, right_columns, ctx.env) for _, r in equi]
    used_left, used_right, residual_fn = _narrow_residual(
        residual, left_columns, right_columns, ctx.env
    )

    build_cols: list[list] = [[] for _ in right_columns]
    table: dict[tuple, list[int]] = defaultdict(list)
    total = 0
    for cols, n in execute_blocks(plan.right, ctx, block_rows):
        ctx.checkpoint()
        if equi:
            keys = list(zip(*[fn(cols, n) for fn in right_keys]))
            keep = [i for i, key in enumerate(keys) if None not in key]
            if len(keep) < n:  # NULL keys never join (nor count as state)
                cols, n = take_rows(cols, keep), len(keep)
                keys = [keys[i] for i in keep]
            for position, key in enumerate(keys, total):
                table[key].append(position)
        for segment, c in zip(build_cols, cols):
            segment.extend(c)
        total += n
    every_row = range(total)
    if kind is JoinKind.LEFT:
        build_cols = [c + [None] for c in build_cols]  # the pad row, at ``total``
    checked_build = [build_cols[i] for i in used_right]
    semi_like = kind in (JoinKind.SEMI, JoinKind.ANTI)
    # Over lists a slice longer than a block amortizes nothing more, and
    # a slice is what the join (and whoever takes its blocks) holds.
    bound = min(_JOIN_PAIR_SLICE, block_rows)

    ctx.state_add(total)
    try:
        for cols, n in execute_blocks(plan.left, ctx, block_rows):
            # Per lane, its candidate build positions (None: no match).
            if equi:
                matches = list(map(table.get, zip(*[fn(cols, n) for fn in left_keys])))
            else:
                matches = [every_row] * n
            if semi_like and residual_fn is None:
                hit = {i for i, m in enumerate(matches) if m}
            else:
                hit = set()
                done = 0  # lanes below have emitted their match or their pad
                checked = [cols[i] for i in used_left]
                for lanes, bidx, complete in _matching_pairs(
                    ctx, matches, bound, residual_fn, checked, checked_build
                ):
                    if kind is not JoinKind.INNER:
                        hit.update(lanes)
                    if semi_like:
                        continue
                    if kind is JoinKind.LEFT:
                        miss = [i for i in range(done, complete) if i not in hit]
                        done = complete
                        if miss:  # padded, and merged back in probe order
                            merged = sorted(
                                zip(lanes + miss, bidx + [total] * len(miss)),
                                key=itemgetter(0),
                            )
                            lanes = [i for i, _ in merged]
                            bidx = [j for _, j in merged]
                    if lanes:
                        out = take_rows(cols, lanes) + take_rows(build_cols, bidx)
                        yield out, len(lanes)
            if semi_like:
                wanted = kind is JoinKind.SEMI
                mask = [(i in hit) is wanted for i in range(n)]
                out_cols, out_n = compact_block(cols, n, mask)
                if out_n:
                    yield out_cols, out_n
    finally:
        ctx.state_remove(total)


def _narrow_residual(residual, left_columns, right_columns, env):
    """``(left positions, right positions, closure)`` for a join
    residual: compiled against just the columns it reads — those of the
    left side, then those of the right — so candidate pairs gather
    these and nothing else before they are filtered.  The closure is
    None for TRUE."""
    cids = {c.cid for c in columns_in(residual)}
    used_left = [i for i, c in enumerate(left_columns) if c.cid in cids]
    used_right = [i for i, c in enumerate(right_columns) if c.cid in cids]
    if residual == TRUE:
        return used_left, used_right, None
    narrow = [left_columns[i] for i in used_left]
    narrow += [right_columns[i] for i in used_right]
    return used_left, used_right, compile_expression_block(residual, narrow, env)


def _matching_pairs(ctx, matches, bound, residual_fn, probe_cols, build_cols):
    """One probe block's matching ``(probe lanes, build positions,
    lanes complete)`` in probe order, a slice of at most ``bound``
    candidate pairs at a time.  A slice may end inside one lane's
    matches; every lane below ``lanes complete`` has all its pairs
    behind it.  The residual filters each slice over a gather of the
    columns it reads — once per slice, not per pair."""
    found = [i for i, m in enumerate(matches) if m]
    buckets = [matches[i] for i in found]
    # Two lock-step iterators over the candidate pairs.
    lane_of = chain.from_iterable(map(repeat, found, map(len, buckets)))
    build_of = chain.from_iterable(buckets)
    last = False
    while not last:
        ctx.checkpoint()
        lanes = list(islice(lane_of, bound))
        bidx = list(islice(build_of, bound))
        last = len(lanes) < bound
        complete = len(matches) if last else lanes[-1]
        if residual_fn is not None and lanes:
            pairs = take_rows(probe_cols, lanes) + take_rows(build_cols, bidx)
            mask = residual_fn(pairs, len(lanes))
            keep = [k for k, v in enumerate(mask) if v is True]
            if len(keep) < len(lanes):
                lanes = [lanes[k] for k in keep]
                bidx = [bidx[k] for k in keep]
        yield lanes, bidx, complete


# -- keyed state ---------------------------------------------------------
#
# GroupBy, MarkDistinct, Window and Sort are callers of the one keyed
# core (:mod:`repro.engine.keyed`) and emit column blocks.  ``fetch``
# produces the child's block stream; the compiled engine substitutes
# its own (vector columns; one buffered block where the operator would
# otherwise stream).


def _run_group_by(
    plan: GroupBy, ctx: RunContext, block_rows: int, fetch=execute_blocks
) -> Iterator[Block]:
    """Scalar and keyed aggregation."""
    child_columns = plan.child.output_columns
    key_fns = [
        compile_expression_block(ColumnRef(k), child_columns, ctx.env)
        for k in plan.keys
    ]
    shared_fns, agg_specs = lower_aggregates(
        plan.aggregates,
        lambda e: compile_expression_block(e, child_columns, ctx.env),
    )

    group_count = 0
    try:
        if plan.keys:
            state = GroupState(agg_specs)
            for cols, n in fetch(plan.child, ctx, block_rows):
                ctx.checkpoint()
                keys = [fn(cols, n) for fn in key_fns]
                _, fresh = state.update(keys, [fn(cols, n) for fn in shared_fns], n)
                group_count += fresh
                ctx.state_add(fresh)
            yield from block_slices(state.columns(), state.size, block_rows)
            return
        # Scalar aggregation: one accumulator set fed whole column
        # vectors at a time — no per-row dispatch at all.  Over empty
        # input it still yields one row (and holds no state).
        accumulators = [Aggregator(f, d) for f, d, _, _ in agg_specs]
        for cols, n in fetch(plan.child, ctx, block_rows):
            if not group_count:
                group_count = 1
                ctx.state_add(1)
            values = [fn(cols, n) for fn in shared_fns]
            for acc, (_, _, arg_slot, mask_slot) in zip(accumulators, agg_specs):
                accumulate_block(
                    acc,
                    None if arg_slot is None else values[arg_slot],
                    None if mask_slot is None else values[mask_slot],
                    n,
                )
        yield [[acc.result()] for acc in accumulators], 1
    finally:
        ctx.state_remove(group_count)


def _run_mark_distinct(
    plan: MarkDistinct, ctx: RunContext, block_rows: int, fetch=execute_blocks
) -> Iterator[Block]:
    """Whole-chain MarkDistinct, mirroring the row engine's holistic
    single-pass treatment, block by block: each marker is the first
    position per key among the lanes its mask keeps."""
    cursor, specs = mark_distinct_chain(plan, ctx, compile_expression_block)
    seen: list[dict] = [{} for _ in specs]
    added = 0
    try:
        for cols, n in fetch(cursor, ctx, block_rows):
            ctx.checkpoint()
            cols = list(cols)
            for (indexes, mask_fn), index in zip(specs, seen):
                mask = None if mask_fn is None else mask_fn(cols, n)
                marker, fresh = mark_first([cols[i] for i in indexes], n, mask, index)
                added += fresh
                ctx.state_add(fresh)
                cols.append(marker)
            yield from block_slices(cols, n, block_rows)
    finally:
        ctx.state_remove(added)


def _run_window(
    plan: Window, ctx: RunContext, block_rows: int, fetch=execute_blocks
) -> Iterator[Block]:
    """Reduce per partition code, then gather back by code."""
    columns = plan.child.output_columns

    def compile(expr):
        return compile_expression_block(expr, columns, ctx.env)

    key_fns = [compile(ColumnRef(c)) for c in plan.partition_by]
    slot_fns, specs = lower_aggregates(plan.functions, compile)

    def windowed(cols, total):
        state = GroupState(specs)
        keys = [fn(cols, total) for fn in key_fns]
        codes, _ = state.update(keys, [fn(cols, total) for fn in slot_fns], total)
        return cols + take_rows(state.columns()[len(keys) :], codes)

    return _over_buffered_input(plan, ctx, block_rows, fetch, windowed)


def _run_sort(
    plan: Sort, ctx: RunContext, block_rows: int, fetch=execute_blocks
) -> Iterator[Block]:
    """A stable argsort over the key columns, then one gather."""
    columns = plan.child.output_columns
    key_fns = [
        (compile_expression_block(k.expression, columns, ctx.env), k.ascending)
        for k in plan.keys
    ]

    def ordered(cols, total):
        keys = [(fn(cols, total), ascending) for fn, ascending in key_fns]
        return take_rows(cols, sort_positions(keys, total))

    return _over_buffered_input(plan, ctx, block_rows, fetch, ordered)


def _over_buffered_input(plan, ctx, block_rows: int, fetch, transform):
    """Window and Sort: the whole input held as one block, and counted
    as state, while ``transform(cols, rows)`` makes the output columns."""
    width = len(plan.child.output_columns)
    cols, total = buffer_blocks(fetch(plan.child, ctx, block_rows), width, ctx)
    ctx.state_add(total)
    try:
        yield from block_slices(transform(cols, total), total, block_rows)
    finally:
        ctx.state_remove(total)


# -- scalar plumbing, spools ---------------------------------------------


def _run_enforce_single_row(
    plan: EnforceSingleRow, ctx: RunContext, block_rows: int
) -> Iterator[Block]:
    width = len(plan.output_columns)
    rows = list(islice(_iter_rows(plan.child, ctx, block_rows), 2))
    if len(rows) > 1:
        raise ExecutionError("scalar subquery returned more than one row")
    if rows:
        yield _rows_block(rows, width)
    else:
        yield _rows_block([(None,) * width], width)


def _run_scalar_apply(
    plan: ScalarApply, ctx: RunContext, block_rows: int
) -> Iterator[Block]:
    input_columns = plan.input.output_columns
    value_index = list(plan.subquery.output_columns).index(plan.value)
    out_width = len(plan.output_columns)
    for cols, n in execute_blocks(plan.input, ctx, block_rows):
        buf = []
        for row in zip(*cols) if cols else [()] * n:
            for column, value in zip(input_columns, row):
                ctx.env[column.cid] = value
            sub_rows = list(islice(_iter_rows(plan.subquery, ctx, block_rows), 2))
            if len(sub_rows) > 1:
                raise ExecutionError(
                    "correlated scalar subquery returned more than one row"
                )
            value = sub_rows[0][value_index] if sub_rows else None
            buf.append(row + (value,))
        if buf:
            yield _rows_block(buf, out_width)


def _run_spool(plan: Spool, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    # The cache holds row tuples — the same representation the row
    # engine materializes — so both engines report identical spool
    # metrics and could even share a warm cache.
    cache = ctx.spool_cache.get(plan.spool_id)
    if cache is None:
        cache = list(_iter_rows(plan.child, ctx, block_rows))
        _check_spool_budget(ctx, len(cache), f"spool {plan.spool_id}")
        ctx.spool_cache[plan.spool_id] = cache
        ctx.state_add(len(cache))
        ctx.metrics.spooled_rows += len(cache)
    ctx.metrics.spool_read_rows += len(cache)
    return _blocks_from_row_list(cache, len(plan.output_columns), block_rows)


# -- cross-query plan cache ----------------------------------------------


def _run_cached_scan(
    plan: CachedScan, ctx: RunContext, block_rows: int
) -> Iterator[Block]:
    entry = _cached_entry(plan, ctx)
    vectors = [entry.columns[token] for token in plan.column_tokens]
    total = entry.row_count
    for start in range(0, total, block_rows):
        end = min(start + block_rows, total)
        # Slices, not references: blocks are immutable by convention
        # but downstream holds them past the entry's LRU lifetime.
        yield [v[start:end] for v in vectors], end - start


def _run_cache_populate(
    plan: CachePopulate, ctx: RunContext, block_rows: int
) -> Iterator[Block]:
    cache = ctx.plan_cache
    if cache is None or cache.has(plan.fingerprint):
        yield from execute_blocks(plan.child, ctx, block_rows)
        return
    # Materialize as row tuples — the same representation the row
    # engine caches — so both engines produce identical entries and
    # metrics.
    rows = _materialize_for_cache(
        plan, ctx, lambda: list(_iter_rows(plan.child, ctx, block_rows))
    )
    yield from _blocks_from_row_list(rows, len(plan.column_tokens), block_rows)


#: Every block operator, by node type.  The compiled engine runs the
#: stateless and the keyed ones over vector blocks through this table
#: (their ``fetch=``), so the two engines cannot drift apart.
BLOCK_OPERATORS = {
    Scan: _run_scan,
    Values: _run_values,
    Filter: _run_filter,
    Project: _run_project,
    Join: _run_join,
    GroupBy: _run_group_by,
    MarkDistinct: _run_mark_distinct,
    Window: _run_window,
    UnionAll: _run_union_all,
    Sort: _run_sort,
    Limit: _run_limit,
    EnforceSingleRow: _run_enforce_single_row,
    ScalarApply: _run_scalar_apply,
    Spool: _run_spool,
    CachedScan: _run_cached_scan,
    CachePopulate: _run_cache_populate,
    Exchange: _run_exchange,
    Repartition: _run_repartition,
}
