"""Vectorized (block) plan execution.

The block engine (``engine="batch"``): operators stream **row blocks**
instead of single rows.  A block is ``(cols, n)`` — one column vector
per output column plus a row count — produced at the scan directly
from the storage layer's column chunks (no per-row tuple construction
before the filter) and carried through Filter/Project/UnionAll in
columnar form.  A column is a Python list *or* a
:class:`~repro.storage.columnar.NumpyVector`.  There is one operator
table (``BLOCK_OPERATORS``) and one dispatch (:func:`execute_blocks`),
and every operator takes either representation; which one a run uses is
a scan fact: under ``vectors="numpy"`` (the default) scans hand out
arrays, under ``vectors="python"`` lists.  Values, cached scans, string
columns and the row-tuple operators produce lists whatever the mode.
Expressions evaluate through the block compiler,
:func:`repro.engine.vectors.compile_expression_block`, which picks the
array path or one list comprehension per expression node per block from
the columns it receives, amortizing the interpreter's per-row closure
overhead that dominates the row engine.

There is one join, on **positions**, not tuples (:func:`_run_join`):
the build side is buffered once as columns and its first key indexed —
a direct-address directory for dense integer keys and codes, the sorted
keys otherwise — every join kind over either representation is one
probe of that index emitting ``(probe lane, build position)`` index
pairs in probe order, in slices of at most one probe block (or 1 024
pairs), the residual is a block closure evaluated per slice of candidate
pairs over just the columns it reads, and only surviving pairs gather
output columns.  Keyed GroupBy, MarkDistinct, Window and Sort keep
their state on positions too: each reads its whole input as one block
and calls the one keyed core (:mod:`repro.engine.keyed` — factorize key
columns to group codes, reduce every aggregate per code, gather back),
emitting column blocks.  Scalar aggregation is that core's one-group
arm, fed block by block.
Only ScalarApply, EnforceSingleRow and CachePopulate's row-tuple cache
entries still convert blocks to row tuples (``zip(*cols)``, which reads
either representation).

Equivalence contract (enforced by ``tests/test_engine_ab.py``): for
any plan both engines produce the same result multiset and identical
``bytes_scanned`` / ``rows_scanned`` / ``partitions_read``.  Only wall
time, internal block bookkeeping and when state rows are counted may
differ.  A scalar GroupBy registers its one group at its first input
block that has rows, as the row engine does at its first row; the keyed
operators register their state after reading their whole input, so a
keyed GroupBy over a join counts its groups once the join has let its
build side go, and peaks lower than the row engine's GroupBy, which
counts each group beside it (DESIGN.md §7); under early termination
partially drained operators also count fewer rows.  Two invariants make
the metric half of this hold by construction:

* scans charge accounting per partition chunk (shared
  :meth:`~repro.storage.columnar.Store.scan_blocks` path), and a block
  spans partitions only where demand is unbounded: a scan that a Limit,
  an EnforceSingleRow or a ScalarApply subquery can stop hands out one
  chunk, or a slice of one, per block, so early termination over-reads
  at most the tail of a block in an already-charged partition; every
  other scan (:func:`drained_scans`, decided once per
  :func:`execute_batch` call) is drained whole by both engines, so
  handing it out as runs of up to ``block_rows`` rows of consecutive
  chunks reads nothing the row engine does not;
* streaming operators flush their output at every input-block
  boundary instead of accumulating across blocks, so they never pull
  more input blocks than needed to satisfy downstream demand; the keyed
  operators read their whole input, as the row engine's GroupBy,
  Window and Sort do, and a MarkDistinct only ever sits under the
  GroupBy whose DISTINCT aggregate it lowers (DESIGN.md §7).

Blocks are immutable by convention: operators may pass column vectors
through by reference (Project/UnionAll are zero-copy for pass-through
columns) but never mutate one in place.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple

from repro.algebra.expressions import TRUE, ColumnRef, Comparison, columns_in, make_and
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
    ScalarApply,
    Scan,
    Sort,
    UnionAll,
    Values,
    Window,
    child_bounded,
)
from repro.engine.evaluator import lower_aggregates
from repro.engine.executor import (
    _cached_entry,
    _materialize_for_cache,
    _partition_pruner,
    _split_join_condition,
    mark_distinct_chain,
    scan_predicate,
)
from repro.engine.keyed import (
    _DIRECTORY_DENSITY,
    _DIRECTORY_SLACK,
    GroupState,
    OneGroup,
    block_slices,
    buffer_blocks,
    mark_first,
    sort_positions,
)
from repro.engine.metrics import RunContext
from repro.engine.vectors import (
    _and_valid,
    compact_block,
    compile_expression_block,
    np,
    take_rows,
    true_lanes,
)
from repro.errors import ExecutionError
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import NumpyVector, delist

Row = tuple
#: A block: (column vectors, row count).  Zero-column blocks carry
#: their row count explicitly.
Block = tuple[list, int]


def execute_batch(
    plan: PlanNode,
    ctx: RunContext,
    block_rows: int = OptimizerConfig.batch_rows,
    vectors: str = "numpy",
) -> Iterator[Row]:
    """Execute ``plan`` with the block engine, yielding output rows.

    ``vectors="numpy"`` makes scans hand out NumPy columns, ``"python"``
    lists; nothing else depends on it.  Which scans may hand out runs
    of partition chunks is decided here, once, from the plan.
    """
    ctx.vector_blocks = vectors == "numpy"
    ctx.drained_scans = drained_scans(plan)
    return _iter_rows(plan, ctx, block_rows)


def drained_scans(plan: PlanNode) -> frozenset[int]:
    """``id``s of the plan's Scan nodes that no early-terminating
    ancestor can stop (:func:`~repro.algebra.operators.child_bounded`).
    A Scan object reached both ways counts as bounded."""
    bounded: set[int] = set()
    drained: set[int] = set()

    def visit(node: PlanNode, lazy: bool) -> None:
        if isinstance(node, Scan):
            (bounded if lazy else drained).add(id(node))
        for index, child in enumerate(node.children):
            visit(child, child_bounded(node, index, lazy))

    visit(plan, False)
    return frozenset(drained - bounded)


def execute_blocks(
    plan: PlanNode, ctx: RunContext, block_rows: int = OptimizerConfig.batch_rows
) -> Iterator[Block]:
    """Execute ``plan``, yielding output blocks.

    Like the row engine's ``execute``, each call produces a fresh
    execution; ScalarApply relies on this to re-run its subquery.  This
    is the engine's single recursion point: every operator reads its
    children through it, under the profiler's wrap when one is set.
    """
    operator = BLOCK_OPERATORS.get(type(plan))
    if operator is None:
        raise ExecutionError(f"no batch executor for operator {plan.name}")
    blocks = operator(plan, ctx, block_rows)
    profiler = ctx.profiler
    if profiler is not None:
        return profiler.wrap(profiler.label(plan), blocks)
    return blocks


def _run_values(plan: Values, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    return _blocks_from_row_list(list(plan.rows), len(plan.columns), block_rows)


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
    every row-tuple consumer (CachePopulate, ScalarApply,
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
        partition_predicate=_partition_pruner(plan, ctx.store),
        block_rows=block_rows,
        runtime=ctx,
        as_vectors=ctx.vector_blocks,
        coalesce=id(plan) in ctx.drained_scans,
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


def _run_filter(plan: Filter, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    condition = compile_expression_block(
        plan.condition, plan.child.output_columns, ctx.env
    )
    for cols, n in execute_blocks(plan.child, ctx, block_rows):
        out_cols, out_n = compact_block(cols, n, condition(cols, n))
        if out_n:
            yield out_cols, out_n


def _run_project(plan: Project, ctx: RunContext, block_rows: int) -> Iterator[Block]:
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
    for cols, n in execute_blocks(plan.child, ctx, block_rows):
        yield [cols[s] if type(s) is int else s(cols, n) for s in slots], n


def _run_union_all(plan: UnionAll, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    for child, branch in zip(plan.inputs, plan.input_columns):
        child_columns = list(child.output_columns)
        indexes = [child_columns.index(c) for c in branch]
        for cols, n in execute_blocks(child, ctx, block_rows):
            yield [cols[i] for i in indexes], n


def _run_limit(plan: Limit, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    remaining = plan.count
    if remaining <= 0:
        return
    for cols, n in execute_blocks(plan.child, ctx, block_rows):
        if n >= remaining:
            if n > remaining:
                cols = [c[:remaining] for c in cols]
                n = remaining
            yield cols, n
            return
        remaining -= n
        yield cols, n


# -- joins ---------------------------------------------------------------


#: A join expands at most ``max(min(_JOIN_PAIR_SLICE, block_rows),
#: probe block rows)`` candidate (probe, build) pairs at once.  A skewed
#: key or a CROSS join would otherwise materialize |probe block| x
#: |build| index pairs; with the bound, every index array of a join (and
#: every block it yields) stays under it plus one probe block.  A slice
#: is what the join — and whoever takes its blocks — holds, so it never
#: outgrows the probe block the join already holds: a join that does
#: not expand its probe block yields one block per probe block, and
#: slices as long as a 65 536-row block regardless of the probe block
#: cost ~15 % more peak memory (DESIGN.md §7).
_JOIN_PAIR_SLICE = 1 << 10


def _run_join(plan: Join, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    """Every join kind as one probe over ``(probe lane, build
    position)`` pairs; columns are gathered only for pairs that survive.

    The build side is buffered once as columns and its first equi key
    put in stable key order (:func:`_sort_build_keys`); per probe block
    each lane finds its contiguous range of equal build keys through the
    key index — two gathers from a direct-address directory, or two
    ``searchsorted`` calls (:func:`_key_ranges`) — and CROSS joins and
    joins with no equi conjunct take every build row.  Expanding the
    ranges emits pairs in probe order and, inside a lane, in build
    insertion order — the row engine's emission order, which ``LIMIT``
    without ``ORDER BY`` observes — a slice of at most
    ``max(min(_JOIN_PAIR_SLICE, block_rows), probe block rows)`` at a
    time.  Further equi pairs join the residual as ``=`` conjuncts; the
    residual runs once per slice over a gather of just the columns it
    reads.  NULL and NaN keys never join.  SEMI/ANTI scatter the matched
    lanes into a mask; LEFT sends unmatched lanes to an all-NULL lane
    appended to the build columns and merges them back in probe order.
    """
    left_columns = plan.left.output_columns
    right_columns = plan.right.output_columns
    kind = plan.kind
    semi_like = kind in (JoinKind.SEMI, JoinKind.ANTI)
    equi, residual = [], TRUE
    if kind is not JoinKind.CROSS:
        equi, residual = _split_join_condition(
            plan.condition, left_columns, right_columns
        )
    residual = make_and([Comparison("=", l, r) for l, r in equi[1:]] + [residual])
    used_left, used_right, residual_fn = _narrow_residual(
        residual, left_columns, right_columns, ctx.env
    )

    build_cols, total = _whole_input(plan.right, ctx, block_rows)
    build_idx = np.arange(total)
    if equi:
        left_key_fn = compile_expression_block(equi[0][0], left_columns, ctx.env)
        key_col, *other_keys = [
            compile_expression_block(r, right_columns, ctx.env)(build_cols, total)
            for _, r in equi
        ]
        live = None  # a NULL or NaN in any key keeps a build row out
        for col in [key_col, *other_keys]:
            live = _and_valid(live, _joinable(col))
        rows = build_idx if live is None else np.flatnonzero(live)
        index, build_idx, domain = _sort_build_keys(key_col, rows, False)
    if kind is JoinKind.LEFT:
        build_cols = [_with_null_lane(c) for c in build_cols]
    checked_build = [build_cols[i] for i in used_right]
    slice_rows = min(_JOIN_PAIR_SLICE, block_rows)

    ctx.state_add(len(build_idx))
    try:
        for cols, n in execute_blocks(plan.left, ctx, block_rows):
            if not n:
                continue  # an empty table scans as one 0-row block
            if not equi:
                lo, counts = np.zeros(n, dtype=np.int64), np.full(n, total)
            else:
                lkey = left_key_fn(cols, n)
                if domain is None and not (
                    type(lkey) is NumpyVector
                    and lkey.data.dtype.kind == key_col.data.dtype.kind
                ):
                    # Not the build keys' kind (int vs float, a list
                    # block): only hash equality is exact, so factorize
                    # the build side after all — once; every later
                    # block probes codes.
                    index, build_idx, domain = _sort_build_keys(key_col, rows, True)
                if domain is None:
                    probe, valid = lkey.data, lkey.valid
                else:
                    codes = [domain.get(k, -1) for k in delist(lkey)]
                    probe, valid = np.array(codes, dtype=np.int64), None
                lo, counts = _key_ranges(index, probe)
                if valid is not None:
                    counts[~valid] = 0  # NULL keys never join
            if semi_like and residual_fn is None:
                hit = counts > 0
            else:
                ends = counts.cumsum()
                hit = None if kind is JoinKind.INNER else np.zeros(n, dtype=bool)
                done = 0  # lanes below have emitted their match or their pad
                checked = [cols[i] for i in used_left]
                for lane, bidx, upto in _matching_pairs(
                    ctx, max(slice_rows, n), lo, counts, ends, build_idx,
                    residual_fn, checked, checked_build,
                ):
                    if hit is not None:
                        hit[lane] = True
                    if semi_like:
                        continue
                    if kind is JoinKind.LEFT:
                        # Lanes whose last candidate pair lies in this
                        # slice and that matched nothing pad with NULLs.
                        complete = int(ends.searchsorted(upto, "right"))
                        miss = done + np.flatnonzero(~hit[done:complete])
                        done = complete
                        if miss.size:
                            lane = np.concatenate([lane, miss])
                            bidx = np.concatenate([bidx, np.full(miss.size, total)])
                            order = np.argsort(lane, kind="stable")
                            lane, bidx = lane[order], bidx[order]
                    if lane.size:
                        out = take_rows(cols, lane) + take_rows(build_cols, bidx)
                        yield out, int(lane.size)
            if semi_like:
                want = hit if kind is JoinKind.SEMI else ~hit
                out, kept = compact_block(cols, n, NumpyVector(want))
                if kept:
                    yield out, kept
    finally:
        ctx.state_remove(len(build_idx))


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


def _matching_pairs(
    ctx, bound, lo, counts, ends, build_idx, residual_fn, probe_cols, build_cols
):
    """One probe block's matching ``(probe lanes, build rows, candidate
    pairs done)``, expanded a slice of at most ``bound`` candidate pairs
    at a time.  Lane i pairs with sorted build positions ``lo[i]`` up to
    ``lo[i] + counts[i]``; numbered through the block, its candidate
    pairs are ``ends[i] - counts[i]`` up to ``ends[i]``, so pair p sits
    at sorted build position ``shift[i] + p``.  A slice may end inside
    one lane's candidates: each lane it touches repeats for as many of
    its pairs as the slice holds.  The residual filters each slice over
    a gather of the columns it reads — once per slice, not per pair."""
    pairs = int(ends[-1])
    begins = ends - counts
    shift = lo - begins
    for at in range(0, max(pairs, 1), bound):
        ctx.checkpoint()
        upto = min(at + bound, pairs)
        first = int(ends.searchsorted(at, "right"))
        last = int(ends.searchsorted(upto - 1, "right")) + 1
        held = np.minimum(ends[first:last], upto) - np.maximum(begins[first:last], at)
        lane = np.repeat(np.arange(first, last), held)
        bidx = build_idx[shift[lane] + np.arange(at, upto)]
        if residual_fn is not None and upto > at:
            candidates = take_rows(probe_cols, lane) + take_rows(build_cols, bidx)
            keep = true_lanes(residual_fn(candidates, len(lane)), len(lane))
            lane, bidx = lane[keep], bidx[keep]
        yield lane, bidx, upto


def _joinable(key_col):
    """Lanes of a key column that can match anything — neither NULL nor
    NaN — as a bool ndarray, or None for all of them."""
    if type(key_col) is not NumpyVector:
        return np.fromiter((v is not None and v == v for v in key_col), bool, len(key_col))
    if key_col.data.dtype.kind != "f":
        return key_col.valid
    return _and_valid(key_col.valid, ~np.isnan(key_col.data))


def _sort_build_keys(key_col, rows, as_codes: bool):
    """``(key index, build row of each sorted position, domain)`` over
    the build ``rows``, in stable key order.  An array keeps its values
    (``domain`` is None): with NaN left out, ``==`` on one kind *is*
    hash equality.  A list-backed column, or ``as_codes`` because a
    probe block of another kind arrived, is factorized to int64 codes
    through ``domain``, a Python dict — hash equality,
    ``1 == 1.0 == True``.

    Integer keys whose span ``max - min + 1`` fits the keyed core's
    density rule, ``_DIRECTORY_DENSITY * rows + _DIRECTORY_SLACK`` —
    codes, dense ``0..k-1``, always do — are
    indexed by a :class:`_Directory` and ordered by one quicksort of the
    unique composite key ``(key - low) * rows + position``, which the
    span bound keeps far from overflow.  Float, bool and sparse integer
    keys are stably argsorted, and the sorted keys are the index."""
    if type(key_col) is NumpyVector and not as_codes:
        keys, domain = key_col.data[rows], None
    else:
        values, domain = delist(key_col), {}
        codes = [domain.setdefault(values[i], len(domain)) for i in rows.tolist()]
        keys = np.array(codes, dtype=np.int64)
    size = len(keys)
    if keys.dtype.kind == "i":
        low = int(keys.min()) if size else 0
        span = int(keys.max()) - low + 1 if size else 0
        if span <= _DIRECTORY_DENSITY * size + _DIRECTORY_SLACK:
            offsets = keys - low
            sizes = np.bincount(offsets, minlength=span + 1)
            composite = offsets * size + np.arange(size)
            composite.sort()
            directory = _Directory(low, span, sizes.cumsum() - sizes, sizes)
            return directory, rows[composite % size], domain
    order = np.argsort(keys, kind="stable")
    return keys[order], rows[order], domain


class _Directory(NamedTuple):
    """A direct-address index of integer build keys: key ``low + i``
    holds sorted build positions ``starts[i]`` up to ``starts[i] +
    sizes[i]``.  The extra slot ``span`` is empty."""

    low: int
    span: int
    starts: np.ndarray
    sizes: np.ndarray


def _key_ranges(index, probe):
    """``(first sorted build position, count)`` of each probe lane's key.
    A directory answers with two gathers; lanes outside ``[low, low +
    span)`` are range-checked into the empty slot before anything is
    looked up — ints in arrays stay under ±2**62
    (``columnar._INT_GUARD``), so ``probe - low`` cannot overflow.  The
    sorted-key index answers with two binary searches."""
    if type(index) is _Directory:
        inside = (probe >= index.low) & (probe < index.low + index.span)
        slot = np.where(inside, probe - index.low, index.span)
        return index.starts[slot], index.sizes[slot]
    lo = index.searchsorted(probe, "left")
    return lo, index.searchsorted(probe, "right") - lo


def _with_null_lane(col):
    """``col`` plus one trailing NULL lane (the LEFT join's pad row)."""
    if type(col) is not NumpyVector:
        return col + [None]
    valid = np.ones(len(col) + 1, dtype=bool)
    if col.valid is not None:
        valid[:-1] = col.valid
    valid[-1] = False
    return NumpyVector(np.append(col.data, np.zeros(1, col.data.dtype)), valid)


# -- keyed state ---------------------------------------------------------
#
# GroupBy, MarkDistinct, Window and Sort read their whole input as one
# block, whichever representation its blocks have, and are callers of
# the one keyed core (:mod:`repro.engine.keyed`); they emit column
# blocks.


def _whole_input(child: PlanNode, ctx: RunContext, block_rows: int) -> Block:
    """``child``'s whole output as one block."""
    blocks = execute_blocks(child, ctx, block_rows)
    return buffer_blocks(blocks, len(child.output_columns), ctx)


def _run_group_by(plan: GroupBy, ctx: RunContext, block_rows: int) -> Iterator[Block]:
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
            cols, n = _whole_input(plan.child, ctx, block_rows)
            keys = [fn(cols, n) for fn in key_fns]
            state = GroupState(agg_specs, keys, [fn(cols, n) for fn in shared_fns], n)
            group_count = state.size
            ctx.state_add(group_count)
            yield from block_slices(state.columns(), group_count, block_rows)
            return
        # Scalar aggregation: the keyed core's one group, registered at
        # the first input block with rows and fed block by block — but
        # DISTINCT dedupes within a block, so it reads its input whole,
        # as a keyed GroupBy does.  Over empty input it still yields
        # one row (and holds no state).
        state = OneGroup(agg_specs)
        blocks = execute_blocks(plan.child, ctx, block_rows)
        if any(distinct for _, distinct, _, _ in agg_specs):
            blocks = [buffer_blocks(blocks, len(child_columns), ctx)]
        for cols, n in blocks:
            if not n:
                continue
            if not group_count:
                group_count = 1
                ctx.state_add(1)
            state.reduce([fn(cols, n) for fn in shared_fns], n)
        yield state.columns(), 1
    finally:
        ctx.state_remove(group_count)


def _run_mark_distinct(
    plan: MarkDistinct, ctx: RunContext, block_rows: int
) -> Iterator[Block]:
    """Whole-chain MarkDistinct, mirroring the row engine's holistic
    single-pass treatment: each marker is the first position per key
    among the lanes its mask keeps."""
    cursor, specs = mark_distinct_chain(plan, ctx, compile_expression_block)
    cols, n = _whole_input(cursor, ctx, block_rows)
    added = 0
    try:
        for indexes, mask_fn in specs:
            mask = None if mask_fn is None else mask_fn(cols, n)
            marker, fresh = mark_first([cols[i] for i in indexes], n, mask)
            added += fresh
            ctx.state_add(fresh)
            cols.append(marker)
        yield from block_slices(cols, n, block_rows)
    finally:
        ctx.state_remove(added)


def _run_window(plan: Window, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    """Reduce per partition code, then gather back by code."""
    columns = plan.child.output_columns

    def compile(expr):
        return compile_expression_block(expr, columns, ctx.env)

    key_fns = [compile(ColumnRef(c)) for c in plan.partition_by]
    slot_fns, specs = lower_aggregates(plan.functions, compile)

    def windowed(cols, total):
        keys = [fn(cols, total) for fn in key_fns]
        state = GroupState(specs, keys, [fn(cols, total) for fn in slot_fns], total)
        return cols + take_rows(state.columns()[len(keys) :], state.codes)

    return _over_buffered_input(plan, ctx, block_rows, windowed)


def _run_sort(plan: Sort, ctx: RunContext, block_rows: int) -> Iterator[Block]:
    """A stable argsort over the key columns, then one gather."""
    columns = plan.child.output_columns
    key_fns = [
        (compile_expression_block(k.expression, columns, ctx.env), k.ascending)
        for k in plan.keys
    ]

    def ordered(cols, total):
        keys = [(fn(cols, total), ascending) for fn, ascending in key_fns]
        return take_rows(cols, sort_positions(keys, total))

    return _over_buffered_input(plan, ctx, block_rows, ordered)


def _over_buffered_input(plan, ctx, block_rows: int, transform):
    """Window and Sort: the whole input, counted as state while
    ``transform(cols, rows)`` makes the output columns."""
    cols, total = _whole_input(plan.child, ctx, block_rows)
    ctx.state_add(total)
    try:
        yield from block_slices(transform(cols, total), total, block_rows)
    finally:
        ctx.state_remove(total)


# -- scalar plumbing -----------------------------------------------------


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


#: Every block operator, by node type, and the only one: each takes
#: list and NumPy blocks alike, so the two representations cannot
#: drift apart.
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
    CachedScan: _run_cached_scan,
    CachePopulate: _run_cache_populate,
    Exchange: _run_exchange,
}
