"""Pipeline-compiling execution engine.

The third backend (``OptimizerConfig(engine="compiled")``): instead of
streaming blocks through one Python generator per operator, it walks
the optimized plan for **maximal pipelines** — a source
(Scan/Values/CachedScan), a chain of Filter/Project/Limit stages, and
optionally a scalar-aggregate sink — and generates *one fused closure
per pipeline* by ``compile()``/``exec`` of synthesized Python source.
N per-block operator dispatches collapse into a single loop body; the
expressions inside are the same block closures the batch engine runs
(:func:`~repro.engine.vectors.compile_expression_block`).  What
``vectors`` selects is only the column representation the scans hand
out: Python lists (``"python"``), or NumPy vectors (``"numpy"``) over
which masks, filters, arithmetic and aggregate reductions become array
ops.

Pipeline-break rules: joins, keyed GroupBy, MarkDistinct, Sort,
Window, UnionAll, Spool, ScalarApply, EnforceSingleRow and
CachePopulate end a pipeline.  Those operators run their (behaviour-
identical) batch implementations — but their *children* still route
through this module via the ``RunContext.block_dispatch`` indirection,
so every pipeline in the tree compiles, wherever it sits.  Under
``vectors="numpy"`` the breakers that dominate the scan-heavy workload
stay on arrays: equi joins get the implementation here (one
sorted-array probe for every INNER/LEFT/SEMI/ANTI shape — unique or
many-to-many keys, several keys, residuals), and GroupBy, MarkDistinct,
Window and Sort are the batch engine's own operators fed undelisted
vector blocks (``_KEYED_TYPES``) — the keyed core they call
(:mod:`repro.engine.keyed`) picks the array path from the columns it
receives.  So are the Filter/Project/Limit/UnionAll stages above a
breaker (``_VECTOR_STAGES``): vector blocks leaving a join reach the
operator above the Project above it without being delisted in between.

Engine equivalence: with ``vectors="python"`` the kernels run the
batch engine's own closures over the same lists, so results and
metrics are bit-identical to it (and to the row engine).  With
``vectors="numpy"`` integer/boolean results are still bit-identical;
float *aggregation order* changes in the kernels' scalar sinks (array
reductions are pairwise), the same last-ulp latitude the differential
oracle already grants fusion.

Blocks crossing back into batch-implemented operators are delisted
(NumPy vectors → Python lists) at the dispatch boundary — ``_dispatch``
and nowhere else — so the vector representation never leaks into code
that doesn't know about it.
"""

from __future__ import annotations

import threading
import weakref
from functools import partial
from typing import Iterator

from repro.algebra.expressions import ColumnRef, Comparison, make_and
from repro.algebra.operators import (
    CachedScan,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    MarkDistinct,
    PlanNode,
    Project,
    Scan,
    Sort,
    UnionAll,
    Values,
    Window,
)
from repro.engine import batch_executor
from repro.engine.batch_executor import (
    BLOCK_OPERATORS,
    DEFAULT_BLOCK_ROWS,
    Block,
    _blocks_from_row_list,
    _iter_rows,
    _narrow_residual,
    _rows_block,
    _run_cached_scan,
    dispatch_blocks_batch,
)
from repro.engine.evaluator import Aggregator, env_free, lower_aggregates
from repro.engine.executor import (
    _partition_pruner,
    _split_join_condition,
    scan_predicate,
)
from repro.engine.kernel_audit import audit_consts, audit_kernel
from repro.engine.keyed import buffer_blocks
from repro.engine.metrics import RunContext
from repro.engine.vectors import (
    NumpyVector,
    _and_valid,
    accumulate_block,
    compact_block,
    compile_expression_block,
    delist,
    np,
    numpy_enabled,
    take_rows,
    true_mask,
)

__all__ = ["execute_compiled", "install_dispatch"]


def execute_compiled(
    plan: PlanNode,
    ctx: RunContext,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    vectors: str = "numpy",
) -> Iterator[tuple]:
    """Execute ``plan`` with the pipeline compiler, yielding rows.

    ``vectors="numpy"`` silently degrades to the pure-Python kernels
    when NumPy is absent or ``REPRO_DISABLE_NUMPY`` is set.
    """
    install_dispatch(ctx, vectors)
    return _iter_rows(plan, ctx, block_rows)


def install_dispatch(ctx: RunContext, vectors: str = "numpy") -> str:
    """Point ``ctx.block_dispatch`` at the compiled engine; returns the
    resolved vector mode ("numpy" or "python")."""
    mode = "numpy" if (vectors == "numpy" and numpy_enabled()) else "python"

    def dispatch(plan, c, block_rows):
        return _dispatch(plan, c, block_rows, mode)

    ctx.block_dispatch = dispatch
    return mode


# -- dispatch ------------------------------------------------------------


def _dispatch(plan, ctx, block_rows: int, mode: str) -> Iterator[Block]:
    """The ``block_dispatch`` entry point: compiled execution with the
    vector representation stripped at the boundary, so batch-
    implemented consumers (and ``_iter_rows``) see plain list blocks."""
    for cols, n in _fetch(plan, ctx, block_rows, mode):
        yield [delist(c) for c in cols], n


def _fetch(plan, ctx, block_rows: int, mode: str) -> Iterator[Block]:
    """``_blocks_nv`` under the profiler wrap.  Every operator of this
    engine is pulled through here — by ``_dispatch`` for a batch
    consumer, by the array operators and the stages above them (as the
    batch operators' ``fetch=``) — so each keeps its ``operator_times``
    entry."""
    blocks, path = _blocks_nv(plan, ctx, block_rows, mode)
    profiler = ctx.profiler
    if profiler is None:
        return blocks
    if isinstance(path, _Pipeline):
        text = _pipeline_label(path)
    else:
        text = path and f"{plan.name}[{path}]"
    return profiler.wrap(profiler.label(plan, text), blocks)


def _fetch_buffered(plan, ctx, block_rows: int, mode: str) -> list[Block]:
    """``plan``'s whole output as a one-block stream."""
    blocks = _fetch(plan, ctx, block_rows, mode)
    return [buffer_blocks(blocks, len(plan.output_columns), ctx)]


def _blocks_nv(plan, ctx, block_rows: int, mode: str):
    """``(blocks, path)``: the compiled block stream for ``plan`` —
    columns may be NumPy vectors; only ``_dispatch`` delists — and how
    it runs: its ``_Pipeline``, ``"vector"`` / ``"batch"`` for a
    breaker on the array path / handed to the batch engine (always,
    under ``vectors="python"``), or None for a stage or bare source."""
    pipeline = _extract_pipeline(plan)
    if pipeline is not None:
        return _run_pipeline(pipeline, ctx, block_rows, mode), pipeline
    if mode == "numpy":
        fetch = partial(_fetch, mode=mode)
        blocks = None
        if isinstance(plan, Scan):
            # Bare scan (no predicate): still serve vectors so a parent
            # join/aggregate can stay on the array path.
            return _source_factory(plan, ctx, block_rows, mode)(), None
        if isinstance(plan, _VECTOR_STAGES):
            # A stage above a breaker: the batch engine's own operator,
            # fed (and so yielding) undelisted blocks.
            return BLOCK_OPERATORS[type(plan)](plan, ctx, block_rows, fetch), None
        if isinstance(plan, Join):
            split = _equi_pairs(plan)
            if split is not None:
                blocks = _run_join_nv(plan, ctx, block_rows, mode, *split)
        elif isinstance(plan, _KEYED_TYPES):
            # The batch engine's keyed operators over vector blocks.
            # All but scalar aggregation take their input as one
            # buffered block (there, MarkDistinct and keyed GroupBy
            # stream): an array stream is factorized whole.
            if not (isinstance(plan, GroupBy) and plan.is_scalar):
                fetch = partial(_fetch_buffered, mode=mode)
            blocks = BLOCK_OPERATORS[type(plan)](plan, ctx, block_rows, fetch)
        if blocks is not None:
            ctx.metrics.breakers_vectorized += 1
            return blocks, "vector"
    if isinstance(plan, _NOT_BREAKERS):
        return dispatch_blocks_batch(plan, ctx, block_rows), None
    ctx.metrics.breakers_batch += 1
    return dispatch_blocks_batch(plan, ctx, block_rows), "batch"


# -- pipeline extraction -------------------------------------------------

_STAGE_TYPES = (Filter, Project, Limit)
_SOURCE_TYPES = (Scan, Values, CachedScan)
#: Batch operators (``BLOCK_OPERATORS``) that run unchanged over vector
#: blocks: the stages above a breaker, and the breakers on the keyed core.
_VECTOR_STAGES = _STAGE_TYPES + (UnionAll,)
_NOT_BREAKERS = _SOURCE_TYPES + _VECTOR_STAGES
_KEYED_TYPES = (GroupBy, MarkDistinct, Window, Sort)


class _Pipeline:
    __slots__ = ("root", "source", "stages", "sink")

    def __init__(self, root, source, stages, sink):
        self.root = root
        self.source = source
        self.stages = stages  # bottom-up Filter/Project/Limit chain
        self.sink = sink  # scalar GroupBy or None


def _extract_pipeline(plan) -> _Pipeline | None:
    """The maximal pipeline rooted at ``plan``, or None when ``plan``
    is not a compilable chain."""
    sink = None
    node = plan
    if isinstance(node, GroupBy) and not node.keys:
        sink = node
        node = node.child
    stages_top_down = []
    while isinstance(node, _STAGE_TYPES):
        stages_top_down.append(node)
        node = node.child
    if not isinstance(node, _SOURCE_TYPES):
        return None
    if (
        sink is None
        and not stages_top_down
        and not (isinstance(node, Scan) and node.predicate is not None)
    ):
        return None  # bare source: nothing to fuse
    return _Pipeline(plan, node, list(reversed(stages_top_down)), sink)


def _pipeline_label(pipeline: _Pipeline) -> str:
    parts = []
    source = pipeline.source
    if isinstance(source, Scan):
        parts.append(f"Scan({source.table})")
        if source.predicate is not None:
            parts.append("Filter")
    else:
        parts.append(source.name)
    parts.extend(stage.name for stage in pipeline.stages)
    if pipeline.sink is not None:
        parts.append("Aggregate")
    return "Pipeline[" + "→".join(parts) + "]"


# -- kernel code generation ----------------------------------------------

#: Structural source text -> compiled code object.  Pipelines of the
#: same shape (stage kinds, slot layout, aggregate count) share one
#: code object; the expression closures arrive via the consts tuple.
_CODE_CACHE: dict[str, object] = {}
_CODE_CACHE_MAX = 512
#: One lock for both process-wide kernel caches: concurrent server
#: threads compile pipelines simultaneously, and the LRU evict-oldest
#: sequences are not atomic under threads.
_KERNEL_CACHES_LOCK = threading.Lock()


def _kernel_code(source_text: str):
    with _KERNEL_CACHES_LOCK:
        code = _CODE_CACHE.pop(source_text, None)
        if code is None:
            code = compile(source_text, "<pipeline-kernel>", "exec")
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                del _CODE_CACHE[next(iter(_CODE_CACHE))]
        _CODE_CACHE[source_text] = code
        return code


def _emit_aggs(accs, width: int) -> Block:
    return _rows_block([tuple(acc.result() for acc in accs)], width)


#: Cross-context kernel cache: (id(root), mode) -> (weakref(root),
#: kernel_fn, consts).  Re-executing a prepared plan (the benchmarks'
#: plan-once/run-many pattern, or any caller holding an optimized plan)
#: skips recompilation entirely.  Only env-free kernels land here —
#: correlated pipelines compile closures against one RunContext's
#: correlation environment and stay in the per-context cache.  The
#: weakref guards against id() reuse after a plan is garbage-collected
#: and evicts the entry when the plan dies.
_KERNEL_CACHE: dict[tuple[int, str], tuple] = {}
_KERNEL_CACHE_MAX = 256


def _run_pipeline(
    pipeline: _Pipeline, ctx, block_rows: int, mode: str
) -> Iterator[Block]:
    key = (id(pipeline.root), mode)
    cached = ctx.kernel_cache.get(key)
    if cached is None:
        with _KERNEL_CACHES_LOCK:
            entry = _KERNEL_CACHE.get(key)
        if entry is not None and entry[0]() is pipeline.root:
            cached = (
                entry[1],
                entry[2],
                _source_factory(pipeline.source, ctx, block_rows, mode),
            )
        else:
            cached, cacheable = _build_kernel(pipeline, ctx, block_rows, mode)
            ctx.metrics.pipelines_compiled += 1
            if cacheable:
                with _KERNEL_CACHES_LOCK:
                    if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
                        _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
                    # The callback binds the dict itself: module globals
                    # may already be torn down when late weakrefs die.
                    ref = weakref.ref(
                        pipeline.root,
                        lambda _, k=key, cache=_KERNEL_CACHE: cache.pop(k, None),
                    )
                    _KERNEL_CACHE[key] = (ref, cached[0], cached[1])
        ctx.kernel_cache[key] = cached
    kernel_fn, consts, make_source = cached
    return kernel_fn(make_source(), consts, ctx)


def _build_kernel(pipeline: _Pipeline, ctx, block_rows: int, mode: str):
    """Synthesize, compile and instantiate one pipeline kernel.

    Returns ``((kernel_fn, consts, make_source), cacheable)``;
    ``kernel_fn(source, consts, ctx)`` is a generator over output
    blocks.  The generated source is structural — per-expression
    closures are passed through the ``C`` consts tuple, so equally-
    shaped pipelines share one code object (see ``_CODE_CACHE``).
    ``cacheable`` is True when no closure captured this context's
    correlation env, i.e. (kernel_fn, consts) may be reused across
    RunContexts via ``_KERNEL_CACHE``.
    """
    cacheable = True

    def compile_expr(expr, schema):
        nonlocal cacheable
        if cacheable and not env_free(expr, schema):
            cacheable = False
        return compile_expression_block(expr, schema, ctx.env)

    consts: list = []
    prologue: list[str] = []
    body: list[str] = []  # relative indent, rendered inside the loop
    dead = False  # a LIMIT 0 short-circuits the whole chain
    stop_used = False

    source_plan = pipeline.source
    if isinstance(source_plan, Scan) and source_plan.predicate is not None:
        # The predicate closure compiles per-context inside
        # scan_predicate (it may be correlated), so the const takes the
        # runtime ctx and the kernel itself stays context-free.
        consts.append(
            lambda c, plan=source_plan: scan_predicate(
                plan, c, compile_expression_block
            )
        )
        prologue.append("_pred = None")
        body += [
            "if _pred is None:",
            f"    _pred = C[{len(consts) - 1}](ctx)",
            "cols, n = _compact(cols, n, _pred(cols, n))",
            "if not n:",
            "    continue",
        ]
    schema = source_plan.output_columns

    limit_id = 0
    for node in pipeline.stages:
        if dead:
            break
        if isinstance(node, Filter):
            consts.append(compile_expr(node.condition, schema))
            body += [
                f"cols, n = _compact(cols, n, C[{len(consts) - 1}](cols, n))",
                "if not n:",
                "    continue",
            ]
        elif isinstance(node, Project):
            indexes = {c.cid: i for i, c in enumerate(schema)}
            parts = []
            for _, expr in node.assignments:
                if isinstance(expr, ColumnRef) and expr.column.cid in indexes:
                    parts.append(f"cols[{indexes[expr.column.cid]}]")
                else:
                    consts.append(compile_expr(expr, schema))
                    parts.append(f"C[{len(consts) - 1}](cols, n)")
            body.append(f"cols = [{', '.join(parts)}]")
        else:  # Limit
            if node.count <= 0:
                body = ["break"]
                dead = True
            else:
                var = f"_left{limit_id}"
                limit_id += 1
                prologue.append(f"{var} = {node.count}")
                body += [
                    f"if n >= {var}:",
                    f"    if n > {var}:",
                    f"        cols = [c[:{var}] for c in cols]",
                    f"        n = {var}",
                    "    _stop = True",
                    "else:",
                    f"    {var} -= n",
                ]
                stop_used = True
        schema = node.output_columns

    epilogue: list[str] = []
    final: list[str] = []
    sink = pipeline.sink
    if sink is not None:
        prologue += ["_accs = None", "_made = False"]
        shared_fns, agg_specs = lower_aggregates(
            sink.aggregates, lambda e: compile_expr(e, schema)
        )
        specs = tuple((f, d) for f, d, _, _ in agg_specs)
        consts.append(lambda s=specs: [Aggregator(f, d) for f, d in s])
        factory = len(consts) - 1
        if not dead:
            body += [
                "if _accs is None:",
                f"    _accs = C[{factory}]()",
                "    ctx.state_add(1)",
                "    _made = True",
            ]
            slot_base = len(consts)
            consts.extend(shared_fns)
            for slot in range(len(shared_fns)):
                body.append(f"_v{slot} = C[{slot_base + slot}](cols, n)")
            for i, (_, _, arg_slot, mask_slot) in enumerate(agg_specs):
                values = "None" if arg_slot is None else f"_v{arg_slot}"
                mask = "None" if mask_slot is None else f"_v{mask_slot}"
                body.append(f"_acc(_accs[{i}], {values}, {mask}, n)")
        out_width = len(sink.output_columns)
        epilogue += [
            "if _accs is None:",
            f"    _accs = C[{factory}]()",
            f"yield _emit(_accs, {out_width})",
        ]
        final += ["if _made:", "    ctx.state_remove(1)"]
    elif not dead:
        body.append("yield cols, n")

    if stop_used and not dead:
        body.insert(0, "_stop = False")
        body.append("if _stop:")
        body.append("    break")

    lines = ["def _kernel(source, C, ctx):"]
    lines += [f"    {line}" for line in prologue]
    lines.append("    try:")
    lines.append("        for cols, n in source:")
    lines += [f"            {line}" for line in body]
    lines += [f"        {line}" for line in epilogue]
    lines.append("    finally:")
    if final:
        lines += [f"        {line}" for line in final]
    else:
        lines.append("        pass")
    source_text = "\n".join(lines) + "\n"

    namespace = {
        "_compact": compact_block,
        "_acc": accumulate_block,
        "_emit": _emit_aggs,
    }
    consts = tuple(consts)
    if getattr(ctx, "audit_kernels", False):
        # Static contract verification before the kernel ever runs
        # (repro.engine.kernel_audit; armed via validate_plans).
        audit_kernel(source_text, len(consts))
        if cacheable:
            audit_consts(consts, ctx)
        ctx.metrics.kernels_audited += 1
    exec(_kernel_code(source_text), namespace)  # noqa: S102 - synthesized
    kernel_fn = namespace["_kernel"]
    make_source = _source_factory(source_plan, ctx, block_rows, mode)
    return (kernel_fn, consts, make_source), cacheable


def _source_factory(source_plan, ctx, block_rows: int, mode: str):
    """A zero-arg callable producing the pipeline's input block stream.
    Bound to one RunContext — rebuilt per context even when the kernel
    itself comes from ``_KERNEL_CACHE``."""
    if isinstance(source_plan, Scan):
        numpy_mode = mode == "numpy"

        def make_source(plan=source_plan):
            return ctx.store.scan_blocks(
                plan.table,
                plan.source_names,
                ctx.accounting,
                partition_predicate=_partition_pruner(plan),
                block_rows=block_rows,
                runtime=ctx,
                as_vectors=numpy_mode,
            )

    elif isinstance(source_plan, Values):

        def make_source(plan=source_plan):
            return _blocks_from_row_list(
                list(plan.rows), len(plan.columns), block_rows
            )

    else:  # CachedScan

        def make_source(plan=source_plan):
            return _run_cached_scan(plan, ctx, block_rows)

    return make_source


def _true_lanes(mask, n: int):
    """Identity-True lanes of a mask column as a bool ndarray."""
    lanes = true_mask(mask)
    if lanes is None:
        lanes = np.fromiter((v is True for v in mask), dtype=bool, count=n)
    return lanes


# -- vectorized join -----------------------------------------------------

def _equi_pairs(plan: Join):
    """``(equi pairs, residual)`` of a join the vector join can run —
    INNER/LEFT/SEMI/ANTI with at least one equi conjunct — else None."""
    if plan.kind is JoinKind.CROSS:
        return None
    split = _split_join_condition(
        plan.condition, plan.left.output_columns, plan.right.output_columns
    )
    return split if split[0] else None


def _run_join_nv(
    plan: Join, ctx, block_rows: int, mode: str, equi, residual
) -> Iterator[Block]:
    """The one vector equi-join: sort the build keys once, probe every
    left block with two ``searchsorted`` calls.

    Each probe lane's matches are the contiguous range of equal keys in
    the stably sorted build side, so expanding the ranges emits
    (probe, build) pairs in probe order and, inside a key, in build
    insertion order — the batch engine's row order, which ``LIMIT``
    without ``ORDER BY`` observes.  A unique build key is the
    multiplicity <= 1 case of the same code.  Only the first equi pair
    is sorted on; further pairs join the residual as ``=`` conjuncts
    (``NULL = x`` is never identity-True: NULL keys never join).
    SEMI/ANTI scatter the surviving probe lanes into a mask; LEFT sends
    unmatched lanes to an all-NULL lane appended to the build columns
    and merges them back in probe order.
    """
    left_columns = plan.left.output_columns
    right_columns = plan.right.output_columns
    kind = plan.kind
    semi_like = kind in (JoinKind.SEMI, JoinKind.ANTI)
    left_key_fn = compile_expression_block(equi[0][0], left_columns, ctx.env)
    right_key_fns = [
        compile_expression_block(r, right_columns, ctx.env) for _, r in equi
    ]
    residual = make_and([Comparison("=", l, r) for l, r in equi[1:]] + [residual])
    used_left, used_right, residual_fn = _narrow_residual(
        residual, left_columns, right_columns, ctx.env
    )

    # The build side, buffered once, and its key columns.
    build_cols, total = buffer_blocks(
        _fetch(plan.right, ctx, block_rows, mode), len(right_columns), ctx
    )
    key_col, *other_keys = [fn(build_cols, total) for fn in right_key_fns]
    if kind is JoinKind.LEFT:
        build_cols = [_with_null_lane(c) for c in build_cols]
    # A NULL in any key keeps a build row out (and out of the state count).
    live = None
    for col in [key_col] + other_keys:
        if isinstance(col, NumpyVector):
            live = _and_valid(live, col.valid)
        else:
            live = _and_valid(live, np.array([v is not None for v in col], dtype=bool))
    sorted_keys, build_idx, domain = _sort_build_keys(key_col, live, False)
    checked_build = [build_cols[i] for i in used_right]

    ctx.state_add(len(build_idx))
    try:
        for cols, n in _fetch(plan.left, ctx, block_rows, mode):
            if not n:
                continue  # an empty table scans as one 0-row block
            lkey = left_key_fn(cols, n)
            exact = isinstance(lkey, NumpyVector) and (
                lkey.data.dtype.kind == sorted_keys.dtype.kind
            )
            if domain is None and not exact:
                # Not the build keys' kind (int vs float, a list block):
                # only hash equality is exact, so factorize the build
                # side after all — once; every later block probes codes.
                sorted_keys, build_idx, domain = _sort_build_keys(key_col, live, True)
            if domain is None:
                probe, valid = lkey.data, lkey.valid
            else:
                codes = [domain.get(k, -1) for k in delist(lkey)]
                probe, valid = np.array(codes, dtype=np.int64), None
            lo = sorted_keys.searchsorted(probe, "left")
            counts = sorted_keys.searchsorted(probe, "right") - lo
            if valid is not None:
                counts[~valid] = 0  # NULL keys never join
            if semi_like and residual_fn is None:
                hit = counts > 0
            else:
                # Lane i pairs with sorted build positions lo[i] up to
                # lo[i] + counts[i]: candidate pair p, numbered through
                # the block, belongs to the lane whose running count
                # first exceeds p and sits at build position shift + p.
                ends = counts.cumsum()
                shift = lo - ends + counts
                hit = None if kind is JoinKind.INNER else np.zeros(n, dtype=bool)
                done = 0
                checked = [cols[i] for i in used_left]
                for lane, bidx, upto in _matching_pairs(
                    ctx, ends, shift, build_idx, residual_fn, checked, checked_build
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


def _matching_pairs(ctx, ends, shift, build_idx, residual_fn, probe_cols, build_cols):
    """One probe block's matching ``(probe lanes, build rows, candidate
    pairs done)``, expanded a slice of at most ``_JOIN_PAIR_SLICE``
    candidate pairs at a time; the residual filters each slice over a
    gather of the columns it reads — once per slice, not per row."""
    pairs = int(ends[-1])
    bound = batch_executor._JOIN_PAIR_SLICE  # one bound for both joins
    for at in range(0, max(pairs, 1), bound):
        ctx.checkpoint()
        upto = min(at + bound, pairs)
        pair = np.arange(at, upto)
        lane = ends.searchsorted(pair, "right")
        bidx = build_idx[shift[lane] + pair]
        if residual_fn is not None and upto > at:
            candidates = take_rows(probe_cols, lane) + take_rows(build_cols, bidx)
            keep = _true_lanes(residual_fn(candidates, len(lane)), len(lane))
            lane, bidx = lane[keep], bidx[keep]
        yield lane, bidx, upto


def _sort_build_keys(key_col, live, as_codes: bool):
    """``(sorted keys, build row of each, domain)`` over the ``live``
    build rows (None = all), stably sorted.  One array of a single kind
    without NaN sorts as it is (``domain`` is None): ``==`` on it *is*
    hash equality.  Anything else — strings, list-backed columns, NaN
    floats, or ``as_codes`` because a probe block of another kind
    arrived — is factorized to int64 codes through ``domain``, a Python
    dict, which is the batch engine's hash-table equality
    (1 == 1.0 == True, a NaN equals only the very same object)."""
    rows = np.arange(len(key_col)) if live is None else np.flatnonzero(live)
    nan_free = isinstance(key_col, NumpyVector) and not (
        key_col.data.dtype.kind == "f" and bool(np.isnan(key_col.data).any())
    )
    if nan_free and not as_codes:
        keys, domain = key_col.data[rows], None
    else:
        values, domain = delist(key_col), {}
        codes = [domain.setdefault(values[i], len(domain)) for i in rows.tolist()]
        keys = np.array(codes, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    return keys[order], rows[order], domain


def _with_null_lane(col):
    """``col`` plus one trailing NULL lane (the LEFT join's pad row)."""
    if not isinstance(col, NumpyVector):
        return col + [None]
    valid = np.ones(len(col) + 1, dtype=bool)
    if col.valid is not None:
        valid[:-1] = col.valid
    valid[-1] = False
    return NumpyVector(np.append(col.data, np.zeros(1, col.data.dtype)), valid)
