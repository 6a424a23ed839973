"""The block engine's vector router: its operators over NumPy columns.

``execute_batch(vectors="numpy")`` — the default of
``OptimizerConfig()`` — installs :func:`install_dispatch` here.  The
router has no operators of its own apart from one join.  Installed as
``RunContext.block_dispatch``, it makes every Scan hand out
:class:`~repro.engine.vectors.NumpyVector` columns (the one
``_run_scan``, with ``ctx.vector_blocks`` set), and Filter / Project /
Limit / UnionAll / GroupBy / MarkDistinct / Window / Sort are the batch
engine's own ``BLOCK_OPERATORS`` entries fed undelisted blocks — the
expression closures (:func:`~repro.engine.vectors.compile_expression_block`)
and the keyed core (:mod:`repro.engine.keyed`) pick the array path from
the columns they receive, so masks, filters, arithmetic and aggregate
reductions become array ops without a second definition of any
operator.  Equi joins get the implementation here (one sorted-array
probe for every INNER/LEFT/SEMI/ANTI shape — unique or many-to-many
keys, several keys, residuals).

Everything else — CROSS / non-equi joins, Spool, ScalarApply,
EnforceSingleRow, the cache nodes — runs its batch implementation over
lists: blocks crossing into those operators are delisted (NumPy vectors
→ Python lists) at the dispatch boundary, ``_dispatch`` and nowhere
else, so the vector representation never leaks into code that doesn't
know about it.  Their *children* still route through this module.

Under ``vectors="python"`` (or ``REPRO_DISABLE_NUMPY``, or without
NumPy) no dispatch is installed at all and every column is a list.
Either way results are bit-identical to the row engine's, float
aggregates included (DESIGN.md §7).
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.expressions import Comparison, make_and
from repro.algebra.operators import (
    CachedScan,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    MarkDistinct,
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
    Block,
    _narrow_residual,
    dispatch_blocks_batch,
    execute_batch,
)
from repro.engine.executor import _split_join_condition
from repro.engine.keyed import buffer_blocks
from repro.engine.metrics import RunContext
from repro.engine.vectors import (
    NumpyVector,
    _and_valid,
    compact_block,
    compile_expression_block,
    delist,
    np,
    numpy_enabled,
    take_rows,
    true_mask,
)

__all__ = ["execute_compiled", "install_dispatch"]


#: The block engine's entry point under the name it had while the
#: vector path was an engine of its own.
execute_compiled = execute_batch


def install_dispatch(ctx: RunContext, vectors: str = "numpy") -> str:
    """Route ``ctx``'s block execution through this module when the
    resolved vector mode is "numpy"; "python" installs nothing (list
    columns throughout).  Returns the resolved mode."""
    if vectors == "numpy" and numpy_enabled():
        ctx.vector_blocks = True
        ctx.block_dispatch = _dispatch
        return "numpy"
    return "python"


# -- dispatch ------------------------------------------------------------


def _dispatch(plan, ctx, block_rows: int) -> Iterator[Block]:
    """The ``block_dispatch`` entry point: the vector representation is
    stripped at the boundary, so list-only consumers (and
    ``_iter_rows``) see plain list blocks."""
    for cols, n in _fetch(plan, ctx, block_rows):
        yield [delist(c) for c in cols], n


def _fetch(plan, ctx, block_rows: int) -> Iterator[Block]:
    """``plan``'s block stream — columns may be NumPy vectors; only
    ``_dispatch`` delists — under the profiler wrap.  Every operator of
    this engine is pulled through here — by ``_dispatch`` for a list
    consumer, by the vector operators (as the batch operators'
    ``fetch=``) — so each keeps its ``operator_times`` entry."""
    blocks, path = _route(plan, ctx, block_rows)
    profiler = ctx.profiler
    if profiler is None:
        return blocks
    return profiler.wrap(profiler.label(plan, path and f"{plan.name}[{path}]"), blocks)


def _fetch_buffered(plan, ctx, block_rows: int) -> list[Block]:
    """``plan``'s whole output as a one-block stream."""
    blocks = _fetch(plan, ctx, block_rows)
    return [buffer_blocks(blocks, len(plan.output_columns), ctx)]


#: How ``_route`` treats the batch operators (``BLOCK_OPERATORS``) that
#: run over vector blocks: sources are called as they are, streamed
#: stages fetch their child undelisted, keyed operators fetch it whole.
_SOURCES = (Scan, Values, CachedScan)
_STREAMED = (Filter, Project, Limit, UnionAll)
_KEYED = (GroupBy, MarkDistinct, Window, Sort)


def _route(plan, ctx, block_rows: int):
    """``(blocks, path)``: which implementation runs ``plan``, and how a
    breaker is counted and labelled — ``"vector"`` on the array path,
    ``"batch"`` handed to the batch engine over delisted input; None
    for a source, a stage or scalar aggregation (a sink, not a breaker)."""
    if isinstance(plan, _SOURCES):
        return dispatch_blocks_batch(plan, ctx, block_rows), None
    if isinstance(plan, _STREAMED) or (isinstance(plan, GroupBy) and plan.is_scalar):
        return BLOCK_OPERATORS[type(plan)](plan, ctx, block_rows, _fetch), None
    split = _equi_pairs(plan) if isinstance(plan, Join) else None
    if split is not None:
        blocks = _run_join_nv(plan, ctx, block_rows, *split)
    elif isinstance(plan, _KEYED):
        # An array stream is factorized whole: one buffered input block.
        blocks = BLOCK_OPERATORS[type(plan)](plan, ctx, block_rows, _fetch_buffered)
    else:
        ctx.metrics.breakers_batch += 1
        return dispatch_blocks_batch(plan, ctx, block_rows), "batch"
    ctx.metrics.breakers_vectorized += 1
    return blocks, "vector"


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


def _run_join_nv(plan: Join, ctx, block_rows: int, equi, residual) -> Iterator[Block]:
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
        _fetch(plan.right, ctx, block_rows), len(right_columns), ctx
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
        for cols, n in _fetch(plan.left, ctx, block_rows):
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
