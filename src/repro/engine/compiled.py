"""The block engine's vector router: its operators over NumPy columns.

``execute_batch(vectors="numpy")`` — the default of
``OptimizerConfig()`` — installs :func:`install_dispatch` here.  The
router has no operators of its own.  Installed as
``RunContext.block_dispatch``, it makes every Scan hand out
:class:`~repro.engine.vectors.NumpyVector` columns (the one
``_run_scan``, with ``ctx.vector_blocks`` set), and Filter / Project /
Limit / UnionAll / Join / GroupBy / MarkDistinct / Window / Sort are the
batch engine's own ``BLOCK_OPERATORS`` entries fed undelisted blocks —
the expression closures
(:func:`~repro.engine.vectors.compile_expression_block`), the join's
sorted-array probe and the keyed core (:mod:`repro.engine.keyed`) pick
the array path from the columns they receive, so masks, filters,
arithmetic, join probes and aggregate reductions become array ops
without a second definition of any operator.

The list-only operators — Spool, ScalarApply, EnforceSingleRow and the
cache nodes — run over lists: blocks crossing into them are delisted
(NumPy vectors → Python lists) at the dispatch boundary, ``_dispatch``
and nowhere else, so the vector representation never leaks into code
that doesn't know about it.  Their *children* still route through this
module.

Under ``vectors="python"`` no dispatch is installed at all and every
column is a list.  Either way results are bit-identical to the row
engine's, float aggregates included (DESIGN.md §7).
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.operators import (
    CachedScan,
    Filter,
    GroupBy,
    Join,
    Limit,
    MarkDistinct,
    Project,
    Scan,
    Sort,
    UnionAll,
    Values,
    Window,
)
from repro.engine.batch_executor import (
    BLOCK_OPERATORS,
    Block,
    dispatch_blocks_batch,
    execute_batch,
)
from repro.engine.keyed import buffer_blocks
from repro.engine.metrics import RunContext
from repro.engine.vectors import delist

__all__ = ["execute_compiled", "install_dispatch"]


#: The block engine's entry point under the name it had while the
#: vector path was an engine of its own.
execute_compiled = execute_batch


def install_dispatch(ctx: RunContext, vectors: str = "numpy") -> str:
    """Route ``ctx``'s block execution through this module when
    ``vectors`` is "numpy"; "python" installs nothing (list columns
    throughout).  Returns the mode."""
    if vectors == "numpy":
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
#: stages and the join fetch their children undelisted, keyed
#: operators fetch their child whole.
_SOURCES = (Scan, Values, CachedScan)
_STREAMED = (Filter, Project, Limit, UnionAll)
_KEYED = (GroupBy, MarkDistinct, Window, Sort)


def _route(plan, ctx, block_rows: int):
    """``(blocks, path)``: which implementation runs ``plan``, and how a
    breaker is counted and labelled — ``"vector"`` over undelisted
    input, ``"batch"`` for a list-only operator over delisted input;
    None for a source, a stage or scalar aggregation (a sink, not a
    breaker)."""
    if isinstance(plan, _SOURCES):
        return dispatch_blocks_batch(plan, ctx, block_rows), None
    if isinstance(plan, _STREAMED) or (isinstance(plan, GroupBy) and plan.is_scalar):
        return BLOCK_OPERATORS[type(plan)](plan, ctx, block_rows, _fetch), None
    if isinstance(plan, Join):
        blocks = BLOCK_OPERATORS[Join](plan, ctx, block_rows, _fetch)
    elif isinstance(plan, _KEYED):
        # An array stream is factorized whole: one buffered input block.
        blocks = BLOCK_OPERATORS[type(plan)](plan, ctx, block_rows, _fetch_buffered)
    else:
        ctx.metrics.breakers_batch += 1
        return dispatch_blocks_batch(plan, ctx, block_rows), "batch"
    ctx.metrics.breakers_vectorized += 1
    return blocks, "vector"
