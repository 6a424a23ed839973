"""Fragment cutting: mark partition-parallel subtrees with Exchange.

The last optimizer pass when ``OptimizerConfig.workers > 1``.  It walks
the optimized plan looking for *partitionable pipelines* — maximal
Filter/Project chains over a single :class:`Scan` of a table stored in
at least two partitions — and wraps them in the placement operators the
fragment scheduler (:mod:`repro.engine.parallel`) consumes:

* keyed GroupBy over a pipeline::

      GroupBy(pipe, keys)  →  Exchange(GroupBy(Repartition(pipe, keys)))

  the scheduler scans the pipeline morsel-wise, hash-routes rows on the
  grouping keys so each bucket holds *complete* groups, aggregates each
  bucket on a worker, and merges bucket outputs back into serial order;

* scalar GroupBy over a pipeline::

      GroupBy(pipe, ())  →  GroupBy(Exchange(pipe))

  the scan parallelizes, the aggregation itself runs serially in the
  coordinator over the gathered rows — deliberately, so float
  accumulation order (and thus every output byte) matches workers=1;

* equi join with both sides pipelines::

      Join(l, r, cond)  →  Exchange(Join(Repartition(l, lk),
                                         Repartition(r, rk), cond))

  for INNER/LEFT/SEMI/ANTI joins with at least one bare-column equi
  conjunct; both sides hash-route on the equi keys so each bucket joins
  independently (non-equi conjuncts stay in the in-bucket condition);

* any other pipeline::

      pipe  →  Exchange(pipe)

  plain scatter/gather — morsels run the pipeline over disjoint
  partition windows and the gather re-concatenates in morsel order.

Exchange and Repartition are bag-identity, so a plan carrying them
still means exactly the same thing executed serially; every engine
treats them as pass-throughs.  The pass never nests Exchanges (wrapped
subtrees contain only Scan/Filter/Project by construction) and it
skips:

* subtrees demanded *lazily* by an early-terminating ancestor
  (Limit/EnforceSingleRow with only streaming operators in between) —
  parallel execution would gather everything and break the exact
  ``bytes_scanned`` equivalence with serial execution;
* ScalarApply entirely (its subquery re-executes per input row);
* CachedScan/Values leaves (already materialized) and CROSS joins.
"""

from __future__ import annotations

from itertools import count

from repro.algebra.expressions import ColumnRef, Comparison, conjuncts
from repro.algebra.operators import (
    EnforceSingleRow,
    Exchange,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    PlanNode,
    Project,
    Repartition,
    ScalarApply,
    Scan,
    Sort,
    UnionAll,
    Window,
)
from repro.algebra.schema import Column
from repro.optimizer.context import OptimizerContext
from repro.optimizer.rule import PlanPass

#: Tables with fewer stored partitions than this are left serial — a
#: single morsel would only add dispatch overhead.
MIN_PARTITIONS = 2

#: Joins the shuffle pattern supports.  CROSS has no keys to route on;
#: FULL does not exist in this algebra.
_SHUFFLE_JOIN_KINDS = (JoinKind.INNER, JoinKind.LEFT, JoinKind.SEMI, JoinKind.ANTI)


def pipeline_scan(node: PlanNode) -> Scan | None:
    """The Scan under a pure Filter/Project chain, or None."""
    while isinstance(node, (Filter, Project)):
        node = node.child
    return node if isinstance(node, Scan) else None


class ParallelPlan(PlanPass):
    """Cut the plan into partition-parallel fragments (DESIGN.md §13)."""

    name = "ParallelPlan"

    def run(self, plan: PlanNode, ctx: OptimizerContext) -> PlanNode:
        ids = count(1)
        counts = ctx.partition_counts
        changed = False

        def partitionable(node: PlanNode) -> bool:
            scan = pipeline_scan(node)
            if scan is None:
                return False
            if counts is None:
                # Bare optimize() call without a store (tests): assume
                # stored tables are partitioned; the scheduler degrades
                # a 1-partition table to a single morsel harmlessly.
                return True
            return counts.get(scan.table.lower(), 1) >= MIN_PARTITIONS

        def mark(node: PlanNode) -> PlanNode:
            nonlocal changed
            changed = True
            return Exchange(node, next(ids))

        def visit(node: PlanNode, bounded: bool) -> PlanNode:
            # -- shuffle / gather patterns ------------------------------
            if isinstance(node, GroupBy) and partitionable(node.child):
                # GroupBy consumes its whole input regardless of what is
                # above it, so these are safe even under a Limit.
                if node.is_scalar:
                    return node.with_children((mark(node.child),))
                inner = node.with_children(
                    (Repartition(node.child, node.keys, next(ids)),)
                )
                return mark(inner)
            if (
                isinstance(node, Join)
                and not bounded
                and node.kind in _SHUFFLE_JOIN_KINDS
                and partitionable(node.left)
                and partitionable(node.right)
            ):
                keys = _equi_columns(node)
                if keys is not None:
                    lkeys, rkeys = keys
                    inner = node.with_children(
                        (
                            Repartition(node.left, lkeys, next(ids)),
                            Repartition(node.right, rkeys, next(ids)),
                        )
                    )
                    return mark(inner)
            if not bounded and partitionable(node):
                return mark(node)
            # -- recursion ----------------------------------------------
            if isinstance(node, ScalarApply):
                return node  # subquery re-executes per row: keep serial
            kids = node.children
            if not kids:
                return node
            new_kids = tuple(
                visit(child, _child_bounded(node, i, bounded))
                for i, child in enumerate(kids)
            )
            if all(a is b for a, b in zip(new_kids, kids)):
                return node
            return node.with_children(new_kids)

        result = visit(plan, False)
        if changed:
            ctx.record(self.name)
        return result


def _child_bounded(node: PlanNode, index: int, bounded: bool) -> bool:
    """Is child ``index`` demanded lazily by an early-terminating
    ancestor?  True means parallel execution could scan more than the
    serial engine would, so the child must stay serial."""
    if isinstance(node, (Limit, EnforceSingleRow)):
        return True
    if isinstance(node, (Sort, GroupBy, Window)):
        # Blocking: the operator drains its input fully before emitting
        # a single row, so demand from above cannot be partial.
        return False
    if isinstance(node, Join):
        if node.kind is JoinKind.CROSS:
            # Left streams, right is materialized.
            return bounded if index == 0 else False
        # Hash join: probe (left) streams, build (right) materializes.
        return bounded if index == 0 else False
    # Streaming operators (Filter/Project/UnionAll/MarkDistinct/
    # CachePopulate/Exchange...) propagate demand unchanged.
    return bounded


def _equi_columns(
    join: Join,
) -> tuple[tuple[Column, ...], tuple[Column, ...]] | None:
    """Bare-column equi-key pairs of ``join``, side-normalized.

    Returns ``(left_keys, right_keys)`` or None when no conjunct is a
    plain ``left_col = right_col`` comparison.  Expression-valued equi
    conjuncts are left to the in-bucket join: Repartition keys must be
    child output columns, so only bare columns can route the shuffle.
    """
    left_cols = {c.cid: c for c in join.left.output_columns}
    right_cols = {c.cid: c for c in join.right.output_columns}
    lkeys: list[Column] = []
    rkeys: list[Column] = []
    for term in conjuncts(join.condition):
        if not (isinstance(term, Comparison) and term.op == "="):
            continue
        if not (
            isinstance(term.left, ColumnRef) and isinstance(term.right, ColumnRef)
        ):
            continue
        a, b = term.left.column, term.right.column
        if a.cid in left_cols and b.cid in right_cols:
            lkeys.append(a)
            rkeys.append(b)
        elif b.cid in left_cols and a.cid in right_cols:
            lkeys.append(b)
            rkeys.append(a)
    if not lkeys:
        return None
    return tuple(lkeys), tuple(rkeys)
