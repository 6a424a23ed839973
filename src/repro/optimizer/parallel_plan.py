"""Fragment cutting: mark partition-parallel pipelines with Exchange.

The last optimizer pass when ``OptimizerConfig.workers > 1``.  It walks
the optimized plan looking for *partitionable pipelines* — maximal
Filter/Project chains over a single :class:`Scan` of a table stored in
at least two partitions — and wraps each in the one placement operator
the fragment scheduler (:mod:`repro.engine.parallel`) consumes::

    pipe  →  Exchange(pipe)

Workers read and filter disjoint partition windows of the pipeline's
table; the gather re-concatenates morsels in order.  Every GroupBy,
Join, Window and Sort stays above the Exchange and runs on the
coordinator over the gathered rows, so all operator state and every
float accumulation order are those of a serial run.

Exchange is bag-identity, so a plan carrying it still means exactly the
same thing executed serially; every engine treats it as a pass-through.
The pass never nests Exchanges (wrapped subtrees contain only
Scan/Filter/Project by construction) and it skips:

* subtrees demanded *lazily* by an early-terminating ancestor
  (Limit/EnforceSingleRow with only streaming operators in between) —
  parallel execution would gather everything and break the exact
  ``bytes_scanned`` equivalence with serial execution;
* ScalarApply entirely (its subquery re-executes per input row);
* CachedScan/Values leaves (already materialized).
"""

from __future__ import annotations

from itertools import count

from repro.algebra.operators import (
    Exchange,
    PlanNode,
    ScalarApply,
    child_bounded,
    pipeline_scan,
)
from repro.optimizer.context import OptimizerContext
from repro.optimizer.rule import PlanPass

#: Tables with fewer stored partitions than this are left serial — a
#: single morsel would only add dispatch overhead.
MIN_PARTITIONS = 2


class ParallelPlan(PlanPass):
    """Cut the plan into partition-parallel fragments (DESIGN.md §13)."""

    name = "ParallelPlan"

    def run(self, plan: PlanNode, ctx: OptimizerContext) -> PlanNode:
        ids = count(1)
        counts = ctx.partition_counts

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

        def visit(node: PlanNode, bounded: bool) -> PlanNode:
            if not bounded and partitionable(node):
                return Exchange(node, next(ids))
            if isinstance(node, ScalarApply):
                return node  # subquery re-executes per row: keep serial
            kids = node.children
            if not kids:
                return node
            new_kids = tuple(
                visit(child, child_bounded(node, i, bounded))
                for i, child in enumerate(kids)
            )
            if all(a is b for a, b in zip(new_kids, kids)):
                return node
            return node.with_children(new_kids)

        result = visit(plan, False)
        if result is not plan:
            ctx.record(self.name)
        return result

