"""Spooling of duplicated common subexpressions.

The paper's general fallback ("the general case should be handled by
spooling intermediate results", part of Athena's future roadmap; the
Resin lineage): when two subtrees that fuse *exactly* survive in a plan
— because no §IV fusion rule covered their context — materialize the
fused subexpression once and let both consumers replay it through
compensating projections.

Using ``Fuse`` for duplicate detection (rather than strict structural
equality) matters: projection pruning legitimately narrows the two
copies to different column subsets, and exact fusion still recognizes
them, producing the superset plan to materialize plus the column
mapping each consumer needs.

The pass runs after the fusion rules (fusion is preferred where
applicable; the paper argues, and tests/test_spooling.py checks, that the
fused form beats materialization by avoiding both the write and the
repeated reads).  Disabled by default; enable with
``OptimizerConfig(enable_spooling=True)``.
"""

from __future__ import annotations

from repro.algebra.expressions import ColumnRef
from repro.algebra.operators import (
    PlanNode,
    Project,
    ScalarApply,
    Spool,
    referenced_columns,
)
from repro.algebra.visitors import count_nodes, scan_tables, walk_plan
from repro.optimizer.context import OptimizerContext
from repro.optimizer.rule import PlanPass


class SpoolDuplicateSubtrees(PlanPass):
    name = "spool_duplicate_subtrees"

    def run(self, plan: PlanNode, ctx: OptimizerContext) -> PlanNode:
        changed = True
        while changed:
            changed = False
            pair = self._find_duplicate_pair(plan, ctx)
            if pair is None:
                break
            first, second, result = pair
            producer, consumer = self._build_spools(first, second, result, ctx)
            plan = _replace_identical(plan, first, producer, second, consumer)
            ctx.record(self.name)
            changed = True
        return plan

    def _find_duplicate_pair(self, plan: PlanNode, ctx: OptimizerContext):
        """The largest pair of subtrees that fuse exactly."""
        buckets: dict[tuple, list[PlanNode]] = {}
        for node in walk_plan(plan):
            if isinstance(node, (Spool, ScalarApply)):
                continue
            if count_nodes(node, Spool):
                continue  # already shared
            if _has_free_references(node):
                # A subtree referencing correlated outer columns (it
                # sits inside a ScalarApply subquery) must re-evaluate
                # per outer row: caching it would replay stale rows.
                continue
            if not ctx.worth_fusing(node):
                continue
            if count_nodes(node) < 2:
                continue
            signature = tuple(sorted(scan_tables(node)))
            buckets.setdefault(signature, []).append(node)

        best = None
        for nodes in buckets.values():
            if len(nodes) < 2:
                continue
            for i, first in enumerate(nodes):
                for second in nodes[i + 1 :]:
                    if second is first or _contains(first, second) or _contains(second, first):
                        continue
                    result = ctx.fuser.fuse(first, second)
                    if result is None or not result.is_exact:
                        continue
                    size = count_nodes(first)
                    if best is None or size > best[0]:
                        best = (size, first, second, result)
        if best is None:
            return None
        return best[1], best[2], best[3]

    @staticmethod
    def _build_spools(first, second, result, ctx: OptimizerContext):
        """The producer/consumer plans over the shared materialization.

        Both wrap Spool nodes carrying the same id over the *fused*
        plan; projections restore each original's exact schema (the
        consumer's through the fusion mapping, over fresh column ids so
        the two spool instances never collide in one schema).
        """
        fused = result.plan
        producer_spool = Spool(fused, ctx.next_spool_id(), fused.output_columns)
        producer = Project(
            producer_spool,
            tuple((c, ColumnRef(c)) for c in first.output_columns),
        )

        fresh = tuple(ctx.allocator.like(c) for c in fused.output_columns)
        consumer_spool = Spool(fused, producer_spool.spool_id, fresh)
        by_cid = {c.cid: f for c, f in zip(fused.output_columns, fresh)}
        assignments = []
        for column in second.output_columns:
            mapped = result.mapping.map_column(column)
            assignments.append((column, ColumnRef(by_cid[mapped.cid])))
        consumer = Project(consumer_spool, tuple(assignments))
        return producer, consumer


def _has_free_references(plan: PlanNode) -> bool:
    """True when some expression in the subtree references a column no
    node inside the subtree produces (a correlated outer column)."""
    produced: set = set()
    referenced: set = set()
    for node in walk_plan(plan):
        produced |= set(node.output_columns)
        referenced |= referenced_columns(node)
    return bool(referenced - produced)


def _contains(outer: PlanNode, inner: PlanNode) -> bool:
    return any(node is inner for node in walk_plan(outer))


def _replace_identical(
    plan: PlanNode,
    first: PlanNode,
    producer: PlanNode,
    second: PlanNode,
    consumer: PlanNode,
) -> PlanNode:
    """Replace exactly the two subtree *objects* (by identity)."""
    if plan is first:
        return producer
    if plan is second:
        return consumer
    children = plan.children
    if not children:
        return plan
    new_children = tuple(
        _replace_identical(child, first, producer, second, consumer)
        for child in children
    )
    if new_children != children:
        plan = plan.with_children(new_children)
    return plan
