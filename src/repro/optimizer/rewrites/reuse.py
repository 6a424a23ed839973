"""Cross-query computation reuse (plan-cache integration).

The pass runs last in the pipeline, over the fully optimized plan, so
cached subplans correspond to the shapes the engine would actually
execute.  Walking top-down it does two things per subplan:

* **Replace** — if the subplan's semantic fingerprint
  (:func:`~repro.algebra.fingerprint.plan_fingerprint`) is present in
  the session's :class:`~repro.engine.plan_cache.PlanCache` and still
  valid against the catalog's table versions, the subtree is replaced
  with a :class:`~repro.algebra.operators.CachedScan` leaf that replays
  the materialized vectors at execution time.  The hit is *pinned*
  until the session finishes executing the query, so populations later
  in the same query cannot evict an entry the plan depends on.

* **Populate** — otherwise, if the subplan looks worth caching (the
  query root, or an aggregation/window that passes the §IV.E cost
  heuristic) and its estimated result fits comfortably in the budget,
  it is wrapped in ``CachePopulate`` so the executor materializes and
  inserts it while streaming it through.
  Population slots are reserved *top-down before recursing* so the
  outermost promising subplan wins over its descendants, and at most
  ``MAX_POPULATE`` subplans are scheduled per query.

Subplans with free (correlated) column references or no stored-table
lineage (pure constant expressions — cheap to recompute, impossible to
version-invalidate) are never cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.algebra.fingerprint import PlanFingerprint, plan_fingerprint
from repro.algebra.operators import (
    CachedScan,
    CachePopulate,
    GroupBy,
    PlanNode,
    Window,
)
from repro.algebra.types import encoded_bytes
from repro.optimizer.context import OptimizerContext
from repro.optimizer.rule import PlanPass

if TYPE_CHECKING:
    from repro.engine.plan_cache import PlanCache

#: A populated entry may use at most this fraction of the cache budget;
#: larger estimates are not worth the eviction churn they would cause.
_MAX_ENTRY_FRACTION = 0.5

#: Maximum subplans scheduled for cache population per query — bounds
#: the materialization overhead of a cold first run.
MAX_POPULATE = 4


@dataclass
class _ReuseState:
    """Per-query bookkeeping: remaining population slots and the
    fingerprints already scheduled (a query that repeats a subplan must
    not populate it twice)."""

    budget: int
    scheduled: set[str] = field(default_factory=set)


class CrossQueryReuse(PlanPass):
    """Swap cached subplans for CachedScan; schedule CachePopulate."""

    name = "cross_query_reuse"

    def run(self, plan: PlanNode, ctx: OptimizerContext) -> PlanNode:
        cache = ctx.plan_cache
        if cache is None:
            return plan
        state = _ReuseState(budget=MAX_POPULATE)
        return self._visit(plan, ctx, cache, state, is_root=True)

    def _visit(
        self,
        node: PlanNode,
        ctx: OptimizerContext,
        cache: "PlanCache",
        state: _ReuseState,
        is_root: bool,
    ) -> PlanNode:
        if isinstance(node, (CachedScan, CachePopulate)):
            return node

        fp = plan_fingerprint(node)
        tokens: tuple[str, ...] = ()
        cacheable = not fp.has_free and bool(fp.tables)
        if cacheable:
            try:
                tokens = fp.output_tokens(node)
            except KeyError:
                # An output column the canonicalizer could not token —
                # treat as uncacheable rather than guess.
                cacheable = False

        if cacheable:
            entry = cache.lookup(fp.digest, ctx.catalog, pin=True)
            if entry is not None and all(t in entry.columns for t in tokens):
                ctx.record(self.name)
                return CachedScan(
                    fingerprint=fp.digest,
                    columns=node.output_columns,
                    column_tokens=tokens,
                    tables=tuple(sorted(fp.tables)),
                )

        # Reserve the population slot *before* recursing: the outermost
        # promising subplan should claim budget ahead of its children.
        populate = (
            cacheable
            and state.budget > 0
            and fp.digest not in state.scheduled
            and self._promising(node, ctx, is_root)
            and self._fits(node, ctx, cache)
        )
        if populate:
            state.budget -= 1
            state.scheduled.add(fp.digest)

        children = node.children
        new_children = tuple(
            self._visit(child, ctx, cache, state, is_root=False)
            for child in children
        )
        if any(a is not b for a, b in zip(children, new_children)):
            node = node.with_children(new_children)

        if populate:
            ctx.record(self.name + ".populate")
            tables = tuple(sorted(fp.tables))
            return CachePopulate(
                child=node,
                fingerprint=fp.digest,
                column_tokens=tokens,
                tables=tables,
                table_versions=tuple(
                    (t, ctx.catalog.table_version(t)) for t in tables
                ),
            )
        return node

    def _promising(
        self, node: PlanNode, ctx: OptimizerContext, is_root: bool
    ) -> bool:
        """Is materializing ``node`` likely to pay off later?

        The query root always is (whole-query replay is the headline
        win); aggregations/windows reuse well when they pass the same
        cost bar as fusion (§IV.E).  Everything else — bare scans,
        filters, joins mid-plan — is left alone: it would bloat the
        cache with fragments the root entry already subsumes.
        """
        if is_root:
            return True
        if isinstance(node, (GroupBy, Window)):
            if ctx.cost_model is not None:
                # Cost-based placement (DESIGN.md §15): materialize
                # only when recomputing the subplan prices higher than
                # a multiple of the bytes the entry would hold.
                return ctx.cost_model.populate_worthwhile(node)
            return ctx.worth_fusing(node)
        return False

    def _fits(
        self, node: PlanNode, ctx: OptimizerContext, cache: "PlanCache"
    ) -> bool:
        """Cheap size screen: estimated rows × encoded row width must
        stay under half the cache budget (the real check happens at
        insert time with actual bytes — this only avoids materializing
        obviously hopeless candidates)."""
        rows = max(ctx.estimated_rows(node), 0)
        width = sum(encoded_bytes(c.dtype) for c in node.output_columns) or 1.0
        return rows * width <= cache.budget_bytes * _MAX_ENTRY_FRACTION
