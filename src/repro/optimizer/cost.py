"""Cost-based rewrite selection (ROADMAP item 3).

The paper's §IV.E falls back to local heuristics because Athena's
optimizer "does not yet support this form of exploration".  This module
goes one step beyond, in the style of "Efficient Cost-Based Rewrite in
a Bottom-Up Optimizer" (PAPERS.md): a :class:`CostModel` denominated in
the two quantities the engine already accounts for — **bytes scanned**
(storage reads, what `QueryMetrics.bytes_scanned` reports) and **rows
processed** (operator work) — prices whole plan alternatives, and the
rewrite passes compare candidate against original instead of always
firing.  The SystemML fusion paper (PAPERS.md) is the motivating
counterexample to always-fuse: fusing UNION ALL branches over a narrow
table trades one cheap scan for cross-join row replication, a bad deal
the heuristic gate cannot see.

Plan nodes are immutable, so costs are memoized **by node identity**
(strong references pin ids): when a gate prices a candidate against the
original region, the subtrees they share — rule rebuilds reuse input
subplans — are priced once.  A plan's total is the plain sum over its
nodes, so a subtree the plan names twice, which the engines execute
twice, is priced twice.

Three consumers:

* :meth:`OptimizerContext.choose` — the per-rewrite gate (fusion
  regions, UnionAll fusion, join order);
* :class:`CostGatedGroup` — prices a whole sub-pipeline at once, for
  *enabler* rules whose payoff only appears downstream (the semi-join →
  distinct-join conversion is locally a pessimization that JoinOnKeys
  later cashes in; pricing it alone would always decline it);
* :meth:`CostModel.populate_worthwhile` — cache-populate placement:
  materialize a subplan only when recomputing it costs more than a
  multiple of the bytes the cache entry would hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.algebra.expressions import columns_in
from repro.algebra.operators import (
    CachedScan,
    CachePopulate,
    EnforceSingleRow,
    Exchange,
    Join,
    Limit,
    PlanNode,
    Scan,
    Sort,
    UnionAll,
    Values,
    Window,
)
from repro.algebra.types import encoded_bytes
from repro.catalog.catalog import Catalog
from repro.optimizer.rule import PlanPass

if TYPE_CHECKING:
    from repro.optimizer.context import OptimizerContext
    from repro.optimizer.stats import CardinalityEstimator

#: Weight of one processed row, in scanned-byte equivalents.  Tuned on
#: the ablation workloads: high enough that row-replicating fusions of
#: narrow scans (the SystemML counterexample) are declined, low enough
#: that scan-deduplicating fusions over fact tables (q09/q65/q23) still
#: fire — their saved bytes dwarf any row-side delta.
ROW_PROCESS_BYTES = 24.0

#: Building a join hash table costs this multiple of streaming a row.
JOIN_BUILD_FACTOR = 2.0

#: Window evaluation (partition + frame evaluation + re-emit) per input
#: row, relative to streaming.  Deliberately modest: the engine's
#: windows are hash-partitioned, not sorted, so §IV.A fusions that
#: trade a join for a window must stay profitable.
WINDOW_FACTOR = 2.0

#: Sorting cost per input row relative to streaming.
SORT_FACTOR = 2.0

#: Cache-populate placement: materialize a subplan only when its
#: recompute cost is at least this multiple of the bytes the entry
#: would occupy (write + storage churn must pay for themselves).
POPULATE_RATIO = 2.0


@dataclass(frozen=True)
class PlanCost:
    """Cost of one plan, in the engine's own accounting units."""

    bytes_scanned: float
    rows_processed: float

    @property
    def total(self) -> float:
        return self.bytes_scanned + ROW_PROCESS_BYTES * self.rows_processed

    def __add__(self, other: "PlanCost") -> "PlanCost":
        return PlanCost(
            self.bytes_scanned + other.bytes_scanned,
            self.rows_processed + other.rows_processed,
        )


class CostModel:
    """Prices plans in bytes scanned + rows processed, memoized per
    plan-node identity on top of the memoized cardinality estimator."""

    def __init__(
        self,
        catalog: Catalog,
        estimator: "CardinalityEstimator",
        plan_cache=None,
    ):
        self.catalog = catalog
        self.estimator = estimator
        self.plan_cache = plan_cache
        #: Node id -> (node, (bytes, rows)) for the node's *own*
        #: contribution.  The node reference keeps the id stable.
        self._self_costs: dict[int, tuple[PlanNode, tuple[float, float]]] = {}
        #: Root id -> (root, PlanCost) for whole-subtree totals.
        self._totals: dict[int, tuple[PlanNode, PlanCost]] = {}

    # -- public -----------------------------------------------------------

    def cost(self, plan: PlanNode) -> PlanCost:
        """Total cost of ``plan``: per-node contributions summed over
        the subtree.  Alternatives produced by a rewrite share untouched
        input subtrees by object identity, so pricing both alternatives
        computes the shared parts' contributions once."""
        cached = self._totals.get(id(plan))
        if cached is not None:
            return cached[1]
        total_bytes = 0.0
        total_rows = 0.0
        stack: list[PlanNode] = [plan]
        while stack:
            node = stack.pop()
            node_bytes, node_rows = self._self_cost(node)
            total_bytes += node_bytes
            total_rows += node_rows
            stack.extend(node.children)
        out = PlanCost(total_bytes, total_rows)
        self._totals[id(plan)] = (plan, out)
        return out

    def populate_worthwhile(self, plan: PlanNode) -> bool:
        """Cache-populate placement: is materializing ``plan`` priced to
        pay off?  Recomputing it must cost at least ``POPULATE_RATIO``
        times the bytes the cache entry would hold."""
        recompute = self.cost(plan).total
        rows = self.estimator.estimate(plan)
        width = sum(encoded_bytes(c.dtype) for c in plan.output_columns) or 1.0
        return recompute >= POPULATE_RATIO * rows * width

    # -- per-node contributions -------------------------------------------

    def _rows(self, plan: PlanNode) -> float:
        return self.estimator.estimate(plan)

    def _self_cost(self, node: PlanNode) -> tuple[float, float]:
        cached = self._self_costs.get(id(node))
        if cached is not None:
            return cached[1]
        out = self._self_cost_uncached(node)
        self._self_costs[id(node)] = (node, out)
        return out

    def _self_cost_uncached(self, node: PlanNode) -> tuple[float, float]:
        if isinstance(node, Scan):
            return self._scan_cost(node)
        if isinstance(node, Values):
            return 0.0, float(len(node.rows))
        if isinstance(node, CachedScan):
            # Replaying cached vectors reads nothing from storage and
            # streams the entry's rows.
            return 0.0, self._rows(node)
        if isinstance(node, Join):
            probe = self._rows(node.left)
            build = JOIN_BUILD_FACTOR * self._rows(node.right)
            return 0.0, probe + build + self._rows(node)
        if isinstance(node, Window):
            return 0.0, WINDOW_FACTOR * self._rows(node.child)
        if isinstance(node, Sort):
            return 0.0, SORT_FACTOR * self._rows(node.child)
        if isinstance(node, UnionAll):
            return 0.0, self._rows(node)
        if isinstance(node, Limit):
            # Streaming limits stop pulling once satisfied.
            return 0.0, self._rows(node)
        if isinstance(node, EnforceSingleRow):
            return 0.0, 1.0
        if isinstance(node, (CachePopulate, Exchange)):
            # Materialization / movement: one extra streaming pass over
            # the child's rows.
            return 0.0, self._rows(node.children[0])
        if node.children:
            # Filter/Project/GroupBy/MarkDistinct/ScalarApply and any
            # other streaming operator: one pass over the input rows.
            return 0.0, sum(self._rows(child) for child in node.children)
        return 0.0, self._rows(node)

    def _scan_cost(self, node: Scan) -> tuple[float, float]:
        if self.catalog.has_table(node.table):
            rows = float(self.catalog.row_count(node.table))
            rows *= self._prune_fraction(node, rows)
            width = sum(
                self.catalog.column_width(node.table, source)
                for source in node.source_names
            )
            return rows * max(width, 1.0), rows
        rows = self._rows(node)
        width = sum(encoded_bytes(c.dtype) for c in node.columns) or 1.0
        return rows * width, rows

    def _prune_fraction(self, node: Scan, rows: float) -> float:
        """Fraction of the table a scan actually reads.  Storage prunes
        whole partitions when the pushed-down predicate constrains the
        partition column; other predicates are evaluated row-by-row and
        save no bytes."""
        table = self.catalog.table(node.table)
        if table.partition_column is None or node.predicate is None:
            return 1.0
        part = table.partition_column.lower()
        part_cids = {
            column.cid
            for column, source in zip(node.columns, node.source_names)
            if source.lower() == part
        }
        if not part_cids or not any(
            c.cid in part_cids for c in columns_in(node.predicate)
        ):
            return 1.0
        selectivity = self._rows(node) / max(rows, 1.0)
        return min(max(selectivity, 0.05), 1.0)


class CostGatedGroup(PlanPass):
    """Run a sub-pipeline speculatively; keep its output only when the
    cost model prices it no worse than the input.

    This is how *enabler* rewrites are priced: the semi-join →
    distinct-join conversion is locally a pessimization whose payoff is
    the JoinOnKeys fusion it unlocks, so the conversion and the fusion
    rules behind it are priced as one unit.  On decline the group's
    recorded rule firings are rolled back (they did not survive) and a
    single ``<name>.cost_declined`` marker is recorded instead.
    """

    name = "cost_gated_group"

    def __init__(self, name: str, passes: list[PlanPass]):
        self.name = name
        self.passes = passes

    def run(self, plan: PlanNode, ctx: "OptimizerContext") -> PlanNode:
        mark = len(ctx.fired)
        candidate = plan
        for sub in self.passes:
            candidate = sub.run(candidate, ctx)
        if candidate is plan:
            return plan
        speculative = ctx.fired[mark:]
        del ctx.fired[mark:]
        if ctx.choose(self.name, plan, candidate):
            ctx.fired.extend(speculative)
            return candidate
        return plan
