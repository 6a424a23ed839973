"""Cardinality estimation.

§IV.E: "Athena's optimizer does not yet support this form of
exploration, so we rely on local heuristics based on statistics and
plan properties to decide the applicability of each rule."  This module
provides those statistics-based estimates: textbook selectivity
formulas over the catalog's per-column statistics (ndv, min/max, null
fraction), composed bottom-up over the plan.

Estimates feed the greedy join orderer, the fusion rules' cost gate,
and (ROADMAP item 3) the :class:`~repro.optimizer.cost.CostModel` that
prices rewrite alternatives.  They are deliberately crude (independence
assumptions, uniformity) — exactly the "local heuristics" regime the
paper describes, as opposed to Cascades-style full exploration.

The estimator is **memoized per plan-node identity**: one estimator
lives for one optimization run (it hangs off the
:class:`~repro.optimizer.context.OptimizerContext`), and rewrite passes
re-price overlapping subtrees constantly.  Plan nodes are immutable, so
a node's estimate never changes; column statistics are collected
incrementally (each node visited once, ever) and row counts are cached
per node.  The memo keeps a strong reference to each node, so ``id``
reuse after garbage collection cannot alias entries.  Corollary: the
estimator assumes the catalog's statistics are stable for its lifetime
— build a fresh estimator after refreshing stats.
"""

from __future__ import annotations

from repro.algebra.expressions import (
    And,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    conjuncts,
)
from repro.algebra.operators import (
    CachedScan,
    CachePopulate,
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
)
from repro.algebra.schema import Column
from repro.catalog.catalog import Catalog, ColumnStats

#: Fallback selectivities when statistics cannot decide.
DEFAULT_EQUALITY = 0.1
DEFAULT_RANGE = 0.3
DEFAULT_OTHER = 0.5

#: Row-count estimate for plans with no usable statistics (unknown
#: tables, cache replays without a reachable cache entry, opaque
#: operators).
DEFAULT_ROWS = 1000.0

#: Estimates are clamped to [1, ROW_CAP]: a chain of cross joins must
#: not overflow to infinity, and downstream cost arithmetic relies on
#: every estimate being finite and at least one row.
ROW_CAP = 1e18


class CardinalityEstimator:
    """Bottom-up row-count estimation over a plan tree, memoized by
    plan-node identity."""

    def __init__(self, catalog: Catalog, plan_cache=None):
        self.catalog = catalog
        #: The session's cross-query result cache, when available:
        #: CachedScan leaves replay a cache entry whose exact row count
        #: the cache knows (far better than any guess).
        self.plan_cache = plan_cache
        #: Column cid -> stored stats, accumulated across every plan
        #: this estimator has seen (cids are globally unique).
        self._stats: dict[int, ColumnStats] = {}
        #: Nodes whose column stats have been collected.  Values keep
        #: the nodes alive so dict keys (ids) stay unambiguous.
        self._collected: dict[int, PlanNode] = {}
        #: Node id -> (node, clamped row estimate).
        self._memo: dict[int, tuple[PlanNode, float]] = {}

    # -- public -----------------------------------------------------------

    def estimate(self, plan: PlanNode) -> float:
        self._collect(plan)
        return self._rows(plan)

    # -- column statistics -------------------------------------------------

    def _collect(self, node: PlanNode) -> None:
        """Map plan column ids to the stored column stats they originate
        from (scans introduce them; renaming projections forward them).
        Each node is visited once ever: a previously collected node's
        whole subtree is already in ``self._stats``."""
        if id(node) in self._collected:
            return
        for child in node.children:
            self._collect(child)
        if isinstance(node, Scan) and self.catalog.has_table(node.table):
            for column, source in zip(node.columns, node.source_names):
                found = self.catalog.column_stats(node.table, source)
                if found is not None:
                    self._stats[column.cid] = found
        elif isinstance(node, Project):
            for target, expr in node.assignments:
                if isinstance(expr, ColumnRef) and expr.column.cid in self._stats:
                    self._stats[target.cid] = self._stats[expr.column.cid]
        self._collected[id(node)] = node

    # -- row counts ----------------------------------------------------------

    def _rows(self, plan: PlanNode) -> float:
        cached = self._memo.get(id(plan))
        if cached is not None:
            return cached[1]
        rows = min(max(self._rows_uncached(plan), 1.0), ROW_CAP)
        self._memo[id(plan)] = (plan, rows)
        return rows

    def _rows_uncached(self, plan: PlanNode) -> float:
        stats = self._stats
        if isinstance(plan, Scan):
            rows = float(
                self.catalog.row_count(plan.table)
                if self.catalog.has_table(plan.table)
                else DEFAULT_ROWS
            )
            if plan.predicate is not None:
                rows *= self._selectivity(plan.predicate, stats)
            return rows
        if isinstance(plan, Values):
            return float(len(plan.rows))
        if isinstance(plan, Filter):
            return self._rows(plan.child) * self._selectivity(plan.condition, stats)
        if isinstance(plan, (Project, MarkDistinct, Window, Sort)):
            return self._rows(plan.children[0])
        if isinstance(plan, Limit):
            return min(self._rows(plan.child), float(plan.count))
        if isinstance(plan, EnforceSingleRow):
            return 1.0
        if isinstance(plan, ScalarApply):
            return self._rows(plan.input)
        if isinstance(plan, UnionAll):
            return sum(self._rows(child) for child in plan.inputs)
        if isinstance(plan, GroupBy):
            child_rows = self._rows(plan.child)
            if plan.is_scalar:
                return 1.0
            groups = 1.0
            for key in plan.keys:
                key_stats = stats.get(key.cid)
                groups *= key_stats.ndv if key_stats and key_stats.ndv else 25.0
            return min(child_rows, groups)
        if isinstance(plan, Join):
            return self._join_rows(plan, stats)
        # Placement operators are bag-semantically the identity: an
        # Exchange only gathers rows from workers, and a
        # CachePopulate materializes its child while streaming it
        # through.  Their estimate is exactly the child's.
        if isinstance(plan, (Exchange, CachePopulate)):
            return self._rows(plan.children[0])
        if isinstance(plan, CachedScan):
            # Replays a cache entry whose actual row count the cache
            # recorded at population time.
            if self.plan_cache is not None:
                entry = self.plan_cache.lookup(plan.fingerprint)
                if entry is not None:
                    return float(entry.row_count)
            return DEFAULT_ROWS
        if len(plan.children) == 1:
            # Unknown single-child operators default to pass-through:
            # future placement/annotation nodes should not regress to a
            # blind constant.
            return self._rows(plan.children[0])
        return DEFAULT_ROWS

    def _join_rows(self, plan: Join, stats: dict[int, ColumnStats]) -> float:
        left = self._rows(plan.left)
        right = self._rows(plan.right)
        if plan.kind is JoinKind.CROSS:
            return left * right
        selectivity = 1.0
        residual: list[Expression] = []
        for term in conjuncts(plan.condition):
            if (
                isinstance(term, Comparison)
                and term.op == "="
                and isinstance(term.left, ColumnRef)
                and isinstance(term.right, ColumnRef)
            ):
                a = stats.get(term.left.column.cid)
                b = stats.get(term.right.column.cid)
                ndv = max(
                    a.ndv if a and a.ndv else 0,
                    b.ndv if b and b.ndv else 0,
                )
                selectivity *= 1.0 / ndv if ndv else DEFAULT_EQUALITY
            else:
                residual.append(term)
        for term in residual:
            selectivity *= self._selectivity(term, stats)
        if plan.kind in (JoinKind.SEMI, JoinKind.ANTI):
            fraction = min(right * selectivity, 1.0)
            matched = left * fraction
            return max(matched if plan.kind is JoinKind.SEMI else left - matched, 1.0)
        if plan.kind is JoinKind.LEFT:
            return max(left * right * selectivity, left)
        return max(left * right * selectivity, 1.0)

    # -- selectivity --------------------------------------------------------

    def _selectivity(self, expr: Expression, stats: dict[int, ColumnStats]) -> float:
        if isinstance(expr, Literal):
            if expr.value is True:
                return 1.0
            return 0.0
        if isinstance(expr, And):
            out = 1.0
            for term in expr.terms:
                out *= self._selectivity(term, stats)
            return out
        if isinstance(expr, Or):
            miss = 1.0
            for term in expr.terms:
                miss *= 1.0 - self._selectivity(term, stats)
            return 1.0 - miss
        if isinstance(expr, Not):
            return max(0.0, 1.0 - self._selectivity(expr.term, stats))
        if isinstance(expr, IsNull):
            column = self._plain_column(expr.operand)
            found = stats.get(column.cid) if column else None
            return found.null_fraction if found else 0.1
        if isinstance(expr, InList):
            column = self._plain_column(expr.operand)
            found = stats.get(column.cid) if column else None
            if found and found.ndv:
                # Same NULL handling as `=`: a NULL never matches any
                # list item, so the k-way union of equalities is capped
                # by the non-null fraction, not 1.0.
                non_null = 1.0 - found.null_fraction
                return min(non_null * len(expr.items) / found.ndv, non_null)
            return min(len(expr.items) * DEFAULT_EQUALITY, 1.0)
        if isinstance(expr, Like):
            return DEFAULT_RANGE
        if isinstance(expr, Comparison):
            return self._comparison_selectivity(expr, stats)
        return DEFAULT_OTHER

    def _comparison_selectivity(
        self, expr: Comparison, stats: dict[int, ColumnStats]
    ) -> float:
        column, op, value = self._column_vs_literal(expr)
        if column is None:
            return DEFAULT_EQUALITY if expr.op == "=" else DEFAULT_RANGE
        found = stats.get(column.cid)
        if found is None:
            return DEFAULT_EQUALITY if op == "=" else DEFAULT_RANGE
        non_null = 1.0 - found.null_fraction
        if op == "=":
            return non_null / found.ndv if found.ndv else DEFAULT_EQUALITY
        if op == "<>":
            return non_null * (1.0 - (1.0 / found.ndv if found.ndv else DEFAULT_EQUALITY))
        lo, hi = found.min_value, found.max_value
        if self._is_bool(value) or self._is_bool(lo) or self._is_bool(hi):
            # bool is an int subclass, so True would otherwise
            # interpolate as the number 1 against numeric min/max.  A
            # range over a two-valued domain is just an equality bucket.
            return non_null / found.ndv if found.ndv else DEFAULT_EQUALITY
        if (
            lo is None
            or hi is None
            or not isinstance(value, (int, float))
            or not isinstance(lo, (int, float))
            or hi == lo
        ):
            return DEFAULT_RANGE
        fraction = (value - lo) / (hi - lo)
        fraction = min(max(fraction, 0.0), 1.0)
        if op in ("<", "<="):
            return non_null * fraction
        return non_null * (1.0 - fraction)

    @staticmethod
    def _is_bool(value: object) -> bool:
        return isinstance(value, bool)

    @staticmethod
    def _plain_column(expr: Expression) -> Column | None:
        return expr.column if isinstance(expr, ColumnRef) else None

    @staticmethod
    def _column_vs_literal(expr: Comparison):
        left, right = expr.left, expr.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return left.column, expr.op, right.value
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            commuted = expr.commuted()
            return right.column, commuted.op, left.value
        return None, None, None
