"""GroupByJoinToWindow (§IV.A).

Pattern (over a flattened n-ary join): some input ``G`` is a GroupBy —
possibly under projections, including *computed* ones like
``avg(x) * 1.2`` from decorrelation (§IV.E: "there could be a Project
operator in between the Join and GroupBy, generating an expression that
is used as a residual condition") — whose input fuses *exactly* with
another input ``P1``, and the join conjuncts equate every grouping key
of ``G`` with the corresponding column of ``P1`` (``cli = M(cri)``,
possibly transitively through other equalities).

Rewrite: drop ``G`` and replace ``P1`` with::

    Window[A OVER (PARTITION BY cl1..cln)]
      Filter[cl1 IS NOT NULL AND … AND cln IS NOT NULL]
        P1

(``cli = cli`` for a DOUBLE key: the join's ``=`` drops NaN as well.)

Columns of ``G`` referenced elsewhere are substituted: key outputs map
to the partition columns, aggregate outputs keep their identity as
window-function outputs, and projected expressions over them are
carried across the transformation.  Remaining conditions on ``G`` (the
paper's ``M(C2)``) stay in the conjunct pool and end up as filters
above.

This is the rewrite behind the paper's motivating TPC-DS Q65 example
and the decorrelated Q01/Q30 (§V.A).
"""

from __future__ import annotations

from repro.algebra.expressions import (
    TRUE,
    ColumnRef,
    Comparison,
    Expression,
    IsNull,
    Not,
    make_and,
    substitute,
)
from repro.algebra.operators import (
    Filter,
    GroupBy,
    PlanNode,
    Project,
    Window,
    WindowAssignment,
)
from repro.algebra.schema import Column
from repro.algebra.types import DataType
from repro.optimizer.context import OptimizerContext
from repro.optimizer.fusion_rules.base import JoinGraphRule
from repro.optimizer.join_graph import EquivalenceClasses, JoinGraph


def peel_projections(
    plan: PlanNode,
) -> tuple[PlanNode, dict[int, Expression], list[Expression]]:
    """Strip a stack of projections (renaming or computed) and filters,
    returning the inner plan, the composed map from outer column ids to
    expressions over the inner plan's outputs, and the peeled filter
    conditions (also over the inner plan's outputs).

    The filter support is §IV.E's extension: "there could be a filter
    pushed in between the join and the group-by operator (e.g., a
    single-column predicate on an aggregate column)" — such conditions
    are pulled above the rewrite as residual conjuncts.
    """
    exposure: dict[int, Expression] = {}
    conditions: list[Expression] = []
    while True:
        if isinstance(plan, Project):
            layer = {target.cid: expr for target, expr in plan.assignments}
            if exposure:
                exposure = {
                    cid: substitute(expr, layer) for cid, expr in exposure.items()
                }
            else:
                exposure = dict(layer)
            conditions = [substitute(c, layer) for c in conditions]
            plan = plan.child
            continue
        if isinstance(plan, Filter):
            conditions.append(plan.condition)
            plan = plan.child
            continue
        return plan, exposure, conditions


class GroupByJoinToWindow(JoinGraphRule):
    name = "groupby_join_to_window"

    def apply(self, graph: JoinGraph, ctx: OptimizerContext) -> bool:
        changed = False
        progress = True
        while progress:
            progress = False
            graph.apply_substitution()
            classes = EquivalenceClasses(graph.conjuncts)
            for j, candidate in enumerate(graph.inputs):
                if self._try_input(graph, j, candidate, classes, ctx):
                    progress = True
                    changed = True
                    break
        return changed

    def _try_input(
        self,
        graph: JoinGraph,
        j: int,
        candidate: PlanNode,
        classes: EquivalenceClasses,
        ctx: OptimizerContext,
    ) -> bool:
        grouped, exposure, peeled_conditions = peel_projections(candidate)
        if not isinstance(grouped, GroupBy) or grouped.is_scalar:
            return False
        if not grouped.aggregates:
            return False  # a pure DISTINCT is JoinOnKeys territory
        if any(a.mask != TRUE or a.distinct for a in grouped.aggregates):
            return False
        key_exposure = self._key_exposure(grouped, exposure)
        if key_exposure is None:
            return False

        for i, other in enumerate(graph.inputs):
            if i == j:
                continue
            result = ctx.fuser.fuse(other, grouped.child)
            if result is None or not result.is_exact:
                continue
            if not ctx.worth_fusing(grouped.child):
                continue
            other_columns = set(other.output_columns)
            partition: list[Column] = []
            ok = True
            for key in grouped.keys:
                mirror = result.mapping.map_column(key)
                if mirror not in other_columns:
                    ok = False
                    break
                if not classes.connected(mirror, key_exposure[key.cid]):
                    ok = False
                    break
                partition.append(mirror)
            if not ok:
                continue

            functions = tuple(
                WindowAssignment(
                    agg.target,
                    agg.func,
                    None
                    if agg.argument is None
                    else result.mapping.map_expression(agg.argument),
                )
                for agg in grouped.aggregates
            )
            # Every row the replaced join's ``=`` would have dropped:
            # NULL keys, and for DOUBLE keys NaN too (``c = c``).
            not_null = make_and(
                Comparison("=", ColumnRef(c), ColumnRef(c))
                if c.dtype is DataType.DOUBLE
                else Not(IsNull(ColumnRef(c)))
                for c in partition
            )
            # The window must sit on the *fused* plan, not on ``other``:
            # the aggregate arguments are mapped through M into P's
            # columns, and P2-only columns (e.g. an aggregated column
            # the probe side never reads) exist only in P.  With
            # ``is_exact`` P has the same row multiset as ``other``
            # (P1 = Project[outCols(P1)](P)), so the substitution is
            # row-preserving.
            replacement = Window(
                Filter(result.plan, not_null), tuple(partition), functions
            )

            # Key outputs map to the partition columns; aggregate
            # outputs keep their identity (the window targets reuse
            # them); projected expressions are carried across.
            key_sub: dict[int, Expression] = {
                key.cid: ColumnRef(mirror)
                for key, mirror in zip(grouped.keys, partition)
            }
            substitution: dict[int, Expression] = dict(key_sub)
            for outer_cid, expr in exposure.items():
                carried = substitute(expr, key_sub)
                if not (
                    isinstance(carried, ColumnRef) and carried.column.cid == outer_cid
                ):
                    substitution[outer_cid] = carried
            # §IV.E: conditions peeled from between the join and the
            # GroupBy become residual conjuncts above the window.
            for condition in peeled_conditions:
                graph.conjuncts.append(substitute(condition, key_sub))
            graph.inputs[i] = replacement
            del graph.inputs[j]
            graph.add_substitution(substitution)
            graph.apply_substitution()
            return True
        return False

    @staticmethod
    def _key_exposure(
        grouped: GroupBy, exposure: dict[int, Expression]
    ) -> dict[int, Column] | None:
        """For each group key (inner column), the outer column under
        which the join conjuncts can see it.  None when some key is not
        exposed as a plain column."""
        if not exposure:
            return {key.cid: key for key in grouped.keys}
        out: dict[int, Column] = {}
        for key in grouped.keys:
            found = None
            for outer_cid, expr in exposure.items():
                if isinstance(expr, ColumnRef) and expr.column == key:
                    found = Column(outer_cid, key.name, key.dtype)
                    break
            if found is None:
                return None
            out[key.cid] = found
        return out
