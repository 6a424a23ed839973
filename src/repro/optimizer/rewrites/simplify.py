"""The cleanup rule: expression folding and structural cleanups as one
bottom-up fixpoint.

These are "orthogonal rules" in the paper's sense (§III.E): because
fusion produces plans out of standard operators, simplification over
masks and filters applies to fused results with no special handling.
"""

from __future__ import annotations

from repro.algebra.expressions import (
    FALSE,
    TRUE,
    ColumnRef,
    make_and,
    substitute,
)
from repro.algebra.operators import (
    AggregateAssignment,
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
from repro.algebra.simplify import simplify, simplify_filter
from repro.optimizer.context import OptimizerContext
from repro.optimizer.rule import RewriteRule


class Cleanup(RewriteRule):
    """The orthogonal cleanups as one bottom-up fixpoint.

    Each node first has its expressions constant-folded and flattened;
    then Filter(TRUE) disappears, adjacent filters merge and
    Filter(FALSE) becomes an empty Values relation; Project(Project(x))
    composes into one projection and an identity projection (same
    columns, same order, plain refs) disappears; provably empty
    UnionAll branches drop.  Each structural rewrite is recorded under
    its own name (folding is not recorded), and :meth:`RewriteRule.run`
    repeats the walk until none applies.
    """

    name = "cleanup"
    records_itself = True

    def rewrite(self, node: PlanNode, ctx: OptimizerContext) -> PlanNode | None:
        folded = _fold_expressions(node)
        structural = _STRUCTURAL.get(type(folded))
        if structural is not None:
            name, rule = structural
            rewritten = rule(folded)
            if rewritten is not None:
                ctx.record(name)
                return rewritten
        return None if folded is node else folded


def _fold_expressions(node: PlanNode) -> PlanNode:
    """``node`` with every expression it holds constant-folded."""
    if isinstance(node, Filter):
        condition = simplify_filter(node.condition)
        if condition != node.condition:
            return Filter(node.child, condition)
    elif isinstance(node, Project):
        assignments = tuple((target, simplify(expr)) for target, expr in node.assignments)
        if assignments != node.assignments:
            return Project(node.child, assignments)
    elif isinstance(node, Join) and node.condition is not None:
        condition = simplify(node.condition)
        if condition != node.condition:
            return Join(node.kind, node.left, node.right, condition)
    elif isinstance(node, GroupBy):
        aggregates = tuple(
            AggregateAssignment(
                a.target,
                a.func,
                None if a.argument is None else simplify(a.argument),
                simplify(a.mask),
                a.distinct,
            )
            for a in node.aggregates
        )
        if aggregates != node.aggregates:
            return GroupBy(node.child, node.keys, aggregates)
    elif isinstance(node, Scan) and node.predicate is not None:
        predicate = simplify_filter(node.predicate)
        if predicate == TRUE:
            predicate = None
        if predicate != node.predicate:
            return node.with_predicate(predicate)
    return node


def _remove_trivial_filter(node: Filter) -> PlanNode | None:
    if node.condition == TRUE:
        return node.child
    if node.condition == FALSE:
        return Values(node.output_columns, ())
    if isinstance(node.child, Filter):
        return Filter(node.child.child, make_and([node.child.condition, node.condition]))
    return None


def _merge_projections(node: Project) -> PlanNode | None:
    child = node.child
    if isinstance(child, Project):
        inner = {target.cid: expr for target, expr in child.assignments}
        composed = tuple(
            (target, simplify(substitute(expr, inner)))
            for target, expr in node.assignments
        )
        return Project(child.child, composed)
    if node.output_columns == child.output_columns and all(
        isinstance(expr, ColumnRef) and expr.column == target
        for target, expr in node.assignments
    ):
        return child
    return None


def is_provably_empty(plan: PlanNode) -> bool:
    """True when the plan can be shown to produce no rows."""
    if isinstance(plan, Values):
        return not plan.rows
    if isinstance(plan, (Filter, Project, Limit, Sort, MarkDistinct, Window)):
        return is_provably_empty(plan.children[0])
    if isinstance(plan, GroupBy):
        return bool(plan.keys) and is_provably_empty(plan.child)
    if isinstance(plan, Join):
        if plan.kind is JoinKind.LEFT:
            return is_provably_empty(plan.left)
        if plan.kind is JoinKind.ANTI:
            return is_provably_empty(plan.left)
        return is_provably_empty(plan.left) or is_provably_empty(plan.right)
    if isinstance(plan, UnionAll):
        return all(is_provably_empty(child) for child in plan.inputs)
    return False


def _prune_union_branches(node: UnionAll) -> PlanNode | None:
    keep = [
        (child, branch)
        for child, branch in zip(node.inputs, node.input_columns)
        if not is_provably_empty(child)
    ]
    if len(keep) == len(node.inputs):
        return None
    if not keep:
        return Values(node.columns, ())
    if len(keep) == 1:
        child, branch = keep[0]
        assignments = tuple(
            (out, ColumnRef(src)) for out, src in zip(node.columns, branch)
        )
        return Project(child, assignments)
    return UnionAll(
        tuple(child for child, _ in keep),
        node.columns,
        tuple(branch for _, branch in keep),
    )


#: Cleanup's structural rewrite per operator type, with the name it
#: records.
_STRUCTURAL = {
    Filter: ("remove_trivial_filters", _remove_trivial_filter),
    Project: ("merge_projections", _merge_projections),
    UnionAll: ("prune_union_branches", _prune_union_branches),
}
