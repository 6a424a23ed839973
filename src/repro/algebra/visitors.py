"""Plan traversal, rewriting, substitution, and validation."""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, Mapping

from repro.algebra.expressions import (
    ColumnRef,
    Expression,
    substitute,
)
from repro.algebra.operators import (
    AggregateAssignment,
    EnforceSingleRow,
    Filter,
    GroupBy,
    Join,
    Limit,
    MarkDistinct,
    PlanNode,
    Project,
    Scan,
    Sort,
    SortKey,
    UnionAll,
    Values,
    Window,
    WindowAssignment,
    referenced_columns,
)
from repro.algebra.schema import Column
from repro.errors import PlanError


def walk_plan(plan: PlanNode) -> Iterator[PlanNode]:
    """Pre-order traversal of the plan tree."""
    yield plan
    for child in plan.children:
        yield from walk_plan(child)


def transform_up(plan: PlanNode, fn: Callable[[PlanNode], PlanNode]) -> PlanNode:
    """Bottom-up rewrite: rewrite children first, then apply ``fn``."""
    children = plan.children
    if children:
        new_children = tuple(transform_up(c, fn) for c in children)
        if new_children != children:
            plan = plan.with_children(new_children)
    return fn(plan)


def collect(plan: PlanNode, node_type: type) -> list[PlanNode]:
    """All nodes of ``node_type`` in the tree, pre-order."""
    return [node for node in walk_plan(plan) if isinstance(node, node_type)]


def count_nodes(plan: PlanNode, node_type: type | None = None) -> int:
    """Number of nodes (optionally of a given type) in the tree."""
    if node_type is None:
        return sum(1 for _ in walk_plan(plan))
    return sum(1 for node in walk_plan(plan) if isinstance(node, node_type))


def scan_tables(plan: PlanNode) -> list[str]:
    """Names of all tables scanned, with multiplicity, pre-order."""
    return [node.table for node in walk_plan(plan) if isinstance(node, Scan)]


def substitute_in_plan(plan: PlanNode, mapping: Mapping[int, Expression]) -> PlanNode:
    """Apply a column substitution to every expression in the plan node
    itself (NOT recursively into children).

    Column-valued positions (group keys, partition keys, MarkDistinct
    sets, union input columns) only accept column-to-column mappings.
    """
    if not mapping:
        return plan

    def sub(expr: Expression) -> Expression:
        return substitute(expr, mapping)

    def sub_col(column: Column) -> Column:
        replacement = mapping.get(column.cid)
        if replacement is None:
            return column
        if not isinstance(replacement, ColumnRef):
            raise PlanError(
                f"column-valued position requires a column mapping, got {replacement!r}"
            )
        return replacement.column

    if isinstance(plan, Scan):
        if plan.predicate is None:
            return plan
        return plan.with_predicate(sub(plan.predicate))
    if isinstance(plan, Filter):
        return Filter(plan.child, sub(plan.condition))
    if isinstance(plan, Project):
        return Project(plan.child, tuple((t, sub(e)) for t, e in plan.assignments))
    if isinstance(plan, Join):
        if plan.condition is None:
            return plan
        return Join(plan.kind, plan.left, plan.right, sub(plan.condition))
    if isinstance(plan, GroupBy):
        keys = tuple(sub_col(k) for k in plan.keys)
        aggs = tuple(
            AggregateAssignment(
                a.target,
                a.func,
                None if a.argument is None else sub(a.argument),
                sub(a.mask),
                a.distinct,
            )
            for a in plan.aggregates
        )
        return GroupBy(plan.child, keys, aggs)
    if isinstance(plan, MarkDistinct):
        return MarkDistinct(
            plan.child,
            tuple(sub_col(c) for c in plan.columns),
            plan.marker,
            sub(plan.mask),
        )
    if isinstance(plan, Window):
        parts = tuple(sub_col(c) for c in plan.partition_by)
        fns = tuple(
            WindowAssignment(f.target, f.func, None if f.argument is None else sub(f.argument))
            for f in plan.functions
        )
        return Window(plan.child, parts, fns)
    if isinstance(plan, UnionAll):
        branches = tuple(tuple(sub_col(c) for c in branch) for branch in plan.input_columns)
        return UnionAll(plan.inputs, plan.columns, branches)
    if isinstance(plan, Sort):
        keys = tuple(SortKey(sub(k.expression), k.ascending) for k in plan.keys)
        return Sort(plan.child, keys)
    return plan


def validate_plan(plan: PlanNode) -> None:
    """Check structural invariants of a plan tree.

    Every expression in an operator must reference only columns its
    children produce (correlated subqueries under ScalarApply may also
    reference the apply input's columns), and output schemas must be
    duplicate-free.  Rules call this (in tests) to catch invalid
    rewrites early.
    """
    from repro.algebra.operators import ScalarApply  # local import: avoid cycle

    def visit(node: PlanNode, outer: frozenset[Column]) -> None:
        if isinstance(node, UnionAll):
            for child, branch in zip(node.inputs, node.input_columns):
                child_cols = set(child.output_columns)
                for col in branch:
                    if col not in child_cols:
                        raise PlanError(
                            f"UnionAll branch column {col!r} not produced by input"
                        )
            for child in node.inputs:
                visit(child, outer)
            return
        available: set[Column] = set(outer)
        for child in node.children:
            available |= set(child.output_columns)
        refs = referenced_columns(node)
        if isinstance(node, Scan):
            refs -= set(node.columns)
        missing = {c for c in refs if c not in available}
        if missing and node.children:
            raise PlanError(
                f"{node.name} references columns not produced by children: "
                f"{sorted(missing, key=lambda c: c.cid)!r}"
            )
        outputs = node.output_columns
        if len({c.cid for c in outputs}) != len(outputs):
            raise PlanError(f"{node.name} output schema has duplicate columns: {outputs!r}")
        if isinstance(node, ScalarApply):
            if node.value not in node.subquery.output_columns:
                raise PlanError("ScalarApply value column not produced by subquery")
            visit(node.input, outer)
            visit(node.subquery, outer | frozenset(node.input.output_columns))
            return
        for child in node.children:
            visit(child, outer)

    visit(plan, frozenset())
