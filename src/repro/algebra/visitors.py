"""Plan traversal and bottom-up rewriting.

Plan validation lives in :mod:`repro.algebra.validator`."""

from __future__ import annotations

from typing import Callable, Iterator

from repro.algebra.operators import PlanNode, Scan


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
