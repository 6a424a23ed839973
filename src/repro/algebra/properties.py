"""Derived plan properties: candidate keys and cost-relevant features.

The JoinOnKeys rule (§IV.B) needs to know that each side of a join is
keyed by the join columns.  The paper notes Athena "does not have a
general mechanism to propagate key information through query plans" and
specializes the rule to GroupBy inputs; we implement a *limited* key
derivation that covers the same cases (GroupBy keys, key-preserving
unary operators) so the rule can be written in the paper's general form
while firing in exactly the situations the paper describes.
"""

from __future__ import annotations

from repro.algebra.operators import (
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
    Window,
)
from repro.algebra.expressions import ColumnRef
from repro.algebra.schema import Column
from repro.algebra.visitors import walk_plan


def candidate_keys(plan: PlanNode) -> set[frozenset[Column]]:
    """Candidate keys derivable from plan structure.

    * A GroupBy is keyed by its grouping columns (the empty frozenset —
      "at most one row" — for scalar aggregates).
    * Filter/Sort/Limit/MarkDistinct/Window preserve child keys.
    * Project preserves a key when all its columns survive as
      plain pass-through assignments.
    * EnforceSingleRow is keyed by the empty set.

    Scans and joins return no keys: the catalog's primary keys are not
    propagated (matching the limitation the paper works around).
    """
    if isinstance(plan, GroupBy):
        return {frozenset(plan.keys)}
    if isinstance(plan, EnforceSingleRow):
        return {frozenset()}
    if isinstance(plan, (Filter, Sort, Limit, MarkDistinct, Window)):
        return candidate_keys(plan.children[0])
    if isinstance(plan, Project):
        child_keys = candidate_keys(plan.child)
        passthrough: set[Column] = set()
        for target, expr in plan.assignments:
            if isinstance(expr, ColumnRef):
                passthrough.add(expr.column)
        preserved: set[frozenset[Column]] = set()
        for key in child_keys:
            if key <= passthrough:
                # Re-express the key in terms of output columns.
                out_key = set()
                for target, expr in plan.assignments:
                    if isinstance(expr, ColumnRef) and expr.column in key:
                        out_key.add(target)
                if len(out_key) >= len(key):
                    preserved.add(frozenset(out_key))
        return preserved
    return set()


def has_key(plan: PlanNode, columns: set[Column]) -> bool:
    """True when some candidate key of ``plan`` is contained in ``columns``."""
    return any(key <= columns for key in candidate_keys(plan))


def contains_aggregate_or_join(plan: PlanNode) -> bool:
    """Heuristic 'is this subtree expensive to recompute'."""
    return any(isinstance(node, (GroupBy, Join, Window)) for node in walk_plan(plan))
