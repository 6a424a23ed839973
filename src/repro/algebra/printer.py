"""Plan explain printer.

Renders a logical plan as an indented operator tree, the way engines
print EXPLAIN output.  Used by examples, benchmark reports, and tests
that assert plan shapes.
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
    UnionAll,
    Values,
    Window,
)


def _describe(node: PlanNode) -> str:
    if isinstance(node, Scan):
        cols = ", ".join(repr(c) for c in node.columns)
        pred = f" predicate={node.predicate!r}" if node.predicate is not None else ""
        return f"Scan[{node.table}]({cols}){pred}"
    if isinstance(node, Values):
        return f"Values[{len(node.rows)} rows]({', '.join(repr(c) for c in node.columns)})"
    if isinstance(node, Filter):
        return f"Filter[{node.condition!r}]"
    if isinstance(node, Project):
        parts = ", ".join(f"{t!r}:={e!r}" for t, e in node.assignments)
        return f"Project[{parts}]"
    if isinstance(node, Join):
        cond = "" if node.condition is None else f" on {node.condition!r}"
        return f"Join[{node.kind.value}]{cond}"
    if isinstance(node, GroupBy):
        keys = ", ".join(repr(k) for k in node.keys)
        aggs = ", ".join(repr(a) for a in node.aggregates)
        return f"GroupBy[keys=({keys}) aggs=({aggs})]"
    if isinstance(node, MarkDistinct):
        cols = ", ".join(repr(c) for c in node.columns)
        from repro.algebra.expressions import TRUE

        mask = "" if node.mask == TRUE else f" mask={node.mask!r}"
        return f"MarkDistinct[{node.marker!r} over ({cols}){mask}]"
    if isinstance(node, Window):
        parts = ", ".join(repr(c) for c in node.partition_by)
        fns = ", ".join(repr(f) for f in node.functions)
        return f"Window[partition=({parts}) fns=({fns})]"
    if isinstance(node, UnionAll):
        return f"UnionAll[{len(node.inputs)} inputs]"
    if isinstance(node, Sort):
        return f"Sort[{', '.join(repr(k) for k in node.keys)}]"
    if isinstance(node, Limit):
        return f"Limit[{node.count}]"
    if isinstance(node, EnforceSingleRow):
        return "EnforceSingleRow"
    from repro.algebra.operators import (
        CachedScan,
        CachePopulate,
        Exchange,
        ScalarApply,
    )

    if isinstance(node, Exchange):
        return f"Exchange[#{node.exchange_id}]"
    if isinstance(node, ScalarApply):
        return f"ScalarApply[{node.output!r} := {node.value!r}]"
    if isinstance(node, CachedScan):
        cols = ", ".join(repr(c) for c in node.columns)
        return f"CachedScan[{node.fingerprint[:12]}]({cols})"
    if isinstance(node, CachePopulate):
        return f"CachePopulate[{node.fingerprint[:12]}]"
    return node.name


def explain(plan: PlanNode) -> str:
    """Multi-line indented rendering of the plan tree."""
    lines: list[str] = []

    def visit(node: PlanNode, depth: int) -> None:
        lines.append("  " * depth + "- " + _describe(node))
        for child in node.children:
            visit(child, depth + 1)

    visit(plan, 0)
    return "\n".join(lines)
