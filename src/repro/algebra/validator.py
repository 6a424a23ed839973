"""Plan invariant validation.

The optimizer safety net: :func:`validate_plan` checks the structural
invariants every well-formed plan tree must satisfy — column
references resolve to a child's output, output schemas are
duplicate-free, boolean positions hold boolean expressions, aggregate
shapes are legal, scans conform to the catalog, an Exchange gathers a
single-scan pipeline — and
:func:`validate_fusion_result` checks the paper's §III fusion contract
(the column mapping ``M`` lands on fused outputs of matching type, and
the compensating filters ``L``/``R`` are boolean predicates over live
fused columns).

With ``OptimizerConfig(validate_plans=True)`` the pipeline runs
:func:`validate_plan` after *every* pass and the fuser runs
:func:`validate_fusion_result` after every successful ``Fuse``, so an
invalid rewrite is reported naming the rule that produced it instead
of surfacing later as a confusing execution error.  The differential
fuzzer (:mod:`repro.testing`) runs with validation always on.

Checks are exact where the planner is exact (column identity, arity)
and tolerant where the planner is tolerant (INTEGER/DOUBLE/DATE mix
freely in numeric positions, mirroring the binder's coercions).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algebra.expressions import Expression, columns_in, operand_type_error
from repro.algebra.operators import (
    AGGREGATE_FUNCTIONS,
    CachePopulate,
    CachedScan,
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
    Window,
    aggregate_result_type,
    pipeline_scan,
    referenced_columns,
)
from repro.algebra.schema import Column
from repro.algebra.types import DataType, compatible
from repro.errors import PlanError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.catalog import Catalog


def _dtype(expr: Expression, node: PlanNode, what: str) -> DataType:
    try:
        return expr.dtype
    except Exception as exc:  # unknown function, malformed tree, ...
        raise PlanError(f"{node.name}: {what} {expr!r} has no dtype: {exc}") from exc


def _check_boolean(expr: Expression, node: PlanNode, what: str) -> None:
    dtype = _dtype(expr, node, what)
    if dtype is not DataType.BOOLEAN:
        raise PlanError(
            f"{node.name}: {what} {expr!r} has type {dtype.value}, expected boolean"
        )
    _check_operand_types(expr, node, what)


def _check_operand_types(expr: Expression, node: PlanNode, what: str) -> None:
    """Reject comparisons/arithmetic over incompatible operand types
    (:func:`~repro.algebra.expressions.operand_type_error`): a rewrite
    that mixes them would only fail at runtime, inside a backend."""
    try:
        problem = operand_type_error(expr)
    except Exception as exc:  # unknown function, malformed tree, ...
        raise PlanError(f"{node.name}: {what} {expr!r} has no dtype: {exc}") from exc
    if problem is not None:
        raise PlanError(f"{node.name}: {what} {problem}")


def _check_refs(node: PlanNode, available: set[Column]) -> None:
    refs = referenced_columns(node)
    if isinstance(node, Scan):
        # A pushed-down predicate references the scan's own outputs.
        refs -= set(node.columns)
    missing = sorted((c for c in refs if c not in available), key=lambda c: c.cid)
    if missing:
        raise PlanError(
            f"{node.name} references columns not produced by its children: "
            f"{missing!r}"
        )


def _check_outputs(node: PlanNode) -> None:
    outputs = node.output_columns
    if len({c.cid for c in outputs}) != len(outputs):
        raise PlanError(
            f"{node.name} output schema has duplicate columns: {outputs!r}"
        )


def _check_scan(node: Scan, catalog: "Catalog | None") -> None:
    if catalog is None or not catalog.has_table(node.table):
        return
    table = catalog.table(node.table)
    for column, source in zip(node.columns, node.source_names):
        if not table.has_column(source):
            raise PlanError(
                f"Scan of {node.table!r} reads unknown column {source!r}"
            )
        stored = table.column(source)
        if not compatible(stored.dtype, column.dtype):
            raise PlanError(
                f"Scan of {node.table!r}: column {column!r} has type "
                f"{column.dtype.value} but stored column {source!r} is "
                f"{stored.dtype.value}"
            )


def _check_group_by(node: GroupBy) -> None:
    child_outputs = set(node.child.output_columns)
    for key in node.keys:
        if key not in child_outputs:
            raise PlanError(f"GroupBy key {key!r} is not a child output column")
    seen_targets: set[int] = set()
    for agg in node.aggregates:
        if agg.func not in AGGREGATE_FUNCTIONS:
            raise PlanError(f"GroupBy: unknown aggregate function {agg.func!r}")
        if agg.argument is None and agg.func != "count":
            raise PlanError(f"GroupBy: aggregate {agg.func} requires an argument")
        if agg.argument is None and agg.distinct:
            raise PlanError("GroupBy: count(*) cannot be DISTINCT")
        _check_boolean(agg.mask, node, f"mask of {agg.target!r}")
        if agg.target.cid in seen_targets:
            raise PlanError(f"GroupBy has duplicate aggregate target {agg.target!r}")
        seen_targets.add(agg.target.cid)
        if agg.argument is not None:
            arg_type = _dtype(agg.argument, node, f"argument of {agg.target!r}")
            _check_operand_types(agg.argument, node, f"argument of {agg.target!r}")
            if agg.func in ("sum", "avg", "stddev_samp") and not arg_type.is_numeric:
                raise PlanError(
                    f"GroupBy: {agg.func} argument {agg.argument!r} has "
                    f"non-numeric type {arg_type.value}"
                )
        result_type = aggregate_result_type(agg.func, agg.argument)
        if not compatible(result_type, agg.target.dtype):
            raise PlanError(
                f"GroupBy: target {agg.target!r} has type "
                f"{agg.target.dtype.value} but {agg.func} produces "
                f"{result_type.value}"
            )


def _check_window(node: Window) -> None:
    child_outputs = set(node.child.output_columns)
    for key in node.partition_by:
        if key not in child_outputs:
            raise PlanError(
                f"Window partition key {key!r} is not a child output column"
            )
    for fn in node.functions:
        if fn.argument is None and fn.func != "count":
            raise PlanError(f"Window: aggregate {fn.func} requires an argument")
        result_type = aggregate_result_type(fn.func, fn.argument)
        if not compatible(result_type, fn.target.dtype):
            raise PlanError(
                f"Window: target {fn.target!r} has type "
                f"{fn.target.dtype.value} but {fn.func} produces "
                f"{result_type.value}"
            )


def validate_plan(plan: PlanNode, catalog: "Catalog | None" = None) -> None:
    """Raise :class:`~repro.errors.PlanError` if ``plan`` violates any
    structural invariant.

    Checks, per node:

    * every referenced column is produced by a child (ScalarApply
      subqueries may also reference the apply input's columns);
    * output schemas carry no duplicate column ids;
    * Filter/Join conditions, scan predicates, and aggregate /
      MarkDistinct masks are boolean;
    * GroupBy keys and Window partition keys are child output columns
      (pass-through identity, the planner convention fusion relies on);
    * aggregate shapes are legal and target types agree with
      :func:`~repro.algebra.operators.aggregate_result_type`;
    * projections assign type-compatible expressions to their targets;
    * UnionAll branch columns exist in the matching input and are
      type-compatible with the output schema;
    * with a ``catalog``: scans read existing stored columns at the
      stored type.
    """

    def visit(node: PlanNode, outer: frozenset[Column]) -> None:
        available: set[Column] = set(outer)
        for child in node.children:
            available |= set(child.output_columns)
        _check_refs(node, available)
        _check_outputs(node)

        if isinstance(node, Scan):
            if node.predicate is not None:
                _check_boolean(node.predicate, node, "scan predicate")
            _check_scan(node, catalog)
        elif isinstance(node, Filter):
            _check_boolean(node.condition, node, "filter condition")
        elif isinstance(node, Project):
            for target, expr in node.assignments:
                expr_type = _dtype(expr, node, f"assignment to {target!r}")
                if not compatible(target.dtype, expr_type):
                    raise PlanError(
                        f"Project: target {target!r} has type "
                        f"{target.dtype.value} but expression {expr!r} has "
                        f"type {expr_type.value}"
                    )
                _check_operand_types(expr, node, f"assignment to {target!r}")
        elif isinstance(node, Join):
            if node.kind is not JoinKind.CROSS:
                _check_boolean(node.condition, node, "join condition")
        elif isinstance(node, GroupBy):
            _check_group_by(node)
        elif isinstance(node, MarkDistinct):
            _check_boolean(node.mask, node, "mark-distinct mask")
            if node.marker.dtype is not DataType.BOOLEAN:
                raise PlanError(
                    f"MarkDistinct marker {node.marker!r} has type "
                    f"{node.marker.dtype.value}, expected boolean"
                )
        elif isinstance(node, Window):
            _check_window(node)
        elif isinstance(node, UnionAll):
            for position, (child, branch) in enumerate(
                zip(node.inputs, node.input_columns)
            ):
                child_cols = set(child.output_columns)
                for out, col in zip(node.columns, branch):
                    if col not in child_cols:
                        raise PlanError(
                            f"UnionAll branch {position} column {col!r} not "
                            f"produced by its input"
                        )
                    if not compatible(out.dtype, col.dtype):
                        raise PlanError(
                            f"UnionAll output {out!r} has type "
                            f"{out.dtype.value} but branch {position} "
                            f"supplies {col!r} of type {col.dtype.value}"
                        )
        elif isinstance(node, Limit):
            if node.count < 0:
                raise PlanError(f"Limit count must be non-negative, got {node.count}")
        elif isinstance(node, Exchange):
            # The fragment scheduler cuts morsel windows over the one
            # Scan a worker reads; everything stateful stays above.
            if pipeline_scan(node.child) is None:
                raise PlanError(
                    f"Exchange #{node.exchange_id} gathers "
                    f"{node.child.name}; it must gather a Filter/Project "
                    f"chain over one Scan"
                )
        elif isinstance(node, (CachedScan, CachePopulate)):
            pass  # arity enforced by the constructors

        if isinstance(node, ScalarApply):
            if node.value not in node.subquery.output_columns:
                raise PlanError(
                    f"ScalarApply value column {node.value!r} not produced by "
                    f"its subquery"
                )
            if not compatible(node.output.dtype, node.value.dtype):
                raise PlanError(
                    f"ScalarApply output {node.output!r} has type "
                    f"{node.output.dtype.value} but subquery value "
                    f"{node.value!r} has type {node.value.dtype.value}"
                )
            visit(node.input, outer)
            visit(node.subquery, outer | frozenset(node.input.output_columns))
            return
        for child in node.children:
            visit(child, outer)

    visit(plan, frozenset())


def validate_fusion_result(result, p1: PlanNode, p2: PlanNode) -> None:
    """Check §III's fusion contract for ``result = Fuse(p1, p2)``.

    * the fused plan itself is a valid plan tree;
    * every output column of ``p1`` is an output of the fused plan
      (``P1 = Project[outCols(P1)](Filter[L](P))`` needs them live);
    * the mapping sends every output column of ``p2`` to a fused output
      of a compatible type;
    * the compensating filters ``L``/``R`` are boolean and reference
      only fused output columns.

    ``result`` is any object with ``plan`` / ``mapping`` /
    ``left_filter`` / ``right_filter`` attributes (duck-typed to keep
    this module independent of :mod:`repro.fusion`).
    """
    validate_plan(result.plan)
    fused_outputs = set(result.plan.output_columns)
    for column in p1.output_columns:
        if column not in fused_outputs:
            raise PlanError(
                f"fusion dropped P1 output column {column!r} from the fused plan"
            )
    for column in p2.output_columns:
        mapped = result.mapping.map_column(column)
        if mapped not in fused_outputs:
            raise PlanError(
                f"fusion maps P2 output {column!r} to {mapped!r}, which the "
                f"fused plan does not produce"
            )
        if not compatible(column.dtype, mapped.dtype):
            raise PlanError(
                f"fusion maps P2 output {column!r} ({column.dtype.value}) to "
                f"{mapped!r} of incompatible type {mapped.dtype.value}"
            )
    for side, comp in (("L", result.left_filter), ("R", result.right_filter)):
        dtype = _dtype(comp, result.plan, f"compensating filter {side}")
        if dtype is not DataType.BOOLEAN:
            raise PlanError(
                f"compensating filter {side} {comp!r} has type "
                f"{dtype.value}, expected boolean"
            )
        dangling = sorted(
            (c for c in columns_in(comp) if c not in fused_outputs),
            key=lambda c: c.cid,
        )
        if dangling:
            raise PlanError(
                f"compensating filter {side} {comp!r} references columns the "
                f"fused plan does not produce: {dangling!r}"
            )
