"""Render logical plans back to SQL.

The paper presents every rewrite "in SQL for simplicity"; this module
does the same for arbitrary plans: :func:`render_sql` produces a query
in the library's own dialect that re-binds to an equivalent plan.  The
round-trip (bind → render → bind → execute) is property-tested against
the whole workload.

Columns are renamed to ``c<cid>`` throughout, so names are globally
unique and every operator can use ``SELECT *`` safely; a final SELECT
restores the user-facing names.

Operators with no SQL surface in the dialect — ``MarkDistinct``,
``ScalarApply``, ``EnforceSingleRow`` — raise
:class:`RenderError`; they only appear in optimized plans, and the
renderer's primary targets are binder output and the fusion rules'
SQL-expressible rewrites.
"""

from __future__ import annotations

from repro.algebra.expressions import (
    TRUE,
    And,
    Arithmetic,
    Case,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from repro.algebra.operators import (
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    UnionAll,
    Values,
    Window,
)
from repro.algebra.schema import Column
from repro.errors import ReproError


class RenderError(ReproError):
    """The plan contains an operator with no SQL rendering."""


def _name(column: Column) -> str:
    return f"c{column.cid}"


def _literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


def render_expression(expr: Expression) -> str:
    """Render a scalar expression over ``c<cid>`` column names."""
    if isinstance(expr, Literal):
        return _literal(expr.value)
    if isinstance(expr, ColumnRef):
        return _name(expr.column)
    if isinstance(expr, Comparison):
        return f"({render_expression(expr.left)} {expr.op} {render_expression(expr.right)})"
    if isinstance(expr, And):
        return "(" + " AND ".join(render_expression(t) for t in expr.terms) + ")"
    if isinstance(expr, Or):
        return "(" + " OR ".join(render_expression(t) for t in expr.terms) + ")"
    if isinstance(expr, Not):
        if isinstance(expr.term, IsNull):
            return f"({render_expression(expr.term.operand)} IS NOT NULL)"
        return f"(NOT {render_expression(expr.term)})"
    if isinstance(expr, Arithmetic):
        return f"({render_expression(expr.left)} {expr.op} {render_expression(expr.right)})"
    if isinstance(expr, IsNull):
        return f"({render_expression(expr.operand)} IS NULL)"
    if isinstance(expr, InList):
        items = ", ".join(render_expression(i) for i in expr.items)
        return f"({render_expression(expr.operand)} IN ({items}))"
    if isinstance(expr, Like):
        pattern = expr.pattern.replace("'", "''")
        return f"({render_expression(expr.operand)} LIKE '{pattern}')"
    if isinstance(expr, Case):
        parts = ["CASE"]
        for cond, value in expr.whens:
            parts.append(f"WHEN {render_expression(cond)} THEN {render_expression(value)}")
        parts.append(f"ELSE {render_expression(expr.default)} END")
        return "(" + " ".join(parts) + ")"
    if isinstance(expr, FunctionCall):
        args = ", ".join(render_expression(a) for a in expr.args)
        return f"{expr.name}({args})"
    raise RenderError(f"cannot render expression {expr!r}")


class _Renderer:
    def __init__(self) -> None:
        self._alias = 0

    def alias(self) -> str:
        self._alias += 1
        return f"q{self._alias}"

    # Every method returns a complete SELECT query whose output columns
    # are named c<cid> for the node's output columns, in order.

    def render(self, plan: PlanNode) -> str:
        if isinstance(plan, Scan):
            return self._scan(plan)
        if isinstance(plan, Values):
            return self._values(plan)
        if isinstance(plan, Filter):
            return self._filter(plan)
        if isinstance(plan, Project):
            return self._project(plan)
        if isinstance(plan, Join):
            return self._join(plan)
        if isinstance(plan, GroupBy):
            return self._group_by(plan)
        if isinstance(plan, Window):
            return self._window(plan)
        if isinstance(plan, UnionAll):
            return self._union_all(plan)
        if isinstance(plan, Sort):
            return self._sort(plan)
        if isinstance(plan, Limit):
            return self._limit(plan)
        from repro.algebra.operators import ScalarApply

        if isinstance(plan, ScalarApply):
            return self._scalar_apply(plan)
        raise RenderError(f"operator {plan.name} has no SQL rendering")

    def _scalar_apply(self, plan) -> str:
        """A correlated scalar subquery: free references to the input's
        columns resolve through the enclosing scope by name."""
        sub = self.render(plan.subquery)
        value = _name(plan.value)
        inner = f"SELECT {value} FROM ({sub}) {self.alias()}"
        return (
            f"SELECT *, ({inner}) AS {_name(plan.output)} "
            f"FROM {self._derived(plan.input)}"
        )

    def _derived(self, plan: PlanNode) -> str:
        return f"({self.render(plan)}) {self.alias()}"

    def _scan(self, plan: Scan) -> str:
        selections = ", ".join(
            f"{source} AS {_name(column)}"
            for column, source in zip(plan.columns, plan.source_names)
        )
        if not selections:
            selections = "1 AS one"
        sql = f"SELECT {selections} FROM {plan.table}"
        if plan.predicate is None:
            return sql
        # A pushed-down predicate filters the predicate-free scan, whose
        # outputs carry the c<cid> names the predicate renders with.
        return (
            f"SELECT * FROM ({sql}) {self.alias()} "
            f"WHERE {render_expression(plan.predicate)}"
        )

    def _values(self, plan: Values) -> str:
        if not plan.columns:
            raise RenderError("zero-column VALUES has no SQL rendering")
        names = [_name(c) for c in plan.columns]
        if not plan.rows:
            nulls = ", ".join(f"NULL AS {n}" for n in names)
            return f"SELECT {nulls} WHERE FALSE"
        rows = ", ".join(
            "(" + ", ".join(_literal(v) for v in row) + ")" for row in plan.rows
        )
        inner_names = ", ".join(names)
        alias = self.alias()
        return (
            f"SELECT * FROM (VALUES {rows}) {alias}({inner_names})"
        )

    def _filter(self, plan: Filter) -> str:
        return (
            f"SELECT * FROM {self._derived(plan.child)} "
            f"WHERE {render_expression(plan.condition)}"
        )

    def _project(self, plan: Project) -> str:
        if not plan.assignments:
            raise RenderError("zero-column projection has no SQL rendering")
        selections = ", ".join(
            f"{render_expression(expr)} AS {_name(target)}"
            for target, expr in plan.assignments
        )
        return f"SELECT {selections} FROM {self._derived(plan.child)}"

    def _join(self, plan: Join) -> str:
        left = self._derived(plan.left)
        if plan.kind is JoinKind.CROSS:
            return f"SELECT * FROM {left} CROSS JOIN {self._derived(plan.right)}"
        if plan.kind in (JoinKind.INNER, JoinKind.LEFT):
            keyword = "JOIN" if plan.kind is JoinKind.INNER else "LEFT JOIN"
            condition = render_expression(plan.condition)
            return f"SELECT * FROM {left} {keyword} {self._derived(plan.right)} ON {condition}"
        # SEMI / ANTI render as [NOT] IN when the condition is a single
        # column equality (how the binder produces them).
        probe, needle = self._semi_parts(plan)
        right = self.render(plan.right)
        inner = f"SELECT {_name(needle)} FROM ({right}) {self.alias()}"
        op = "IN" if plan.kind is JoinKind.SEMI else "NOT IN"
        return f"SELECT * FROM {left} WHERE {render_expression(probe)} {op} ({inner})"

    def _semi_parts(self, plan: Join):
        from repro.algebra.expressions import columns_in

        condition = plan.condition
        if isinstance(condition, Comparison) and condition.op == "=":
            left_cols = set(plan.left.output_columns)
            right_cols = set(plan.right.output_columns)
            sides = [condition.left, condition.right]
            for probe, needle in (sides, sides[::-1]):
                if (
                    isinstance(needle, ColumnRef)
                    and needle.column in right_cols
                    and columns_in(probe) <= left_cols
                ):
                    return probe, needle.column
        raise RenderError(f"{plan.kind.value} join condition has no SQL rendering")

    def _group_by(self, plan: GroupBy) -> str:
        child = self._derived(plan.child)
        if not plan.aggregates and plan.keys:
            keys = ", ".join(_name(k) for k in plan.keys)
            return f"SELECT DISTINCT {keys} FROM {child}"
        selections = [f"{_name(k)}" for k in plan.keys]
        for agg in plan.aggregates:
            argument = "*" if agg.argument is None else render_expression(agg.argument)
            distinct = "DISTINCT " if agg.distinct else ""
            call = f"{agg.func}({distinct}{argument})"
            if agg.mask != TRUE:
                call += f" FILTER (WHERE {render_expression(agg.mask)})"
            selections.append(f"{call} AS {_name(agg.target)}")
        sql = f"SELECT {', '.join(selections)} FROM {child}"
        if plan.keys:
            sql += " GROUP BY " + ", ".join(_name(k) for k in plan.keys)
        return sql

    def _window(self, plan: Window) -> str:
        parts = ["*"]
        partition = ", ".join(_name(c) for c in plan.partition_by)
        over = f"OVER (PARTITION BY {partition})" if partition else "OVER ()"
        for fn in plan.functions:
            argument = "*" if fn.argument is None else render_expression(fn.argument)
            parts.append(f"{fn.func}({argument}) {over} AS {_name(fn.target)}")
        return f"SELECT {', '.join(parts)} FROM {self._derived(plan.child)}"

    def _union_all(self, plan: UnionAll) -> str:
        branches = []
        for child, branch in zip(plan.inputs, plan.input_columns):
            selections = ", ".join(
                f"{_name(source)} AS {_name(target)}"
                for target, source in zip(plan.columns, branch)
            )
            if not selections:
                raise RenderError("zero-column union has no SQL rendering")
            branches.append(f"SELECT {selections} FROM {self._derived(child)}")
        return " UNION ALL ".join(branches)

    def _sort(self, plan: Sort) -> str:
        keys = ", ".join(
            f"{render_expression(k.expression)} {'ASC' if k.ascending else 'DESC'}"
            for k in plan.keys
        )
        return f"SELECT * FROM {self._derived(plan.child)} ORDER BY {keys}"

    def _limit(self, plan: Limit) -> str:
        child = plan.child
        if isinstance(child, Sort):
            return f"{self._sort(child)} LIMIT {plan.count}"
        return f"SELECT * FROM {self._derived(child)} LIMIT {plan.count}"


def render_sql(plan: PlanNode, column_names: tuple[str, ...] | None = None) -> str:
    """Render ``plan`` to SQL in the library's dialect.

    ``column_names`` (defaults to the columns' own names) become the
    user-facing output names via a final SELECT.
    """
    renderer = _Renderer()
    body = renderer.render(plan)
    outputs = plan.output_columns
    names = column_names if column_names is not None else tuple(c.name for c in outputs)
    if len(names) != len(outputs):
        raise RenderError("column_names arity mismatch")
    final = ", ".join(
        f"{_name(column)} AS {name}" for column, name in zip(outputs, names)
    )
    return f"SELECT {final} FROM ({body}) final_q"
