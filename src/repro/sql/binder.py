"""Binder: SQL AST → logical algebra.

Responsibilities:

* name resolution against the catalog, with proper scoping (derived
  tables, aliases, correlated references into enclosing blocks);
* **CTE inlining** — every reference to a WITH-defined name expands
  into a fresh copy of its subtree (fresh column ids).  This models
  Athena's streaming engine, which materializes no intermediate: a CTE
  used twice is evaluated twice — the inefficiency the paper's fusion
  rules remove;
* subquery lowering: ``IN (SELECT …)`` becomes a semi-join (anti-join
  when negated), ``EXISTS`` a semi-join, and scalar subqueries become
  :class:`~repro.algebra.operators.ScalarApply` nodes that optimizer
  rules later remove (decorrelation / cross-join subquery removal);
* aggregation planning: GROUP BY keys, aggregate extraction with
  ``FILTER (WHERE …)`` masks and DISTINCT flags, HAVING;
* window functions (``OVER (PARTITION BY …)``) and SELECT DISTINCT;
* operand types: a comparison, IN test or arithmetic over operands
  that cannot meet (``'a' < 1``, ``string_col = 1``) is a
  :class:`~repro.errors.BindingError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import (
    FALSE,
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
    make_and,
    operand_type_error,
)
from repro.algebra.operators import (
    AGGREGATE_FUNCTIONS,
    AggregateAssignment,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    PlanNode,
    Project,
    ScalarApply,
    Scan,
    Sort,
    SortKey,
    UnionAll,
    Values,
    Window,
    WindowAssignment,
    aggregate_result_type,
)
from repro.algebra.schema import Column
from repro.algebra.types import DataType
from repro.catalog.catalog import Catalog
from repro.errors import BindingError
from repro.sql import ast
from repro.sql.parser import parse


@dataclass(frozen=True)
class BoundQuery:
    """A bound plan plus the user-facing output column names."""

    plan: PlanNode
    column_names: tuple[str, ...]

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.plan.output_columns


def _typed(expr: Expression) -> Expression:
    """``expr``, once its operand types agree (raises BindingError)."""
    try:
        problem = operand_type_error(expr)
    except ValueError:  # an unknown function fails when it runs
        return expr
    if problem is not None:
        raise BindingError(f"type mismatch: {problem}")
    return expr


class _Relation:
    """One FROM item visible in a scope."""

    def __init__(self, alias: str | None, columns: list[tuple[str, Column]]):
        self.alias = alias
        self.columns = columns

    def find(self, name: str) -> list[Column]:
        lowered = name.lower()
        return [col for cname, col in self.columns if cname.lower() == lowered]


class _Scope:
    """Name-resolution scope; ``parent`` enables correlated references."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.relations: list[_Relation] = []

    def add(self, relation: _Relation) -> None:
        self.relations.append(relation)

    def resolve(self, identifier: ast.Identifier) -> Column:
        qualifier = identifier.qualifier
        name = identifier.column
        matches: list[Column] = []
        for relation in self.relations:
            if qualifier is not None:
                if relation.alias is None or relation.alias.lower() != qualifier.lower():
                    continue
            matches.extend(relation.find(name))
        if len(matches) > 1:
            raise BindingError(f"ambiguous column reference {'.'.join(identifier.parts)!r}")
        if matches:
            return matches[0]
        if self.parent is not None:
            return self.parent.resolve(identifier)
        raise BindingError(f"unknown column {'.'.join(identifier.parts)!r}")

    def all_columns(self, qualifier: str | None = None) -> list[tuple[str, Column]]:
        out: list[tuple[str, Column]] = []
        for relation in self.relations:
            if qualifier is not None:
                if relation.alias is None or relation.alias.lower() != qualifier.lower():
                    continue
            out.extend(relation.columns)
        if qualifier is not None and not out:
            raise BindingError(f"unknown relation {qualifier!r} in star expansion")
        return out


class _CteEnv:
    """Immutable chain of WITH definitions in scope."""

    def __init__(self, parent: "_CteEnv | None" = None):
        self.parent = parent
        self.entries: dict[str, tuple[ast.Query, "_CteEnv"]] = {}

    def define(self, name: str, query: ast.Query) -> None:
        self.entries[name.lower()] = (query, self)

    def lookup(self, name: str) -> tuple[ast.Query, "_CteEnv"] | None:
        env: _CteEnv | None = self
        while env is not None:
            hit = env.entries.get(name.lower())
            if hit is not None:
                return hit
            env = env.parent
        return None


class _Block:
    """Mutable state while binding one SELECT block.

    Scalar subqueries splice ScalarApply nodes onto ``plan`` as they
    are encountered inside expressions.
    """

    def __init__(self, plan: PlanNode, scope: _Scope):
        self.plan = plan
        self.scope = scope


class Binder:
    """Binds parsed queries against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.allocator = catalog.allocator

    # -- public API ---------------------------------------------------------

    def bind_sql(self, sql: str) -> BoundQuery:
        """Parse and bind a SQL string."""
        return self.bind(parse(sql))

    def bind(self, query: ast.Query) -> BoundQuery:
        plan, names = self._bind_query(query, None, _CteEnv())
        return BoundQuery(plan, tuple(names))

    # -- query / set operations ----------------------------------------------

    def _bind_query(
        self, query: ast.Query, parent_scope: _Scope | None, ctes: _CteEnv
    ) -> tuple[PlanNode, list[str]]:
        env = ctes
        if query.ctes:
            env = _CteEnv(ctes)
            for name, cte_query in query.ctes:
                env.define(name, cte_query)
        if isinstance(query.body, ast.UnionAllBody):
            plan, names = self._bind_union(query.body, parent_scope, env)
        else:
            plan, names = self._bind_select(query.body, parent_scope, env)
        if query.order_by:
            plan = self._bind_order_by(plan, names, query.order_by)
        if query.limit is not None:
            plan = Limit(plan, query.limit)
        return plan, names

    def _bind_union(
        self, body: ast.UnionAllBody, parent_scope: _Scope | None, ctes: _CteEnv
    ) -> tuple[PlanNode, list[str]]:
        bound = [self._bind_select(branch, parent_scope, ctes) for branch in body.branches]
        first_plan, first_names = bound[0]
        arity = len(first_plan.output_columns)
        for plan, _ in bound[1:]:
            if len(plan.output_columns) != arity:
                raise BindingError("UNION ALL branches must have the same arity")
        outputs = tuple(
            self.allocator.fresh(name, col.dtype)
            for name, col in zip(first_names, first_plan.output_columns)
        )
        return (
            UnionAll(
                tuple(plan for plan, _ in bound),
                outputs,
                tuple(plan.output_columns for plan, _ in bound),
            ),
            list(first_names),
        )

    def _bind_order_by(
        self, plan: PlanNode, names: list[str], items: tuple[ast.OrderItem, ...]
    ) -> PlanNode:
        # ORDER BY resolves against the query's output columns.
        scope = _Scope()
        scope.add(_Relation(None, list(zip(names, plan.output_columns))))
        block = _Block(plan, scope)
        keys = []
        for item in items:
            expr = self._bind_scalar(item.expr, block, allow_subquery=False)
            keys.append(SortKey(expr, item.ascending))
        return Sort(block.plan, tuple(keys))

    # -- SELECT blocks ----------------------------------------------------

    def _bind_select(
        self, select: ast.Select, parent_scope: _Scope | None, ctes: _CteEnv
    ) -> tuple[PlanNode, list[str]]:
        scope = _Scope(parent_scope)
        plan = self._bind_from(select.from_refs, scope, ctes)
        block = _Block(plan, scope)
        block.ctes = ctes  # used when binding IN-subqueries

        if select.where is not None:
            self._bind_where(select.where, block, ctes)

        has_aggregates = bool(select.group_by) or self._contains_aggregate(select)
        group_columns: list[Column] = []
        group_exprs: list[Expression] = []
        replacements: dict[Expression, Column] = {}

        if has_aggregates:
            group_exprs = [
                self._bind_scalar(g, block, allow_subquery=False) for g in select.group_by
            ]
            plan, group_columns = self._materialize_group_keys(block.plan, group_exprs)
            block.plan = plan
            aggregates = self._collect_aggregates(select)
            assignments: list[AggregateAssignment] = []
            seen: dict[tuple, Column] = {}
            agg_targets: dict[ast.FuncCall, Column] = {}
            for call in aggregates:
                assignment = self._bind_aggregate(call, block)
                key = (
                    assignment.func,
                    assignment.argument,
                    assignment.mask,
                    assignment.distinct,
                )
                if key in seen:
                    agg_targets[call] = seen[key]
                else:
                    assignments.append(assignment)
                    seen[key] = assignment.target
                    agg_targets[call] = assignment.target
            block.plan = GroupBy(block.plan, tuple(group_columns), tuple(assignments))
            for expr, col in zip(group_exprs, group_columns):
                replacements[expr] = col
            self._agg_targets = agg_targets
        else:
            self._agg_targets = {}

        if select.having is not None:
            if not has_aggregates:
                raise BindingError("HAVING requires aggregation")
            condition = self._bind_projected(
                select.having, block, replacements, group_columns
            )
            block.plan = Filter(block.plan, condition)

        window_targets = self._bind_windows(select, block, replacements, group_columns)

        items = self._expand_items(select, scope)
        out_names: list[str] = []
        assignments_out: list[tuple[Column, Expression]] = []
        for expr_ast, name in items:
            if has_aggregates:
                bound = self._bind_projected(expr_ast, block, replacements, group_columns)
            else:
                bound = self._bind_scalar(
                    expr_ast, block, allow_subquery=True, windows=window_targets
                )
            target = self.allocator.fresh(name, bound.dtype)
            assignments_out.append((target, bound))
            out_names.append(name)
        block.plan = Project(block.plan, tuple(assignments_out))

        if select.distinct:
            block.plan = GroupBy(block.plan, block.plan.output_columns, ())
        return block.plan, out_names

    # -- FROM ----------------------------------------------------------------

    def _bind_from(
        self, refs: tuple[ast.TableRef, ...], scope: _Scope, ctes: _CteEnv
    ) -> PlanNode:
        if not refs:
            # SELECT without FROM: a single empty row.
            return Values((), ((),))
        plan: PlanNode | None = None
        for ref in refs:
            sub = self._bind_table_ref(ref, scope, ctes)
            plan = sub if plan is None else Join(JoinKind.CROSS, plan, sub)
        return plan

    def _bind_table_ref(self, ref: ast.TableRef, scope: _Scope, ctes: _CteEnv) -> PlanNode:
        if isinstance(ref, ast.NamedTable):
            cte = ctes.lookup(ref.name)
            if cte is not None:
                query, env = cte
                # CTE inlining: every reference binds a fresh copy.
                plan, names = self._bind_query(query, None, env)
                alias = ref.alias or ref.name
                scope.add(_Relation(alias, list(zip(names, plan.output_columns))))
                return plan
            if not self.catalog.has_table(ref.name):
                raise BindingError(f"unknown table {ref.name!r}")
            columns, sources = self.catalog.fresh_scan_columns(ref.name)
            plan = Scan(ref.name.lower(), columns, sources)
            alias = ref.alias or ref.name
            scope.add(_Relation(alias, [(c.name, c) for c in columns]))
            return plan
        if isinstance(ref, ast.DerivedTable):
            plan, names = self._bind_query(ref.query, scope.parent, ctes)
            names = self._apply_column_aliases(names, ref.column_aliases, ref.alias)
            scope.add(_Relation(ref.alias, list(zip(names, plan.output_columns))))
            return plan
        if isinstance(ref, ast.ValuesTable):
            return self._bind_values(ref, scope)
        if isinstance(ref, ast.JoinedTable):
            left = self._bind_table_ref(ref.left, scope, ctes)
            right = self._bind_table_ref(ref.right, scope, ctes)
            if ref.kind == "cross":
                return Join(JoinKind.CROSS, left, right)
            block = _Block(Join(JoinKind.CROSS, left, right), scope)
            condition = self._bind_scalar(ref.condition, block, allow_subquery=False)
            kind = JoinKind.INNER if ref.kind == "inner" else JoinKind.LEFT
            return Join(kind, left, right, condition)
        raise BindingError(f"unsupported table reference {type(ref).__name__}")

    def _apply_column_aliases(
        self, names: list[str], aliases: tuple[str, ...], relation: str
    ) -> list[str]:
        if not aliases:
            return names
        if len(aliases) != len(names):
            raise BindingError(
                f"relation {relation!r} has {len(names)} columns, "
                f"{len(aliases)} aliases given"
            )
        return list(aliases)

    def _bind_values(self, ref: ast.ValuesTable, scope: _Scope) -> PlanNode:
        rows = []
        for row in ref.rows:
            rows.append(tuple(self._const_value(expr) for expr in row))
        arity = len(rows[0])
        if any(len(r) != arity for r in rows):
            raise BindingError("VALUES rows must have the same arity")
        names = list(ref.column_aliases) or [f"col{i+1}" for i in range(arity)]
        if len(names) != arity:
            raise BindingError("VALUES column alias count mismatch")
        columns = tuple(
            self.allocator.fresh(name, self._value_type(rows, i))
            for i, name in enumerate(names)
        )
        scope.add(_Relation(ref.alias, [(c.name, c) for c in columns]))
        return Values(columns, tuple(rows))

    @staticmethod
    def _value_type(rows: list[tuple], index: int) -> DataType:
        for row in rows:
            value = row[index]
            if value is None:
                continue
            if isinstance(value, bool):
                return DataType.BOOLEAN
            if isinstance(value, int):
                return DataType.INTEGER
            if isinstance(value, float):
                return DataType.DOUBLE
            return DataType.STRING
        return DataType.INTEGER

    def _const_value(self, expr: ast.SqlExpr) -> object:
        if isinstance(expr, ast.NumberLit):
            return int(expr.text) if expr.is_integer else float(expr.text)
        if isinstance(expr, ast.StringLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.NullLit):
            return None
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            inner = self._const_value(expr.operand)
            return None if inner is None else -inner
        raise BindingError("VALUES rows must contain literals")

    # -- WHERE ----------------------------------------------------------------

    def _bind_where(self, where: ast.SqlExpr, block: _Block, ctes: _CteEnv) -> None:
        residual: list[Expression] = []
        for conjunct in self._split_and(where):
            if isinstance(conjunct, ast.InSubqueryExpr):
                self._bind_in_subquery(conjunct, block, ctes)
            elif isinstance(conjunct, ast.ExistsExpr):
                self._bind_exists(conjunct, block, ctes)
            else:
                residual.append(self._bind_scalar(conjunct, block, allow_subquery=True))
        if residual:
            block.plan = Filter(block.plan, make_and(residual))

    @staticmethod
    def _split_and(expr: ast.SqlExpr) -> list[ast.SqlExpr]:
        if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
            return Binder._split_and(expr.left) + Binder._split_and(expr.right)
        return [expr]

    def _bind_in_subquery(
        self, expr: ast.InSubqueryExpr, block: _Block, ctes: _CteEnv
    ) -> None:
        operand = self._bind_scalar(expr.operand, block, allow_subquery=False)
        # Bind with the outer scope visible so a correlated reference
        # resolves — and can then be rejected with a precise error.
        sub_plan, _ = self._bind_query(expr.query, block.scope, ctes)
        if len(sub_plan.output_columns) != 1:
            raise BindingError("IN subquery must return exactly one column")
        self._reject_correlation(sub_plan, block, "IN subquery")
        condition = _typed(Comparison("=", operand, ColumnRef(sub_plan.output_columns[0])))
        kind = JoinKind.ANTI if expr.negated else JoinKind.SEMI
        block.plan = Join(kind, block.plan, sub_plan, condition)

    def _bind_exists(self, expr: ast.ExistsExpr, block: _Block, ctes: _CteEnv) -> None:
        sub_plan, _ = self._bind_query(expr.query, block.scope, ctes)
        self._reject_correlation(sub_plan, block, "EXISTS")
        kind = JoinKind.ANTI if expr.negated else JoinKind.SEMI
        block.plan = Join(kind, block.plan, sub_plan, TRUE)

    def _reject_correlation(self, sub_plan: PlanNode, block: _Block, what: str) -> None:
        from repro.algebra.operators import referenced_columns
        from repro.algebra.visitors import walk_plan

        produced: set[Column] = set()
        referenced: set[Column] = set()
        for node in walk_plan(sub_plan):
            produced |= set(node.output_columns)
            referenced |= referenced_columns(node)
        outer = set(block.plan.output_columns)
        if any(c in outer for c in referenced - produced):
            raise BindingError(f"correlated {what} is not supported")

    # -- aggregation -------------------------------------------------------

    def _contains_aggregate(self, select: ast.Select) -> bool:
        exprs: list[ast.SqlExpr] = [item.expr for item in select.items]
        if select.having is not None:
            exprs.append(select.having)
        return any(self._find_aggregates(e) for e in exprs)

    def _find_aggregates(self, expr: ast.SqlExpr) -> list[ast.FuncCall]:
        found: list[ast.FuncCall] = []

        def visit(node: object) -> None:
            if isinstance(node, ast.FuncCall):
                if node.over is None and node.name.lower() in AGGREGATE_FUNCTIONS:
                    found.append(node)
                    return  # no nested aggregates
                for arg in node.args:
                    visit(arg)
                if node.filter_where is not None:
                    visit(node.filter_where)
                return
            if isinstance(node, ast.ScalarSubquery):
                return  # separate block
            if isinstance(node, ast.BinaryOp):
                visit(node.left)
                visit(node.right)
            elif isinstance(node, ast.UnaryOp):
                visit(node.operand)
            elif isinstance(node, ast.IsNullExpr):
                visit(node.operand)
            elif isinstance(node, ast.BetweenExpr):
                visit(node.operand)
                visit(node.low)
                visit(node.high)
            elif isinstance(node, ast.LikeExpr):
                visit(node.operand)
            elif isinstance(node, ast.InListExpr):
                visit(node.operand)
                for item in node.items:
                    visit(item)
            elif isinstance(node, ast.CaseExpr):
                for cond, value in node.whens:
                    visit(cond)
                    visit(value)
                if node.default is not None:
                    visit(node.default)

        visit(expr)
        return found

    def _collect_aggregates(self, select: ast.Select) -> list[ast.FuncCall]:
        exprs: list[ast.SqlExpr] = [item.expr for item in select.items]
        if select.having is not None:
            exprs.append(select.having)
        calls: list[ast.FuncCall] = []
        seen: set = set()
        for expr in exprs:
            for call in self._find_aggregates(expr):
                if call not in seen:
                    seen.add(call)
                    calls.append(call)
        return calls

    def _bind_aggregate(self, call: ast.FuncCall, block: _Block) -> AggregateAssignment:
        func = call.name.lower()
        if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
            if func != "count":
                raise BindingError(f"{func}(*) is not a valid aggregate")
            argument = None
        elif len(call.args) == 1:
            argument = self._bind_scalar(call.args[0], block, allow_subquery=False)
        else:
            raise BindingError(f"aggregate {func} takes exactly one argument")
        mask: Expression = TRUE
        if call.filter_where is not None:
            mask = self._bind_scalar(call.filter_where, block, allow_subquery=False)
        target = self.allocator.fresh(func, aggregate_result_type(func, argument))
        return AggregateAssignment(target, func, argument, mask, call.distinct)

    def _materialize_group_keys(
        self, plan: PlanNode, group_exprs: list[Expression]
    ) -> tuple[PlanNode, list[Column]]:
        """Ensure every group expression is a plain child column,
        inserting a projection for computed keys."""
        computed = [e for e in group_exprs if not isinstance(e, ColumnRef)]
        if not computed:
            return plan, [e.column for e in group_exprs if isinstance(e, ColumnRef)]
        assignments = [(c, ColumnRef(c)) for c in plan.output_columns]
        keys: list[Column] = []
        for expr in group_exprs:
            if isinstance(expr, ColumnRef):
                keys.append(expr.column)
            else:
                fresh = self.allocator.fresh("group_key", expr.dtype)
                assignments.append((fresh, expr))
                keys.append(fresh)
        return Project(plan, tuple(assignments)), keys

    def _bind_projected(
        self,
        expr: ast.SqlExpr,
        block: _Block,
        replacements: dict[Expression, Column],
        group_columns: list[Column],
    ) -> Expression:
        """Bind an expression in the post-aggregation scope: aggregate
        calls map to their target columns; other subtrees must reduce
        to group keys."""
        bound = self._bind_scalar(
            expr, block, allow_subquery=True, aggregates=self._agg_targets
        )
        if replacements:
            from repro.algebra.expressions import transform

            def swap(node: Expression) -> Expression:
                target = replacements.get(node)
                if target is not None:
                    return ColumnRef(target)
                return node

            bound = transform(bound, swap)
        self._check_grouped(bound, group_columns, block)
        return bound

    def _check_grouped(
        self, expr: Expression, group_columns: list[Column], block: _Block
    ) -> None:
        from repro.algebra.expressions import columns_in

        allowed = set(group_columns) | set(block.plan.output_columns)
        # Columns of the pre-aggregation input are not visible anymore,
        # except via group keys (which keep their identity).
        produced_by_groupby = set(block.plan.output_columns)
        for column in columns_in(expr):
            if column not in produced_by_groupby:
                raise BindingError(
                    f"column {column!r} must appear in GROUP BY or an aggregate"
                )

    # -- window functions -------------------------------------------------

    def _bind_windows(
        self,
        select: ast.Select,
        block: _Block,
        replacements: dict[Expression, Column],
        group_columns: list[Column],
    ) -> dict[ast.FuncCall, Column]:
        calls: list[ast.FuncCall] = []
        seen: set = set()

        def visit(node: object) -> None:
            if isinstance(node, ast.FuncCall):
                if node.over is not None:
                    if node not in seen:
                        seen.add(node)
                        calls.append(node)
                    return
                for arg in node.args:
                    visit(arg)
                return
            if isinstance(node, ast.BinaryOp):
                visit(node.left)
                visit(node.right)
            elif isinstance(node, ast.UnaryOp):
                visit(node.operand)
            elif isinstance(node, ast.CaseExpr):
                for cond, value in node.whens:
                    visit(cond)
                    visit(value)
                if node.default is not None:
                    visit(node.default)

        for item in select.items:
            visit(item.expr)
        if not calls:
            return {}

        targets: dict[ast.FuncCall, Column] = {}
        assignments: list[WindowAssignment] = []
        partition: tuple[Column, ...] | None = None
        for call in calls:
            func = call.name.lower()
            if func not in AGGREGATE_FUNCTIONS:
                raise BindingError(f"unsupported window function {func!r}")
            if call.distinct or call.filter_where is not None:
                raise BindingError("window aggregates do not support DISTINCT/FILTER")
            part_cols: list[Column] = []
            for part in call.over.partition_by:
                bound = self._bind_scalar(part, block, allow_subquery=False)
                if not isinstance(bound, ColumnRef):
                    raise BindingError("PARTITION BY must reference plain columns")
                part_cols.append(bound.column)
            key = tuple(part_cols)
            if partition is None:
                partition = key
            elif partition != key:
                raise BindingError(
                    "multiple window partitions in one SELECT are not supported"
                )
            if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
                if func != "count":
                    raise BindingError(f"{func}(*) is not a valid window aggregate")
                argument = None
            elif len(call.args) == 1:
                argument = self._bind_scalar(call.args[0], block, allow_subquery=False)
            else:
                raise BindingError("window aggregates take exactly one argument")
            target = self.allocator.fresh(func, aggregate_result_type(func, argument))
            assignments.append(WindowAssignment(target, func, argument))
            targets[call] = target
        block.plan = Window(block.plan, partition or (), tuple(assignments))
        return targets

    # -- select items ----------------------------------------------------

    def _expand_items(
        self, select: ast.Select, scope: _Scope
    ) -> list[tuple[ast.SqlExpr, str]]:
        items: list[tuple[ast.SqlExpr, str]] = []
        counter = 0
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                for name, column in scope.all_columns(item.expr.qualifier):
                    items.append((ast.Identifier((name,)), name))
                continue
            if item.alias is not None:
                name = item.alias
            elif isinstance(item.expr, ast.Identifier):
                name = item.expr.column
            else:
                counter += 1
                name = f"_col{counter}"
            items.append((item.expr, name))
        return items

    # -- scalar expressions -------------------------------------------------

    def _bind_scalar(
        self,
        expr: ast.SqlExpr,
        block: _Block,
        allow_subquery: bool,
        aggregates: dict[ast.FuncCall, Column] | None = None,
        windows: dict[ast.FuncCall, Column] | None = None,
    ) -> Expression:
        aggregates = aggregates or {}
        windows = windows or {}

        def bind(node: ast.SqlExpr) -> Expression:
            if isinstance(node, ast.Identifier):
                # An identifier may resolve through star-expanded names;
                # scope resolution handles qualifiers and correlation.
                return ColumnRef(block.scope.resolve(node))
            if isinstance(node, ast.NumberLit):
                if node.is_integer:
                    return Literal(int(node.text), DataType.INTEGER)
                return Literal(float(node.text), DataType.DOUBLE)
            if isinstance(node, ast.StringLit):
                return Literal(node.value, DataType.STRING)
            if isinstance(node, ast.BoolLit):
                return TRUE if node.value else FALSE
            if isinstance(node, ast.NullLit):
                return Literal(None, DataType.BOOLEAN)
            if isinstance(node, ast.BinaryOp):
                if node.op == "AND":
                    return And((bind(node.left), bind(node.right)))
                if node.op == "OR":
                    return Or((bind(node.left), bind(node.right)))
                if node.op in ("+", "-", "*", "/"):
                    return Arithmetic(node.op, bind(node.left), bind(node.right))
                return Comparison(node.op, bind(node.left), bind(node.right))
            if isinstance(node, ast.UnaryOp):
                if node.op == "NOT":
                    return Not(bind(node.operand))
                operand = bind(node.operand)
                if isinstance(operand, Literal) and operand.value is not None:
                    return Literal(-operand.value, operand.type)
                return Arithmetic("-", Literal(0, DataType.INTEGER), operand)
            if isinstance(node, ast.IsNullExpr):
                inner = IsNull(bind(node.operand))
                return Not(inner) if node.negated else inner
            if isinstance(node, ast.BetweenExpr):
                operand = bind(node.operand)
                low = bind(node.low)
                high = bind(node.high)
                between = And(
                    (Comparison(">=", operand, low), Comparison("<=", operand, high))
                )
                return Not(between) if node.negated else between
            if isinstance(node, ast.LikeExpr):
                like = Like(bind(node.operand), node.pattern)
                return Not(like) if node.negated else like
            if isinstance(node, ast.InListExpr):
                inlist = InList(bind(node.operand), tuple(bind(i) for i in node.items))
                return Not(inlist) if node.negated else inlist
            if isinstance(node, ast.CaseExpr):
                whens = tuple((bind(c), bind(v)) for c, v in node.whens)
                default = (
                    bind(node.default)
                    if node.default is not None
                    else Literal(None, whens[0][1].dtype)
                )
                return Case(whens, default)
            if isinstance(node, ast.ScalarSubquery):
                if not allow_subquery:
                    raise BindingError("scalar subquery is not allowed here")
                return self._bind_scalar_subquery(node, block)
            if isinstance(node, ast.FuncCall):
                if node in windows:
                    return ColumnRef(windows[node])
                if node in aggregates:
                    return ColumnRef(aggregates[node])
                func = node.name.lower()
                if node.over is not None or func in AGGREGATE_FUNCTIONS:
                    raise BindingError(
                        f"aggregate/window function {func!r} is not allowed here"
                    )
                return FunctionCall(func, tuple(bind(a) for a in node.args))
            if isinstance(node, (ast.InSubqueryExpr, ast.ExistsExpr)):
                raise BindingError(
                    "IN/EXISTS subqueries are only supported as top-level "
                    "WHERE conjuncts"
                )
            raise BindingError(f"unsupported expression {type(node).__name__}")

        return _typed(bind(expr))

    def _bind_scalar_subquery(self, node: ast.ScalarSubquery, block: _Block) -> Expression:
        ctes = getattr(block, "ctes", _CteEnv())
        sub_plan, _ = self._bind_query(node.query, block.scope, ctes)
        if len(sub_plan.output_columns) != 1:
            raise BindingError("scalar subquery must return exactly one column")
        value = sub_plan.output_columns[0]
        output = self.allocator.fresh(value.name, value.dtype)
        block.plan = ScalarApply(block.plan, sub_plan, value, output)
        return ColumnRef(output)
