"""Logical plan operators.

Plans are immutable trees of operators.  Each operator exposes:

* ``children`` / ``with_children`` — generic structural rewriting,
* ``output_columns`` — the ordered :class:`Column` schema it produces.

The operator set matches the one the paper fuses (Section III): table
scans, filters, projections, joins (inner/left/semi/anti/cross),
group-by with *masked* aggregates, ``MarkDistinct``, plus windows,
union-all, constant tables, sort/limit, and ``EnforceSingleRow``.

Masked aggregates are the Athena-specific construct §III.E relies on:
every aggregate is a pair ``(function, mask)`` and only input rows
satisfying the mask contribute.  SQL ``FILTER (WHERE …)`` surfaces the
mask directly, and fusion of GroupBy operators merges aggregate lists
by tightening masks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.algebra.expressions import (
    TRUE,
    ColumnRef,
    Expression,
    columns_in,
)
from repro.algebra.schema import Column
from repro.algebra.types import DataType


class PlanNode:
    """Base class for logical plan operators."""

    __slots__ = ()

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def with_children(self, children: tuple["PlanNode", ...]) -> "PlanNode":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    @property
    def output_columns(self) -> tuple[Column, ...]:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Scan(PlanNode):
    """Scan of a stored table.

    ``columns`` are the fresh column identities this scan instance
    produces; ``source_names`` gives, positionally, the stored column
    each one reads.  ``predicate`` is an optional filter pushed into the
    scan by the optimizer — storage uses it for partition pruning and
    the executor applies it row by row.
    """

    table: str
    columns: tuple[Column, ...]
    source_names: tuple[str, ...]
    predicate: Expression | None = None

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.source_names):
            raise ValueError("columns and source_names must align")

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.columns

    def source_of(self, column: Column) -> str:
        """The stored column name behind an output column."""
        for col, src in zip(self.columns, self.source_names):
            if col == column:
                return src
        raise KeyError(f"{column!r} is not produced by this scan")

    def with_predicate(self, predicate: Expression | None) -> "Scan":
        return replace(self, predicate=predicate)


@dataclass(frozen=True)
class Values(PlanNode):
    """An inline constant table (SQL ``VALUES``).

    Rows hold plain Python values, positionally matching ``columns``.
    The paper's UnionAll rule cross-joins the fused input with a
    two-row constant table of tags; this is that table.
    """

    columns: tuple[Column, ...]
    rows: tuple[tuple[object, ...], ...]

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.columns


@dataclass(frozen=True)
class Filter(PlanNode):
    """Keep rows where ``condition`` evaluates to TRUE."""

    child: PlanNode
    condition: Expression

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Filter":
        (child,) = children
        return Filter(child, self.condition)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.child.output_columns


@dataclass(frozen=True)
class Project(PlanNode):
    """Compute ``assignments`` (target column := expression) and emit
    exactly those columns."""

    child: PlanNode
    assignments: tuple[tuple[Column, Expression], ...]

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Project":
        (child,) = children
        return Project(child, self.assignments)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return tuple(target for target, _ in self.assignments)

    def expression_of(self, column: Column) -> Expression:
        for target, expr in self.assignments:
            if target == column:
                return expr
        raise KeyError(f"{column!r} is not produced by this projection")

    @staticmethod
    def identity(child: PlanNode) -> "Project":
        """A pass-through projection over all of ``child``'s columns."""
        assignments = tuple((c, ColumnRef(c)) for c in child.output_columns)
        return Project(child, assignments)


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    SEMI = "semi"
    ANTI = "anti"
    CROSS = "cross"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Join(PlanNode):
    """Binary join.  SEMI/ANTI emit only left columns; CROSS has no
    condition."""

    kind: JoinKind
    left: PlanNode
    right: PlanNode
    condition: Expression | None = None

    def __post_init__(self) -> None:
        if self.kind is JoinKind.CROSS and self.condition is not None:
            raise ValueError("cross join takes no condition")
        if self.kind is not JoinKind.CROSS and self.condition is None:
            raise ValueError(f"{self.kind} join requires a condition")

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Join":
        left, right = children
        return Join(self.kind, left, right, self.condition)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        if self.kind in (JoinKind.SEMI, JoinKind.ANTI):
            return self.left.output_columns
        return self.left.output_columns + self.right.output_columns


#: Aggregate function names understood by the executor.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max", "stddev_samp")

_AGG_RESULT_TYPE = {
    "count": DataType.INTEGER,
    "avg": DataType.DOUBLE,
    "stddev_samp": DataType.DOUBLE,
}


def aggregate_result_type(func: str, argument: Expression | None) -> DataType:
    """Result type of aggregate ``func`` applied to ``argument``."""
    fixed = _AGG_RESULT_TYPE.get(func)
    if fixed is not None:
        return fixed
    if argument is None:
        raise ValueError(f"aggregate {func} requires an argument")
    return argument.dtype


@dataclass(frozen=True)
class AggregateAssignment:
    """``target := func(argument) FILTER (WHERE mask)``.

    ``argument`` is None only for ``count(*)``.  ``distinct`` marks a
    distinct aggregate (planned away into MarkDistinct + mask by the
    optimizer, but kept here so the binder can express it directly).
    """

    target: Column
    func: str
    argument: Expression | None
    mask: Expression = TRUE
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregate function {self.func!r}")

    def __repr__(self) -> str:
        arg = "*" if self.argument is None else repr(self.argument)
        distinct = "DISTINCT " if self.distinct else ""
        mask = "" if self.mask == TRUE else f" FILTER {self.mask!r}"
        return f"{self.target!r}:={self.func}({distinct}{arg}){mask}"


@dataclass(frozen=True)
class GroupBy(PlanNode):
    """Hash aggregation.

    ``keys`` are child output columns and are passed through with the
    same identity (a common planner convention that keeps fusion's
    mappings small).  ``aggregates`` carry per-aggregate masks.  A
    GroupBy with keys and no aggregates is DISTINCT.
    """

    child: PlanNode
    keys: tuple[Column, ...]
    aggregates: tuple[AggregateAssignment, ...]

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "GroupBy":
        (child,) = children
        return GroupBy(child, self.keys, self.aggregates)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.keys + tuple(a.target for a in self.aggregates)

    @property
    def is_scalar(self) -> bool:
        """True for global aggregation (no grouping columns)."""
        return not self.keys


@dataclass(frozen=True)
class MarkDistinct(PlanNode):
    """Athena's MarkDistinct operator (§III.F).

    Passes the input through and appends boolean column ``marker``,
    TRUE the first time each combination of ``columns`` values is seen
    among rows satisfying ``mask`` (rows failing the mask are marked
    FALSE and do not consume a first occurrence).  Together with
    aggregate masks this implements distinct aggregates without
    self-joins.

    The native ``mask`` is the extension §III.F mentions ("extending
    the MarkDistinct operator itself to consider masks natively"); it
    is what lets fusion tighten markers per consumer without projecting
    guard columns.
    """

    child: PlanNode
    columns: tuple[Column, ...]
    marker: Column
    mask: Expression = TRUE

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "MarkDistinct":
        (child,) = children
        return MarkDistinct(child, self.columns, self.marker, self.mask)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.child.output_columns + (self.marker,)


@dataclass(frozen=True)
class WindowAssignment:
    """``target := func(argument) OVER (PARTITION BY …)``."""

    target: Column
    func: str
    argument: Expression | None
    #: An unmasked, non-DISTINCT aggregate to ``lower_aggregates``.
    mask = TRUE
    distinct = False

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown window aggregate {self.func!r}")

    def __repr__(self) -> str:
        arg = "*" if self.argument is None else repr(self.argument)
        return f"{self.target!r}:={self.func}({arg}) OVER(...)"


@dataclass(frozen=True)
class Window(PlanNode):
    """Windowed aggregation partitioned by columns (no ordering/frames —
    the paper's rewrites only need whole-partition aggregates)."""

    child: PlanNode
    partition_by: tuple[Column, ...]
    functions: tuple[WindowAssignment, ...]

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Window":
        (child,) = children
        return Window(child, self.partition_by, self.functions)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.child.output_columns + tuple(f.target for f in self.functions)


@dataclass(frozen=True)
class UnionAll(PlanNode):
    """N-ary bag union.

    ``columns`` are the fresh output columns; ``input_columns[i]`` maps
    them positionally onto columns of ``inputs[i]`` (this is the
    positional mapping the paper calls ``UM``).
    """

    inputs: tuple[PlanNode, ...]
    columns: tuple[Column, ...]
    input_columns: tuple[tuple[Column, ...], ...]

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.input_columns):
            raise ValueError("one input column list per input required")
        for branch in self.input_columns:
            if len(branch) != len(self.columns):
                raise ValueError("input column lists must match output arity")

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return self.inputs

    def with_children(self, children: tuple[PlanNode, ...]) -> "UnionAll":
        return UnionAll(children, self.columns, self.input_columns)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.columns


@dataclass(frozen=True)
class SortKey:
    expression: Expression
    ascending: bool = True

    def __repr__(self) -> str:
        return f"{self.expression!r} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class Sort(PlanNode):
    """Total sort (NULLS LAST for ascending, NULLS FIRST for descending)."""

    child: PlanNode
    keys: tuple[SortKey, ...]

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Sort":
        (child,) = children
        return Sort(child, self.keys)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.child.output_columns


@dataclass(frozen=True)
class Limit(PlanNode):
    """Emit at most ``count`` rows."""

    child: PlanNode
    count: int

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Limit":
        (child,) = children
        return Limit(child, self.count)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.child.output_columns


@dataclass(frozen=True)
class EnforceSingleRow(PlanNode):
    """Enforce that the input yields exactly one row.

    Used for scalar subqueries: more than one row fails the query; an
    empty input yields one all-NULL row (SQL scalar subquery semantics).
    Fusion handles this operator generically (§III.G).
    """

    child: PlanNode

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "EnforceSingleRow":
        (child,) = children
        return EnforceSingleRow(child)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.child.output_columns


@dataclass(frozen=True)
class ScalarApply(PlanNode):
    """Correlated scalar subquery: for each input row, evaluate
    ``subquery`` (which may reference input columns as free variables)
    and append its single output value as column ``output``.

    ``value`` names the subquery output column whose value is exposed.
    The binder produces this node for scalar subqueries; optimizer
    rules remove it — decorrelation [Galindo-Legaria & Joshi 2001] for
    correlated aggregates, cross-join subquery removal for uncorrelated
    ones (the first step of the paper's §V.B pipeline).  The executor
    retains a nested-loop fallback for completeness.
    """

    input: PlanNode
    subquery: PlanNode
    value: Column
    output: Column

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.input, self.subquery)

    def with_children(self, children: tuple[PlanNode, ...]) -> "ScalarApply":
        left, right = children
        return ScalarApply(left, right, self.value, self.output)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.input.output_columns + (self.output,)

    @property
    def free_columns(self) -> set[Column]:
        """Input columns the subquery references (empty = uncorrelated)."""
        from repro.algebra.visitors import walk_plan  # local import: avoid cycle

        produced: set[Column] = set()
        referenced: set[Column] = set()
        for node in walk_plan(self.subquery):
            produced |= set(node.output_columns)
            referenced |= referenced_columns(node)
        outer = set(self.input.output_columns)
        return {c for c in referenced if c in outer and c not in produced}


@dataclass(frozen=True)
class CachedScan(PlanNode):
    """Leaf that replays a cross-query plan-cache entry.

    Installed by the optimizer's reuse pass in place of a subplan whose
    fingerprint hit the session's :class:`~repro.engine.plan_cache.
    PlanCache`.  ``columns`` are the replaced subplan's output columns
    (so the surrounding plan is untouched) and ``column_tokens`` name,
    positionally, the cached per-column vectors to replay — tokens, not
    column ids, because the entry may have been populated by an
    alpha-equivalent plan with different ids.  ``tables`` is the cached
    computation's lineage, kept so the node re-fingerprints exactly
    like the subplan it replaced.
    """

    fingerprint: str
    columns: tuple[Column, ...]
    column_tokens: tuple[str, ...]
    tables: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.column_tokens):
            raise ValueError("columns and column_tokens must align")

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.columns


@dataclass(frozen=True)
class CachePopulate(PlanNode):
    """Pass-through that materializes its child into the plan cache.

    Installed by the reuse pass around promising subplans: execution
    streams the child's rows unchanged while storing them (as column
    vectors keyed by ``column_tokens``, positionally matching the
    child's outputs) under ``fingerprint``.  ``table_versions`` pins
    the catalog versions observed at plan time, so a reload between
    population and a later lookup invalidates the entry.
    """

    child: PlanNode
    fingerprint: str
    column_tokens: tuple[str, ...]
    tables: tuple[str, ...]
    table_versions: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if len(self.column_tokens) != len(self.child.output_columns):
            raise ValueError("column_tokens must match child arity")

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "CachePopulate":
        (child,) = children
        return CachePopulate(
            child,
            self.fingerprint,
            self.column_tokens,
            self.tables,
            self.table_versions,
        )

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.child.output_columns


@dataclass(frozen=True)
class Exchange(PlanNode):
    """Fragment boundary: gather the child's rows across workers.

    Semantically the identity — an Exchange produces exactly its
    child's bag of rows, in the child's serial order.  The parallel
    planner (:mod:`repro.optimizer.parallel_plan`) inserts one over
    every partition-parallel pipeline, a Filter/Project chain over one
    Scan; the fragment scheduler (:mod:`repro.engine.parallel`) reads
    the pipeline morsel-wise on a worker pool and replaces the node
    with its gathered rows.  Serial
    engines execute it as a pass-through, so a plan carrying Exchange
    nodes means the same thing on one worker as on eight.
    """

    child: PlanNode
    exchange_id: int

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: tuple[PlanNode, ...]) -> "Exchange":
        (child,) = children
        return Exchange(child, self.exchange_id)

    @property
    def output_columns(self) -> tuple[Column, ...]:
        return self.child.output_columns


def pipeline_scan(node: PlanNode) -> Scan | None:
    """The Scan under a pure Filter/Project chain, or None."""
    while isinstance(node, (Filter, Project)):
        node = node.child
    return node if isinstance(node, Scan) else None


def child_bounded(node: PlanNode, index: int, bounded: bool) -> bool:
    """Is child ``index`` of ``node`` demanded lazily by an
    early-terminating ancestor, given whether ``node`` itself is
    (``bounded``)?  A bounded subtree may stop being read before its
    scans are drained: parallel fragments and partition-spanning blocks
    would read more than a serial, chunk-at-a-time run."""
    if isinstance(node, (Limit, EnforceSingleRow)):
        return True
    if isinstance(node, ScalarApply):
        # The subquery is read for at most two rows per input row.
        return True if index == 1 else bounded
    if isinstance(node, (Sort, GroupBy, Window)):
        # Blocking: the operator drains its input fully before emitting
        # a single row, so demand from above cannot be partial.
        return False
    if isinstance(node, Join):
        # Every join kind streams its left (probe) side and materializes
        # its right (build) side.
        return bounded if index == 0 else False
    # Streaming operators (Filter/Project/UnionAll/MarkDistinct/
    # CachePopulate/Exchange...) propagate demand unchanged.
    return bounded


def referenced_columns(node: PlanNode) -> set[Column]:
    """Columns of ``node``'s children that ``node``'s own expressions
    reference (not recursive)."""
    refs: set[Column] = set()
    if isinstance(node, Filter):
        refs |= columns_in(node.condition)
    elif isinstance(node, Project):
        for _, expr in node.assignments:
            refs |= columns_in(expr)
    elif isinstance(node, Join):
        if node.condition is not None:
            refs |= columns_in(node.condition)
    elif isinstance(node, GroupBy):
        refs |= set(node.keys)
        for agg in node.aggregates:
            if agg.argument is not None:
                refs |= columns_in(agg.argument)
            refs |= columns_in(agg.mask)
    elif isinstance(node, MarkDistinct):
        refs |= set(node.columns)
        refs |= columns_in(node.mask)
    elif isinstance(node, Window):
        refs |= set(node.partition_by)
        for fn in node.functions:
            if fn.argument is not None:
                refs |= columns_in(fn.argument)
    elif isinstance(node, UnionAll):
        for branch in node.input_columns:
            refs |= set(branch)
    elif isinstance(node, Sort):
        for key in node.keys:
            refs |= columns_in(key.expression)
    if isinstance(node, Scan) and node.predicate is not None:
        refs |= columns_in(node.predicate)
    return refs
