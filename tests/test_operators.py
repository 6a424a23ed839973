"""Unit tests for plan operators, schemas, and plan validation."""

import pytest

from repro.algebra.expressions import (
    TRUE,
    ColumnRef,
    Comparison,
    integer,
)
from repro.algebra.operators import (
    AggregateAssignment,
    EnforceSingleRow,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    MarkDistinct,
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
    referenced_columns,
)
from repro.algebra.schema import Column, ColumnAllocator, Schema
from repro.algebra.types import DataType
from repro.algebra.validator import validate_plan
from repro.algebra.visitors import (
    collect,
    count_nodes,
    scan_tables,
    transform_up,
    walk_plan,
)
from repro.errors import PlanError

I = DataType.INTEGER
D = DataType.DOUBLE


def cols(*names: str, start: int = 1) -> tuple[Column, ...]:
    return tuple(Column(start + i, n, I) for i, n in enumerate(names))


def scan(*names: str, table: str = "t", start: int = 1) -> Scan:
    columns = cols(*names, start=start)
    return Scan(table, columns, tuple(names))


class TestSchema:
    def test_column_identity_by_cid(self):
        a = Column(1, "x", I)
        b = Column(1, "renamed", D)
        assert a == b and hash(a) == hash(b)

    def test_renamed_preserves_identity(self):
        a = Column(1, "x", I)
        assert a.renamed("y") == a and a.renamed("y").name == "y"

    def test_allocator_produces_unique_ids(self):
        allocator = ColumnAllocator()
        c1 = allocator.fresh("a", I)
        c2 = allocator.like(c1)
        assert c1 != c2 and c2.name == "a" and c2.dtype is I

    def test_schema_lookup(self):
        schema = Schema(cols("a", "b", "a"))
        assert len(schema.find("a")) == 2
        assert len(schema.find("B")) == 1
        assert schema.index_of(schema.columns[1]) == 1
        with pytest.raises(KeyError):
            schema.index_of(Column(99, "zz", I))


class TestOperatorSchemas:
    def test_scan_outputs_and_source_lookup(self):
        s = scan("a", "b")
        assert [c.name for c in s.output_columns] == ["a", "b"]
        assert s.source_of(s.columns[1]) == "b"
        with pytest.raises(KeyError):
            s.source_of(Column(99, "zz", I))

    def test_scan_requires_aligned_sources(self):
        with pytest.raises(ValueError):
            Scan("t", cols("a", "b"), ("a",))

    def test_filter_passthrough(self):
        s = scan("a")
        f = Filter(s, Comparison("=", ColumnRef(s.columns[0]), integer(1)))
        assert f.output_columns == s.output_columns

    def test_project_outputs(self):
        s = scan("a", "b")
        target = Column(50, "x", I)
        p = Project(s, ((target, ColumnRef(s.columns[0])),))
        assert p.output_columns == (target,)
        assert p.expression_of(target) == ColumnRef(s.columns[0])
        with pytest.raises(KeyError):
            p.expression_of(Column(99, "zz", I))

    def test_project_identity(self):
        s = scan("a", "b")
        p = Project.identity(s)
        assert p.output_columns == s.output_columns

    def test_join_kinds_and_schemas(self):
        left, right = scan("a"), Scan("u", cols("b", start=20), ("b",))
        cond = Comparison("=", ColumnRef(left.columns[0]), ColumnRef(right.columns[0]))
        inner = Join(JoinKind.INNER, left, right, cond)
        assert inner.output_columns == left.columns + right.columns
        semi = Join(JoinKind.SEMI, left, right, cond)
        assert semi.output_columns == left.columns

    def test_cross_join_rejects_condition(self):
        left, right = scan("a"), Scan("u", cols("b", start=20), ("b",))
        with pytest.raises(ValueError):
            Join(JoinKind.CROSS, left, right, TRUE)
        with pytest.raises(ValueError):
            Join(JoinKind.INNER, left, right, None)

    def test_group_by_schema_and_scalar_flag(self):
        s = scan("k", "v")
        target = Column(60, "total", I)
        agg = AggregateAssignment(target, "sum", ColumnRef(s.columns[1]))
        g = GroupBy(s, (s.columns[0],), (agg,))
        assert g.output_columns == (s.columns[0], target)
        assert not g.is_scalar
        assert GroupBy(s, (), (agg,)).is_scalar

    def test_aggregate_assignment_rejects_unknown_function(self):
        with pytest.raises(ValueError):
            AggregateAssignment(Column(1, "x", I), "median", None)

    def test_aggregate_result_type(self):
        assert aggregate_result_type("count", None) is I
        assert aggregate_result_type("avg", ColumnRef(Column(1, "x", I))) is D
        assert aggregate_result_type("sum", ColumnRef(Column(1, "x", I))) is I
        with pytest.raises(ValueError):
            aggregate_result_type("sum", None)

    def test_mark_distinct_schema(self):
        s = scan("a")
        marker = Column(70, "d", DataType.BOOLEAN)
        m = MarkDistinct(s, (s.columns[0],), marker)
        assert m.output_columns == s.columns + (marker,)
        assert m.mask == TRUE

    def test_window_schema(self):
        s = scan("k", "v")
        target = Column(80, "w", D)
        w = Window(s, (s.columns[0],), (WindowAssignment(target, "avg", ColumnRef(s.columns[1])),))
        assert w.output_columns == s.columns + (target,)

    def test_union_all_validation(self):
        s1, s2 = scan("a"), Scan("u", cols("b", start=20), ("b",))
        out = (Column(90, "o", I),)
        union = UnionAll((s1, s2), out, ((s1.columns[0],), (s2.columns[0],)))
        assert union.output_columns == out
        with pytest.raises(ValueError):
            UnionAll((s1, s2), out, ((s1.columns[0],),))

    def test_values_and_limit_and_sort(self):
        v = Values(cols("a"), ((1,), (2,)))
        assert v.output_columns[0].name == "a"
        lim = Limit(v, 1)
        assert lim.output_columns == v.columns
        srt = Sort(v, (SortKey(ColumnRef(v.columns[0])),))
        assert srt.output_columns == v.columns

    def test_scalar_apply_free_columns(self):
        outer = scan("a", "b")
        inner = Scan("u", cols("x", start=20), ("x",))
        filtered = Filter(
            inner, Comparison("=", ColumnRef(inner.columns[0]), ColumnRef(outer.columns[0]))
        )
        output = Column(95, "val", I)
        apply = ScalarApply(outer, filtered, inner.columns[0], output)
        assert apply.free_columns == {outer.columns[0]}
        assert apply.output_columns == outer.columns + (output,)


class TestVisitors:
    def _plan(self):
        s = scan("a", "b")
        f = Filter(s, Comparison(">", ColumnRef(s.columns[0]), integer(0)))
        return Project(f, ((Column(50, "x", I), ColumnRef(s.columns[1])),)), s

    def test_walk_and_count(self):
        plan, _ = self._plan()
        assert count_nodes(plan) == 3
        assert count_nodes(plan, Filter) == 1
        assert len(collect(plan, Scan)) == 1

    def test_scan_tables_with_multiplicity(self):
        s1, s2 = scan("a"), scan("a")
        join = Join(JoinKind.CROSS, s1, s2)
        assert scan_tables(join) == ["t", "t"]

    def test_transform_up_replaces(self):
        plan, s = self._plan()

        def widen(node):
            if isinstance(node, Filter):
                return Filter(node.child, TRUE)
            return node

        rewritten = transform_up(plan, widen)
        assert collect(rewritten, Filter)[0].condition == TRUE

    def test_referenced_columns_per_operator(self):
        s = scan("k", "v")
        agg = AggregateAssignment(Column(60, "t", I), "sum", ColumnRef(s.columns[1]))
        g = GroupBy(s, (s.columns[0],), (agg,))
        assert referenced_columns(g) == {s.columns[0], s.columns[1]}


class TestValidation:
    def test_valid_plan_passes(self):
        s = scan("a", "b")
        f = Filter(s, Comparison(">", ColumnRef(s.columns[0]), integer(0)))
        validate_plan(f)

    def test_dangling_reference_detected(self):
        s = scan("a")
        ghost = Column(999, "ghost", I)
        f = Filter(s, Comparison(">", ColumnRef(ghost), integer(0)))
        with pytest.raises(PlanError):
            validate_plan(f)

    def test_duplicate_output_columns_detected(self):
        s = scan("a")
        p = Project(
            s,
            (
                (s.columns[0], ColumnRef(s.columns[0])),
                (s.columns[0], ColumnRef(s.columns[0])),
            ),
        )
        with pytest.raises(PlanError):
            validate_plan(p)

    def test_union_branch_mismatch_detected(self):
        s1, s2 = scan("a"), Scan("u", cols("b", start=20), ("b",))
        out = (Column(90, "o", I),)
        ghost = Column(999, "ghost", I)
        union = UnionAll((s1, s2), out, ((s1.columns[0],), (ghost,)))
        with pytest.raises(PlanError):
            validate_plan(union)

    def test_correlated_subquery_allowed_under_apply(self):
        outer = scan("a")
        inner = Scan("u", cols("x", start=20), ("x",))
        filtered = Filter(
            inner,
            Comparison("=", ColumnRef(inner.columns[0]), ColumnRef(outer.columns[0])),
        )
        apply = ScalarApply(outer, filtered, inner.columns[0], Column(95, "v", I))
        validate_plan(apply)

    def test_enforce_single_row_passthrough(self):
        s = scan("a")
        assert EnforceSingleRow(s).output_columns == s.columns
