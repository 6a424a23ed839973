"""Tests for the explain printer, metrics plumbing, and error types."""

import pytest

from repro.algebra.expressions import TRUE, ColumnRef, Comparison, integer
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
)
from repro.algebra.printer import explain
from repro.algebra.schema import Column
from repro.algebra.types import DataType
from repro.engine.metrics import QueryMetrics, RunContext, Stopwatch
from repro.errors import (
    BindingError,
    CatalogError,
    ExecutionError,
    OptimizerError,
    PlanError,
    ReproError,
    SqlSyntaxError,
)

I = DataType.INTEGER


def scan(start=1):
    cols = (Column(start, "a", I), Column(start + 1, "b", I))
    return Scan("t", cols, ("a", "b"))


class TestExplain:
    def test_every_operator_renders(self):
        s = scan()
        marker = Column(90, "d", DataType.BOOLEAN)
        wtarget = Column(91, "w", DataType.DOUBLE)
        gtarget = Column(92, "n", I)
        out = Column(93, "o", I)
        inner = Scan("u", (Column(40, "x", I),), ("x",))
        plan = Limit(
            Sort(
                Project(
                    Filter(
                        Window(
                            MarkDistinct(
                                GroupBy(
                                    s,
                                    (s.columns[0],),
                                    (AggregateAssignment(gtarget, "count", None),),
                                ),
                                (s.columns[0],),
                                marker,
                            ),
                            (s.columns[0],),
                            (WindowAssignment(wtarget, "avg", ColumnRef(gtarget)),),
                        ),
                        Comparison(">", ColumnRef(gtarget), integer(0)),
                    ),
                    ((out, ColumnRef(gtarget)),),
                ),
                (SortKey(ColumnRef(out)),),
            ),
            5,
        )
        text = explain(plan)
        for fragment in (
            "Limit[5]", "Sort[", "Project[", "Filter[", "Window[",
            "MarkDistinct[", "GroupBy[", "Scan[t]",
        ):
            assert fragment in text, fragment

    def test_join_union_values_apply_render(self):
        left, right = scan(1), scan(10)
        join = Join(
            JoinKind.SEMI,
            left,
            right,
            Comparison("=", ColumnRef(left.columns[0]), ColumnRef(right.columns[0])),
        )
        text = explain(join)
        assert "Join[semi]" in text

        v = Values((Column(50, "tag", I),), ((1,), (2,)))
        assert "Values[2 rows]" in explain(v)

        out = (Column(60, "o", I),)
        union = UnionAll((left, right), out, ((left.columns[0],), (right.columns[0],)))
        assert "UnionAll[2 inputs]" in explain(union)

        apply = ScalarApply(left, right, right.columns[0], Column(70, "val", I))
        assert "ScalarApply[" in explain(apply)
        assert "EnforceSingleRow" in explain(EnforceSingleRow(left))

    def test_masked_mark_distinct_shows_mask(self):
        s = scan()
        marker = Column(90, "d", DataType.BOOLEAN)
        m = MarkDistinct(
            s, (s.columns[0],), marker, Comparison(">", ColumnRef(s.columns[1]), integer(0))
        )
        assert "mask=" in explain(m)

    def test_indentation_reflects_depth(self):
        s = scan()
        plan = Filter(s, TRUE)
        lines = explain(plan).splitlines()
        assert lines[0].startswith("- ")
        assert lines[1].startswith("  - ")


class TestMetrics:
    def test_stopwatch_measures(self):
        metrics = QueryMetrics()
        with Stopwatch(metrics):
            sum(range(1000))
        assert metrics.wall_time_s > 0

    def test_state_tracking_peak(self):
        ctx = RunContext(store=None)
        ctx.state_add(10)
        ctx.state_add(5)
        ctx.state_remove(10)
        ctx.state_add(2)
        assert ctx.metrics.peak_state_rows == 15

    def test_summary_contains_axes(self):
        metrics = QueryMetrics()
        metrics.accounting.record_partition(7)
        metrics.accounting.record_chunk("t", 1024.0)
        text = metrics.summary()
        assert "bytes=" in text and "rows_scanned=7" in text
        assert "wall=0.0ms plan=0.0ms" in text

    def test_properties_delegate_to_accounting(self):
        metrics = QueryMetrics()
        metrics.accounting.record_partition(3)
        metrics.accounting.record_chunk("t", 10.0)
        assert metrics.bytes_scanned == 10.0
        assert metrics.rows_scanned == 3
        assert metrics.partitions_read == 1


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            SqlSyntaxError("x"), BindingError(), CatalogError(), PlanError(),
            ExecutionError(), OptimizerError(),
        ):
            assert isinstance(exc, ReproError)

    def test_syntax_error_location(self):
        error = SqlSyntaxError("bad token", line=3, column=7)
        assert "3:7" in str(error)
        assert error.line == 3 and error.column == 7

    def test_syntax_error_without_location(self):
        assert str(SqlSyntaxError("oops")) == "oops"
