"""Candidate keys the abstract interpreter derives (§IV.B support):
which column sets each operator's output is provably unique on."""

from repro.algebra.expressions import Arithmetic, ColumnRef, Comparison, integer
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
    Scan,
    Sort,
    SortKey,
    Window,
    WindowAssignment,
)
from repro.algebra.analysis import FactAnalyzer
from repro.algebra.schema import Column
from repro.algebra.types import DataType
from repro.catalog.catalog import Catalog
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext

I = DataType.INTEGER


def scan(start=1):
    cols = (Column(start, "k", I), Column(start + 1, "v", I))
    return Scan("t", cols, ("k", "v"))


def grouped(start=1):
    s = scan(start)
    target = Column(start + 10, "n", I)
    return GroupBy(s, (s.columns[0],), (AggregateAssignment(target, "count", None),))


def unique(plan, *columns) -> bool:
    """Is ``plan``'s output provably duplicate-free on ``columns``?"""
    return FactAnalyzer().facts(plan).is_unique({c.cid for c in columns})


class TestCandidateKeys:
    def test_group_by_keys(self):
        g = grouped()
        assert unique(g, g.keys[0])
        assert not unique(g, g.output_columns[1])

    def test_scalar_group_by_empty_key(self):
        s = scan()
        g = GroupBy(s, (), (AggregateAssignment(Column(10, "n", I), "count", None),))
        assert unique(g)

    def test_enforce_single_row(self):
        assert unique(EnforceSingleRow(scan()))

    def test_scans_have_no_derived_keys(self):
        s = scan()
        assert not unique(s, *s.columns)

    def test_filter_sort_limit_preserve(self):
        g = grouped()
        wrapped = Limit(
            Sort(
                Filter(g, Comparison(">", ColumnRef(g.keys[0]), integer(0))),
                (SortKey(ColumnRef(g.keys[0])),),
            ),
            5,
        )
        assert unique(wrapped, g.keys[0])
        assert not unique(wrapped, g.output_columns[1])

    def test_mark_distinct_and_window_preserve(self):
        g = grouped()
        marker = Column(20, "d", DataType.BOOLEAN)
        w_target = Column(21, "w", DataType.DOUBLE)
        wrapped = Window(
            MarkDistinct(g, (g.keys[0],), marker),
            (g.keys[0],),
            (WindowAssignment(w_target, "avg", ColumnRef(g.output_columns[1])),),
        )
        assert unique(wrapped, g.keys[0])

    def test_projection_preserves_passthrough_keys(self):
        g = grouped()
        renamed = Column(30, "kk", I)
        p = Project(g, ((renamed, ColumnRef(g.keys[0])),))
        assert unique(p, renamed)

    def test_projection_dropping_key_loses_it(self):
        g = grouped()
        agg_col = g.output_columns[1]
        p = Project(g, ((agg_col, ColumnRef(agg_col)),))
        assert not unique(p, agg_col)

    def test_projection_computing_over_key_loses_it(self):
        g = grouped()
        out = Column(30, "x", I)
        p = Project(g, ((out, Arithmetic("+", ColumnRef(g.keys[0]), integer(1))),))
        assert not unique(p, out)

    def test_has_key(self):
        g = grouped()
        assert unique(g, g.keys[0], g.output_columns[1])
        assert not unique(g, g.output_columns[1])


class TestExpensivenessHeuristic:
    """The §IV.E gate: ``t`` is not in the (empty) catalog, so its scan
    reads no stored row and is only worth fusing under a join or an
    aggregation."""

    def ctx(self):
        return OptimizerContext(Catalog(), OptimizerConfig())

    def test_scan_is_cheap(self):
        assert not self.ctx().worth_fusing(scan())

    def test_join_and_aggregate_are_expensive(self):
        s1, s2 = scan(1), scan(10)
        join = Join(JoinKind.CROSS, s1, s2)
        assert self.ctx().worth_fusing(join)
        assert self.ctx().worth_fusing(grouped())
