"""Unit tests for the classical rewrite passes."""

import pytest

from repro.algebra.expressions import (
    TRUE,
    ColumnRef,
    Comparison,
    integer,
)
from repro.algebra.operators import (
    EnforceSingleRow,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    MarkDistinct,
    Project,
    ScalarApply,
    Scan,
    UnionAll,
    Values,
    Window,
)
from repro.algebra.validator import validate_plan
from repro.algebra.visitors import collect, count_nodes, scan_tables
from repro.catalog.catalog import Catalog
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.rewrites import (
    Cleanup,
    DecorrelateScalarAggregates,
    DistinctPushdown,
    FactorAggregateMasks,
    LowerDistinctAggregates,
    PredicatePushdown,
    ProjectionPruning,
    RemoveScalarSubqueries,
    SemiJoinToDistinctJoin,
)
from repro.sql.binder import Binder


@pytest.fixture()
def env(people_store):
    catalog = Catalog()
    people_store.load_catalog(catalog)
    binder = Binder(catalog)
    ctx = OptimizerContext(catalog, OptimizerConfig())
    return people_store, binder, ctx


def rows_of(plan, store):
    return sorted(
        execute(plan, RunContext(store)),
        key=lambda r: tuple((v is None, str(v)) for v in r),
    )


def check_preserves(plan, rewritten, store):
    validate_plan(rewritten)
    assert rows_of(plan, store) == rows_of(rewritten, store)


class TestPredicatePushdown:
    def test_filter_reaches_scan(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql("SELECT id FROM people WHERE age > 30").plan
        pushed = PredicatePushdown().run(plan, ctx)
        scans = collect(pushed, Scan)
        assert scans[0].predicate is not None
        check_preserves(plan, pushed, store)

    def test_cross_join_becomes_inner(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id FROM people, cities WHERE people.city_id = cities.city_id"
        ).plan
        pushed = PredicatePushdown().run(plan, ctx)
        joins = collect(pushed, Join)
        assert any(j.kind is JoinKind.INNER for j in joins)
        check_preserves(plan, pushed, store)

    def test_single_side_conjuncts_pushed_below_join(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id FROM people, cities "
            "WHERE people.city_id = cities.city_id AND age > 30 AND city = 'Austin'"
        ).plan
        pushed = PredicatePushdown().run(plan, ctx)
        for scan in collect(pushed, Scan):
            assert scan.predicate is not None
        check_preserves(plan, pushed, store)

    def test_pushdown_through_group_by_keys_only(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT lname, count(*) AS n FROM people GROUP BY lname"
        ).plan
        outer = Filter(
            plan,
            Comparison("=", ColumnRef(plan.output_columns[0]), ColumnRef(plan.output_columns[0])),
        )
        pushed = PredicatePushdown().run(outer, ctx)
        validate_plan(pushed)

    def test_computed_projection_blocks_inlining(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT x FROM (SELECT age * 2 AS x FROM people) t WHERE x > 60"
        ).plan
        pushed = PredicatePushdown().run(plan, ctx)
        # The filter must sit above the computing projection, not be
        # inlined (which would duplicate the computation).
        scans = collect(pushed, Scan)
        assert scans[0].predicate is None
        check_preserves(plan, pushed, store)

    def test_union_branches_receive_predicates(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT v FROM (SELECT age AS v FROM people "
            "UNION ALL SELECT city_id AS v FROM cities) t WHERE v > 25"
        ).plan
        pushed = PredicatePushdown().run(plan, ctx)
        scans = collect(pushed, Scan)
        assert all(s.predicate is not None for s in scans)
        check_preserves(plan, pushed, store)

    def test_left_join_right_condition_stays(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id FROM people LEFT JOIN cities "
            "ON people.city_id = cities.city_id AND city = 'Austin'"
        ).plan
        pushed = PredicatePushdown().run(plan, ctx)
        check_preserves(plan, pushed, store)


class TestProjectionPruning:
    def test_unused_scan_columns_dropped(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql("SELECT id FROM people WHERE age > 30").plan
        plan = PredicatePushdown().run(plan, ctx)
        pruned = ProjectionPruning().run(plan, ctx)
        scan = collect(pruned, Scan)[0]
        assert {c.name for c in scan.columns} == {"id", "age"}
        check_preserves(plan, pruned, store)

    def test_unused_aggregates_dropped(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT x FROM (SELECT lname AS x, count(*) AS n, sum(age) AS s "
            "FROM people GROUP BY lname) t"
        ).plan
        pruned = ProjectionPruning().run(plan, ctx)
        assert len(collect(pruned, GroupBy)[0].aggregates) == 0
        check_preserves(plan, pruned, store)

    def test_dead_scalar_apply_removed(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id, (SELECT max(age) FROM people) AS m FROM people"
        ).plan
        outer = Project(plan, ((plan.output_columns[0], ColumnRef(plan.output_columns[0])),))
        pruned = ProjectionPruning().run(outer, ctx)
        assert not collect(pruned, ScalarApply)
        check_preserves(outer, pruned, store)

    def test_unused_window_removed(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id, avg(age) OVER (PARTITION BY city_id) AS a FROM people"
        ).plan
        outer = Project(plan, ((plan.output_columns[0], ColumnRef(plan.output_columns[0])),))
        pruned = ProjectionPruning().run(outer, ctx)
        assert not collect(pruned, Window)

    def test_union_positions_pruned(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT a FROM (SELECT id AS a, age AS b FROM people "
            "UNION ALL SELECT city_id, city_id FROM cities) t"
        ).plan
        pruned = ProjectionPruning().run(plan, ctx)
        union = collect(pruned, UnionAll)[0]
        assert len(union.columns) == 1
        check_preserves(plan, pruned, store)


class TestCleanupRules:
    def test_trivial_filter_removed(self, env):
        store, binder, ctx = env
        scan = binder.bind_sql("SELECT id FROM people").plan
        plan = Filter(scan, TRUE)
        assert Cleanup().run(plan, ctx) == scan

    def test_false_filter_becomes_empty_values(self, env):
        store, binder, ctx = env
        scan = binder.bind_sql("SELECT id FROM people").plan
        from repro.algebra.expressions import FALSE

        plan = Cleanup().run(Filter(scan, FALSE), ctx)
        values = collect(plan, Values)
        assert values and values[0].rows == ()

    def test_adjacent_filters_merge(self, env):
        store, binder, ctx = env
        scan = binder.bind_sql("SELECT id, age FROM people").plan
        c1 = Comparison(">", ColumnRef(scan.output_columns[1]), integer(10))
        c2 = Comparison("<", ColumnRef(scan.output_columns[1]), integer(50))
        merged = Cleanup().run(Filter(Filter(scan, c1), c2), ctx)
        assert count_nodes(merged, Filter) == 1

    def test_projects_compose(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT y + 1 AS z FROM (SELECT age + 1 AS y FROM people) t"
        ).plan
        merged = Cleanup().run(plan, ctx)
        assert count_nodes(merged, Project) == 1
        check_preserves(plan, merged, store)

    def test_each_rewrite_recorded_under_its_own_name(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT y + 1 AS z FROM (SELECT age + 1 AS y FROM people) t"
        ).plan
        Cleanup().run(Filter(plan, TRUE), ctx)
        assert set(ctx.fired) == {"merge_projections", "remove_trivial_filters"}

    def test_identity_project_removed(self, env):
        store, binder, ctx = env
        scan = collect(binder.bind_sql("SELECT id FROM people").plan, Scan)[0]
        plan = Project.identity(scan)
        assert Cleanup().run(plan, ctx) == scan

    def test_empty_union_branch_pruned(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id AS v FROM people UNION ALL SELECT id FROM people WHERE FALSE"
        ).plan
        pruned = Cleanup().run(plan, ctx)
        assert not collect(pruned, UnionAll)
        validate_plan(pruned)


class TestSubqueryRules:
    def test_uncorrelated_scalar_becomes_cross_join(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id FROM people WHERE age > (SELECT avg(age) FROM people)"
        ).plan
        rewritten = RemoveScalarSubqueries().run(plan, ctx)
        assert not collect(rewritten, ScalarApply)
        assert any(j.kind is JoinKind.CROSS for j in collect(rewritten, Join))
        check_preserves(plan, rewritten, store)

    def test_non_single_row_subquery_gets_enforcer(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id, (SELECT city FROM cities WHERE city_id = 40) AS c FROM people"
        ).plan
        rewritten = RemoveScalarSubqueries().run(plan, ctx)
        assert collect(rewritten, EnforceSingleRow)
        check_preserves(plan, rewritten, store)

    def test_decorrelation_produces_keyed_group_by(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id FROM people p1 WHERE age > "
            "(SELECT avg(age) FROM people p2 WHERE p2.city_id = p1.city_id)"
        ).plan
        rewritten = DecorrelateScalarAggregates().run(plan, ctx)
        assert not collect(rewritten, ScalarApply)
        grouped = collect(rewritten, GroupBy)
        assert grouped and grouped[0].keys
        check_preserves(plan, rewritten, store)

    def test_count_subquery_not_decorrelated(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id FROM people p1 WHERE age > "
            "(SELECT count(*) FROM people p2 WHERE p2.city_id = p1.city_id)"
        ).plan
        rewritten = DecorrelateScalarAggregates().run(plan, ctx)
        # COUNT is 0 (not NULL) on empty groups: must stay an apply.
        assert collect(rewritten, ScalarApply)

    def test_correlated_apply_executes_via_nested_loop(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id FROM people p1 WHERE age > "
            "(SELECT count(*) FROM people p2 WHERE p2.city_id = p1.city_id)"
        ).plan
        rows = rows_of(plan, store)
        assert rows  # the fallback path works end to end


class TestDistinctLowering:
    def test_distinct_aggregate_lowered_to_mark_distinct(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT lname, count(DISTINCT fname) AS n FROM people GROUP BY lname"
        ).plan
        lowered = LowerDistinctAggregates().run(plan, ctx)
        marks = collect(lowered, MarkDistinct)
        assert len(marks) == 1
        grouped = collect(lowered, GroupBy)[0]
        assert not any(a.distinct for a in grouped.aggregates)
        # Group keys must be part of the distinct set.
        assert set(grouped.keys) <= set(marks[0].columns)
        check_preserves(plan, lowered, store)

    def test_masked_distinct_aggregate(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT count(DISTINCT fname) FILTER (WHERE age > 25) AS n FROM people"
        ).plan
        lowered = LowerDistinctAggregates().run(plan, ctx)
        marks = collect(lowered, MarkDistinct)
        assert marks and marks[0].mask != TRUE
        check_preserves(plan, lowered, store)

    def test_shared_distinct_sets_share_marker(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT count(DISTINCT fname) AS a, sum(DISTINCT fname) AS b FROM people"
        ).plan
        # sum(DISTINCT string) is nonsense; use age for both instead.
        plan = binder.bind_sql(
            "SELECT count(DISTINCT age) AS a, sum(DISTINCT age) AS b FROM people"
        ).plan
        lowered = LowerDistinctAggregates().run(plan, ctx)
        assert len(collect(lowered, MarkDistinct)) == 1
        check_preserves(plan, lowered, store)


class TestSemiJoinRules:
    def build_double_semi(self, binder):
        return binder.bind_sql(
            "SELECT id FROM people "
            "WHERE city_id IN (SELECT city_id FROM cities) "
            "AND city_id IN (SELECT city_id FROM cities WHERE city <> 'Nome')"
        ).plan

    def test_conversion_requires_shared_probe(self, env):
        store, binder, ctx = env
        single = binder.bind_sql(
            "SELECT id FROM people WHERE city_id IN (SELECT city_id FROM cities)"
        ).plan
        assert SemiJoinToDistinctJoin().run(single, ctx) == single

    def test_double_semi_converted(self, env):
        store, binder, ctx = env
        plan = self.build_double_semi(binder)
        rewritten = SemiJoinToDistinctJoin().run(plan, ctx)
        joins = collect(rewritten, Join)
        assert not any(j.kind is JoinKind.SEMI for j in joins)
        assert any(not g.aggregates and g.keys for g in collect(rewritten, GroupBy))
        check_preserves(plan, rewritten, store)

    def test_distinct_pushdown_through_join(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT DISTINCT c2 FROM (SELECT cities.city_id AS c2 FROM people "
            "JOIN cities ON people.city_id = cities.city_id) t"
        ).plan
        plan = Cleanup().run(plan, ctx)
        rewritten = DistinctPushdown().run(plan, ctx)
        grouped = collect(rewritten, GroupBy)
        assert len(grouped) >= 2  # distinct on both sides now
        check_preserves(plan, rewritten, store)


class TestFactorAggregateMasks:
    def test_shared_factors_projected(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT count(*) FILTER (WHERE age > 30) AS a, "
            "avg(age) FILTER (WHERE age > 30) AS b FROM people"
        ).plan
        rewritten = FactorAggregateMasks().run(plan, ctx)
        grouped = collect(rewritten, GroupBy)[0]
        masks = {a.mask for a in grouped.aggregates}
        assert all(isinstance(m, ColumnRef) for m in masks)
        assert len(masks) == 1
        check_preserves(plan, rewritten, store)

    def test_unshared_masks_left_alone(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT count(*) FILTER (WHERE age > 30) AS a, count(*) AS b FROM people"
        ).plan
        assert FactorAggregateMasks().run(plan, ctx) == plan
