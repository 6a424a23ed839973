"""Unit tests for the binder: name resolution, CTE inlining, subquery
lowering, aggregation planning, windows, and error reporting."""

import pytest

from repro.algebra.expressions import TRUE, ColumnRef
from repro.algebra.operators import (
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    Project,
    ScalarApply,
    Scan,
    Sort,
    UnionAll,
    Values,
    Window,
)
from repro.algebra.validator import validate_plan
from repro.algebra.visitors import collect, scan_tables
from repro.catalog.catalog import Catalog
from repro.errors import BindingError
from repro.sql.binder import Binder
from repro.tpcds.generator import generate_dataset


@pytest.fixture(scope="module")
def binder() -> Binder:
    catalog = Catalog()
    generate_dataset(scale=0.01).load_catalog(catalog)
    return Binder(catalog)


def bind(binder: Binder, sql: str):
    bound = binder.bind_sql(sql)
    validate_plan(bound.plan)
    return bound


class TestResolution:
    def test_simple_select(self, binder):
        bound = bind(binder, "SELECT s_store_name FROM store")
        assert bound.column_names == ("s_store_name",)
        assert isinstance(bound.plan, Project)

    def test_star_expansion(self, binder):
        bound = bind(binder, "SELECT * FROM reason")
        assert bound.column_names == ("r_reason_sk", "r_reason_desc")

    def test_qualified_star(self, binder):
        bound = bind(binder, "SELECT r.* FROM reason r, store")
        assert bound.column_names == ("r_reason_sk", "r_reason_desc")

    def test_alias_resolution(self, binder):
        bound = bind(binder, "SELECT r.r_reason_sk FROM reason r")
        assert bound.column_names == ("r_reason_sk",)

    def test_unknown_table(self, binder):
        with pytest.raises(BindingError, match="unknown table"):
            binder.bind_sql("SELECT 1 FROM nonexistent")

    def test_unknown_column(self, binder):
        with pytest.raises(BindingError, match="unknown column"):
            binder.bind_sql("SELECT nope FROM store")

    def test_ambiguous_column(self, binder):
        with pytest.raises(BindingError, match="ambiguous"):
            binder.bind_sql(
                "SELECT ss_store_sk FROM store_sales, "
                "(SELECT ss_store_sk FROM store_sales) t"
            )

    def test_each_scan_gets_fresh_columns(self, binder):
        bound = bind(binder, "SELECT a.r_reason_sk, b.r_reason_sk FROM reason a, reason b")
        scans = collect(bound.plan, Scan)
        assert len(scans) == 2
        assert not set(scans[0].columns) & set(scans[1].columns)

    def test_select_item_auto_names(self, binder):
        bound = bind(binder, "SELECT r_reason_sk + 1, r_reason_sk FROM reason")
        assert bound.column_names[0].startswith("_col")
        assert bound.column_names[1] == "r_reason_sk"


class TestFromClause:
    def test_comma_join_is_cross(self, binder):
        bound = bind(binder, "SELECT 1 FROM reason, store")
        joins = collect(bound.plan, Join)
        assert joins and joins[0].kind is JoinKind.CROSS

    def test_explicit_inner_join(self, binder):
        bound = bind(
            binder,
            "SELECT 1 FROM store_sales JOIN store ON ss_store_sk = s_store_sk",
        )
        joins = collect(bound.plan, Join)
        assert joins[0].kind is JoinKind.INNER and joins[0].condition is not None

    def test_left_join(self, binder):
        bound = bind(
            binder,
            "SELECT 1 FROM store LEFT JOIN store_sales ON s_store_sk = ss_store_sk",
        )
        assert collect(bound.plan, Join)[0].kind is JoinKind.LEFT

    def test_values_table(self, binder):
        bound = bind(binder, "SELECT tag FROM (VALUES (1), (2)) T(tag)")
        values = collect(bound.plan, Values)
        assert values and values[0].rows == ((1,), (2,))

    def test_values_reject_non_literals(self, binder):
        with pytest.raises(BindingError):
            binder.bind_sql("SELECT tag FROM (VALUES (1 + 1)) T(tag)")

    def test_derived_table_column_aliases(self, binder):
        bound = bind(
            binder,
            "SELECT x FROM (SELECT r_reason_sk FROM reason) d(x)",
        )
        assert bound.column_names == ("x",)

    def test_column_alias_count_mismatch(self, binder):
        with pytest.raises(BindingError):
            binder.bind_sql("SELECT 1 FROM (SELECT r_reason_sk FROM reason) d(x, y)")

    def test_no_from_single_row(self, binder):
        bound = bind(binder, "SELECT 1 AS one")
        assert isinstance(collect(bound.plan, Values)[0], Values)


class TestCtes:
    def test_cte_reference(self, binder):
        bound = bind(
            binder,
            "WITH r AS (SELECT r_reason_sk FROM reason) SELECT r_reason_sk FROM r",
        )
        assert scan_tables(bound.plan) == ["reason"]

    def test_cte_inlined_per_reference(self, binder):
        # The streaming model: two references -> two scans.
        bound = bind(
            binder,
            "WITH r AS (SELECT r_reason_sk AS k FROM reason) "
            "SELECT a.k FROM r a, r b WHERE a.k = b.k",
        )
        assert scan_tables(bound.plan) == ["reason", "reason"]
        scans = collect(bound.plan, Scan)
        assert not set(scans[0].columns) & set(scans[1].columns)

    def test_cte_can_reference_earlier_cte(self, binder):
        bound = bind(
            binder,
            "WITH a AS (SELECT r_reason_sk AS k FROM reason), "
            "b AS (SELECT k FROM a) SELECT k FROM b",
        )
        assert scan_tables(bound.plan) == ["reason"]


class TestSubqueries:
    def test_in_subquery_becomes_semi_join(self, binder):
        bound = bind(
            binder,
            "SELECT 1 FROM store WHERE s_store_sk IN (SELECT ss_store_sk FROM store_sales)",
        )
        joins = collect(bound.plan, Join)
        assert any(j.kind is JoinKind.SEMI for j in joins)

    def test_not_in_becomes_anti_join(self, binder):
        bound = bind(
            binder,
            "SELECT 1 FROM store WHERE s_store_sk NOT IN (SELECT ss_store_sk FROM store_sales)",
        )
        assert any(j.kind is JoinKind.ANTI for j in collect(bound.plan, Join))

    def test_in_subquery_must_be_single_column(self, binder):
        with pytest.raises(BindingError):
            binder.bind_sql(
                "SELECT 1 FROM store WHERE s_store_sk IN "
                "(SELECT ss_store_sk, ss_item_sk FROM store_sales)"
            )

    def test_in_subquery_only_top_level(self, binder):
        with pytest.raises(BindingError):
            binder.bind_sql(
                "SELECT 1 FROM store WHERE s_store_sk = 1 OR "
                "s_store_sk IN (SELECT ss_store_sk FROM store_sales)"
            )

    def test_scalar_subquery_becomes_apply(self, binder):
        bound = bind(
            binder,
            "SELECT (SELECT max(ss_quantity) FROM store_sales) AS m FROM reason",
        )
        applies = collect(bound.plan, ScalarApply)
        assert len(applies) == 1 and not applies[0].free_columns

    def test_correlated_scalar_subquery_free_columns(self, binder):
        bound = bind(
            binder,
            "SELECT 1 FROM store s1 WHERE s1.s_store_sk > "
            "(SELECT avg(ss_store_sk) FROM store_sales WHERE ss_store_sk = s1.s_store_sk)",
        )
        applies = collect(bound.plan, ScalarApply)
        assert len(applies) == 1 and applies[0].free_columns

    def test_exists_becomes_semi_join(self, binder):
        bound = bind(
            binder,
            "SELECT 1 FROM store WHERE EXISTS (SELECT 1 FROM reason)",
        )
        assert any(j.kind is JoinKind.SEMI for j in collect(bound.plan, Join))

    def test_correlated_in_subquery_rejected(self, binder):
        with pytest.raises(BindingError, match="correlated"):
            binder.bind_sql(
                "SELECT 1 FROM store WHERE s_store_sk IN "
                "(SELECT ss_store_sk FROM store_sales WHERE ss_item_sk = s_store_sk)"
            )


class TestAggregation:
    def test_group_by_with_aggregates(self, binder):
        bound = bind(
            binder,
            "SELECT s_state, count(*), sum(s_store_sk) FROM store GROUP BY s_state",
        )
        groupbys = collect(bound.plan, GroupBy)
        assert len(groupbys) == 1
        assert len(groupbys[0].aggregates) == 2

    def test_identical_aggregates_shared(self, binder):
        bound = bind(
            binder,
            "SELECT count(*), count(*) + 1 FROM store",
        )
        assert len(collect(bound.plan, GroupBy)[0].aggregates) == 1

    def test_filter_clause_becomes_mask(self, binder):
        bound = bind(
            binder,
            "SELECT count(*) FILTER (WHERE s_state = 'TN') FROM store",
        )
        agg = collect(bound.plan, GroupBy)[0].aggregates[0]
        assert agg.mask != TRUE

    def test_distinct_aggregate_flag(self, binder):
        bound = bind(binder, "SELECT count(DISTINCT s_state) FROM store")
        assert collect(bound.plan, GroupBy)[0].aggregates[0].distinct

    def test_having(self, binder):
        bound = bind(
            binder,
            "SELECT s_state FROM store GROUP BY s_state HAVING count(*) > 1",
        )
        filters = collect(bound.plan, Filter)
        assert filters  # HAVING became a filter over the aggregation

    def test_having_without_aggregation_rejected(self, binder):
        with pytest.raises(BindingError):
            binder.bind_sql("SELECT s_state FROM store HAVING count(*) > 1")

    def test_ungrouped_column_rejected(self, binder):
        with pytest.raises(BindingError):
            binder.bind_sql("SELECT s_state, count(*) FROM store")

    def test_group_by_expression(self, binder):
        bound = bind(
            binder,
            "SELECT s_store_sk + 1, count(*) FROM store GROUP BY s_store_sk + 1",
        )
        assert collect(bound.plan, GroupBy)

    def test_count_star_only_for_count(self, binder):
        with pytest.raises(BindingError):
            binder.bind_sql("SELECT sum(*) FROM store")

    def test_select_distinct(self, binder):
        bound = bind(binder, "SELECT DISTINCT s_state FROM store")
        groupbys = collect(bound.plan, GroupBy)
        assert groupbys and not groupbys[0].aggregates


class TestWindows:
    def test_window_function(self, binder):
        bound = bind(
            binder,
            "SELECT s_store_sk, avg(s_store_sk) OVER (PARTITION BY s_state) AS a FROM store",
        )
        windows = collect(bound.plan, Window)
        assert len(windows) == 1 and len(windows[0].partition_by) == 1

    def test_identical_windows_shared(self, binder):
        bound = bind(
            binder,
            "SELECT avg(s_store_sk) OVER (PARTITION BY s_state) AS a, "
            "avg(s_store_sk) OVER (PARTITION BY s_state) AS b FROM store",
        )
        assert len(collect(bound.plan, Window)[0].functions) == 1

    def test_mixed_partitions_rejected(self, binder):
        with pytest.raises(BindingError):
            binder.bind_sql(
                "SELECT avg(s_store_sk) OVER (PARTITION BY s_state), "
                "avg(s_store_sk) OVER (PARTITION BY s_city) FROM store"
            )


class TestQueryShape:
    def test_order_by_limit(self, binder):
        bound = bind(binder, "SELECT s_state FROM store ORDER BY s_state LIMIT 3")
        assert isinstance(bound.plan, Limit)
        assert isinstance(bound.plan.child, Sort)

    def test_order_by_alias(self, binder):
        bound = bind(binder, "SELECT s_store_sk AS k FROM store ORDER BY k")
        assert isinstance(bound.plan, Sort)

    def test_union_all_arity(self, binder):
        bound = bind(
            binder,
            "SELECT s_state FROM store UNION ALL SELECT s_city FROM store",
        )
        unions = collect(bound.plan, UnionAll)
        assert len(unions) == 1 and len(unions[0].inputs) == 2

    def test_union_all_arity_mismatch(self, binder):
        with pytest.raises(BindingError):
            binder.bind_sql("SELECT s_state FROM store UNION ALL SELECT 1, 2")

    def test_duplicate_output_name_allowed(self, binder):
        bound = bind(binder, "SELECT s_state AS x, s_city AS x FROM store")
        assert bound.column_names == ("x", "x")
        cids = [c.cid for c in bound.output_columns]
        assert len(set(cids)) == 2
