"""Tests for the greedy join-ordering pass and its interplay with the
fusion rules (§IV.E: fusion matches before reordering)."""

import pytest

from repro.algebra.operators import Join, JoinKind, Scan, Window
from repro.algebra.validator import validate_plan
from repro.algebra.visitors import collect, walk_plan
from repro.catalog.catalog import Catalog
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.rewrites import GreedyJoinOrder, PredicatePushdown
from repro.sql.binder import Binder
from repro.tpcds.queries import STUDIED_QUERIES


@pytest.fixture()
def env(tpcds_store):
    catalog = Catalog()
    tpcds_store.load_catalog(catalog)
    binder = Binder(catalog)
    ctx = OptimizerContext(catalog, OptimizerConfig())
    return tpcds_store, binder, ctx


def rows_of(plan, store):
    return sorted(
        execute(plan, RunContext(store)),
        key=lambda r: tuple((v is None, str(v)) for v in r),
    )


class TestGreedyJoinOrder:
    def test_largest_input_leads_the_chain(self, env):
        store, binder, ctx = env
        # Written dimension-first: the reorder should put the fact
        # table (probe side) first so dimensions become build sides.
        plan = binder.bind_sql(
            "SELECT count(*) AS n FROM store, item, store_sales "
            "WHERE ss_store_sk = s_store_sk AND ss_item_sk = i_item_sk"
        ).plan
        plan = PredicatePushdown().run(plan, ctx)
        ordered = GreedyJoinOrder().run(plan, ctx)
        validate_plan(ordered)
        joins = collect(ordered, Join)
        # Walk to the leftmost leaf of the join chain.
        leftmost = joins[-1].left
        while isinstance(leftmost, Join):
            leftmost = leftmost.left
        assert isinstance(leftmost, Scan) and leftmost.table == "store_sales"

    def test_reorder_preserves_results(self, env):
        store, binder, ctx = env
        sql = (
            "SELECT s_state, count(*) AS n FROM store, store_sales, item "
            "WHERE ss_store_sk = s_store_sk AND ss_item_sk = i_item_sk "
            "AND i_category = 'Music' GROUP BY s_state"
        )
        plan = binder.bind_sql(sql).plan
        plan = PredicatePushdown().run(plan, ctx)
        ordered = GreedyJoinOrder().run(plan, ctx)
        assert rows_of(ordered, store) == rows_of(plan, store)

    def test_build_side_memory_improves_for_bad_order(self, env):
        store, binder, ctx = env
        # Fact table written LAST: without reordering it becomes the
        # hash-join build side (large state).
        sql = (
            "SELECT count(*) AS n FROM store, store_sales "
            "WHERE ss_store_sk = s_store_sk"
        )
        plan = binder.bind_sql(sql).plan
        plan = PredicatePushdown().run(plan, ctx)
        ordered = GreedyJoinOrder().run(plan, ctx)
        ctx_bad, ctx_good = RunContext(store), RunContext(store)
        list(execute(plan, ctx_bad))
        list(execute(ordered, ctx_good))
        assert ctx_good.metrics.peak_state_rows < ctx_bad.metrics.peak_state_rows

    def test_disconnected_inputs_stay_cross_joined(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT count(*) AS n FROM store, reason, store_sales "
            "WHERE ss_store_sk = s_store_sk"
        ).plan
        plan = PredicatePushdown().run(plan, ctx)
        ordered = GreedyJoinOrder().run(plan, ctx)
        assert rows_of(ordered, store) == rows_of(plan, store)
        assert any(
            j.kind is JoinKind.CROSS for j in collect(ordered, Join)
        )


class TestOrderingVsFusion:
    def test_fusion_fires_despite_scrambled_from_order(self, tpcds_store):
        """§IV.E's motivation: the n-ary matching makes the window rule
        insensitive to where the aggregated side sits in the FROM list."""
        from repro.engine.session import Session

        scrambled = """
            SELECT s_store_name, i_item_desc, revenue
            FROM
                (SELECT ss_store_sk, avg(revenue) AS ave
                 FROM (SELECT ss_store_sk, ss_item_sk,
                              sum(ss_sales_price) AS revenue
                       FROM store_sales, date_dim
                       WHERE ss_sold_date_sk = d_date_sk
                         AND d_month_seq BETWEEN 1212 AND 1223
                       GROUP BY ss_store_sk, ss_item_sk) sa
                 GROUP BY ss_store_sk) sb,
                store,
                (SELECT ss_store_sk, ss_item_sk,
                        sum(ss_sales_price) AS revenue
                 FROM store_sales, date_dim
                 WHERE ss_sold_date_sk = d_date_sk
                   AND d_month_seq BETWEEN 1212 AND 1223
                 GROUP BY ss_store_sk, ss_item_sk) sc,
                item
            WHERE sb.ss_store_sk = sc.ss_store_sk
              AND sc.revenue <= 0.1 * sb.ave
              AND s_store_sk = sc.ss_store_sk
              AND i_item_sk = sc.ss_item_sk
            ORDER BY s_store_name, i_item_desc
            LIMIT 100
        """
        fused = Session(tpcds_store, OptimizerConfig())
        baseline = Session(tpcds_store, OptimizerConfig(enable_fusion=False))
        result = fused.execute(scrambled)
        assert collect(result.optimized_plan, Window)
        assert result.sorted_rows() == baseline.execute(scrambled).sorted_rows()
        # And it matches the canonical ordering of Q65 itself.
        assert result.sorted_rows() == fused.execute(STUDIED_QUERIES["q65"]).sorted_rows()
