"""Tests for the cost model and cost-based rewrite selection.

Covers the :class:`~repro.optimizer.cost.CostModel` pricing primitives
(bytes scanned + rows processed, memoized per node), the
``choose``/``cost_gated`` wiring that lets the optimizer *decline* a
rewrite the heuristic pipeline would always fire, and the end-to-end behavior: the studied queries still fuse
under ``cost_based=True`` with identical results, while a narrow
UNION ALL whose fusion replicates rows is correctly declined.
"""

import pytest

from repro.algebra.operators import CachedScan, Exchange, Join, JoinKind
from repro.algebra.schema import Column
from repro.algebra.types import DataType
from repro.catalog.catalog import Catalog
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.cost import ROW_PROCESS_BYTES, CostModel, PlanCost
from repro.optimizer.stats import CardinalityEstimator
from repro.sql.binder import Binder
from repro.tpcds.queries import STUDIED_QUERIES

FUSION_RULES = {
    "groupby_join_to_window",
    "join_on_keys",
    "union_all_fusion",
    "union_all_on_join",
}

#: Fusing this UNION ALL replicates every store_sales row into the
#: cross-joined tag table while saving only a second scan of two
#: narrow integer columns — the cost model must decline it.
DECLINE_SQL = (
    "SELECT ss_item_sk, ss_quantity FROM store_sales WHERE ss_quantity > 10 "
    "UNION ALL "
    "SELECT ss_item_sk, ss_quantity FROM store_sales WHERE ss_quantity > 40"
)


@pytest.fixture()
def model_env(people_store):
    catalog = Catalog()
    people_store.load_catalog(catalog)
    estimator = CardinalityEstimator(catalog)
    return catalog, Binder(catalog), CostModel(catalog, estimator)


@pytest.fixture()
def costed_session(tpcds_store) -> Session:
    return Session(
        tpcds_store, OptimizerConfig(enable_fusion=True, cost_based=True)
    )


@pytest.fixture()
def heuristic_session(tpcds_store) -> Session:
    return Session(tpcds_store, OptimizerConfig(enable_fusion=True))


class TestPlanCost:
    def test_total_weights_rows(self):
        cost = PlanCost(bytes_scanned=100.0, rows_processed=10.0)
        assert cost.total == 100.0 + ROW_PROCESS_BYTES * 10.0

    def test_add(self):
        combined = PlanCost(1.0, 2.0) + PlanCost(3.0, 4.0)
        assert combined.bytes_scanned == 4.0
        assert combined.rows_processed == 6.0


class TestCostModel:
    def test_scan_prices_bytes_and_rows(self, model_env):
        _, binder, model = model_env
        cost = model.cost(binder.bind_sql("SELECT id FROM people").plan)
        assert cost.bytes_scanned > 0
        assert cost.rows_processed >= 6.0

    def optimized(self, catalog, binder, sql):
        # Push predicates into the scans first — the binder leaves them
        # in Filters, and scan pricing only sees pushed-down predicates.
        from repro.optimizer.pipeline import optimize

        plan, _ = optimize(
            binder.bind_sql(sql).plan,
            catalog,
            OptimizerConfig(enable_fusion=False),
        )
        return plan

    def test_non_partition_predicate_cannot_prune_bytes(self, model_env):
        # people has no partition column, so a pushed-down predicate
        # reduces rows out of the scan but never the bytes read.
        catalog, binder, model = model_env
        full = model.cost(self.optimized(catalog, binder, "SELECT id FROM people"))
        filtered = model.cost(
            self.optimized(
                catalog, binder, "SELECT id FROM people WHERE lname = 'Smith'"
            )
        )
        assert filtered.bytes_scanned >= full.bytes_scanned

    def test_partition_predicate_discounts_bytes(self, model_env):
        # orders is partitioned by day: a day predicate prunes whole
        # partitions, which the scan cost reflects as fewer bytes.
        catalog, binder, model = model_env
        full = model.cost(
            self.optimized(catalog, binder, "SELECT amount FROM orders")
        )
        pruned = model.cost(
            self.optimized(
                catalog, binder, "SELECT amount FROM orders WHERE day = 3"
            )
        )
        assert pruned.bytes_scanned < full.bytes_scanned

    def test_each_reference_to_a_subtree_is_priced(self, model_env):
        # The engines execute a subtree once per reference, so a plan
        # naming one subplan twice pays for both executions.
        _, binder, model = model_env
        plan = binder.bind_sql("SELECT id FROM people").plan
        single = model.cost(plan)
        self_join = Join(JoinKind.CROSS, plan, plan)
        assert model.cost(self_join).bytes_scanned == 2 * single.bytes_scanned

    def test_cached_scan_scans_no_bytes(self, model_env):
        _, _, model = model_env
        node = CachedScan(
            "fp-any", (Column(9100, "x", DataType.INTEGER),), ("t0",)
        )
        assert model.cost(node).bytes_scanned == 0.0

    def test_placement_markers_do_not_change_bytes(self, model_env):
        _, binder, model = model_env
        plan = binder.bind_sql("SELECT id FROM people WHERE age < 42").plan
        assert (
            model.cost(Exchange(plan, 0)).bytes_scanned
            == model.cost(plan).bytes_scanned
        )

    def test_cost_is_memoized_by_identity(self, model_env):
        _, binder, model = model_env
        plan = binder.bind_sql("SELECT id FROM people").plan
        assert model.cost(plan) is model.cost(plan)

    def test_populate_gating(self, tpcds_store):
        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        model = CostModel(catalog, CardinalityEstimator(catalog))
        binder = Binder(catalog)
        # A big aggregation: expensive to recompute, tiny to store.
        worthwhile = binder.bind_sql(
            "SELECT ss_item_sk, count(*) AS n FROM store_sales "
            "GROUP BY ss_item_sk"
        ).plan
        assert model.populate_worthwhile(worthwhile)
        # A wide string projection that is output ≈ input: the cache
        # entry would hold roughly everything the scan reads, so
        # recomputation is cheaper than the storage churn.  (Optimized
        # so projection pruning narrows the scan to what is emitted.)
        unprofitable = self.optimized(
            catalog,
            binder,
            "SELECT i_item_id, i_item_desc, i_brand, i_category, "
            "i_size, i_color FROM item",
        )
        assert not model.populate_worthwhile(unprofitable)


class TestCostBasedSelection:
    def test_config_default_off(self):
        assert OptimizerConfig().cost_based is False
        assert OptimizerConfig(cost_based=True).cost_based is True

    @pytest.mark.parametrize("name", ["q09", "q65", "q23"])
    def test_studied_queries_still_fuse(
        self, name, costed_session, heuristic_session
    ):
        sql = STUDIED_QUERIES[name]
        costed = costed_session.execute(sql)
        heuristic = heuristic_session.execute(sql)
        assert FUSION_RULES & set(costed.fired_rules), (
            f"{name} no longer fuses under cost_based"
        )
        assert costed.sorted_rows() == heuristic.sorted_rows()
        assert costed.metrics.bytes_scanned == heuristic.metrics.bytes_scanned

    def test_q95_semijoin_group_accepted(self, costed_session):
        # The semi-join → distinct-join enabler is priced as a group
        # with the JoinOnKeys fusion that pays it off; on q95 the group
        # wins and every stage of the sub-pipeline fires.
        result = costed_session.execute(STUDIED_QUERIES["q95"])
        fired = set(result.fired_rules)
        assert "semijoin_to_distinct_join" in fired
        assert "join_on_keys" in fired

    def test_unprofitable_fusion_declined(
        self, costed_session, heuristic_session
    ):
        heuristic = heuristic_session.execute(DECLINE_SQL)
        costed = costed_session.execute(DECLINE_SQL)
        assert "union_all_fusion" in heuristic.fired_rules
        assert "union_all_fusion" not in costed.fired_rules
        assert "union_all_fusion.cost_declined" in costed.fired_rules
        assert costed.sorted_rows() == heuristic.sorted_rows()

    def test_join_order_results_stable(self, costed_session, heuristic_session):
        sql = (
            "SELECT c.c_customer_id, sum(ss.ss_sales_price) AS total "
            "FROM store_sales ss "
            "JOIN customer c ON ss.ss_customer_sk = c.c_customer_sk "
            "JOIN item i ON ss.ss_item_sk = i.i_item_sk "
            "WHERE i.i_current_price > 50 "
            "GROUP BY c.c_customer_id"
        )
        costed = costed_session.execute(sql)
        heuristic = heuristic_session.execute(sql)
        assert costed.sorted_rows() == heuristic.sorted_rows()

    def test_warm_replay_under_cost_mode(self, costed_session):
        sql = STUDIED_QUERIES["q09"]
        cold = costed_session.execute(sql)
        warm = costed_session.execute(sql)
        assert warm.sorted_rows() == cold.sorted_rows()
        assert warm.metrics.bytes_scanned <= cold.metrics.bytes_scanned


class TestCostAxisOracle:
    def test_matrix_includes_costed_cells(self, people_store):
        from repro.testing.oracle import DifferentialOracle

        with DifferentialOracle(people_store, cost_axis=True) as oracle:
            for sql in (
                "SELECT lname, count(*) AS n FROM people GROUP BY lname",
                "SELECT id FROM people WHERE age < 42 "
                "UNION ALL SELECT id FROM people WHERE age >= 42",
                "SELECT p.id, c.city FROM people p "
                "JOIN cities c ON p.city_id = c.city_id",
            ):
                assert oracle.check(sql) is None, sql


class TestCliFlag:
    def test_query_parser_accepts_cost_based(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["--cost-based", "SELECT 1"])
        assert args.cost_based
        assert not build_parser().parse_args(["SELECT 1"]).cost_based

    def test_fuzz_parser_accepts_cost_based(self):
        from repro.cli import build_fuzz_parser

        args = build_fuzz_parser().parse_args(["--cost-based", "--count", "5"])
        assert args.cost_based

    def test_cli_runs_costed_query(self, capsys):
        from repro.cli import main

        code = main(
            [
                "--scale",
                "0.01",
                "--cost-based",
                "SELECT count(*) AS n FROM reason",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "n" in out
