"""Tests for optimizer configuration, pipeline assembly, and the rule
engine driver."""

import pytest

from repro.algebra.operators import Filter, PlanNode, Scan, Window
from repro.algebra.visitors import collect
from repro.catalog.catalog import Catalog
from repro.optimizer.config import BASELINE, FUSION, OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.pipeline import build_pipeline, optimize
from repro.optimizer.rule import PlanPass, RewriteRule, run_pipeline
from repro.sql.binder import Binder
from repro.tpcds.queries import STUDIED_QUERIES


class TestConfig:
    def test_baseline_disables_fusion(self):
        assert not BASELINE.enable_fusion
        assert FUSION.enable_fusion

    def test_without_fusion(self):
        derived = FUSION.without_fusion()
        assert not derived.enable_fusion
        assert derived.fusion_min_rows == FUSION.fusion_min_rows

    def test_fusion_rules_enabled_logic(self):
        assert FUSION.fusion_rules_enabled()
        assert not BASELINE.fusion_rules_enabled()
        partial = OptimizerConfig(
            enable_groupby_join_to_window=False,
            enable_join_on_keys=False,
            enable_union_all=False,
            enable_union_all_on_join=False,
        )
        assert not partial.fusion_rules_enabled()


class TestPipelineAssembly:
    def names(self, config):
        return [type(p).__name__ for p in build_pipeline(config)]

    def test_fusion_pipeline_contains_all_rules(self):
        names = self.names(FUSION)
        for rule in (
            "UnionAllOnJoin", "UnionAllFusion", "GroupByJoinToWindow", "JoinOnKeys",
        ):
            assert rule in names

    def test_baseline_pipeline_has_no_fusion_rules(self):
        names = self.names(BASELINE)
        for rule in (
            "UnionAllOnJoin", "UnionAllFusion", "GroupByJoinToWindow", "JoinOnKeys",
        ):
            assert rule not in names
        # Classical rules are shared.
        assert "PredicatePushdown" in names
        assert "SemiJoinToDistinctJoin" in names

    def test_union_all_on_join_precedes_generic_union_all(self):
        names = self.names(FUSION)
        assert names.index("UnionAllOnJoin") < names.index("UnionAllFusion")

    def test_semijoin_conversion_precedes_join_on_keys(self):
        names = self.names(FUSION)
        assert names.index("SemiJoinToDistinctJoin") < names.index("JoinOnKeys")

    def test_per_rule_toggles(self, tpcds_store):
        from repro.engine.session import Session

        config = OptimizerConfig(enable_groupby_join_to_window=False)
        session = Session(tpcds_store, config)
        result = session.execute(STUDIED_QUERIES["q65"])
        assert "groupby_join_to_window" not in set(result.fired_rules)
        assert not collect(result.optimized_plan, Window)


    @pytest.mark.parametrize(
        "rule,query",
        [
            ("groupby_join_to_window", "q65"),
            ("join_on_keys", "q09"),
            ("union_all_on_join", "q23"),
        ],
    )
    def test_each_rule_alone_carries_its_case_study(
        self, rule, query, tpcds_store, baseline_session
    ):
        from repro.engine.session import Session

        others = {
            f"enable_{name}": name == rule
            for name in (
                "groupby_join_to_window",
                "join_on_keys",
                "union_all_on_join",
                "union_all",
            )
        }
        sql = STUDIED_QUERIES[query]
        result = Session(tpcds_store, OptimizerConfig(**others)).execute(sql)
        baseline = baseline_session.execute(sql)
        assert rule in result.fired_rules
        assert result.sorted_rows() == baseline.sorted_rows()
        assert result.metrics.bytes_scanned < baseline.metrics.bytes_scanned

    def test_fusion_min_rows_gates_scan_only_rewrites(self, tpcds_store):
        """§IV.E end to end: Q09's common expression is Filter(Scan), so
        a threshold above every table's cardinality turns it off."""
        from repro.engine.session import Session

        strict = Session(tpcds_store, OptimizerConfig(fusion_min_rows=10**9))
        fired = strict.execute(STUDIED_QUERIES["q09"]).fired_rules
        assert "join_on_keys" not in fired


class TestRuleEngine:
    class CountingRule(RewriteRule):
        name = "counting"

        def __init__(self):
            self.calls = 0

        def rewrite(self, node: PlanNode, ctx) -> PlanNode | None:
            self.calls += 1
            return None

    def test_rewrite_rule_reaches_fixpoint(self, tpcds_store):
        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        binder = Binder(catalog)
        plan = binder.bind_sql("SELECT r_reason_sk FROM reason").plan
        ctx = OptimizerContext(catalog, OptimizerConfig())
        rule = self.CountingRule()
        result = rule.run(plan, ctx)
        assert result == plan
        assert rule.calls > 0

    def test_fired_rules_recorded(self, tpcds_store):
        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        binder = Binder(catalog)
        plan = binder.bind_sql(
            "SELECT r_reason_sk FROM reason WHERE r_reason_sk > 1 AND TRUE"
        ).plan
        optimized, ctx = optimize(plan, catalog, OptimizerConfig())
        assert isinstance(ctx.fired, list)

    def test_optimize_defaults_to_fusion(self, tpcds_store):
        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        binder = Binder(catalog)
        plan = binder.bind_sql(STUDIED_QUERIES["q65"]).plan
        optimized, ctx = optimize(plan, catalog)
        assert "groupby_join_to_window" in ctx.fired

    def test_pass_returning_none_rejected(self, tpcds_store):
        from repro.errors import OptimizerError

        class BadPass(PlanPass):
            name = "bad"

            def run(self, plan, ctx):
                return None

        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        binder = Binder(catalog)
        plan = binder.bind_sql("SELECT 1").plan
        ctx = OptimizerContext(catalog, OptimizerConfig())
        with pytest.raises(OptimizerError):
            run_pipeline(plan, [BadPass()], ctx)


class TestCostHeuristics:
    def test_scanned_rows_sums_scans(self, tpcds_store):
        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        binder = Binder(catalog)
        ctx = OptimizerContext(catalog, OptimizerConfig())
        plan = binder.bind_sql("SELECT 1 FROM store_sales, store_sales s2").plan
        assert ctx.scanned_rows(plan) == 2 * catalog.row_count("store_sales")

    def test_estimated_rows_cross_product(self, tpcds_store):
        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        binder = Binder(catalog)
        ctx = OptimizerContext(catalog, OptimizerConfig())
        plan = binder.bind_sql("SELECT 1 FROM reason, store").plan
        rows = catalog.row_count("reason") * catalog.row_count("store")
        # The final projection sits above the cross join.
        assert ctx.estimated_rows(plan) == rows

    def test_worth_fusing_join_always(self, tpcds_store):
        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        binder = Binder(catalog)
        ctx = OptimizerContext(catalog, OptimizerConfig(fusion_min_rows=10**12))
        joined = binder.bind_sql(
            "SELECT 1 FROM store_sales, store WHERE ss_store_sk = s_store_sk"
        ).plan
        from repro.optimizer.rewrites import PredicatePushdown

        joined = PredicatePushdown().run(joined, ctx)
        assert ctx.worth_fusing(joined)

    def test_worth_fusing_scan_respects_threshold(self, tpcds_store):
        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        binder = Binder(catalog)
        scan_plan = collect(
            binder.bind_sql("SELECT ss_item_sk FROM store_sales").plan, Scan
        )[0]
        permissive = OptimizerContext(catalog, OptimizerConfig(fusion_min_rows=1))
        strict = OptimizerContext(catalog, OptimizerConfig(fusion_min_rows=10**12))
        assert permissive.worth_fusing(scan_plan)
        assert not strict.worth_fusing(scan_plan)
