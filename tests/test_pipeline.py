"""Tests for optimizer configuration, pipeline assembly, and the rule
engine driver."""

from dataclasses import replace

import pytest

from repro.algebra.expressions import FALSE, TRUE
from repro.algebra.operators import Filter, PlanNode, Project, Scan, Window
from repro.algebra.visitors import collect, walk_plan
from repro.catalog.catalog import Catalog
from repro.optimizer.config import BASELINE, FUSION, OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.pipeline import build_pipeline, optimize
from repro.optimizer.rule import PlanPass, RewriteRule, run_pipeline
from repro.sql.binder import Binder
from repro.testing.generator import QueryGenerator
from repro.tpcds.queries import STUDIED_QUERIES, WORKLOAD_QUERIES
from repro.tpcds.workload import FUSION_RULE_NAMES


class TestConfig:
    def test_baseline_disables_fusion(self):
        assert not BASELINE.enable_fusion
        assert FUSION.enable_fusion

    def test_without_fusion(self):
        derived = FUSION.without_fusion()
        assert not derived.enable_fusion
        assert replace(derived, enable_fusion=True) == FUSION


def drop_passes(monkeypatch, names) -> None:
    """Make ``optimize`` run the pipeline without the passes ``names``
    (the per-rule ablation: the default pass list, filtered)."""
    from repro.optimizer import pipeline

    full = pipeline.build_pipeline
    monkeypatch.setattr(
        pipeline,
        "build_pipeline",
        lambda config: [p for p in full(config) if p.name not in names],
    )


class TestPipelineAssembly:
    def names(self, config):
        return [type(p).__name__ for p in build_pipeline(config)]

    @pytest.mark.parametrize(
        "config,slots",
        [(FUSION, 23), (BASELINE, 19), (OptimizerConfig(cost_based=True), 23)],
    )
    def test_slot_counts(self, config, slots):
        assert len(build_pipeline(config)) == slots

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

    def test_per_rule_toggles(self, tpcds_store, monkeypatch):
        from repro.engine.session import Session

        drop_passes(monkeypatch, {"groupby_join_to_window"})
        result = Session(tpcds_store, FUSION).execute(STUDIED_QUERIES["q65"])
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
        self, rule, query, tpcds_store, baseline_session, monkeypatch
    ):
        from repro.engine.session import Session

        drop_passes(monkeypatch, FUSION_RULE_NAMES - {rule})
        sql = STUDIED_QUERIES[query]
        result = Session(tpcds_store, FUSION).execute(sql)
        baseline = baseline_session.execute(sql)
        assert rule in result.fired_rules
        assert result.sorted_rows() == baseline.sorted_rows()
        assert result.metrics.bytes_scanned < baseline.metrics.bytes_scanned

    def test_fusion_min_rows_gates_scan_only_rewrites(self, tpcds_store):
        """§IV.E end to end: a UNION ALL whose common expression scans
        only constant rows is not worth fusing; the same shape over a
        stored table fuses."""
        from repro.engine.session import Session

        session = Session(tpcds_store, OptimizerConfig())
        union = (
            "SELECT {c} FROM {src} WHERE {c} > 1 "
            "UNION ALL SELECT {c} FROM {src} WHERE {c} < 3"
        )
        constant = union.format(c="tag", src="(VALUES (1), (2), (3)) t(tag)")
        stored = union.format(c="r_reason_sk", src="reason")
        assert "union_all_fusion" not in session.execute(constant).fired_rules
        assert "union_all_fusion" in session.execute(stored).fired_rules


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
        ctx = OptimizerContext(catalog, OptimizerConfig())
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
        ctx = OptimizerContext(catalog, OptimizerConfig())
        scan_plan = collect(binder.bind_sql("SELECT r_reason_sk FROM reason").plan, Scan)[0]
        values_plan = binder.bind_sql("SELECT tag FROM (VALUES (1), (2)) t(tag)").plan
        assert ctx.worth_fusing(scan_plan)
        assert not ctx.worth_fusing(values_plan)


def stacked_operators(plan: PlanNode) -> list[str]:
    """The cleanup shapes a finished plan must not hold."""
    found = []
    for node in walk_plan(plan):
        if isinstance(node, Project) and isinstance(node.child, Project):
            found.append("Project over Project")
        if isinstance(node, Filter) and isinstance(node.child, Filter):
            found.append("Filter over Filter")
        if isinstance(node, Filter) and node.condition in (TRUE, FALSE):
            found.append(f"Filter({node.condition})")
    return found


@pytest.mark.parametrize(
    "config",
    [FUSION, BASELINE, OptimizerConfig(cost_based=True)],
    ids=["default", "baseline", "costed"],
)
def test_no_stacked_operators_survive_the_pipeline(tpcds_store, config):
    """The joint Cleanup fixpoint leaves no Project directly over a
    Project, no Filter over a Filter and no constant Filter, on the
    named queries and on a fuzz stream."""
    catalog = Catalog()
    tpcds_store.load_catalog(catalog)
    generator = QueryGenerator(catalog, seed=0)
    queries = dict(WORKLOAD_QUERIES)
    queries.update((f"fuzz #{i}", generator.generate().render()) for i in range(500))
    bad = {}
    for name, sql in queries.items():
        optimized, _ = optimize(Binder(catalog).bind_sql(sql).plan, catalog, config)
        found = stacked_operators(optimized)
        if found:
            bad[name] = found
    assert not bad
