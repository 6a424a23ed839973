"""Integration tests: every workload query gives identical results under
the baseline and fusion pipelines, and the studied queries show the
plan transformations the paper's §V case studies describe."""

import statistics
import time

import pytest

from repro.algebra.operators import GroupBy, Join, JoinKind, UnionAll, Window
from repro.algebra.visitors import collect, scan_tables, validate_plan
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.tpcds.queries import FILLER_QUERIES, STUDIED_QUERIES, WORKLOAD_QUERIES

FUSION_RULES = {
    "groupby_join_to_window",
    "join_on_keys",
    "union_all_fusion",
    "union_all_on_join",
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
def test_fusion_preserves_results(name, baseline_session, fusion_session):
    sql = WORKLOAD_QUERIES[name]
    baseline = baseline_session.execute(sql)
    fused = fusion_session.execute(sql)
    validate_plan(baseline.optimized_plan)
    validate_plan(fused.optimized_plan)
    assert baseline.sorted_rows() == fused.sorted_rows()


@pytest.mark.parametrize("name", sorted(STUDIED_QUERIES))
def test_studied_queries_trigger_fusion(name, fusion_session):
    result = fusion_session.execute(STUDIED_QUERIES[name])
    assert FUSION_RULES & set(result.fired_rules), (
        f"{name} did not trigger any fusion rule: {sorted(set(result.fired_rules))}"
    )


@pytest.mark.parametrize("name", sorted(FILLER_QUERIES))
def test_filler_queries_unchanged_by_fusion(name, fusion_session):
    result = fusion_session.execute(FILLER_QUERIES[name])
    assert not (FUSION_RULES & set(result.fired_rules))


@pytest.mark.parametrize("name", sorted(STUDIED_QUERIES))
def test_planning_plus_execution_is_the_observed_latency(name, fusion_session):
    """``wall_time_s`` starts after the optimizer; ``planning_s`` is the
    rest of what a ``Session.execute`` caller waits for."""
    shares = []
    for _ in range(3):
        start = time.perf_counter()
        metrics = fusion_session.execute(STUDIED_QUERIES[name]).metrics
        observed = time.perf_counter() - start
        assert metrics.planning_s > 0
        shares.append((metrics.planning_s + metrics.wall_time_s) / observed)
    assert 0.9 <= statistics.median(shares) <= 1.0


#: The paper's §V data-read claims as upper bounds on fused / baseline
#: bytes: window rewrites read 20-40% less (§V.A), merged scalar
#: aggregates 60-85% less (§V.B), the Q23 union refactor about half
#: (§V.C); Q95 just has to read less.
PAPER_BYTES_FRACTION = {
    "q01": 0.8, "q30": 0.8, "q65": 0.8,
    "q09": 0.4, "q28": 0.4, "q88": 0.4,
    "q23": 0.8,
    "q95": 1.0,
}


@pytest.mark.parametrize("name", sorted(STUDIED_QUERIES))
def test_studied_queries_scan_less(name, baseline_session, fusion_session):
    sql = STUDIED_QUERIES[name]
    baseline = baseline_session.execute(sql)
    fused = fusion_session.execute(sql)
    fraction = fused.metrics.bytes_scanned / baseline.metrics.bytes_scanned
    assert fraction < PAPER_BYTES_FRACTION[name]


class TestCaseStudyWindow:
    """§V.A: Q01/Q30 decorrelate into GroupByJoinToWindow; Q65 is the
    direct pattern.  The rewrite introduces a Window operator and drops
    the duplicated common expression."""

    @pytest.mark.parametrize("name", ["q01", "q30", "q65"])
    def test_window_operator_introduced(self, name, fusion_session, baseline_session):
        fused_plan, _ = fusion_session.plan(STUDIED_QUERIES[name])
        base_plan, _ = baseline_session.plan(STUDIED_QUERIES[name])
        assert collect(fused_plan, Window)
        assert not collect(base_plan, Window)

    def test_q65_single_store_sales_scan(self, fusion_session, baseline_session):
        fused_plan, _ = fusion_session.plan(STUDIED_QUERIES["q65"])
        base_plan, _ = baseline_session.plan(STUDIED_QUERIES["q65"])
        assert scan_tables(base_plan).count("store_sales") == 2
        assert scan_tables(fused_plan).count("store_sales") == 1

    def test_q01_single_store_returns_scan(self, fusion_session):
        fused_plan, _ = fusion_session.plan(STUDIED_QUERIES["q01"])
        assert scan_tables(fused_plan).count("store_returns") == 1

    def test_q30_single_web_returns_scan(self, fusion_session, baseline_session):
        fused_plan, _ = fusion_session.plan(STUDIED_QUERIES["q30"])
        base_plan, _ = baseline_session.plan(STUDIED_QUERIES["q30"])
        assert scan_tables(base_plan).count("web_returns") == 2
        assert scan_tables(fused_plan).count("web_returns") == 1


class TestCaseStudyScalarAggregates:
    """§V.B: Q09/Q28/Q88 merge bucketed scalar aggregates into one scan
    with masked aggregates."""

    @pytest.mark.parametrize(
        "name,table,baseline_scans",
        [("q09", "store_sales", 15), ("q28", "store_sales", 6), ("q88", "store_sales", 8)],
    )
    def test_scans_collapse_to_one(
        self, name, table, baseline_scans, fusion_session, baseline_session
    ):
        fused_plan, _ = fusion_session.plan(STUDIED_QUERIES[name])
        base_plan, _ = baseline_session.plan(STUDIED_QUERIES[name])
        assert scan_tables(base_plan).count(table) == baseline_scans
        assert scan_tables(fused_plan).count(table) == 1

    def test_q09_masked_aggregates(self, fusion_session):
        fused_plan, _ = fusion_session.plan(STUDIED_QUERIES["q09"])
        grouped = collect(fused_plan, GroupBy)
        assert grouped and len(grouped[0].aggregates) == 15

    def test_q28_distinct_aggregates_survive(self, fusion_session):
        from repro.algebra.operators import MarkDistinct

        fused_plan, _ = fusion_session.plan(STUDIED_QUERIES["q28"])
        assert len(collect(fused_plan, MarkDistinct)) == 6

    def test_q28_markdistinct_fusion_when_lowered_first(
        self, tpcds_store, baseline_session
    ):
        """§III.F: with DISTINCT aggregates lowered *before* the fusion
        rules, JoinOnKeys has to fuse the MarkDistinct operators
        themselves — same rows, still one store_sales scan."""
        session = Session(
            tpcds_store, OptimizerConfig(lower_distinct_before_fusion=True)
        )
        result = session.execute(STUDIED_QUERIES["q28"])
        assert "join_on_keys" in result.fired_rules
        assert scan_tables(result.optimized_plan).count("store_sales") == 1
        baseline = baseline_session.execute(STUDIED_QUERIES["q28"])
        assert result.sorted_rows() == baseline.sorted_rows()


class TestCaseStudyUnionAll:
    """§V.C: Q23's UNION ALL of two fact tables pushes the union below
    the shared date_dim join and the freq_items/best_customer semis."""

    def test_shared_expressions_computed_once(self, fusion_session, baseline_session):
        fused_plan, _ = fusion_session.plan(STUDIED_QUERIES["q23"])
        base_plan, _ = baseline_session.plan(STUDIED_QUERIES["q23"])
        # Each CTE is referenced twice -> baseline computes them twice.
        assert scan_tables(base_plan).count("store_sales") == 4
        assert scan_tables(fused_plan).count("store_sales") == 2

    def test_union_pushed_below_semi_joins(self, fusion_session):
        fused_plan, _ = fusion_session.plan(STUDIED_QUERIES["q23"])
        unions = collect(fused_plan, UnionAll)
        assert len(unions) == 1
        branch_tables = {t for child in unions[0].inputs for t in scan_tables(child)}
        assert branch_tables == {"catalog_sales", "web_sales"}

    def test_memory_pressure_reduced(self, fusion_session, baseline_session):
        sql = STUDIED_QUERIES["q23"]
        base = baseline_session.execute(sql)
        fused = fusion_session.execute(sql)
        # The §V.C memory observation: one CTE instance instead of two.
        # In the paper's engine both union branches are resident
        # concurrently, so total admitted state is the right proxy.
        assert fused.metrics.total_state_rows < base.metrics.total_state_rows


class TestCaseStudyRelationalAggregates:
    """§V.D: Q95's redundant IN over ws_wh is removed through the
    semi-join conversion + distinct pushdown + JoinOnKeys interplay."""

    def test_one_ws_wh_instance_removed(self, fusion_session, baseline_session):
        fused_plan, _ = fusion_session.plan(STUDIED_QUERIES["q95"])
        base_plan, _ = baseline_session.plan(STUDIED_QUERIES["q95"])
        # ws_wh self-joins web_sales (2 scans per instance); the outer
        # query scans it once more.  Fusion removes one ws_wh instance.
        assert scan_tables(base_plan).count("web_sales") == 5
        assert scan_tables(fused_plan).count("web_sales") == 3

    def test_rules_fired(self, fusion_session):
        result = fusion_session.execute(STUDIED_QUERIES["q95"])
        fired = set(result.fired_rules)
        assert "semijoin_to_distinct_join" in fired
        assert "distinct_pushdown" in fired
        assert "join_on_keys" in fired


class TestSession:
    def test_explain_returns_text(self, fusion_session):
        text = fusion_session.explain("SELECT count(*) FROM store")
        assert "GroupBy" in text and "Scan" in text

    def test_result_metadata(self, fusion_session):
        result = fusion_session.execute("SELECT s_state, count(*) AS n FROM store GROUP BY s_state")
        assert result.columns == ("s_state", "n")
        assert result.metrics.rows_output == len(result.rows)
        assert result.metrics.wall_time_s > 0

    def test_empty_result(self, fusion_session):
        result = fusion_session.execute("SELECT s_state FROM store WHERE s_store_sk < 0")
        assert result.rows == []
