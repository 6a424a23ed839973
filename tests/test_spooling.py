"""Tests for the spooling extension (the paper's roadmap fallback).

Spooling materializes a duplicated common subexpression once and
replays it for other consumers.  It must (a) preserve results,
(b) halve the scans of the duplicated subtree, and (c) — the paper's
central argument — be *less* effective than fusion where fusion
applies: the fused plan neither writes nor re-reads intermediates.
"""

import pytest

from repro.algebra.operators import Spool, Window
from repro.algebra.visitors import collect, scan_tables, validate_plan
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.tpcds.queries import STUDIED_QUERIES

#: Fusion off, spooling on: the paper's "general approach" alternative.
SPOOLING = OptimizerConfig(enable_fusion=False, enable_spooling=True)


@pytest.fixture()
def spooling_session(tpcds_store) -> Session:
    return Session(tpcds_store, SPOOLING)


class TestSpoolCorrectness:
    @pytest.mark.parametrize("name", ["q65", "q23", "q95"])
    def test_results_preserved(self, name, baseline_session, spooling_session):
        sql = STUDIED_QUERIES[name]
        base = baseline_session.execute(sql)
        spooled = spooling_session.execute(sql)
        validate_plan(spooled.optimized_plan)
        assert base.sorted_rows() == spooled.sorted_rows()

    def test_q65_spool_introduced_and_scans_halved(
        self, baseline_session, spooling_session
    ):
        sql = STUDIED_QUERIES["q65"]
        base_plan, _ = baseline_session.plan(sql)
        spool_plan, _ = spooling_session.plan(sql)
        spools = collect(spool_plan, Spool)
        assert len(spools) == 2
        assert spools[0].spool_id == spools[1].spool_id
        base = baseline_session.execute(sql)
        spooled = spooling_session.execute(sql)
        # The duplicated subtree executes once: scans drop.
        assert spooled.metrics.bytes_scanned < base.metrics.bytes_scanned
        assert spooled.metrics.spooled_rows > 0
        assert spooled.metrics.spool_read_rows >= 2 * spooled.metrics.spooled_rows

    def test_no_spooling_without_duplicates(self, spooling_session):
        result = spooling_session.execute(
            "SELECT s_state, count(*) AS n FROM store, store_sales "
            "WHERE s_store_sk = ss_store_sk GROUP BY s_state"
        )
        assert not collect(result.optimized_plan, Spool)

    def test_spool_disabled_by_default(self, fusion_session):
        plan, _ = fusion_session.plan(STUDIED_QUERIES["q65"])
        assert not collect(plan, Spool)

    def test_correlated_subtrees_never_spooled(self, tpcds_store, baseline_session):
        """A duplicated subtree that references a correlated outer
        column must re-evaluate per outer row: caching it would replay
        the first row's results for every subsequent row.  (COUNT keeps
        the subquery as a nested-loop ScalarApply — the only shape
        where this can occur — and the duplicated GroupBy carries the
        correlated predicate.)  Without the free-reference guard this
        query returns the first store's count for every store."""
        sql = """
            SELECT s_store_sk,
                   (SELECT count(*) FROM
                       (SELECT ss_item_sk AS i, count(*) AS n FROM store_sales
                        WHERE ss_store_sk = s1.s_store_sk GROUP BY ss_item_sk) a,
                       (SELECT ss_item_sk AS i, count(*) AS n FROM store_sales
                        WHERE ss_store_sk = s1.s_store_sk GROUP BY ss_item_sk) b
                    WHERE a.i = b.i AND a.n = b.n) AS matches
            FROM store s1
            ORDER BY s_store_sk
        """
        spooling = Session(tpcds_store, SPOOLING)
        result = spooling.execute(sql)
        # The correlated duplicates must not be cached...
        assert not collect(result.optimized_plan, Spool)
        # ...and results must match the baseline exactly (in particular
        # the per-store counts must differ from each other).
        expected = baseline_session.execute(sql)
        assert result.sorted_rows() == expected.sorted_rows()
        counts = {row[1] for row in result.rows}
        assert len(counts) > 1


class TestFusionVersusSpooling:
    """The paper's §I claim: 'the resulting rewrites are more efficient
    than alternatives that materialize intermediate results'."""

    def test_fusion_avoids_materialization_on_q65(
        self, fusion_session, spooling_session
    ):
        sql = STUDIED_QUERIES["q65"]
        fused = fusion_session.execute(sql)
        spooled = spooling_session.execute(sql)
        assert fused.sorted_rows() == spooled.sorted_rows()
        # Fusion reads no more than spooling...
        assert fused.metrics.bytes_scanned <= spooled.metrics.bytes_scanned * 1.01
        # ...and materializes nothing at all.
        assert fused.metrics.spooled_rows == 0
        assert spooled.metrics.spooled_rows > 0

    @pytest.mark.parametrize("name", ["q01", "q30"])
    def test_fusion_beats_spooling_on_decorrelated_queries(
        self, name, baseline_session, fusion_session, spooling_session
    ):
        sql = STUDIED_QUERIES[name]
        base = baseline_session.execute(sql)
        fused = fusion_session.execute(sql)
        spooled = spooling_session.execute(sql)
        assert spooled.sorted_rows() == base.sorted_rows()
        assert spooled.metrics.spooled_rows > 0
        assert spooled.metrics.bytes_scanned < base.metrics.bytes_scanned
        assert fused.metrics.bytes_scanned <= spooled.metrics.bytes_scanned * 1.01
        assert fused.metrics.spooled_rows == 0

    def test_fusion_takes_precedence_when_both_enabled(self, tpcds_store):
        both = Session(
            tpcds_store, OptimizerConfig(enable_fusion=True, enable_spooling=True)
        )
        plan, _ = both.plan(STUDIED_QUERIES["q65"])
        # Fusion already removed the duplicate: nothing left to spool.
        assert collect(plan, Window)
        assert not collect(plan, Spool)
