"""The session's plan memo (DESIGN.md §8, "Plan memo").

A repeated SQL text skips parse, bind and every pass before
``CrossQueryReuse``.  These tests fail if the memo serves a wrong plan
(another text's, or one that differs from what planning would give) or
a stale one (built against a table's replaced data).
"""

from __future__ import annotations

import pytest

import repro.engine.session as session_module
from repro.algebra.fingerprint import plan_fingerprint
from repro.algebra.types import DataType
from repro.engine.plan_cache import MIB, PlanCache
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import Store
from repro.tpcds.queries import WORKLOAD_QUERIES

from tests.conftest import simple_table

CONFIGS = {
    "default": OptimizerConfig(),
    "baseline": OptimizerConfig(enable_fusion=False),
    "costed": OptimizerConfig(cost_based=True),
    "cache": OptimizerConfig(enable_plan_cache=True),
}


def _same(a, b) -> None:
    assert a.rows == b.rows
    assert a.explain() == b.explain()
    assert a.fired_rules == b.fired_rules
    assert a.columns == b.columns


@pytest.mark.parametrize("label", CONFIGS)
def test_a_repeat_matches_the_first_run_and_a_fresh_session(tpcds_store, label):
    config = CONFIGS[label]
    # One cache for both sessions, so the fresh session plans against
    # the very cache state the memoized repeat saw.
    cache = PlanCache(config.cache_budget_mb * MIB) if config.enable_plan_cache else None
    memoized = Session(tpcds_store, config, plan_cache=cache)
    fresh = Session(tpcds_store, config, plan_cache=cache)
    repeats = {}
    for name, sql in WORKLOAD_QUERIES.items():
        first = memoized.execute(sql)
        second = memoized.execute(sql)
        reference = fresh.execute(sql)
        assert not first.metrics.plan_memo_hit and not reference.metrics.plan_memo_hit
        assert second.metrics.plan_memo_hit, name
        assert second.rows == first.rows and second.columns == first.columns
        if cache is None:
            _same(second, first)
        _same(second, reference)
        repeats[name] = second
    # A full memo still serves each text its own plan.
    for name in reversed(WORKLOAD_QUERIES):
        again = memoized.execute(WORKLOAD_QUERIES[name])
        assert again.metrics.plan_memo_hit
        _same(again, repeats[name])


_COLUMNS = [("k", DataType.INTEGER), ("x", DataType.INTEGER)]
#: ``m > 0`` is always true while every ``x`` is positive, so
#: FactSimplify drops the filter; after the reload below it may not.
_SQL = "SELECT k, m FROM (SELECT k, MAX(x) AS m FROM t GROUP BY k) s WHERE m > 0"
_NEW_ROWS = [(0, -3), (0, -1), (1, 2), (2, -5)]


def _store() -> Store:
    store = Store()
    store.put(simple_table("t", _COLUMNS, [(i % 3, i) for i in range(1, 11)]))
    return store


def _digest(result) -> str:
    return plan_fingerprint(result.optimized_plan).digest


def test_reload_replans_when_statistics_change_a_fact_simplify_decision():
    store = _store()
    session = Session(store)
    first = session.execute(_SQL)
    assert "fact_simplify" in first.fired_rules
    assert session.execute(_SQL).metrics.plan_memo_hit
    store.put(simple_table("t", _COLUMNS, _NEW_ROWS))
    session.reload_table("t")
    after = session.execute(_SQL)
    assert not after.metrics.plan_memo_hit
    assert after.rows == [(1, 2)]
    with Session(store) as fresh:
        reference = fresh.execute(_SQL)
    assert _digest(after) == _digest(reference) != _digest(first)
    assert after.fired_rules == reference.fired_rules


def test_a_reload_racing_the_plan_leaves_an_entry_that_misses(monkeypatch):
    store = _store()
    session = Session(store)
    real = session_module.run_pipeline
    calls = []

    def pipeline_then_reload(plan, passes, ctx):
        out = real(plan, passes, ctx)
        if not calls:
            # After the head planned against the old statistics and
            # before the entry is inserted.
            store.put(simple_table("t", _COLUMNS, _NEW_ROWS))
            session.reload_table("t")
        calls.append(len(passes))
        return out

    monkeypatch.setattr(session_module, "run_pipeline", pipeline_then_reload)
    session.execute(_SQL)
    monkeypatch.setattr(session_module, "run_pipeline", real)
    after = session.execute(_SQL)
    assert not after.metrics.plan_memo_hit
    assert after.rows == [(1, 2)]
    with Session(store) as fresh:
        assert _digest(after) == _digest(fresh.execute(_SQL))
    assert session.execute(_SQL).metrics.plan_memo_hit


def test_a_plan_made_midway_through_a_reload_misses(monkeypatch):
    # A planner that runs while the reload is still writing statistics
    # must not record the new version: it may have seen old statistics.
    store = _store()
    session = Session(store)
    real = session.catalog.set_column_stats
    planned = []

    def set_stats_then_plan(table, column, stats):
        real(table, column, stats)
        if not planned:
            planned.append(session.plan(_SQL))

    store.put(simple_table("t", _COLUMNS, _NEW_ROWS))
    monkeypatch.setattr(session.catalog, "set_column_stats", set_stats_then_plan)
    session.reload_table("t")
    monkeypatch.undo()
    after = session.execute(_SQL)
    assert planned and not after.metrics.plan_memo_hit
    assert after.rows == [(1, 2)]


def test_the_memo_holds_at_most_its_cap(monkeypatch):
    monkeypatch.setattr(session_module, "PLAN_MEMO_SIZE", 4)
    session = Session(_store())
    texts = [f"SELECT x FROM t WHERE x > {i}" for i in range(10)]
    for sql in texts:
        session.plan(sql)
        assert len(session._memo) <= 4
    # Least recently used goes first: the newest texts are memoized,
    # the oldest are not.
    assert session.execute(texts[-1]).metrics.plan_memo_hit
    assert not session.execute(texts[0]).metrics.plan_memo_hit
    assert len(session._memo) == 4


def test_a_session_without_a_memo_plans_every_query():
    store = _store()
    expected = Session(store).execute(_SQL).rows
    session = Session(store, plan_memo=False)
    for _ in range(3):
        result = session.execute(_SQL)
        assert not result.metrics.plan_memo_hit
        assert result.rows == expected
    assert len(session._memo) == 0
