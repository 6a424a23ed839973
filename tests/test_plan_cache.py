"""Plan-cache unit tests: LRU byte budget, pinning, invalidation, and
session-level reload semantics (repro.engine.plan_cache)."""

from __future__ import annotations

import pytest

from repro.algebra.types import DataType
from repro.catalog.catalog import Catalog
from repro.engine.plan_cache import CacheEntry, PlanCache
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import Store

from tests.conftest import simple_table


def _entry(
    fingerprint: str,
    nbytes: float = 100.0,
    tables: tuple[str, ...] = (),
    versions: tuple[tuple[str, int], ...] = (),
) -> CacheEntry:
    return CacheEntry(
        fingerprint=fingerprint,
        columns={"tok": [1, 2, 3]},
        row_count=3,
        nbytes=nbytes,
        tables=frozenset(tables),
        table_versions=versions,
        saved_bytes=0.0,
    )


# -- LRU byte budget --------------------------------------------------------


def test_put_lookup_roundtrip():
    cache = PlanCache(budget_bytes=1000)
    assert cache.put(_entry("a"))
    assert cache.lookup("a") is not None
    assert cache.lookup("missing") is None
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_duplicate_put_is_noop():
    cache = PlanCache(budget_bytes=1000)
    assert cache.put(_entry("a"))
    assert not cache.put(_entry("a"))
    assert len(cache) == 1


def test_lru_eviction_respects_budget():
    cache = PlanCache(budget_bytes=250)
    assert cache.put(_entry("a", 100))
    assert cache.put(_entry("b", 100))
    assert cache.lookup("a") is not None  # refresh a: b is now LRU
    assert cache.put(_entry("c", 100))  # evicts b, not a
    assert cache.bytes_used <= cache.budget_bytes
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.stats.evictions == 1


def test_oversized_entry_rejected_without_evicting():
    cache = PlanCache(budget_bytes=250)
    assert cache.put(_entry("a", 100))
    assert not cache.put(_entry("huge", 300))
    assert "a" in cache and cache.stats.rejected == 1


def test_pinned_entries_survive_eviction():
    cache = PlanCache(budget_bytes=250)
    assert cache.put(_entry("a", 200))
    cache.lookup("a", pin=True)
    # Admitting b would require evicting pinned a: refuse instead.
    assert not cache.put(_entry("b", 100))
    assert "a" in cache
    cache.release_pins()
    assert cache.put(_entry("b", 100))  # now a is evictable
    assert "b" in cache and "a" not in cache
    assert cache.bytes_used <= cache.budget_bytes


# -- invalidation -----------------------------------------------------------


def _catalog_with(store: Store) -> Catalog:
    catalog = Catalog()
    store.load_catalog(catalog)
    return catalog


def _one_table_store(rows) -> Store:
    store = Store()
    store.put(
        simple_table(
            "t", [("k", DataType.INTEGER), ("v", DataType.INTEGER)], rows
        )
    )
    return store


def test_lazy_invalidation_on_version_mismatch():
    store = _one_table_store([(1, 10)])
    catalog = _catalog_with(store)
    cache = PlanCache(budget_bytes=1000)
    cache.put(_entry("a", tables=("t",), versions=(("t", catalog.table_version("t")),)))
    assert cache.lookup("a", catalog) is not None
    store.register_table("t", catalog)  # reload bumps the version
    assert cache.lookup("a", catalog) is None
    assert "a" not in cache
    assert cache.stats.invalidations == 1


def test_eager_invalidate_table():
    cache = PlanCache(budget_bytes=1000)
    cache.put(_entry("a", tables=("t",)))
    cache.put(_entry("b", tables=("other",)))
    assert cache.invalidate_table("t") == 1
    assert "a" not in cache and "b" in cache


# -- config validation ------------------------------------------------------


def test_config_rejects_bad_cache_params():
    with pytest.raises(ValueError):
        OptimizerConfig(cache_budget_mb=0)


# -- session-level behaviour ------------------------------------------------

_SQL = "SELECT k, sum(v) AS total FROM t GROUP BY k"


@pytest.mark.parametrize("engine", ["row", "batch"])
def test_session_replay_and_reload(engine):
    store = _one_table_store([(1, 10), (1, 5), (2, 20)])
    session = Session(
        store, OptimizerConfig(enable_plan_cache=True, engine=engine)
    )
    first = session.execute(_SQL)
    assert first.metrics.cache_populations > 0
    second = session.execute(_SQL)
    assert second.rows == first.rows
    assert second.metrics.cache_hits >= 1
    assert second.metrics.bytes_scanned == 0
    assert second.metrics.cache_bytes_saved > 0

    # Replace the data: reload must bump the version and evict, so the
    # next run recomputes against the new rows instead of replaying.
    store.put(
        simple_table(
            "t",
            [("k", DataType.INTEGER), ("v", DataType.INTEGER)],
            [(1, 100), (2, 200)],
        )
    )
    session.reload_table("t")
    third = session.execute(_SQL)
    assert third.metrics.cache_hits == 0
    assert third.metrics.bytes_scanned > 0
    assert sorted(third.rows) == [(1, 100), (2, 200)]
    # ...and the recomputed result is cached again.
    fourth = session.execute(_SQL)
    assert fourth.rows == third.rows
    assert fourth.metrics.bytes_scanned == 0


def test_session_budget_is_respected():
    store = _one_table_store([(i, i * 2) for i in range(500)])
    # ~50 byte budget: the 500-row results cannot fit.
    session = Session(
        store,
        OptimizerConfig(enable_plan_cache=True, cache_budget_mb=50 / (1024 * 1024)),
    )
    session.execute("SELECT k, v FROM t WHERE v > 10")
    cache = session.plan_cache
    # Either the planner's size screen refused to schedule population,
    # or the insert-time check rejected the materialized entry — in
    # both cases the budget invariant holds and nothing was admitted.
    assert cache.bytes_used <= cache.budget_bytes
    assert len(cache) == 0


def test_row_and_batch_engines_build_identical_entries():
    results = {}
    for engine in ("row", "batch"):
        store = _one_table_store([(1, 10), (1, 5), (2, 20), (3, None)])
        session = Session(
            store, OptimizerConfig(enable_plan_cache=True, engine=engine)
        )
        session.execute(_SQL)
        replay = session.execute(_SQL)
        entries = session.plan_cache.entries()
        results[engine] = (
            replay.rows,
            sorted((e.fingerprint, e.row_count, e.nbytes) for e in entries),
        )
    assert results["row"] == results["batch"]
