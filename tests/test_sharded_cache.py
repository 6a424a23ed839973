"""PlanCache under concurrency: put/replay from many threads, the
put-vs-invalidate version fence, and cache sharing between parallel
and serial sessions (repro.engine.plan_cache).  The file keeps its
name from the sharded twin these cases were written against; the
session, service and oracle now hold the one PlanCache."""

from __future__ import annotations

import threading

import pytest

from repro.engine.plan_cache import CacheEntry, PlanCache
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig


def _entry(
    fingerprint: str,
    nbytes: float = 100.0,
    tables: tuple[str, ...] = (),
) -> CacheEntry:
    return CacheEntry(
        fingerprint=fingerprint,
        columns={"tok": [1, 2, 3]},
        row_count=3,
        nbytes=nbytes,
        tables=frozenset(tables),
        table_versions=(),
        saved_bytes=0.0,
    )


def test_duck_compatible_roundtrip():
    cache = PlanCache(budget_bytes=4000)
    assert cache.put(_entry("a"))
    assert not cache.put(_entry("a"))  # duplicate refused like PlanCache
    assert "a" in cache and cache.has("a")
    assert cache.lookup("a") is not None
    assert cache.replay("a") is not None
    assert cache.lookup("missing") is None
    assert cache.bytes_used == 100.0
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.replays == 1
    assert len(cache.entries()) == 1
    assert cache.evict("a") and not cache.evict("a")


def test_invalidate_table_sweeps_all_shards():
    cache = PlanCache(budget_bytes=4000)
    for i in range(12):
        assert cache.put(_entry(f"fp{i}", tables=("orders",)))
    assert cache.put(_entry("other", tables=("people",)))
    assert cache.invalidate_table("orders") == 12
    assert len(cache) == 1 and "other" in cache


def test_pins_and_clear_cover_every_shard():
    cache = PlanCache(budget_bytes=4000)
    for i in range(8):
        cache.put(_entry(f"fp{i}"))
        cache.lookup(f"fp{i}", pin=True)
    cache.release_pins()
    cache.clear()
    assert len(cache) == 0 and cache.bytes_used == 0.0


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PlanCache(budget_bytes=0)


def test_concurrent_put_and_replay_are_safe():
    cache = PlanCache(budget_bytes=1_000_000)
    errors: list[Exception] = []

    def worker(base: int) -> None:
        try:
            for i in range(200):
                fp = f"fp{base}-{i}"
                cache.put(_entry(fp, nbytes=10.0))
                assert cache.replay(fp) is not None
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(cache) == 800


def _versioned(fingerprint: str, table: str, version: int) -> CacheEntry:
    return CacheEntry(
        fingerprint=fingerprint,
        columns={"tok": [1, 2, 3]},
        row_count=3,
        nbytes=10.0,
        tables=frozenset({table}),
        table_versions=((table, version),),
        saved_bytes=0.0,
    )


class TestEvictionRaceFence:
    """`put` racing `invalidate_table` during a table-version bump must
    never resurrect a stale entry (ISSUE 9, satellite b).  The fence is
    the `min_version` floor recorded under the cache lock: a population
    planned against the old version loses the race *deterministically*,
    whichever side reaches the lock first."""

    def test_put_after_invalidate_is_fenced(self):
        cache = PlanCache(1 << 20)
        assert cache.put(_versioned("old", "orders", 1))
        assert cache.invalidate_table("orders", min_version=2) == 1
        # The racing population (planned against v1) arrives late: the
        # old world must not come back.
        assert not cache.put(_versioned("old", "orders", 1))
        assert "old" not in cache
        assert cache.stats.stale_rejected == 1
        # A population against the *new* version is welcome.
        assert cache.put(_versioned("new", "orders", 2))

    def test_fence_is_monotonic(self):
        cache = PlanCache(1 << 20)
        cache.invalidate_table("orders", min_version=5)
        # A lagging invalidation with an older version must not lower
        # the floor.
        cache.invalidate_table("orders", min_version=3)
        assert not cache.put(_versioned("v4", "orders", 4))
        assert cache.put(_versioned("v5", "orders", 5))

    def test_clear_resets_the_fence(self):
        cache = PlanCache(1 << 20)
        cache.invalidate_table("orders", min_version=9)
        cache.clear()
        assert cache.put(_versioned("fresh", "orders", 1))

    @pytest.mark.parametrize("seed", [3, 17, 1009])
    def test_seeded_interleaving_never_resurrects(self, seed):
        """Writers keep publishing v1 entries while an invalidator bumps
        the table to v2 at a seeded random point; afterwards no v1 entry
        may live in the cache, no matter who won the lock each time."""
        import random

        rng = random.Random(seed)
        cache = PlanCache(1 << 20)
        nwriters, per_writer = 4, 50
        bump_after = rng.randrange(nwriters * per_writer)
        published = threading.Semaphore(0)
        start = threading.Barrier(nwriters + 1)

        def writer(base: int) -> None:
            start.wait(10.0)
            for i in range(per_writer):
                cache.put(_versioned(f"w{base}-{i}", "orders", 1))
                published.release()

        def invalidator() -> None:
            start.wait(10.0)
            for _ in range(bump_after):
                published.acquire()
            cache.invalidate_table("orders", min_version=2)

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(nwriters)
        ] + [threading.Thread(target=invalidator)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        for entry in cache.entries():
            assert ("orders", 1) not in entry.table_versions, (
                f"stale v1 entry {entry.fingerprint} survived "
                f"the fence (seed={seed})"
            )
        # Everything either landed before the bump or was fenced.
        stats = cache.stats
        assert stats.populations + stats.stale_rejected == nwriters * per_writer

    def test_session_reload_fences_inflight_population(self, tpcds_store):
        """End to end: reload_table bumps the catalog version and the
        cache refuses a population planned against the old version."""
        config = OptimizerConfig(enable_plan_cache=True)
        with Session(tpcds_store, config) as session:
            sql = (
                "SELECT ss_store_sk, count(*) FROM store_sales "
                "GROUP BY ss_store_sk"
            )
            cold = session.execute(sql)
            session.reload_table("store_sales")
            # The old entry is gone and the fence is raised; the next
            # run re-populates against the new version and reuses fine.
            recold = session.execute(sql)
            warm = session.execute(sql)
            assert recold.rows == cold.rows == warm.rows
            assert warm.metrics.cache_hits > 0


def test_warm_replay_through_sharded_cache(tpcds_store):
    """Cross-query reuse through the session-built cache: the warm run
    replays instead of rescanning."""
    sql = (
        "SELECT ss_store_sk, sum(ss_net_profit) FROM store_sales "
        "GROUP BY ss_store_sk"
    )
    config = OptimizerConfig(enable_plan_cache=True)
    with Session(tpcds_store, config) as session:
        cold = session.execute(sql)
        warm = session.execute(sql)
    assert warm.rows == cold.rows
    assert warm.metrics.cache_hits > 0
    assert warm.metrics.bytes_scanned < cold.metrics.bytes_scanned


def test_parallel_session_shares_entries_with_serial(tpcds_store):
    """Fingerprints are transparent through Exchange/Repartition, so a
    parallel session's populate is replayable by its own warm run at
    the same fingerprint a serial plan would produce."""
    sql = (
        "SELECT ss_store_sk, count(*) FROM store_sales GROUP BY ss_store_sk"
    )
    config = OptimizerConfig(
        enable_plan_cache=True, workers=2, engine="batch"
    )
    with Session(tpcds_store, config) as parallel_session:
        cold = parallel_session.execute(sql)
        warm = parallel_session.execute(sql)
    with Session(
        tpcds_store, OptimizerConfig(enable_plan_cache=True, engine="batch")
    ) as serial_session:
        serial_cold = serial_session.execute(sql)
    assert cold.rows == serial_cold.rows
    assert warm.rows == cold.rows
    assert warm.metrics.cache_hits > 0
    assert cold.metrics.bytes_scanned == serial_cold.metrics.bytes_scanned
