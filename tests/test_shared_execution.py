"""Concurrent shared execution: pay one, get hundreds for free.

Covers the in-flight registry (leader election, follower fan-out,
failure fallback) and the end-to-end behaviour of fingerprint-equal
queries arriving concurrently on one session: one execution, identical
rows everywhere, and bytes charged once.
"""

from __future__ import annotations

import threading
import time

from repro.algebra.types import DataType
from repro.engine.plan_cache import CacheEntry, InflightRegistry, PlanCache
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import Store
from repro.tpcds.generator import generate_dataset
from tests.conftest import simple_table


def _entry(fingerprint: str) -> CacheEntry:
    return CacheEntry(
        fingerprint=fingerprint,
        columns={"tok": [1, 2, 3]},
        row_count=3,
        nbytes=100.0,
        tables=frozenset(),
        table_versions=(),
        saved_bytes=0.0,
    )


class TestInflightRegistry:
    def test_first_claim_leads_rest_follow(self):
        registry = InflightRegistry()
        is_leader, execution = registry.claim("fp")
        assert is_leader
        for _ in range(3):
            again, same = registry.claim("fp")
            assert not again and same is execution
        assert registry.leaders == 1 and registry.followers == 3

    def test_publish_fans_out_and_clears(self):
        registry = InflightRegistry()
        _, execution = registry.claim("fp")
        registry.claim("fp")
        entry = _entry("fp")
        assert registry.publish(execution, entry) == 1
        assert execution.ready.is_set()
        assert execution.entry is entry
        # The fingerprint is free again: the next claim leads.
        is_leader, fresh = registry.claim("fp")
        assert is_leader and fresh is not execution

    def test_entry_lands_before_ready_fires(self):
        # A follower woken by ``ready`` must always see the entry — the
        # publish ordering (entry, then pop, then set) guarantees it.
        registry = InflightRegistry()
        _, execution = registry.claim("fp")
        seen = {}
        woke = threading.Event()

        def follower():
            execution.ready.wait(5.0)
            seen["entry"] = execution.entry
            woke.set()

        thread = threading.Thread(target=follower)
        thread.start()
        registry.publish(execution, _entry("fp"))
        assert woke.wait(5.0)
        thread.join()
        assert seen["entry"] is not None

    def test_fail_releases_followers_to_run_locally(self):
        registry = InflightRegistry()
        _, execution = registry.claim("fp")
        registry.claim("fp")
        registry.fail(execution)
        assert execution.ready.is_set()
        assert execution.failed and execution.entry is None
        # The failed execution no longer blocks new leaders.
        is_leader, _ = registry.claim("fp")
        assert is_leader


def _versioned_entry(fingerprint: str, table: str, version: int) -> CacheEntry:
    return CacheEntry(
        fingerprint=fingerprint,
        columns={"tok": [1, 2, 3]},
        row_count=3,
        nbytes=10.0,
        tables=frozenset({table}),
        table_versions=((table, version),),
        saved_bytes=0.0,
    )


class TestIsStale:
    def test_tracks_the_invalidation_fence(self):
        cache = PlanCache(1 << 20)
        entry = _versioned_entry("fp", "orders", 1)
        assert not cache.is_stale(entry)
        cache.invalidate_table("orders", min_version=2)
        assert cache.is_stale(entry)
        assert not cache.is_stale(_versioned_entry("fp", "orders", 2))

    def test_unrelated_tables_never_go_stale(self):
        cache = PlanCache(1 << 20)
        cache.invalidate_table("orders", min_version=9)
        assert not cache.is_stale(_versioned_entry("fp", "people", 1))


class _ScanGate:
    """One-shot fault-injector stand-in: the first chunk read against
    ``table`` parks its thread until released, so a test can interleave
    a reload and a second query with a scan deterministically."""

    def __init__(self, table: str):
        self._table = table.lower()
        self._lock = threading.Lock()
        self._armed = True
        self.entered = threading.Event()
        self.release = threading.Event()

    def on_chunk_read(self, site, chunk, attempt, metrics=None) -> None:
        if site[0] != self._table:
            return
        with self._lock:
            if not self._armed:
                return
            self._armed = False
        self.entered.set()
        assert self.release.wait(30.0), "scan gate never released"


class TestStaleFanoutFence:
    """Fingerprints are version-free, so the in-flight registry must
    not fan out an entry whose table versions a concurrent
    ``reload_table`` retired: the leader fails the execution instead of
    publishing, and a follower planned against the new version refuses
    a version-mismatched entry.  Without both fences a follower would
    serve rows from the replaced table."""

    SQL = "SELECT k, SUM(v) AS total FROM t GROUP BY k"

    @staticmethod
    def _table(rows):
        return simple_table(
            "t",
            [("k", DataType.INTEGER), ("v", DataType.INTEGER)],
            rows,
        )

    def test_reload_mid_flight_never_fans_out_stale_rows(self):
        store = Store()
        store.put(self._table([(1, 10), (2, 20)]))
        session = Session(
            store, OptimizerConfig(engine="batch", enable_plan_cache=True)
        )
        gate = _ScanGate("t")
        store.fault_injector = gate
        errors: list[BaseException] = []
        follower_result: dict[str, object] = {}

        def leader() -> None:
            try:
                session.execute(self.SQL)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def follower() -> None:
            try:
                result = session.execute(self.SQL)
                follower_result["rows"] = result.rows
                follower_result["shared_hits"] = result.metrics.shared_hits
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        # The leader has claimed the fingerprint and is parked mid-scan.
        assert gate.entered.wait(10.0)
        # Replace the table under it: the catalog version bumps and the
        # cache fence rises, so the leader's entry is now stale.
        store.put(self._table([(1, 11), (2, 22)]))
        session.reload_table("t")
        follower_thread = threading.Thread(target=follower)
        follower_thread.start()
        # Wait until the follower is bound to the leader's execution,
        # then let the leader finish and try to publish.
        deadline = time.monotonic() + 10.0
        while session.plan_cache.inflight.followers < 1:
            assert time.monotonic() < deadline, "follower never bound"
            time.sleep(0.005)
        gate.release.set()
        leader_thread.join(30.0)
        follower_thread.join(30.0)
        assert not errors
        # The follower executed against the replaced table itself — it
        # must not have replayed the leader's stale entry.
        assert follower_result["shared_hits"] == 0
        expected = Session(store, OptimizerConfig(engine="batch")).execute(self.SQL).rows
        assert sorted(follower_result["rows"]) == sorted(expected)
        assert sorted(expected) == [(1, 11), (2, 22)]
        assert session.plan_cache.stats.stale_rejected >= 1
        # Nothing built against v1 survives anywhere in the cache.
        for entry in session.plan_cache.entries():
            assert ("t", 1) not in entry.table_versions


class TestConcurrentSharedExecution:
    #: The studied pattern: many dashboards firing the same aggregate.
    SQL = (
        "SELECT ss_store_sk, SUM(ss_ext_sales_price) AS total "
        "FROM store_sales GROUP BY ss_store_sk"
    )

    def _store(self):
        return generate_dataset(scale=0.01, seed=7)

    def test_identical_rows_across_concurrent_threads(self):
        store = self._store()
        serial = Session(store, OptimizerConfig(engine="batch"))
        expected = serial.execute(self.SQL).rows
        session = Session(
            store,
            OptimizerConfig(engine="batch", enable_plan_cache=True),
        )
        nthreads = 8
        barrier = threading.Barrier(nthreads)
        rows_by_thread: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                barrier.wait(10.0)
                rows_by_thread[index] = session.execute(self.SQL).rows
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(nthreads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert len(rows_by_thread) == nthreads
        for rows in rows_by_thread.values():
            assert rows == expected
        cache = session.plan_cache
        # Exactly as many real executions as leader elections: every
        # other concurrent arrival was a follower or a cache replay.
        assert cache.stats.populations + cache.stats.rejected >= 1
        assert cache.inflight.leaders >= 1

    def test_follower_replay_counts_bytes_saved(self):
        store = self._store()
        session = Session(
            store, OptimizerConfig(engine="batch", enable_plan_cache=True)
        )
        first = session.execute(self.SQL)
        second = session.execute(self.SQL)
        assert second.rows == first.rows
        # Warm path replays without rescanning the fact table.
        assert (
            second.metrics.cache_hits >= 1 or second.metrics.shared_hits >= 1
        )
        assert (
            second.metrics.accounting.bytes_scanned
            < first.metrics.accounting.bytes_scanned
        )
