"""Self-healing worker pool: crash, freeze, and wipeout recovery.

The chaos contract (ISSUE 9, satellite d): SIGKILL a live worker while
it is mid-fragment and the query still completes with byte-identical
rows — the scheduler resubmits the orphaned attempts onto the rebuilt
pool.  SIGSTOP exercises the heartbeat detector: a frozen process stays
"alive" to ``Process.is_alive`` but stops beating, so ``health_check``
must kill and replace it.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.engine.parallel import WorkerPool
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.tpcds.generator import generate_dataset

SQL = (
    "SELECT ss_store_sk, SUM(ss_ext_sales_price) AS total, COUNT(*) AS n "
    "FROM store_sales WHERE ss_quantity > 5 GROUP BY ss_store_sk"
)


@pytest.fixture(scope="module")
def chaos_store():
    return generate_dataset(scale=0.02, seed=11)


@pytest.fixture(scope="module")
def expected(chaos_store):
    with Session(chaos_store, OptimizerConfig(engine="batch")) as session:
        return session.execute(SQL).rows


def _pool(store, workers: int = 2, **kw) -> WorkerPool:
    return WorkerPool(store, workers, **kw)


def test_sigkill_mid_fragment_completes_byte_identical(chaos_store, expected):
    """The headline chaos test: a worker dies violently mid-query and
    the caller never notices (beyond latency)."""
    # Slow the scans: every fragment the pool runs carries the store's
    # read latency.
    chaos_store.io_latency_ms = 200.0
    pool = _pool(chaos_store, workers=2)
    config = OptimizerConfig(engine="batch", workers=2)
    try:
        with Session(chaos_store, config, worker_pool=pool) as session:
            pids = pool.worker_pids()
            assert len(pids) == 2
            victim = sorted(pids.values())[0]

            def assassin():
                time.sleep(0.1)  # let fragments reach the workers
                os.kill(victim, signal.SIGKILL)

            killer = threading.Thread(target=assassin)
            killer.start()
            result = session.execute(SQL)
            killer.join()
            assert result.rows == expected
            # The death was absorbed by a rebuild (queues from a pool
            # that lost a member are untrustworthy: the victim may have
            # died holding a queue lock).
            assert pool.rebuilds >= 1
            # The pool is whole again and immediately reusable.
            assert len(pool.worker_pids()) == 2
            again = session.execute(SQL)
            assert again.rows == expected
    finally:
        chaos_store.io_latency_ms = 0.0
        pool.close()


def test_sigstop_frozen_worker_detected_by_heartbeat(chaos_store):
    """A stopped process is alive but silent; only the heartbeat
    timeout can tell it apart from a healthy idle worker."""
    pool = _pool(chaos_store, workers=2, heartbeat_timeout_s=0.4)
    try:
        victim = sorted(pool.worker_pids().values())[0]
        os.kill(victim, signal.SIGSTOP)
        deadline = time.monotonic() + 10.0
        dead: list[int] = []
        while time.monotonic() < deadline and not dead:
            time.sleep(0.1)
            dead = pool.health_check()
        assert dead, "frozen worker was never detected"
        assert pool.hung_workers_killed >= 1
        assert pool.rebuilds >= 1
        assert len(pool.worker_pids()) == 2
    finally:
        pool.close()


def test_wipeout_rebuilds_and_query_still_runs(chaos_store, expected):
    """Losing every worker at once forces a full rebuild (fresh queues,
    new generation); the next query must run on the new pool."""
    pool = _pool(chaos_store, workers=2)
    config = OptimizerConfig(engine="batch", workers=2)
    try:
        generation = pool.generation
        for pid in pool.worker_pids().values():
            os.kill(pid, signal.SIGKILL)
        # is_alive() may lag a SIGKILL by a few ms; poll until the
        # check observes the deaths.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and pool.generation == generation:
            pool.health_check()
            time.sleep(0.05)
        assert pool.generation > generation
        assert len(pool.worker_pids()) == 2
        with Session(chaos_store, config, worker_pool=pool) as session:
            assert session.execute(SQL).rows == expected
    finally:
        pool.close()


def test_worker_ids_never_reused_across_respawns(chaos_store):
    """Orphan detection keys on worker ids, so a replacement must never
    wear a dead worker's id."""
    pool = _pool(chaos_store, workers=2)
    try:
        before = pool.worker_ids
        victim_pid = sorted(pool.worker_pids().values())[0]
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not pool.health_check():
            time.sleep(0.05)
        after = pool.worker_ids
        assert len(after) == 2
        assert not (after - before) & before  # fresh ids only
        assert after != before
    finally:
        pool.close()


def test_health_check_is_idempotent_on_healthy_pool(chaos_store):
    pool = _pool(chaos_store, workers=2)
    try:
        for _ in range(3):
            assert pool.health_check() == []
        assert pool.rebuilds == 0
        assert pool.respawns == 0
    finally:
        pool.close()
