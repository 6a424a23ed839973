"""Session thread-safety: one Session, many threads (DESIGN.md §14).

The stress test drives 8 threads × 50 queries through a single cached
session and checks every result against single-threaded ground truth —
races in binding, planning, pinning, metrics, or the plan cache show up
as wrong rows, lost pins, or exceptions.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.algebra.fingerprint import plan_fingerprint
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import WORKLOAD_QUERIES

#: A small overlapping "dashboard" workload: repeated fingerprints make
#: the cache and the in-flight registry do real concurrent work.
QUERIES = [
    "SELECT COUNT(*) AS n FROM store_sales",
    "SELECT ss_store_sk, SUM(ss_ext_sales_price) AS total "
    "FROM store_sales GROUP BY ss_store_sk",
    "SELECT ss_store_sk, SUM(ss_ext_sales_price) AS total "
    "FROM store_sales WHERE ss_quantity > 10 GROUP BY ss_store_sk",
    "SELECT d_year, COUNT(*) AS n FROM date_dim GROUP BY d_year",
    "SELECT MAX(ss_list_price) AS mx, MIN(ss_list_price) AS mn FROM store_sales",
    "SELECT AVG(ss_quantity) AS q FROM store_sales WHERE ss_store_sk = 1",
]


@pytest.fixture(scope="module")
def stress_store():
    return generate_dataset(scale=0.01, seed=7)


@pytest.fixture(scope="module")
def expected_rows(stress_store):
    with Session(stress_store, OptimizerConfig(engine="batch")) as session:
        return {sql: session.execute(sql).rows for sql in QUERIES}


def _stress(session, expected, nthreads: int, per_thread: int):
    barrier = threading.Barrier(nthreads)
    failures: list[str] = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        try:
            barrier.wait(10.0)
            for i in range(per_thread):
                sql = QUERIES[(index + i) % len(QUERIES)]
                result = session.execute(sql)
                if result.rows != expected[sql]:
                    with lock:
                        failures.append(f"thread {index} query {i}: wrong rows")
                    return
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            with lock:
                failures.append(f"thread {index}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(nthreads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    return failures


def test_eight_threads_fifty_queries_cached(stress_store, expected_rows):
    session = Session(
        stress_store,
        OptimizerConfig(engine="batch", enable_plan_cache=True),
    )
    failures = _stress(session, expected_rows, nthreads=8, per_thread=50)
    assert failures == []
    # Pins must all have been released: nothing each query pinned at
    # plan time may leak past its execute() (lost pins would wedge
    # eviction for the life of the session).
    assert not session.plan_cache._pinned, "leaked pins after concurrent load"


def test_concurrent_mixed_engines_one_store(stress_store, expected_rows):
    # Sessions with different engines over one shared store: the store
    # config writes are serialized and per-query state is isolated.
    row = Session(stress_store, OptimizerConfig(engine="row"))
    batch = Session(
        stress_store, OptimizerConfig(engine="batch", enable_plan_cache=True)
    )
    failures: list[str] = []
    lock = threading.Lock()

    def drive(session, count: int) -> None:
        try:
            for i in range(count):
                sql = QUERIES[i % len(QUERIES)]
                if session.execute(sql).rows != expected_rows[sql]:
                    with lock:
                        failures.append("wrong rows")
        except BaseException as exc:  # noqa: BLE001
            with lock:
                failures.append(repr(exc))

    threads = [
        threading.Thread(target=drive, args=(row, 12)),
        threading.Thread(target=drive, args=(batch, 12)),
        threading.Thread(target=drive, args=(batch, 12)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert failures == []


def test_four_threads_plan_the_workload_like_a_serial_pass(stress_store):
    """Planning stores canonical forms on expression nodes without a
    lock (DESIGN.md §3b); a lost or torn store would change a plan."""
    names = list(WORKLOAD_QUERIES)
    session = Session(stress_store, OptimizerConfig())

    def digest(name: str) -> str:
        return plan_fingerprint(session.plan(WORKLOAD_QUERIES[name])[0]).digest

    serial = {name: digest(name) for name in names}
    got: list[dict[str, str]] = [{} for _ in range(4)]
    failures: list[str] = []

    def worker(index: int) -> None:
        try:
            for name in names[index * 8:] + names[: index * 8]:
                got[index][name] = digest(name)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(f"thread {index}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert failures == [] and not any(t.is_alive() for t in threads)
    assert got == [serial] * 4


def test_cancel_aborts_all_inflight_queries(stress_store):
    from repro.errors import QueryCancelledError

    session = Session(stress_store, OptimizerConfig(engine="batch"))
    started = threading.Barrier(3)
    outcomes: list[str] = []
    lock = threading.Lock()

    def worker() -> None:
        started.wait(10.0)
        try:
            # Big cross join: runs long enough to observe the cancel.
            session.execute(
                "SELECT COUNT(*) AS n FROM store_sales, store_sales"
            )
            with lock:
                outcomes.append("finished")
        except QueryCancelledError:
            with lock:
                outcomes.append("cancelled")

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    started.wait(10.0)
    time.sleep(0.05)  # let both workers get inside execute()
    session.cancel()
    for thread in threads:
        thread.join(60.0)
    # Both queries observed the cancel (or were fast enough to finish —
    # either way nothing hangs and nothing crashes).
    assert len(outcomes) == 2


def test_per_query_timeout_override(stress_store):
    from repro.errors import QueryTimeoutError

    session = Session(stress_store, OptimizerConfig(engine="batch"))
    with pytest.raises(QueryTimeoutError):
        session.execute(
            "SELECT COUNT(*) AS n FROM store_sales, store_sales",
            timeout_ms=1.0,
        )
    # The session default (no timeout) is untouched by the override.
    result = session.execute("SELECT COUNT(*) AS n FROM date_dim")
    assert result.rows
