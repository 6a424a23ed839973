"""Parallel fragment execution (DESIGN.md §13).

Determinism: every engine, in both column representations, must
produce the same bytes at workers 2 and 4 as serially — rows, order,
and scan accounting, float aggregates included (workers only read and
filter; every aggregation, join, window and sort runs on the
coordinator over the gathered rows, in serial order).

Fault domains: a failed fragment retries on another worker; a poisoned
worker must not fail the query, and exhausted retries surface as
FragmentError.  Cancellation and deadlines propagate into in-flight
workers through the pool's shared cancel event.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.algebra.operators import Exchange, pipeline_scan
from repro.algebra.fingerprint import plan_fingerprint
from repro.algebra.visitors import walk_plan
import repro.engine.parallel as parallel_module
from repro.engine.parallel import FragmentError, WorkerPool
from repro.engine.session import Session
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.optimizer.config import OptimizerConfig
from repro.storage.faults import FaultInjector
from repro.tpcds.queries import WORKLOAD_QUERIES

#: One query per plan shape over the parallel planner's gathers.
QUERIES = {
    "keyed_group_by": (
        "SELECT ss_store_sk, sum(ss_net_profit), count(*) FROM store_sales "
        "WHERE ss_quantity > 5 GROUP BY ss_store_sk"
    ),
    "scalar_group_by": (
        "SELECT count(*), avg(ss_net_profit) FROM store_sales "
        "WHERE ss_quantity > 10"
    ),
    "leaf_gather": (
        "SELECT ss_item_sk, ss_quantity FROM store_sales "
        "WHERE ss_quantity > 80 ORDER BY ss_item_sk, ss_quantity"
    ),
    "equi_join": (
        "SELECT ss_item_sk, ss_quantity, cs_quantity "
        "FROM store_sales, catalog_sales "
        "WHERE ss_item_sk = cs_item_sk AND ss_quantity > 90"
    ),
}


def _metrics_key(result):
    m = result.metrics
    return (
        m.bytes_scanned,
        m.rows_scanned,
        m.partitions_read,
        dict(m.accounting.scans_by_table),
        dict(m.accounting.bytes_by_table),
    )


def _run_all(store, **config):
    with Session(store, OptimizerConfig(**config)) as session:
        return {name: session.execute(sql) for name, sql in QUERIES.items()}


@pytest.mark.parametrize("engine", ["row", "batch"])
def test_rows_and_metrics_identical_across_worker_counts(tpcds_store, engine):
    serial = _run_all(tpcds_store, engine=engine)
    for workers in (2, 4):
        parallel = _run_all(tpcds_store, engine=engine, workers=workers)
        for name in QUERIES:
            assert parallel[name].rows == serial[name].rows, (name, workers)
            assert _metrics_key(parallel[name]) == _metrics_key(serial[name]), (
                name,
                workers,
            )


def test_compiled_python_vectors_identical_across_worker_counts(tpcds_store):
    """List columns (``engine="batch"`` above runs NumPy ones) are
    byte-identical at workers=1 and workers=4 too."""
    serial = _run_all(tpcds_store, engine="compiled", vectors="python")
    four = _run_all(tpcds_store, engine="compiled", vectors="python", workers=4)
    for name in QUERIES:
        assert four[name].rows == serial[name].rows, name
        assert _metrics_key(four[name]) == _metrics_key(serial[name]), name


def test_parallel_plans_carry_exchange_but_same_fingerprint(tpcds_store):
    sql = QUERIES["keyed_group_by"]
    with Session(tpcds_store, OptimizerConfig()) as serial_session:
        serial_plan, _ = serial_session.plan(sql)
    with Session(tpcds_store, OptimizerConfig(workers=4)) as parallel_session:
        parallel_plan, _ = parallel_session.plan(sql)
    assert not any(isinstance(n, Exchange) for n in walk_plan(serial_plan))
    exchanges = [n for n in walk_plan(parallel_plan) if isinstance(n, Exchange)]
    assert exchanges
    # Every Exchange gathers a Filter/Project chain over one Scan.
    assert all(pipeline_scan(n.child) is not None for n in exchanges)
    # Exchange is transparent to the semantic fingerprint, so serial
    # and parallel plans share cross-query cache entries.
    assert (
        plan_fingerprint(parallel_plan).digest
        == plan_fingerprint(serial_plan).digest
    )


def test_workload_metrics_identical_across_worker_counts(tpcds_store):
    """Parallel runs report serial metrics on every named query: scan
    accounting, and operator state too, since all state lives on the
    coordinator."""

    def metrics(**config):
        with Session(tpcds_store, OptimizerConfig(**config)) as session:
            out = {}
            for name, sql in WORKLOAD_QUERIES.items():
                m = session.execute(sql).metrics
                out[name] = (
                    m.bytes_scanned,
                    m.rows_scanned,
                    m.partitions_read,
                    m.peak_state_rows,
                    m.total_state_rows,
                )
            return out

    serial = metrics()
    assert len(serial) == 32
    for workers in (2, 4):
        assert metrics(workers=workers) == serial, workers


# -- per-fragment fault domains ---------------------------------------------


def test_poisoned_worker_does_not_fail_the_query(tpcds_store):
    """Every task the poisoned worker touches fails; the retry must
    land on the healthy worker and the result must be exact."""
    with Session(tpcds_store, OptimizerConfig(engine="batch")) as session:
        expected = {n: session.execute(q) for n, q in QUERIES.items()}
    pool = WorkerPool(tpcds_store, 2, poison_worker=0)
    try:
        config = OptimizerConfig(engine="batch", workers=2)
        with Session(tpcds_store, config, worker_pool=pool) as session:
            for name, sql in QUERIES.items():
                result = session.execute(sql)
                assert result.rows == expected[name].rows, name
                assert _metrics_key(result) == _metrics_key(expected[name]), name
    finally:
        pool.close()


def test_exhausted_fragment_retries_surface_as_fragment_error(tpcds_store, monkeypatch):
    """With every worker poisoned there is nowhere left to retry."""
    monkeypatch.setattr(parallel_module, "FRAGMENT_RETRIES", 1)
    pool = WorkerPool(tpcds_store, 1, poison_worker=0)
    try:
        config = OptimizerConfig(engine="batch", workers=2)
        with Session(tpcds_store, config, worker_pool=pool) as session:
            with pytest.raises(FragmentError, match="attempt"):
                session.execute(QUERIES["leaf_gather"])
    finally:
        pool.close()


def test_chaos_schedule_identical_to_serial(tpcds_store):
    """Fault injection is a pure function of (seed, site, attempt), so
    a parallel run injects exactly the faults the serial run does —
    regardless of which worker scans which morsel."""
    chaos = dict(engine="batch", fault_seed=11, max_retries=4)
    store = tpcds_store
    store.fault_injector = FaultInjector(fault_rate=0.2, seed=11)
    try:
        serial = _run_all(store, **chaos)
        parallel = _run_all(store, **chaos, workers=2)
        assert sum(r.metrics.faults_injected for r in serial.values()) > 0
        for name in QUERIES:
            assert parallel[name].rows == serial[name].rows, name
            assert _metrics_key(parallel[name]) == _metrics_key(serial[name])
            assert (
                parallel[name].metrics.faults_injected
                == serial[name].metrics.faults_injected
            ), name
    finally:
        store.fault_injector = None  # session-scoped store: leave it clean


def test_workers_follow_the_stores_checksum_switch(tpcds_store):
    """Checksum verification is the store's switch alone: fragment
    workers read it from the store they serve, as serial scans do."""
    store = tpcds_store
    store.verify_checksums = False
    try:
        for workers in (1, 2):
            config = OptimizerConfig(engine="batch", workers=workers)
            with Session(store, config) as session:
                result = session.execute(QUERIES["leaf_gather"])
            assert (workers > 1) == any(
                isinstance(n, Exchange) for n in walk_plan(result.optimized_plan)
            )
            assert result.metrics.checksum_verifications == 0, workers
    finally:
        store.verify_checksums = True


# -- cancellation and deadlines ---------------------------------------------


def test_pending_cancel_aborts_parallel_query(tpcds_store):
    with Session(tpcds_store, OptimizerConfig(engine="batch", workers=2)) as s:
        s.cancel()
        with pytest.raises(QueryCancelledError):
            s.execute(QUERIES["keyed_group_by"])
        # The pool survives the abort: the next query runs normally.
        assert s.execute("SELECT count(*) FROM store_sales").rows


def test_zero_deadline_aborts_parallel_query(tpcds_store):
    config = OptimizerConfig(engine="batch", workers=2, timeout_ms=0)
    with Session(tpcds_store, config) as s:
        with pytest.raises(QueryTimeoutError):
            s.execute(QUERIES["leaf_gather"])


def test_cancel_propagates_to_inflight_workers(tpcds_store):
    """Workers sleeping in simulated object-store reads must observe
    the shared cancel event instead of running the query to the end."""
    config = OptimizerConfig(engine="batch", workers=2)
    store = tpcds_store
    with Session(store, config) as session:
        try:
            store.io_latency_ms = 250.0
            timer = threading.Timer(0.3, session.cancel)
            timer.start()
            started = time.monotonic()
            with pytest.raises(QueryCancelledError):
                session.execute(QUERIES["leaf_gather"])
            elapsed = time.monotonic() - started
            timer.cancel()
            # 8 store_sales partitions x 250ms is >= 2s of sleeping; an
            # abort that waited for all in-flight fragments to finish
            # naturally would blow well past this bound.
            assert elapsed < 2.0, f"abort took {elapsed:.1f}s"
            # The pool is reusable after the abort (fresh epoch).
            store.io_latency_ms = 0.0
            result = session.execute("SELECT count(*) FROM store_sales")
            assert result.rows
        finally:
            store.io_latency_ms = 0.0
