"""QueryService end-to-end: real SQL through the whole server stack.

Admission → queue → dispatch → session, with
results checked against a plain serial session.  The error-boundary
tests reach every server-owned error class through the public
``submit``/``execute`` API (no internals poked).
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.server.service as service_module
from repro.algebra.operators import GroupBy
from repro.engine.batch_executor import BLOCK_OPERATORS
from repro.engine.session import Session
from repro.errors import (
    AdmissionRejectedError,
    BindingError,
    DataCorruptionError,
    ExecutionError,
    QueryQueueTimeoutError,
    ReproError,
)
from repro.optimizer.config import OptimizerConfig
from repro.server.service import QueryService, ServiceConfig
from repro.storage.faults import FaultInjector, bit_flip
from repro.tpcds.generator import generate_dataset

QUERIES = [
    "SELECT COUNT(*) AS n FROM store_sales",
    "SELECT ss_store_sk, SUM(ss_ext_sales_price) AS total "
    "FROM store_sales GROUP BY ss_store_sk",
    "SELECT d_year, COUNT(*) AS n FROM date_dim GROUP BY d_year",
]


@pytest.fixture(scope="module")
def service_store():
    return generate_dataset(scale=0.01, seed=7)


@pytest.fixture(scope="module")
def expected_rows(service_store):
    with Session(service_store, OptimizerConfig(engine="batch")) as session:
        return {sql: session.execute(sql).rows for sql in QUERIES}


def _config(**kw) -> ServiceConfig:
    defaults = dict(
        base=OptimizerConfig(engine="batch", enable_plan_cache=True),
        dispatchers=2,
    )
    defaults.update(kw)
    return ServiceConfig(**defaults)


@pytest.fixture()
def session_runs(monkeypatch):
    """Counts ``Session.execute`` calls: one per attempt at a query."""
    calls: list[str] = []
    execute = Session.execute

    def counted(self, sql, **kw):
        calls.append(sql)
        return execute(self, sql, **kw)

    monkeypatch.setattr(Session, "execute", counted)
    return calls


class TestEndToEnd:
    def test_execute_matches_serial_session(self, service_store, expected_rows):
        with QueryService(service_store, _config()) as service:
            for sql in QUERIES:
                assert service.execute(sql).rows == expected_rows[sql]
            snap = service.metrics()
            assert snap["completed"] == len(QUERIES)
            assert snap["failed"] == 0

    def test_concurrent_submitters_all_correct(
        self, service_store, expected_rows
    ):
        with QueryService(service_store, _config()) as service:
            nthreads = 6
            barrier = threading.Barrier(nthreads)
            failures: list[str] = []
            lock = threading.Lock()

            def client(index: int) -> None:
                try:
                    barrier.wait(10.0)
                    for i in range(5):
                        sql = QUERIES[(index + i) % len(QUERIES)]
                        ticket = service.submit(sql)
                        if ticket.result(60.0).rows != expected_rows[sql]:
                            with lock:
                                failures.append(f"{index}/{i}: wrong rows")
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    with lock:
                        failures.append(f"{index}: {exc!r}")

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(nthreads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
            assert failures == []
            snap = service.metrics()
            assert snap["completed"] == nthreads * 5
            assert snap["latency_ms"]["p99"] > 0.0

    def test_user_error_reaches_the_ticket(self, service_store):
        with QueryService(service_store, _config()) as service:
            with pytest.raises(BindingError):
                service.execute("SELECT no_such_column FROM store_sales")
            # A user error neither wedges the dispatcher nor the queue.
            assert service.execute(QUERIES[0]).rows

    def test_errors_reach_the_ticket_on_first_attempt(
        self, service_store, expected_rows, session_runs, monkeypatch
    ):
        """An engine failure and a user's scalar subquery that returns
        two rows both fail as they are: a re-run could only repeat them."""

        def broken(plan, ctx, block_rows):
            raise ExecutionError("vector path failure")

        two_rows = "SELECT (SELECT d_year FROM date_dim) AS y"
        with QueryService(service_store, _config()) as service:
            with monkeypatch.context() as patch:
                patch.setitem(BLOCK_OPERATORS, GroupBy, broken)
                with pytest.raises(ExecutionError, match="vector path failure"):
                    service.execute(QUERIES[1])
            assert len(session_runs) == 1
            with pytest.raises(ExecutionError, match="more than one row"):
                service.execute(two_rows)
            assert len(session_runs) == 2
            result = service.execute(QUERIES[1])
            assert result.rows == expected_rows[QUERIES[1]]
            assert result.metrics.degradations == []
            assert service.metrics()["failed"] == 2

    def test_corrupt_cache_entries_rerun_once_without_cache(
        self, service_store, expected_rows
    ):
        with QueryService(service_store, _config()) as service:
            for sql in QUERIES:
                service.execute(sql)
            entries = [e for e in service.plan_cache.entries() if e.row_count > 0]
            assert entries
            for victim in entries:
                for vector in victim.columns.values():
                    vector[0] = bit_flip(vector[0])
            for sql in QUERIES:
                result = service.execute(sql)
                assert result.rows == expected_rows[sql]
                assert len(result.metrics.degradations) == 1
            assert service.metrics()["degradations"] == len(QUERIES)

    def test_corrupt_chunk_surfaces_after_one_rerun(self, session_runs):
        """The injector flips the stored chunk itself, so the cache-less
        re-run reads the same corrupt bytes and the error surfaces."""
        store = generate_dataset(scale=0.01, seed=7)
        store.fault_injector = FaultInjector(seed=7)
        store.fault_injector.corrupt_chunk("date_dim", 0, "d_year")
        with QueryService(store, _config()) as service:
            with pytest.raises(DataCorruptionError, match="date_dim.d_year"):
                service.execute(QUERIES[2])
            assert session_runs == [QUERIES[2]] * 2
            assert service.metrics()["failed"] == 1

    def test_metrics_snapshot_shape(self, service_store):
        with QueryService(service_store, _config()) as service:
            service.execute(QUERIES[0])
            snap = service.metrics()
            assert {"submitted", "completed", "failed", "latency_ms"} <= set(
                snap
            )
            assert {"p50", "p99", "max"} <= set(snap["latency_ms"])
            assert "admission" in snap

    def test_default_quota_never_sheds_back_to_back_queries(
        self, service_store, expected_rows
    ):
        # No explicit quota means no rate limit: a closed-loop client
        # of a cached query runs faster than the old default bucket
        # (200 queries/s after a burst of 64) refilled.
        with QueryService(service_store, _config()) as service:
            for _ in range(1000):
                result = service.execute(QUERIES[0], tenant="solo")
                assert result.rows == expected_rows[QUERIES[0]]
                # The service's sessions keep no plan memo.
                assert not result.metrics.plan_memo_hit
            snap = service.metrics()
        assert snap["admission"]["rejected"] == 0
        assert snap["completed"] == 1000

    def test_single_dispatcher_runs_tickets_in_submission_order(
        self, service_store, session_runs
    ):
        queries = [
            f"SELECT COUNT(*) AS n FROM store_sales WHERE ss_quantity > {i}"
            for i in range(12)
        ]
        with QueryService(service_store, _config(dispatchers=1)) as service:
            tickets = [service.submit(sql, tenant=f"t{i % 3}")
                       for i, sql in enumerate(queries)]
            for ticket in tickets:
                ticket.result(60.0)
        assert session_runs == queries

    def test_service_starts_only_its_dispatchers(self, service_store):
        before = set(threading.enumerate())
        with QueryService(service_store, _config(dispatchers=3)) as service:
            service.execute(QUERIES[0])
            started = sorted(
                t.name for t in threading.enumerate() if t not in before
            )
            assert "pool" not in service.metrics()
        assert started == [f"repro-dispatch-{i}" for i in range(3)]

    def test_latency_reservoir_is_bounded(self):
        # A long-running service must not accumulate one float per
        # completed query forever; percentiles come from a bounded
        # window while max stays all-time.
        from repro.server.service import _LATENCY_RESERVOIR, _ServiceMetrics

        class _M:
            degradations = ()
            shared_hits = 0
            shared_fanout = 0
            cache_hits = 0
            accounting = type("A", (), {"bytes_scanned": 0.0})()

        metrics = _ServiceMetrics()
        metrics.record_success(9_999_999.0, _M())  # will age out below
        for i in range(_LATENCY_RESERVOIR + 500):
            metrics.record_success(float(i + 1), _M())
        assert len(metrics.latencies_ms) == _LATENCY_RESERVOIR
        snap = metrics.snapshot()
        assert snap["completed"] == _LATENCY_RESERVOIR + 501
        # The all-time max survives its sample aging out of the window.
        assert snap["latency_ms"]["max"] == 9_999_999.0
        assert snap["latency_ms"]["p50"] >= 500.0


class TestServerBoundaries:
    def test_queue_depth_zero_rejects_every_submit(self, service_store):
        config = _config(max_queue_depth=0)
        with QueryService(service_store, config) as service:
            with pytest.raises(AdmissionRejectedError) as excinfo:
                service.submit(QUERIES[0])
            assert excinfo.value.retry_after_ms > 0
            assert service.metrics()["admission"]["rejected"] >= 1

    def test_queue_timeout_zero_drops_every_ticket(self, service_store, monkeypatch):
        monkeypatch.setattr(service_module, "QUEUE_TIMEOUT_MS", 0.0)
        with QueryService(service_store, _config()) as service:
            ticket = service.submit(QUERIES[0])
            with pytest.raises(QueryQueueTimeoutError):
                ticket.result(30.0)
            assert service.metrics()["queue_timeouts"] >= 1

    def test_parallel_base_config_is_refused(self, service_store):
        config = _config(base=OptimizerConfig(workers=2))
        with pytest.raises(ValueError, match="only through Session"):
            QueryService(service_store, config)

    def test_close_fails_queued_tickets(self, service_store, monkeypatch):
        monkeypatch.setattr(service_module, "QUEUE_TIMEOUT_MS", 60_000.0)
        config = _config(dispatchers=1)
        service = QueryService(service_store, config)
        tickets = [service.submit(sql) for sql in QUERIES * 3]
        service.close()
        outcomes = []
        for ticket in tickets:
            try:
                ticket.result(10.0)
                outcomes.append("ok")
            except ReproError:
                outcomes.append("failed")
        # Every ticket resolved one way or the other: nothing hangs.
        assert len(outcomes) == len(tickets)

    def test_close_is_idempotent(self, service_store):
        service = QueryService(service_store, _config())
        service.close()
        service.close()

    def test_submit_racing_close_never_strands_a_ticket(self, service_store):
        # submit and close are fenced by one lock: a ticket that makes
        # it past submit is either dispatched or failed by the drain —
        # its caller must never block forever in result().
        service = QueryService(service_store, _config(dispatchers=2))
        tickets: list = []
        lock = threading.Lock()
        start = threading.Barrier(5)

        def submitter() -> None:
            start.wait(10.0)
            while True:
                try:
                    ticket = service.submit(QUERIES[0])
                except (ReproError, AdmissionRejectedError) as exc:
                    if isinstance(exc, AdmissionRejectedError):
                        continue  # queue full: shed, try again
                    return  # service closed: done racing
                with lock:
                    tickets.append(ticket)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        start.wait(10.0)
        # Close while the submitters are mid-flight, not before their
        # first submit ever lands.
        deadline = time.monotonic() + 10.0
        while True:
            with lock:
                if len(tickets) >= 10:
                    break
            assert time.monotonic() < deadline, "submitters never got going"
            time.sleep(0.001)
        service.close()
        for thread in threads:
            thread.join(30.0)
        assert tickets
        for ticket in tickets:
            try:
                ticket.result(30.0)  # must resolve, never time out
            except ReproError:
                pass
