"""Fault tolerance: chaos injection, retries, checksums, deadlines,
and resource budgets (repro.storage.faults + the Store/RunContext
wiring).

The contract under test is the one the paper's engine gets from S3 +
retry layers: with a retry budget >= the injector's ``MAX_FAILURES``,
a chaos run is *byte-identical* to a fault-free run — same rows, same
``bytes_scanned`` (no double charging) — while a zero retry budget
deterministically surfaces a structured error.
"""

from __future__ import annotations

import pytest

from repro.algebra.types import DataType
from repro.engine.metrics import ResourceLimits, RunContext
from repro.engine.session import Session
from repro.errors import (
    DataCorruptionError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ResourceExhaustedError,
    StorageError,
    TransientReadError,
)
from repro.optimizer.config import OptimizerConfig
from repro.storage.accounting import ScanAccounting
from repro.storage.columnar import (
    NumpyVector,
    Store,
    StoredTable,
    chunk_checksum,
    delist,
    vector_from_values,
)
from repro.storage.faults import (
    MAX_FAILURES,
    MAX_RETRY_DELAY_MS,
    NO_RETRY,
    FaultInjector,
    RetryPolicy,
    _unit,
    bit_flip,
)
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import WORKLOAD_QUERIES

from tests.conftest import simple_table

# -- injector unit behaviour ------------------------------------------------


def test_unit_is_deterministic_and_uniformish():
    assert _unit(7, "fault", ("t", 0, "c")) == _unit(7, "fault", ("t", 0, "c"))
    assert _unit(7, "fault", ("t", 0, "c")) != _unit(8, "fault", ("t", 0, "c"))
    draws = [_unit(7, "fault", ("t", i, "c")) for i in range(200)]
    assert all(0.0 <= d < 1.0 for d in draws)
    # Crude uniformity: roughly half below the midpoint.
    below = sum(d < 0.5 for d in draws)
    assert 60 <= below <= 140


def test_bit_flip_changes_every_supported_type():
    assert bit_flip(True) is False
    assert bit_flip(42) == 43
    assert bit_flip(3.5) != 3.5
    assert bit_flip("abc") != "abc" and len(bit_flip("abc")) == 3
    assert bit_flip("") == "\x01"
    assert bit_flip(None) == 0


def test_injector_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FaultInjector(fault_rate=1.5)
    with pytest.raises(ValueError):
        FaultInjector(fault_rate=-0.1)


def test_failures_at_is_deterministic_and_bounded():
    a = FaultInjector(fault_rate=1.0, seed=7)
    b = FaultInjector(fault_rate=1.0, seed=7)
    sites = [("store_sales", i, "ss_item_sk") for i in range(50)]
    for site in sites:
        n = a.failures_at(site)
        assert 1 <= n <= MAX_FAILURES
        assert n == b.failures_at(site)
    healthy = FaultInjector(fault_rate=0.0, seed=7)
    assert all(healthy.failures_at(s) == 0 for s in sites)


def test_fault_rate_scales_blast_radius():
    sparse = FaultInjector(fault_rate=0.1, seed=7)
    sites = [("t", i, "c") for i in range(400)]
    faulty = sum(sparse.failures_at(s) > 0 for s in sites)
    assert 10 <= faulty <= 80  # ~40 expected


# -- retry policy -----------------------------------------------------------


def test_retry_policy_delays_are_deterministic_and_capped():
    policy = RetryPolicy(max_retries=8, base_delay_ms=1.0, seed=7)
    site = ("t", 0, "c")
    delays = [policy.delay_ms(a, site) for a in range(9)]
    again = [policy.delay_ms(a, site) for a in range(9)]
    assert delays == again
    # Doubling base capped at MAX_RETRY_DELAY_MS, jitter within +/-25%.
    nominals = [min(1.0 * 2.0**attempt, MAX_RETRY_DELAY_MS) for attempt in range(9)]
    assert nominals[-1] == MAX_RETRY_DELAY_MS < 2.0**8
    for nominal, delay in zip(nominals, delays):
        assert 0.75 * nominal <= delay <= 1.25 * nominal


def test_retry_policy_backoff_uses_injected_sleep():
    slept = []
    policy = RetryPolicy(max_retries=3, base_delay_ms=2.0, jitter=0.0, sleep=slept.append)
    policy.backoff(0, ("t", 0, "c"))
    policy.backoff(1, ("t", 0, "c"))
    assert slept == [0.002, 0.004]
    assert NO_RETRY.max_retries == 0


def test_retry_policy_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=2.0)


# -- chaos runs through the Session ----------------------------------------

_ORDERS_SQL = (
    "SELECT p.lname, sum(o.amount) AS total "
    "FROM people p, orders o WHERE p.id = o.person_id "
    "GROUP BY p.lname"
)


def _fresh_people_session(engine="batch", fault_rate=0.0, **config):
    # A fresh store per session: a chaos run installs an injector on
    # the store, which must never leak into the shared fixtures.
    store = Store()
    store.put(
        simple_table(
            "people",
            [
                ("id", DataType.INTEGER),
                ("lname", DataType.STRING),
            ],
            [(1, "Smith"), (2, "Smith"), (3, "Doe"), (4, "Kahn"), (5, "Reyes")],
            primary_key=("id",),
        )
    )
    store.put(
        simple_table(
            "orders",
            [
                ("order_id", DataType.INTEGER),
                ("person_id", DataType.INTEGER),
                ("amount", DataType.DOUBLE),
                ("day", DataType.INTEGER),
            ],
            [
                (100, 1, 25.0, 1),
                (101, 1, 75.0, 2),
                (102, 2, 10.0, 2),
                (103, 3, 99.0, 3),
                (104, 3, 1.0, 3),
                (105, 5, 20.0, 4),
            ],
            primary_key=("order_id",),
            partition_column="day",
            partition_rows=2,
        )
    )
    if fault_rate:
        store.fault_injector = FaultInjector(fault_rate, seed=config.get("fault_seed", 7))
    return Session(store, OptimizerConfig(engine=engine, **config))


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_chaos_run_matches_clean_run(engine):
    clean = _fresh_people_session(engine).execute(_ORDERS_SQL)
    chaos_session = _fresh_people_session(
        engine, fault_rate=1.0, fault_seed=7, max_retries=3
    )
    # Zero-cost retries for the test: swap in a non-sleeping policy.
    chaos_session._retry_policy = RetryPolicy(max_retries=3, seed=7, sleep=lambda s: None)
    chaos = chaos_session.execute(_ORDERS_SQL)
    assert chaos.sorted_rows() == clean.sorted_rows()
    # No double charging: retried reads are charged exactly once.
    assert chaos.metrics.bytes_scanned == clean.metrics.bytes_scanned
    assert chaos.metrics.rows_scanned == clean.metrics.rows_scanned
    assert chaos.metrics.retries > 0
    assert chaos.metrics.faults_injected > 0
    assert chaos_session.store.fault_injector.stats.transient_faults > 0


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_retries_disabled_surfaces_structured_error(engine):
    session = _fresh_people_session(engine, fault_rate=1.0, max_retries=0)
    with pytest.raises(TransientReadError, match="--retries"):
        session.execute(_ORDERS_SQL)
    # The error is part of the documented taxonomy.
    assert issubclass(TransientReadError, StorageError)
    assert issubclass(TransientReadError, ReproError)


def test_session_does_not_overwrite_existing_injector():
    session = _fresh_people_session()
    injector = FaultInjector(fault_rate=0.5, seed=3)
    session.store.fault_injector = injector
    Session(session.store, OptimizerConfig(fault_seed=9, max_retries=0))
    assert session.store.fault_injector is injector


def test_chaos_session_does_not_leak_onto_a_shared_store():
    """Faults belong to the store, not to a session's config: building
    a session with chaos settings must leave no injector behind on a
    store that later sessions share."""
    store = generate_dataset(scale=0.01, seed=7)
    try:
        Session(store, OptimizerConfig(**{"fault_rate": 1.0, "fault_seed": 3}))
    except TypeError:
        pass  # no config field turns faults on
    vanilla = Session(store, OptimizerConfig(max_retries=0))
    result = vanilla.execute("SELECT sum(ss_quantity) FROM store_sales")
    assert result.metrics.faults_injected == 0
    assert store.fault_injector is None


# -- checksums --------------------------------------------------------------


def test_checksum_computed_at_build_and_verified_on_read():
    table = simple_table("t", [("c", DataType.INTEGER)], [(1,), (2,)])
    chunk = table.partitions[0].chunk("c")
    assert chunk.checksum == chunk_checksum(vector_from_values([1, 2], DataType.INTEGER))
    session = _fresh_people_session()
    result = session.execute("SELECT sum(amount) FROM orders")
    assert result.metrics.checksum_verifications > 0


@pytest.mark.parametrize(
    "engine, vectors",
    [("row", "numpy"), ("batch", "numpy"), ("batch", "python")],
    ids=["row", "batch", "batch-lists"],
)
@pytest.mark.parametrize(
    "table, column, kind",
    [("orders", "amount", NumpyVector), ("people", "lname", list)],
    ids=["vector", "list"],
)
def test_one_flipped_lane_fails_the_read(engine, vectors, table, column, kind):
    session = _fresh_people_session(engine, vectors=vectors)
    store = session.store
    assert type(store.stored_table(table).partitions[0].chunk(column).values) is kind
    store.fault_injector = FaultInjector(seed=7)
    store.fault_injector.corrupt_chunk(table, 0, column)
    with pytest.raises(DataCorruptionError, match=f"{table}.{column} partition 0"):
        session.execute(f"SELECT {column} FROM {table}")
    assert store.fault_injector.stats.corruptions == 1


def test_checksum_verification_can_be_disabled():
    session = _fresh_people_session()
    session.store.verify_checksums = False
    result = session.execute("SELECT sum(amount) FROM orders")
    assert result.metrics.checksum_verifications == 0


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_corruption_detected_evicts_cache_and_reload_recovers(engine):
    session = _fresh_people_session(engine, enable_plan_cache=True)
    store = session.store
    store.fault_injector = FaultInjector(seed=7)
    first = session.execute(_ORDERS_SQL)
    assert session.plan_cache is not None and len(session.plan_cache) > 0

    # Flip one stored bit in a chunk the query reads.  The next read
    # fails its checksum, and every cached result derived from the
    # table is evicted (it may have been built from the bad bytes).
    store.fault_injector.corrupt_chunk("orders", 0, "amount")
    with pytest.raises(DataCorruptionError, match="reload the table"):
        session.execute("SELECT sum(o.amount) FROM orders o")
    assert all(
        "orders" not in entry.tables for entry in session.plan_cache.entries()
    )
    assert session.plan_cache.stats.invalidations > 0

    # Recovery: replace the data and reload; the query runs again and
    # the original (cached) query still matches its first result.
    store.put(
        simple_table(
            "orders",
            [
                ("order_id", DataType.INTEGER),
                ("person_id", DataType.INTEGER),
                ("amount", DataType.DOUBLE),
                ("day", DataType.INTEGER),
            ],
            [
                (100, 1, 25.0, 1),
                (101, 1, 75.0, 2),
                (102, 2, 10.0, 2),
                (103, 3, 99.0, 3),
                (104, 3, 1.0, 3),
                (105, 5, 20.0, 4),
            ],
            primary_key=("order_id",),
            partition_column="day",
            partition_rows=2,
        )
    )
    session.reload_table("orders")
    assert session.execute(_ORDERS_SQL).sorted_rows() == first.sorted_rows()


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_cache_entry_corruption_detected_on_replay(engine):
    session = _fresh_people_session(engine, enable_plan_cache=True)
    session.execute(_ORDERS_SQL)
    entries = [e for e in session.plan_cache.entries() if e.row_count > 0]
    assert entries
    # Tamper with every cached vector behind the checksum's back, so
    # whichever entry the planner replays is corrupt.
    for victim in entries:
        token = next(iter(victim.columns))
        victim.columns[token][0] = bit_flip(victim.columns[token][0])
    with pytest.raises(DataCorruptionError, match="evicted"):
        session.execute(_ORDERS_SQL)
    assert any(
        victim.fingerprint not in session.plan_cache for victim in entries
    )
    # Each failed replay evicts the corrupt entry it hit; within a few
    # runs the cache is clean and the query recomputes from storage.
    for _ in entries:
        try:
            recovered = session.execute(_ORDERS_SQL)
            break
        except DataCorruptionError:
            continue
    else:
        pytest.fail("corrupt entries were not evicted")
    assert recovered.metrics.bytes_scanned > 0


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_cache_entry_checksum_sees_a_minus_one_to_minus_two_flip(engine):
    """Regression: the entry digest hashed the values, and ``hash(-1) ==
    hash(-2)`` in CPython, so this one-lane flip replayed as valid."""
    store = Store()
    store.put(
        simple_table(
            "t",
            [("k", DataType.INTEGER), ("v", DataType.INTEGER)],
            [(1, -1), (2, 3), (3, -1)],
            primary_key=("k",),
        )
    )
    session = Session(store, OptimizerConfig(engine=engine, enable_plan_cache=True))
    sql = "SELECT v, count(*) AS n FROM t GROUP BY v"
    session.execute(sql)
    flipped = []
    for entry in session.plan_cache.entries():
        for vector in entry.columns.values():
            if -1 in vector:
                vector[vector.index(-1)] = -2
                flipped.append(entry.fingerprint)
    assert flipped
    with pytest.raises(DataCorruptionError, match="evicted"):
        session.execute(sql)
    assert any(fingerprint not in session.plan_cache for fingerprint in flipped)


# -- deadlines and cancellation ---------------------------------------------


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_timeout_zero_fails_at_first_block_boundary(engine):
    session = _fresh_people_session(engine, timeout_ms=0)
    with pytest.raises(QueryTimeoutError, match="--timeout-ms"):
        session.execute("SELECT sum(amount) FROM orders")


def test_generous_deadline_reports_remaining_budget():
    session = _fresh_people_session(timeout_ms=60_000)
    result = session.execute("SELECT sum(amount) FROM orders")
    assert result.metrics.deadline_remaining_ms is not None
    assert 0 < result.metrics.deadline_remaining_ms <= 60_000


def test_run_context_deadline_with_fake_clock():
    now = [0.0]
    ctx = RunContext(
        Store(), limits=ResourceLimits(timeout_ms=100), clock=lambda: now[0]
    )
    ctx.checkpoint()  # within budget
    assert ctx.deadline_remaining_ms == pytest.approx(100.0)
    now[0] = 0.2
    assert ctx.deadline_remaining_ms == 0.0
    with pytest.raises(QueryTimeoutError):
        ctx.checkpoint()


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_session_cancel_arms_next_query(engine):
    session = _fresh_people_session(engine)
    session.cancel()
    with pytest.raises(QueryCancelledError):
        session.execute("SELECT sum(amount) FROM orders")
    # The pending cancel is consumed: the query after runs normally.
    assert session.execute("SELECT count(*) FROM people").rows == [(5,)]


def test_run_context_cancel_checkpoint():
    ctx = RunContext(Store())
    ctx.checkpoint()
    ctx.cancel()
    with pytest.raises(QueryCancelledError):
        ctx.checkpoint()


# -- resource budgets -------------------------------------------------------


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_max_state_rows_bounds_operator_state(engine):
    session = _fresh_people_session(engine, max_state_rows=2)
    with pytest.raises(ResourceExhaustedError, match="max_state_rows"):
        session.execute(_ORDERS_SQL)
    # A query under the budget still runs.
    assert _fresh_people_session(engine, max_state_rows=100).execute(
        _ORDERS_SQL
    ).rows


@pytest.mark.parametrize(
    "engine, vectors",
    [("row", "numpy"), ("batch", "numpy"), ("batch", "python")],
    ids=["row", "batch", "batch-lists"],
)
def test_max_spool_rows_bounds_cache_population(engine, vectors):
    session = _fresh_people_session(
        engine, vectors=vectors, enable_plan_cache=True, max_spool_rows=1
    )
    with pytest.raises(ResourceExhaustedError, match="max_spool_rows=1"):
        session.execute(_ORDERS_SQL)
    # Nothing over budget was admitted; a one-row population fits.
    assert len(session.plan_cache) == 0
    assert session.execute("SELECT count(*) FROM people").rows == [(5,)]
    assert session.plan_cache.stats.populations > 0


def test_limits_validate():
    with pytest.raises(ValueError):
        ResourceLimits(timeout_ms=-1)
    with pytest.raises(ValueError):
        ResourceLimits(max_spool_rows=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_retries=-1)


# -- block immutability -----------------------------------------------------


def _scan_first_block(store, table, column):
    blocks = store.scan_blocks(table, [column], ScanAccounting())
    vectors, _ = next(iter(blocks))
    return vectors[0]


def test_default_zero_copy_mutation_is_detectable():
    store = _fresh_people_session().store
    # A stored vector's arrays are read-only: the write fails and the
    # store stays intact.
    blocks = store.scan_blocks("people", ["id"], ScanAccounting(), as_vectors=True)
    vector = next(iter(blocks))[0][0]
    with pytest.raises(ValueError, match="read-only"):
        vector.data[0] = -999
    assert store.verify_integrity() > 0
    # A string chunk is a list handed out by reference: a write
    # mutates the stored chunk, and the integrity sweep catches it.
    names = _scan_first_block(store, "people", "lname")
    names[0] = "mallory"
    with pytest.raises(DataCorruptionError, match="integrity check failed"):
        store.verify_integrity()


# -- StoredTable.from_columns partitioning ---------------------------------


def _keyed_table(keys, partition_rows=None):
    from repro.catalog.catalog import ColumnDef, TableDef

    definition = TableDef(
        "t",
        (ColumnDef("k", DataType.INTEGER), ColumnDef("v", DataType.INTEGER)),
        partition_column="k",
    )
    data = {"k": list(keys), "v": list(range(len(keys)))}
    return StoredTable.from_columns(
        definition, data, partition_rows=partition_rows
    )


def test_from_columns_default_rows_split_is_fixed_size():
    # Pinned behavior: boundaries ignore the partition key, so a key's
    # rows may span partitions — this is the layout the TPC-DS
    # generator depends on (regression guard for the docstring fix).
    table = _keyed_table([1, 1, 2, 2], partition_rows=3)
    assert [p.row_count for p in table.partitions] == [3, 1]
    assert delist(table.partitions[0].chunk("k").values) == [1, 1, 2]
    assert delist(table.partitions[1].chunk("k").values) == [2]


def test_generator_layout_is_byte_identical():
    # The generator must keep producing the exact pre-existing layout
    # (default "rows" split).  Checksums pin content per partition.
    a = generate_dataset(scale=0.01, seed=7)
    b = generate_dataset(scale=0.01, seed=7)
    for name in ("store_sales", "reason"):
        pa, pb = a.stored_table(name).partitions, b.stored_table(name).partitions
        assert [p.row_count for p in pa] == [p.row_count for p in pb]
        for part_a, part_b in zip(pa, pb):
            for key, chunk in part_a.chunks.items():
                assert chunk.checksum == part_b.chunks[key].checksum


# -- chaos A/B over the TPC-DS workload -------------------------------------

_CHAOS_QUERIES = ("q09", "w12", "x01", "x05")


@pytest.fixture(scope="module")
def tiny_store_pair():
    """Two identical tiny datasets: one clean, one with chaos."""
    return generate_dataset(scale=0.02, seed=7), generate_dataset(scale=0.02, seed=7)


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_workload_subset_identical_under_chaos(tiny_store_pair, engine):
    clean_store, chaos_store = tiny_store_pair
    clean = Session(clean_store, OptimizerConfig(engine=engine))
    chaos_store.fault_injector = FaultInjector(fault_rate=0.5, seed=7)
    chaos = Session(
        chaos_store, OptimizerConfig(engine=engine, fault_seed=7, max_retries=3)
    )
    chaos._retry_policy = RetryPolicy(max_retries=3, seed=7, sleep=lambda s: None)
    total_retries = 0
    for name in _CHAOS_QUERIES:
        sql = WORKLOAD_QUERIES[name]
        expected = clean.execute(sql)
        observed = chaos.execute(sql)
        assert observed.sorted_rows() == expected.sorted_rows(), name
        assert observed.metrics.bytes_scanned == expected.metrics.bytes_scanned, name
        total_retries += observed.metrics.retries
    assert total_retries > 0
