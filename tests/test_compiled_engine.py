"""Unit tests for the block engine over NumPy columns.

The block engine has one operator table and one dispatch
(``batch_executor.execute_blocks``); ``vectors`` only decides whether
scans hand out arrays (``RunContext.vector_blocks``).  The differential
suite (tests/test_engine_ab.py, the oracle, the fuzzer) proves the
engine *agrees* with the row engine; this file pins down what the array
representation itself must keep: that every scan of the default
configuration hands out vectors and nothing is generated, that arrays
reach the operators above a join and every studied integer-keyed join,
that ``vectors="python"`` is the same engine over lists, that a bare
``execute_batch`` runs what ``Session.execute`` runs, that LIMIT still
short-circuits scans, and the one join over both column
representations.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import asdict

import pytest

from repro import generate_dataset
from repro.algebra.expressions import And, ColumnRef, Comparison, Literal
from repro.algebra.operators import (
    AggregateAssignment,
    GroupBy,
    Join,
    JoinKind,
    ScalarApply,
    Scan,
    Values,
)
from repro.algebra.schema import ColumnAllocator
from repro.algebra.types import DataType
from repro.engine import batch_executor, keyed
from repro.engine.batch_executor import execute_batch, execute_blocks
from repro.engine.compiled import execute_compiled
from repro.engine.executor import execute
from repro.engine.metrics import Profiler, ResourceLimits, RunContext
from repro.engine.session import Session
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import NumpyVector, Store
from repro.tpcds.queries import STUDIED_QUERIES
from tests.conftest import simple_table

_SCAN_SQL = (
    "SELECT s.ss_store_sk, sum(s.ss_quantity) FROM store_sales s "
    "WHERE s.ss_quantity > 10 GROUP BY s.ss_store_sk"
)


@pytest.fixture(scope="module")
def compiled_session(tpcds_store) -> Session:
    return Session(tpcds_store, OptimizerConfig())


def _deterministic(metrics) -> dict:
    """Every metric but the timings."""
    fields = asdict(metrics)
    for timing in ("wall_time_s", "planning_s", "operator_times"):
        del fields[timing]
    return fields


def _vector_fetch(plan, ctx, block_rows=1024):
    """``plan``'s block stream with scans handing out vectors."""
    ctx.vector_blocks = True
    return execute_blocks(plan, ctx, block_rows)


def test_pipelines_compiled_metric(compiled_session):
    """No code is generated any more: the counter the ruler reads stays 0."""
    result = compiled_session.execute(_SCAN_SQL)
    assert result.metrics.pipelines_compiled == 0
    assert "pipelines_compiled" not in result.metrics.summary()


def test_row_engine_never_compiles(tpcds_store):
    session = Session(tpcds_store, OptimizerConfig(engine="row"))
    result = session.execute(_SCAN_SQL)
    assert result.metrics.pipelines_compiled == 0


def test_plan_rerun_under_a_fresh_context(tpcds_store, compiled_session):
    """A prepared plan executed repeatedly (the benchmark's pattern)
    carries nothing from one RunContext to the next: same rows in the
    same order, same metrics."""
    plan, _ = compiled_session.plan(_SCAN_SQL)
    runs = []
    for _ in range(2):
        ctx = RunContext(tpcds_store)
        rows = list(execute_batch(plan, ctx))
        runs.append((rows, _deterministic(ctx.metrics)))
    assert runs[0] == runs[1] and runs[0][0]


def test_python_vectors_is_the_batch_engine(tpcds_store, compiled_session):
    """``vectors`` sets one scan fact and nothing else, and the engine's
    former name is an alias: rows in order, every metric and the
    profile's operator labels are the list-column block engine's."""
    plan, _ = compiled_session.plan(_SCAN_SQL)
    for vectors in ("numpy", "python"):
        ctx = RunContext(tpcds_store)
        execute_batch(plan, ctx, vectors=vectors)
        assert ctx.vector_blocks is (vectors == "numpy")

    runs = []
    for engine in ("batch", "compiled"):
        config = OptimizerConfig(engine=engine, vectors="python", profile=True)
        result = Session(tpcds_store, config).execute(STUDIED_QUERIES["q65"])
        labels = sorted(result.metrics.operator_times)
        runs.append((result.rows, _deterministic(result.metrics), labels))
    assert runs[0] == runs[1] and runs[0][0]


def test_every_studied_scan_hands_out_vectors(tpcds_store, monkeypatch):
    """A scan that silently fell back to lists would keep every result
    right and run at half the speed: in the paper's configurations
    (fused and baseline) and the costed one, every ``Store.scan_blocks``
    call, predicate or not, asks for vectors; under ``vectors="python"``
    none does."""
    calls = []
    scan_blocks = Store.scan_blocks

    def spy(self, table_name, *args, **kwargs):
        calls.append(kwargs.get("as_vectors"))
        return scan_blocks(self, table_name, *args, **kwargs)

    monkeypatch.setattr(Store, "scan_blocks", spy)
    for config, vectors in (
        (OptimizerConfig(), True),
        (OptimizerConfig(enable_fusion=False), True),
        (OptimizerConfig(cost_based=True), True),
        (OptimizerConfig(vectors="python"), False),
    ):
        calls.clear()
        session = Session(tpcds_store, config)
        for sql in STUDIED_QUERIES.values():
            session.execute(sql)
        assert len(calls) >= len(STUDIED_QUERIES)
        assert set(calls) == {vectors}, config


def test_bare_execute_batch_runs_what_the_session_runs(tpcds_store):
    """``execute_batch(plan, ctx)`` — the benchmark's engine probe —
    runs what ``Session.execute`` runs: scans handing out vectors, the
    same rows and the same profile labels on q95."""
    session = Session(tpcds_store, OptimizerConfig(profile=True))
    result = session.execute(STUDIED_QUERIES["q95"])
    ctx = RunContext(tpcds_store)
    ctx.profiler = Profiler()
    rows = list(execute_batch(result.optimized_plan, ctx))
    assert rows == result.rows and ctx.vector_blocks
    assert sorted(ctx.profiler.records) == sorted(result.metrics.operator_times)


_ENGINES = {
    "row": dict(engine="row"),
    "batch": dict(engine="batch"),
    "batch-lists": dict(engine="batch", vectors="python"),
}


@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_closed_session_frees_the_store_without_a_collection(engine):
    """Nothing a run leaves behind may tie the store into a reference
    cycle: the benchmark frees one dataset before generating the next
    and must not hold two (a per-context kernel cache whose entries
    captured the context once did, on the vector path)."""
    store = generate_dataset(scale=0.01, seed=7)
    gc.collect()
    gc.disable()
    try:
        alive = weakref.ref(store)
        session = Session(store, OptimizerConfig(**_ENGINES[engine], cost_based=True))
        for sql in STUDIED_QUERIES.values():
            session.execute(sql)
        session.close()
        del session, store
        assert alive() is None
    finally:
        gc.enable()


def test_limit_short_circuits_scan(tpcds_store, compiled_session):
    """LIMIT above a fused scan pipeline stops pulling source blocks
    once satisfied — the vector path must not drain the table."""
    sql = "SELECT s.ss_item_sk FROM store_sales s LIMIT 5"
    result = compiled_session.execute(sql)
    total_rows = tpcds_store.stored_table("store_sales").row_count
    assert result.metrics.rows_output == 5
    assert result.metrics.rows_scanned < total_rows
    row_result = Session(tpcds_store, OptimizerConfig(engine="row")).execute(sql)
    assert result.metrics.rows_scanned == row_result.metrics.rows_scanned


def test_profile_labels_pipelines(tpcds_store):
    """--profile lists a scan → project → limit → filter → aggregate
    chain operator by operator (what used to be one ``Pipeline[...]``
    entry)."""
    session = Session(tpcds_store, OptimizerConfig(profile=True))
    result = session.execute(
        "SELECT sum(x.q + 1) FROM (SELECT s.ss_quantity AS q FROM store_sales s "
        "LIMIT 500) x WHERE x.q > 10"
    )
    labels = sorted(label.split(" #")[0] for label in result.metrics.operator_times)
    assert labels == [
        "Filter", "GroupBy", "Limit", "Project", "Project", "Scan(store_sales)"
    ]
    assert all(t >= 0.0 for t in result.metrics.operator_times.values())


def _store_with_prices(prices):
    from repro.storage.columnar import Store
    from repro.algebra.types import DataType

    store = Store()
    store.put(
        simple_table(
            "t",
            [("id", DataType.INTEGER), ("price", DataType.DOUBLE)],
            [(i, p) for i, p in enumerate(prices)],
            primary_key=("id",),
        )
    )
    return store


def _nan_canonical_rows(rows):
    return sorted(
        (
            tuple(
                "NaN" if isinstance(v, float) and v != v else v for v in row
            )
            for row in rows
        ),
        key=lambda r: tuple((v is None, str(v)) for v in r),
    )


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT count(DISTINCT t.price) FROM t",
        "SELECT sum(DISTINCT t.price) FROM t",
        "SELECT DISTINCT t.price FROM t",
        "SELECT t.id < 200, count(DISTINCT t.price) FROM t GROUP BY t.id < 200",
    ],
)
def test_nan_salted_distinct_agrees_across_engines(sql):
    """All NaNs are one DISTINCT key on every engine (canon_key
    semantics).  Regression: the compiled engine's np.unique marker
    path and its per-row fallback used raw float identity, so a store
    salted with several distinct NaN objects over-counted."""
    nan = float("nan")
    prices = [1.0, nan, 2.0, nan, 1.0, None, nan, 3.0, None, 2.0] * 40
    store = _store_with_prices(prices)
    reference = None
    for config in (
        OptimizerConfig(engine="row"),
        OptimizerConfig(engine="batch", vectors="python"),
        OptimizerConfig(engine="batch", vectors="numpy"),
    ):
        rows = _nan_canonical_rows(Session(store, config).execute(sql).rows)
        if reference is None:
            reference = rows
        assert rows == reference, f"{config.engine}/{config.vectors}"


def test_nan_group_keys_match_row_engine():
    """Every NaN is one group key (``canon_key``) on both paths of the
    shared factorizer: ``np.unique`` folds NaNs for an array column, the
    dict pass files a NaN under its canon for a list column."""
    prices = [1.0, float("nan"), 2.0, float("nan"), 1.0, None] * 60
    store = _store_with_prices(prices)
    sql = "SELECT count(*) FROM t GROUP BY t.price"
    row = Session(store, OptimizerConfig(engine="row")).execute(sql)
    compiled = Session(store, OptimizerConfig()).execute(sql)
    assert sorted(row.rows) == sorted(compiled.rows) == [(60,), (60,), (120,), (120,)]


@pytest.mark.parametrize("rows", [12, 600])
def test_keyed_group_by_both_sides_of_row_gate(rows, monkeypatch):
    """One array path whatever the input size or the groups-per-row
    ratio (``t.id`` is unique: ratio 1.0) — the row gate and the ratio
    gate that used to hand such inputs back to the batch loop are gone."""
    calls = []
    factorize_arrays = keyed._factorize_arrays

    def spy(key_cols, n):
        calls.append(n)
        return factorize_arrays(key_cols, n)

    monkeypatch.setattr(keyed, "_factorize_arrays", spy)
    prices = [float(i % 9) if i % 7 else None for i in range(rows)]
    store = _store_with_prices(prices)
    for key in ("t.price", "t.id"):
        sql = f"SELECT {key}, count(*), sum(t.price), min(t.id) FROM t GROUP BY {key}"
        row = Session(store, OptimizerConfig(engine="row")).execute(sql)
        calls.clear()
        compiled = Session(store, OptimizerConfig()).execute(sql)
        assert row.rows == compiled.rows  # first-occurrence order included
        assert calls == [rows]  # the whole input, factorized as arrays


def test_direct_execute_matches_row_engine(tpcds_store, compiled_session):
    """execute_compiled — the block engine's entry point under its
    former name, same signature — as a library call (no Session) over a
    prepared plan matches repro.engine.executor.execute."""
    plan, _ = compiled_session.plan(STUDIED_QUERIES["q09"])
    row_rows = sorted(execute(plan, RunContext(tpcds_store)))
    compiled_rows = sorted(
        execute_compiled(plan, RunContext(tpcds_store), vectors="python")
    )
    assert row_rows == compiled_rows


# -- the vector equi-join --------------------------------------------------
#
# Order- and metric-exact against the row engine: rows compared as
# *lists* (the join's emission order is observable through LIMIT), and
# bytes/rows scanned and peak operator state must be equal.

_I, _D, _S, _B = (
    DataType.INTEGER,
    DataType.DOUBLE,
    DataType.STRING,
    DataType.BOOLEAN,
)
_JOIN_COLUMNS = [("id", _I), ("k", _I), ("q", _I), ("s", _S), ("b", _B), ("f", _D)]


def _join_rows(count, keys, salt):
    """Rows whose ``k`` repeats (many-to-many), with NULL keys, a few
    string / boolean / signed-zero float values to join on."""
    floats = (0.0, -0.0, 1.5, 2.5)
    return [
        (
            i,
            None if i % 11 == salt else i % keys,
            (i * 7 + salt) % 5,
            None if i % 13 == 0 else "s%d" % (i % 4),
            None if i % 17 == 0 else i % 3 == 0,
            None if i % 19 == 0 else floats[(i + salt) % 4],
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def join_store():
    store = Store()
    left, right = _join_rows(150, 9, 3), _join_rows(90, 6, 5)
    store.put(simple_table("l", _JOIN_COLUMNS, left, partition_rows=40))
    store.put(simple_table("r", _JOIN_COLUMNS, right, partition_rows=25))
    # Scans as ONE 0-row block, which a bare scan or a Project passes on.
    store.put(simple_table("e", _JOIN_COLUMNS, [], partition_rows=40))
    return store


#: Both representations of the block engine, held to the row engine:
#: the one join over list columns and over NumPy columns (the default).
_BLOCK_ENGINES = {
    "batch-lists": dict(engine="batch", vectors="python"),
    "batch": dict(engine="batch", vectors="numpy"),
}


def _assert_join_exact(store, sql, expect_rows=None, empty=False):
    for fusion in (True, False):
        shared = dict(enable_fusion=fusion, batch_rows=32)
        row = Session(store, OptimizerConfig(engine="row", **shared)).execute(sql)
        if expect_rows is not None:
            assert row.rows == expect_rows
        assert bool(row.rows) is not empty
        for name, engine in _BLOCK_ENGINES.items():
            got = Session(store, OptimizerConfig(**engine, **shared)).execute(sql)
            assert [repr(r) for r in got.rows] == [repr(r) for r in row.rows], name
            for metric in ("bytes_scanned", "rows_scanned", "peak_state_rows"):
                assert getattr(got.metrics, metric) == getattr(row.metrics, metric), (
                    name,
                    metric,
                )


def _assert_plan_exact(store, plan, block_rows=32):
    """A hand-built plan on every block engine against the row engine:
    rows in order and the three metrics.  Returns the rows."""
    row_ctx = RunContext(store)
    expected = list(execute(plan, row_ctx))
    for name, engine in _BLOCK_ENGINES.items():
        ctx = RunContext(store)
        got = list(execute_batch(plan, ctx, block_rows, engine["vectors"]))
        assert got == expected, name
        for metric in ("bytes_scanned", "rows_scanned", "peak_state_rows"):
            assert getattr(ctx.metrics, metric) == getattr(row_ctx.metrics, metric), (
                name,
                metric,
            )
    return expected


_JOIN_SHAPES = {
    "many_to_many_left_lt_residual": (
        "SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k AND l.q < r.q"
    ),
    "two_key_inner": (
        "SELECT l.id, r.id, r.q FROM l JOIN r ON l.k = r.k AND l.q = r.q"
    ),
    "left_residual_constant_false": (
        "SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k AND 1 = 0"
    ),
    "null_keys_both_sides_inner": "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k",
    "null_keys_both_sides_left": (
        "SELECT l.id, l.k, r.id FROM l LEFT JOIN r ON l.k = r.k"
    ),
    "key_expression_yields_null": (
        "SELECT l.id, r.id FROM l LEFT JOIN r ON l.k / (l.q - l.q) = r.k"
    ),
    "empty_build": (
        "SELECT l.id, e.id FROM l LEFT JOIN "
        "(SELECT r.id AS id, r.k AS k FROM r WHERE r.id < 0) e ON l.k = e.k"
    ),
    "string_keys_with_residual": (
        "SELECT l.id, r.id, r.s FROM l JOIN r ON l.s = r.s AND l.id <> r.id"
    ),
    "boolean_keys": (
        "SELECT l.id, r.id FROM l LEFT JOIN r ON l.b = r.b AND l.id < r.id - 80"
    ),
    "signed_zero_keys": "SELECT l.id, l.f, r.id, r.f FROM l JOIN r ON l.f = r.f",
    "int_key_probes_float_build": (
        "SELECT l.id, r.id FROM l JOIN r ON l.k = r.f + r.f"
    ),
    "limit_above_many_to_many": (
        "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k LIMIT 7"
    ),
    "limit_above_left_join": (
        "SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k AND l.q > r.q LIMIT 45"
    ),
    "cross_join_under_limit": "SELECT l.id, r.id FROM l CROSS JOIN r LIMIT 333",
    "no_equi_conjunct_under_limit": (
        "SELECT l.id, r.id FROM l JOIN r ON l.q < r.q LIMIT 400"
    ),
    "no_equi_conjunct_left": (
        "SELECT l.id, r.id FROM l LEFT JOIN r ON l.q < r.q - 3 AND l.id < 40"
    ),
    "zero_width_sides_cross": "SELECT count(*) FROM l CROSS JOIN r",
    "zero_width_output_equi": "SELECT count(*) FROM l JOIN r ON l.k = r.k",
    "empty_block_in_the_probe_stream": (
        "SELECT u.id, r.id FROM (SELECT e.id AS id, e.k AS k, e.q AS q FROM e "
        "UNION ALL SELECT l.id AS id, l.k AS k, l.q AS q FROM l) u "
        "LEFT JOIN r ON u.k = r.k AND u.q < r.q"
    ),
}


@pytest.mark.parametrize("shape", sorted(_JOIN_SHAPES))
def test_vector_join_is_order_and_metric_exact(join_store, shape):
    _assert_join_exact(join_store, _JOIN_SHAPES[shape])


def test_aggregation_state_is_registered_when_the_rule_says(join_store):
    """When each engine counts a GroupBy's groups as state (DESIGN.md §7).
    A scalar GroupBy registers its one group at its first input block,
    while the join below still holds its build side — as the row engine
    registers it at the first row.  A keyed GroupBy registers its groups
    after reading its whole input, when the join has let its build side
    go; the row engine counts each group as it appears, beside the build
    side, so its peak is higher by the group count (87 rows against 82
    here: a build side of 82 and 5 groups)."""
    join = "FROM l JOIN r ON l.k = r.k"
    peaks = {}
    for engine in ("row", "batch"):
        session = Session(join_store, OptimizerConfig(engine=engine, batch_rows=32))
        build = session.execute(f"SELECT l.q {join}")
        groups = len(set(build.rows))
        for shape, sql in (
            ("scalar", f"SELECT count(*), sum(l.q) {join}"),
            ("keyed", f"SELECT l.q, count(*) {join} GROUP BY l.q"),
        ):
            m = session.execute(sql).metrics
            assert m.total_state_rows == build.metrics.peak_state_rows + (
                1 if shape == "scalar" else groups
            )
            peaks[engine, shape] = m.peak_state_rows - build.metrics.peak_state_rows
    assert peaks == {
        ("row", "scalar"): 1,
        ("batch", "scalar"): 1,
        ("row", "keyed"): groups,
        ("batch", "keyed"): 0,
    }


def test_stages_above_a_join_keep_vector_blocks(join_store, monkeypatch):
    """Project above a residual join, a GroupBy above that: the join's
    output stays arrays, so the GroupBy's key column arrives as one
    (group order is first-occurrence order on both engines)."""
    key_types = []
    group_state = batch_executor.GroupState

    def spy(specs, key_cols, values, n):
        key_types.extend(map(type, key_cols))
        return group_state(specs, key_cols, values, n)

    monkeypatch.setattr(batch_executor, "GroupState", spy)
    sql = (
        "SELECT l.q + r.q, count(*), sum(r.id) FROM l JOIN r "
        "ON l.k = r.k AND l.id <> r.id WHERE l.q + r.q > 1 GROUP BY l.q + r.q"
    )
    row = Session(join_store, OptimizerConfig(engine="row")).execute(sql)
    compiled = Session(
        join_store, OptimizerConfig(vectors="numpy", profile=True)
    ).execute(sql)
    assert compiled.rows == row.rows
    assert key_types == [NumpyVector]
    labels = " ".join(compiled.metrics.operator_times)
    assert "Join #" in labels and "GroupBy #" in labels
    assert "Project #" in labels  # every operator is metered


def test_q95_self_join_is_order_and_metric_exact(tpcds_store):
    """The paper's §V.D ``ws_wh``: many-to-many with a ``<>`` residual."""
    _assert_join_exact(
        tpcds_store,
        "SELECT ws1.ws_order_number, ws1.ws_warehouse_sk, ws2.ws_warehouse_sk "
        "FROM web_sales ws1 JOIN web_sales ws2 "
        "ON ws1.ws_order_number = ws2.ws_order_number "
        "AND ws1.ws_warehouse_sk <> ws2.ws_warehouse_sk",
    )


def test_int_key_never_probes_through_a_float_cast(tpcds_store):
    """Beyond 2**53 neighbouring ints collapse to one double, so an int
    build key probed as float64 would invent matches; hash equality (the
    factorized path) keeps ``count(*)`` at the row engine's."""
    _assert_join_exact(
        tpcds_store,
        "SELECT count(*) FROM store_sales s JOIN item i "
        "ON s.ss_item_sk + 9007199254740992 = i.i_item_sk + 9007199254740992.0",
        expect_rows=[(2016,)],
    )


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT e.id, r.id FROM e JOIN r ON e.k = r.k",
        "SELECT e.id, r.id FROM e LEFT JOIN r ON e.k = r.k",
        "SELECT e.id + 1, r.id FROM e LEFT JOIN r ON e.k = r.k AND e.q < r.q",
        "SELECT e.id, r.id FROM e JOIN r ON e.s = r.s AND e.id <> r.id",
    ],
)
def test_vector_join_over_an_empty_probe_table(join_store, sql):
    _assert_join_exact(join_store, sql, empty=True)


def _hand_scan(table, tag):
    alloc = ColumnAllocator(start=5000 + 100 * tag)
    names = tuple(name for name, _ in _JOIN_COLUMNS)
    cols = tuple(alloc.fresh(name, dtype) for name, dtype in _JOIN_COLUMNS)
    return Scan(table, cols, names), dict(zip(names, map(ColumnRef, cols)))


@pytest.mark.parametrize("kind", [JoinKind.SEMI, JoinKind.ANTI])
@pytest.mark.parametrize("residual", ["lt", "false", "second_key"])
def test_semi_anti_join_with_residual(join_store, kind, residual):
    """The binder rejects correlated EXISTS, so SEMI/ANTI joins with a
    residual only arise from rewrites: build them by hand (the probe
    side has NULL keys, which SEMI drops and ANTI keeps)."""
    left, l = _hand_scan("l", 1)
    right, r = _hand_scan("r", 2)
    extra = {
        "lt": Comparison("<", l["q"], r["q"]),
        "false": Literal(False, _B),
        "second_key": Comparison("=", l["s"], r["s"]),
    }[residual]
    plan = Join(kind, left, right, And((Comparison("=", l["k"], r["k"]), extra)))
    got = _assert_plan_exact(join_store, plan)
    if residual == "false":
        assert len(got) == (0 if kind is JoinKind.SEMI else 150)
    else:
        assert 0 < len(got) < 150


@pytest.mark.parametrize("kind", list(JoinKind))
@pytest.mark.parametrize("residual", [False, True])
def test_join_of_every_kind_over_an_empty_probe_block(join_store, kind, residual):
    """Hand-built so no rewrite can prune or commute the empty side:
    the probe loop sees the 0-row block itself."""
    left, l = _hand_scan("e", 3)
    right, r = _hand_scan("r", 4)
    condition = Comparison("=", l["k"], r["k"])
    if residual:
        condition = And((condition, Comparison("<", l["q"], r["q"])))
    if kind is JoinKind.CROSS:
        condition = None
    plan = Join(kind, left, right, condition)
    assert _assert_plan_exact(join_store, plan) == []


def test_join_residual_reads_the_correlation_environment(join_store):
    """A join under a ScalarApply whose residual compares a build
    column with the *outer* row: the residual closure reads ``env`` at
    call time, once per slice of candidate pairs."""
    alloc = ColumnAllocator(start=7000)
    x, count, out = (alloc.fresh(n, _I) for n in ("x", "n", "per_x"))
    outer = Values((x,), ((0,), (2,), (4,), (None,)))
    left, l = _hand_scan("l", 5)
    right, r = _hand_scan("r", 6)
    condition = And(
        (Comparison("=", l["k"], r["k"]), Comparison("<", r["q"], ColumnRef(x)))
    )
    subquery = GroupBy(
        Join(JoinKind.INNER, left, right, condition),
        (),
        (AggregateAssignment(count, "count", None),),
    )
    rows = _assert_plan_exact(join_store, ScalarApply(outer, subquery, count, out))
    counts = [n for _, n in rows]
    assert counts[0] == counts[3] == 0 and 0 < counts[1] < counts[2]


# -- bounded expansion and cancellation inside the join ------------------------


def _skew_join(kind=JoinKind.INNER, left_rows=60, right_rows=400):
    """Every probe row matches every build row (one key value)."""
    alloc = ColumnAllocator(start=9000)
    lk, lv = alloc.fresh("k", _I), alloc.fresh("v", _I)
    rk, rv = alloc.fresh("k", _I), alloc.fresh("v", _I)
    left = Values((lk, lv), tuple((0, i) for i in range(left_rows)))
    right = Values((rk, rv), tuple((0, i) for i in range(right_rows)))
    return Join(kind, left, right, Comparison("=", ColumnRef(lk), ColumnRef(rk)))


@pytest.mark.parametrize("kind", [JoinKind.INNER, JoinKind.LEFT])
def test_skewed_join_expands_in_bounded_slices(monkeypatch, kind):
    """|probe| x |build| pairs are never materialized at once: no block
    the join yields, and no index array behind it, exceeds the slice."""
    monkeypatch.setattr(batch_executor, "_JOIN_PAIR_SLICE", 1000)
    plan = _skew_join(kind)
    ctx = RunContext(Store())
    sizes = [n for _, n in _vector_fetch(plan, ctx)]
    assert sum(sizes) == 60 * 400
    assert max(sizes) <= 1000 and len(sizes) == 24
    assert list(execute_batch(plan, RunContext(Store()))) == list(
        execute(plan, RunContext(Store()))
    )


def test_skewed_join_memory_follows_the_slice_bound(tpcds_store, monkeypatch):
    """``ss_quantity * 0 = i_item_sk * 0``: one key, every pair a match.
    Peak traced memory of the query is governed by the slice bound, not
    by |probe block| x |build|.  Blocks as large as a partition, so the
    block size (the bound's other half) does not cap both runs alike."""
    import tracemalloc

    sql = (
        "SELECT count(*) FROM store_sales s JOIN item i "
        "ON s.ss_quantity * 0 = i.i_item_sk * 0"
    )
    session = Session(tpcds_store, OptimizerConfig(batch_rows=1 << 16))
    rows = tpcds_store.stored_table("store_sales").row_count * tpcds_store.stored_table("item").row_count
    peaks = {}
    for bound in (1 << 30, 512):
        monkeypatch.setattr(batch_executor, "_JOIN_PAIR_SLICE", bound)
        session.execute(sql)  # plan and closures warm: measure the join
        tracemalloc.start()
        try:
            result = session.execute(sql)
            peaks[bound] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.rows == [(rows,)]
    assert peaks[512] * 4 < peaks[1 << 30]


def test_join_is_cancellable_between_slices(monkeypatch):
    monkeypatch.setattr(batch_executor, "_JOIN_PAIR_SLICE", 1000)
    ctx = RunContext(Store())
    blocks = _vector_fetch(_skew_join(), ctx)
    next(blocks)  # one slice out of 24, all from the single probe block
    ctx.cancel()
    with pytest.raises(QueryCancelledError):
        next(blocks)

    now = [0.0]
    ctx = RunContext(
        Store(), limits=ResourceLimits(timeout_ms=1000), clock=lambda: now[0]
    )
    blocks = _vector_fetch(_skew_join(), ctx)
    next(blocks)
    now[0] = 5.0
    with pytest.raises(QueryTimeoutError):
        next(blocks)


def test_join_over_non_scan_children_has_its_own_deadline_point(join_store):
    """Values / GroupBy outputs reach the join through
    ``_blocks_from_row_list``, which has no checkpoint: the join's build
    loop must be the deadline point, not its parent."""
    ctx = RunContext(Store(), limits=ResourceLimits(timeout_ms=0))
    with pytest.raises(QueryTimeoutError) as info:
        list(execute_batch(_skew_join(), ctx))
    assert "_run_join" in [frame.name for frame in info.traceback]

    session = Session(join_store, OptimizerConfig())
    with pytest.raises(QueryTimeoutError):
        session.execute(
            "SELECT l.id, g.c FROM l JOIN "
            "(SELECT r.k AS k, count(*) AS c FROM r GROUP BY r.k) g ON l.k = g.k",
            timeout_ms=0,
        )


@pytest.mark.parametrize("kind", [JoinKind.INNER, JoinKind.LEFT])
def test_batch_join_expands_in_bounded_slices(monkeypatch, kind):
    """The test above over list columns: no block the join yields, and
    no gather behind it, exceeds the bound."""
    monkeypatch.setattr(batch_executor, "_JOIN_PAIR_SLICE", 1000)
    longest = 0

    def spy(cols, sel, take_rows=batch_executor.take_rows):
        nonlocal longest
        longest = max(longest, len(sel))
        return take_rows(cols, sel)

    monkeypatch.setattr(batch_executor, "take_rows", spy)
    plan = _skew_join(kind)
    sizes = [n for _, n in execute_blocks(plan, RunContext(Store()), 1024)]
    assert sum(sizes) == 60 * 400
    assert max(sizes) <= 1000 and longest == 1000
    assert list(execute_batch(plan, RunContext(Store()))) == list(
        execute(plan, RunContext(Store()))
    )


def test_batch_join_is_cancellable_between_slices(monkeypatch):
    monkeypatch.setattr(batch_executor, "_JOIN_PAIR_SLICE", 1000)
    ctx = RunContext(Store())
    blocks = execute_blocks(_skew_join(), ctx, 1024)
    next(blocks)  # one slice out of 24, all from the single probe block
    ctx.cancel()
    with pytest.raises(QueryCancelledError):
        next(blocks)


def test_batch_join_over_non_scan_children_has_its_own_deadline_point():
    """``Values`` children have no checkpoint of their own, and a block
    consumer never passes ``_iter_rows``: the join must be the deadline
    point (on the parent commit all 24 000 rows came back)."""
    ctx = RunContext(Store(), limits=ResourceLimits(timeout_ms=0))
    with pytest.raises(QueryTimeoutError) as info:
        list(execute_blocks(_skew_join(), ctx, 1024))
    assert "_run_join" in [frame.name for frame in info.traceback]


def _unique_key_join(kind, probe_rows):
    """Probe key ``i % 150`` against the unique build keys 0..99: no
    lane has two candidates."""
    alloc = ColumnAllocator(start=9100)
    lk, lv = alloc.fresh("k", _I), alloc.fresh("v", _I)
    rk, rv = alloc.fresh("k", _I), alloc.fresh("v", _I)
    left = Values((lk, lv), tuple((i % 150, i) for i in range(probe_rows)))
    right = Values((rk, rv), tuple((i, i) for i in range(100)))
    return Join(kind, left, right, Comparison("=", ColumnRef(lk), ColumnRef(rk)))


@pytest.mark.parametrize("kind", [JoinKind.INNER, JoinKind.LEFT])
def test_non_expanding_join_yields_one_block_per_probe_block(kind):
    """Probe blocks of 2 000 and 1 000 lanes leave as two blocks, not
    re-cut into 1 024-pair slices."""
    plan = _unique_key_join(kind, 3000)
    sizes = [n for _, n in execute_blocks(plan, RunContext(Store()), 2000)]
    matched = [i % 150 < 100 for i in range(3000)]
    if kind is JoinKind.LEFT:
        assert sizes == [2000, 1000]
    else:
        assert sizes == [sum(matched[:2000]), sum(matched[2000:])]
    assert list(execute_batch(plan, RunContext(Store()), 2000)) == list(
        execute(plan, RunContext(Store()))
    )


def test_skewed_join_slices_are_at_most_one_probe_block():
    """Over one probe block of 1 500 lanes, each matching all three
    build rows, the join expands 1 500 pairs per slice — never more than
    the block it holds — and reaches a checkpoint before each slice."""
    ctx = RunContext(Store())
    checkpoints = []
    checkpoint = ctx.checkpoint

    def counted():
        checkpoints.append(None)
        checkpoint()

    ctx.checkpoint = counted
    sizes, reached = [], []
    for _, n in execute_blocks(_skew_join(left_rows=1500, right_rows=3), ctx, 1 << 16):
        sizes.append(n)
        reached.append(len(checkpoints))
    assert sizes == [1500, 1500, 1500]
    assert reached[0] < reached[1] < reached[2]


def _joins(plan) -> list:
    """Distinct Join nodes of a plan (plans may share subtrees)."""
    found = {id(plan): plan} if isinstance(plan, Join) else {}
    for child in plan.children:
        found.update((id(j), j) for j in _joins(child))
    return list(found.values())


@pytest.mark.parametrize("name", sorted(STUDIED_QUERIES))
def test_studied_queries_keep_equi_joins_on_the_array_path(tpcds_store, name, monkeypatch):
    """The structural guard of the array path, independent of timing:
    with fusion on (costed) or off, every studied equi join on integer
    keys sorts its build keys as a NumpyVector, with no dict domain —
    no join input was turned into lists on the way, and no probe block
    of another kind made the join factorize its keys."""
    sorts = []
    sort_build_keys = batch_executor._sort_build_keys

    def spy(key_col, rows, as_codes):
        out = sort_build_keys(key_col, rows, as_codes)
        sorts.append((key_col, out[2]))
        return out

    monkeypatch.setattr(batch_executor, "_sort_build_keys", spy)
    for fusion in (True, False):
        sorts.clear()
        session = Session(
            tpcds_store,
            OptimizerConfig(enable_fusion=fusion, cost_based=True, profile=True),
        )
        result = session.execute(STUDIED_QUERIES[name])
        equi = [
            j
            for j in _joins(result.optimized_plan)
            if j.kind is not JoinKind.CROSS
            and batch_executor._split_join_condition(
                j.condition, j.left.output_columns, j.right.output_columns
            )[0]
        ]
        assert len(sorts) >= len(equi)
        assert any(type(key_col) is NumpyVector for key_col, _ in sorts) is bool(equi)
        for key_col, domain in sorts:
            if type(key_col) is NumpyVector:
                assert domain is None
            else:  # string keys, or an empty build side
                assert not any(type(v) is int for v in key_col)
        if fusion:
            windowed = name in ("q01", "q30", "q65")  # GroupByJoinToWindow's output
            labels = result.metrics.operator_times
            assert any(label.startswith("Window #") for label in labels) is windowed


@pytest.fixture(scope="module")
def scale_02_store():
    return generate_dataset(scale=0.2, seed=7)


@pytest.mark.parametrize("name", sorted(STUDIED_QUERIES))
def test_studied_equi_joins_probe_through_the_directory(scale_02_store, name, monkeypatch):
    """The structural guard of the join's probe, independent of timing:
    with fusion on (costed) or off, every probe block of every studied
    equi join — integer keys, or codes — finds its build ranges through
    a direct-address directory; none falls back to binary search.  At
    scale 0.2: at the suite's 0.05, Q30 builds on its 200 ``web_returns``
    rows, whose return dates span all 1 826 days, past
    ``4 x 200 + 1 024``."""
    indexes = []
    key_ranges = batch_executor._key_ranges

    def spy(index, probe):
        indexes.append(index)
        return key_ranges(index, probe)

    monkeypatch.setattr(batch_executor, "_key_ranges", spy)
    for fusion in (True, False):
        indexes.clear()
        session = Session(
            scale_02_store, OptimizerConfig(enable_fusion=fusion, cost_based=True)
        )
        result = session.execute(STUDIED_QUERIES[name])
        equi = [
            j
            for j in _joins(result.optimized_plan)
            if j.kind is not JoinKind.CROSS
            and batch_executor._split_join_condition(
                j.condition, j.left.output_columns, j.right.output_columns
            )[0]
        ]
        assert bool(indexes) is bool(equi)
        assert all(type(index) is batch_executor._Directory for index in indexes)


#: The studied keyed inputs whose combined key is sparse — its bound
#: past ``4 x rows + 1 024`` — and so sort, at scale 0.2 as at 1.0:
#: the (customer, store) and (customer, state) GROUP BY of Q01's and
#: Q30's return CTEs (2 412 over 310 rows and 3 168 over 157 at 0.2;
#: 24 012 over 1 561 and 15 944 over 823 at 1.0) and Q95's
#: MarkDistinct over ``ws_order_number`` (1 255 over 39; 6 507 over
#: 181).  ``(query, operator, key columns)``.
_SPARSE_GROUP_KEYS = {
    ("q01", "GroupState", 2),
    ("q30", "GroupState", 2),
    ("q95", "mark_first", 1),
}


@pytest.mark.parametrize("name", sorted(STUDIED_QUERIES))
def test_studied_group_keys_factorize_by_direct_address(scale_02_store, name, monkeypatch):
    """The structural guard of the factorizer, independent of timing:
    with fusion on or off, every studied GroupBy / Window
    (``GroupState``) and MarkDistinct (``mark_first``) key factorizes
    through the direct-address table, save the sparse keys named in
    ``_SPARSE_GROUP_KEYS``, which sort.  At scale 0.2, where each key's
    arm is the one it takes at 1.0."""
    calls, operator = [], []

    def spy_operator(label):
        run = getattr(batch_executor, label)

        def spy(*args):
            operator.append(label)
            try:
                return run(*args)
            finally:
                operator.pop()

        monkeypatch.setattr(batch_executor, label, spy)

    def spy_arm(label):
        run = getattr(keyed, label)

        def spy(*args):
            calls[-1][-1] = label  # the last step is the key's arm
            return run(*args)

        monkeypatch.setattr(keyed, label, spy)

    factorize_arrays = keyed._factorize_arrays

    def spy_factorize(key_cols, n):
        calls.append([name, operator[-1], len(key_cols), None])
        return factorize_arrays(key_cols, n)

    monkeypatch.setattr(keyed, "_factorize_arrays", spy_factorize)
    for label in ("GroupState", "mark_first"):
        spy_operator(label)
    for label in ("_first_seen_direct", "_first_seen_sorted"):
        spy_arm(label)
    for fusion in (True, False):
        calls.clear()
        Session(scale_02_store, OptimizerConfig(enable_fusion=fusion)).execute(
            STUDIED_QUERIES[name]
        )
        assert bool(calls) is (name not in ("q09", "q88"))  # scalar aggregates only
        for *key, arm in calls:
            sparse = tuple(key) in _SPARSE_GROUP_KEYS
            assert arm == ("_first_seen_sorted" if sparse else "_first_seen_direct"), key
        sparse_seen = {tuple(key) for *key, arm in calls if arm == "_first_seen_sorted"}
        assert sparse_seen == {k for k in _SPARSE_GROUP_KEYS if k[0] == name}
