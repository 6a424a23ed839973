"""Unit tests for the compiled engine (repro.engine.compiled).

The differential suite (tests/test_engine_ab.py, the oracle, the
fuzzer) proves the compiled engine *agrees* with the row engine; this
file pins down the router's own observables: that every scan hands out
vectors and nothing is generated, that ``vectors="python"`` is the
batch engine, that the NumPy backend degrades cleanly, that LIMIT still
short-circuits scans, and the array join.
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
from repro.engine import batch_executor, compiled
from repro.engine.batch_executor import execute_batch, execute_blocks
from repro.engine.compiled import execute_compiled, install_dispatch
from repro.engine.executor import execute
from repro.engine.metrics import ResourceLimits, RunContext
from repro.engine.session import Session
from repro.engine.vectors import numpy_enabled
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import Store
from repro.tpcds.queries import STUDIED_QUERIES
from tests.conftest import simple_table

_SCAN_SQL = (
    "SELECT s.ss_store_sk, sum(s.ss_quantity) FROM store_sales s "
    "WHERE s.ss_quantity > 10 GROUP BY s.ss_store_sk"
)


@pytest.fixture(scope="module")
def compiled_session(tpcds_store) -> Session:
    return Session(tpcds_store, OptimizerConfig(engine="compiled"))


needs_numpy = pytest.mark.skipif(not numpy_enabled(), reason="array path only")


def _deterministic(metrics) -> dict:
    """Every metric but the timings."""
    fields = asdict(metrics)
    for timing in ("wall_time_s", "planning_s", "operator_times"):
        del fields[timing]
    return fields


def _vector_fetch(plan, ctx, block_rows=1024):
    """The compiled engine's undelisted block stream for ``plan``."""
    assert install_dispatch(ctx, "numpy") == "numpy"
    return compiled._fetch(plan, ctx, block_rows)


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
        rows = list(execute_compiled(plan, ctx))
        runs.append((rows, _deterministic(ctx.metrics)))
    assert runs[0] == runs[1] and runs[0][0]


def test_python_vectors_is_the_batch_engine(tpcds_store):
    """``vectors="python"`` installs no dispatch: the run *is*
    ``execute_batch`` — rows in order, every metric and the profile's
    operator labels (which is why the oracle has no compiled-python cell)."""
    ctx = RunContext(tpcds_store)
    assert install_dispatch(ctx, "python") == "python"
    assert ctx.block_dispatch is None and not ctx.vector_blocks

    runs = []
    for engine in ("batch", "compiled"):
        config = OptimizerConfig(engine=engine, vectors="python", profile=True)
        result = Session(tpcds_store, config).execute(STUDIED_QUERIES["q65"])
        labels = sorted(result.metrics.operator_times)
        runs.append((result.rows, _deterministic(result.metrics), labels))
    assert runs[0] == runs[1] and runs[0][0]


@needs_numpy
def test_every_studied_scan_hands_out_vectors(tpcds_store, monkeypatch):
    """A scan that silently fell back to lists would keep every result
    right and run at half the speed: under ``vectors="numpy"`` every
    ``Store.scan_blocks`` call, predicate or not, asks for vectors."""
    calls = []
    scan_blocks = Store.scan_blocks

    def spy(self, table_name, *args, **kwargs):
        calls.append((table_name, kwargs.get("as_vectors")))
        return scan_blocks(self, table_name, *args, **kwargs)

    monkeypatch.setattr(Store, "scan_blocks", spy)
    session = Session(
        tpcds_store, OptimizerConfig(engine="compiled", vectors="numpy", cost_based=True)
    )
    for sql in STUDIED_QUERIES.values():
        session.execute(sql)
    assert len(calls) >= len(STUDIED_QUERIES)
    assert [call for call in calls if call[1] is not True] == []


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_closed_session_frees_the_store_without_a_collection(engine):
    """Nothing a run leaves behind may tie the store into a reference
    cycle: the benchmark frees one dataset before generating the next
    and must not hold two (a per-context kernel cache whose entries
    captured the context once did, on the compiled engine)."""
    store = generate_dataset(scale=0.01, seed=7)
    gc.collect()
    gc.disable()
    try:
        alive = weakref.ref(store)
        session = Session(store, OptimizerConfig(engine=engine, cost_based=True))
        for sql in STUDIED_QUERIES.values():
            session.execute(sql)
        session.close()
        del session, store
        assert alive() is None
    finally:
        gc.enable()


def test_numpy_env_kill_switch(tpcds_store, monkeypatch):
    """REPRO_DISABLE_NUMPY forces the pure-Python kernels even when the
    config asks for NumPy — and the results are byte-identical to the
    row engine."""
    monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
    assert not numpy_enabled()
    assert install_dispatch(RunContext(tpcds_store), "numpy") == "python"

    row = Session(tpcds_store, OptimizerConfig(engine="row")).execute(_SCAN_SQL)
    compiled = Session(
        tpcds_store, OptimizerConfig(engine="compiled", vectors="numpy")
    ).execute(_SCAN_SQL)
    assert row.sorted_rows() == compiled.sorted_rows()


def test_limit_short_circuits_scan(tpcds_store, compiled_session):
    """LIMIT above a fused scan pipeline stops pulling source blocks
    once satisfied — the kernel must not drain the table."""
    sql = "SELECT s.ss_item_sk FROM store_sales s LIMIT 5"
    result = compiled_session.execute(sql)
    total_rows = tpcds_store.get("store_sales").row_count
    assert result.metrics.rows_output == 5
    assert result.metrics.rows_scanned < total_rows
    row_result = Session(tpcds_store, OptimizerConfig(engine="row")).execute(sql)
    assert result.metrics.rows_scanned == row_result.metrics.rows_scanned


def test_profile_labels_pipelines(tpcds_store):
    """--profile lists a scan → project → limit → filter → aggregate
    chain operator by operator (what used to be one ``Pipeline[...]``
    entry), and scalar aggregation is a sink, not a breaker."""
    session = Session(
        tpcds_store, OptimizerConfig(engine="compiled", profile=True)
    )
    result = session.execute(
        "SELECT sum(x.q + 1) FROM (SELECT s.ss_quantity AS q FROM store_sales s "
        "LIMIT 500) x WHERE x.q > 10"
    )
    labels = sorted(label.split(" #")[0] for label in result.metrics.operator_times)
    assert labels == [
        "Filter", "GroupBy", "Limit", "Project", "Project", "Scan(store_sales)"
    ]
    assert all(t >= 0.0 for t in result.metrics.operator_times.values())
    metrics = result.metrics
    assert (metrics.breakers_vectorized, metrics.breakers_batch) == (0, 0)


def test_compiled_handles_spooling_plans(tpcds_store):
    """Spool producers/consumers break pipelines; the compiled engine
    must still agree with the row engine on a spooled plan, metrics
    included."""
    spool = dict(enable_fusion=False, enable_spooling=True)
    row_s = Session(tpcds_store, OptimizerConfig(engine="row", **spool))
    compiled_s = Session(tpcds_store, OptimizerConfig(engine="compiled", **spool))
    for name in ("q65", "q23"):
        row = row_s.execute(STUDIED_QUERIES[name])
        compiled = compiled_s.execute(STUDIED_QUERIES[name])
        assert row.metrics.spooled_rows == compiled.metrics.spooled_rows
        assert row.metrics.spool_read_rows == compiled.metrics.spool_read_rows


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
        OptimizerConfig(engine="batch"),
        OptimizerConfig(engine="compiled", vectors="python"),
        OptimizerConfig(engine="compiled", vectors="numpy"),
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
    compiled = Session(store, OptimizerConfig(engine="compiled")).execute(sql)
    assert sorted(row.rows) == sorted(compiled.rows) == [(60,), (60,), (120,), (120,)]


@pytest.mark.parametrize("rows", [12, 600])
def test_keyed_group_by_both_sides_of_row_gate(rows):
    """One array path whatever the input size or the groups-per-row
    ratio (``t.id`` is unique: ratio 1.0) — the row gate and the ratio
    gate that used to hand such inputs back to the batch loop are gone."""
    prices = [float(i % 9) if i % 7 else None for i in range(rows)]
    store = _store_with_prices(prices)
    for key in ("t.price", "t.id"):
        sql = f"SELECT {key}, count(*), sum(t.price), min(t.id) FROM t GROUP BY {key}"
        row = Session(store, OptimizerConfig(engine="row")).execute(sql)
        compiled = Session(store, OptimizerConfig(engine="compiled")).execute(sql)
        assert row.rows == compiled.rows  # first-occurrence order included
        assert compiled.metrics.breakers_batch == 0 or not numpy_enabled()


def test_direct_execute_matches_row_engine(tpcds_store, compiled_session):
    """execute_compiled as a library call (no Session) over a prepared
    plan matches repro.engine.executor.execute."""
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


#: Every engine that joins over blocks, held to the row engine: the
#: batch join (positions over list columns), the same join reached
#: through the compiled engine's dispatch, and the array join.
_BLOCK_ENGINES = {
    "batch": dict(engine="batch"),
    "compiled-python": dict(engine="compiled", vectors="python"),
    "compiled-numpy": dict(engine="compiled", vectors="numpy"),
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
    rows in order and the three metrics.  Returns the rows and the
    array engine's metrics."""
    row_ctx = RunContext(store)
    expected = list(execute(plan, row_ctx))
    for name, engine in _BLOCK_ENGINES.items():
        ctx = RunContext(store)
        if name == "batch":
            got = list(execute_batch(plan, ctx, block_rows))
        else:
            got = list(execute_compiled(plan, ctx, block_rows, engine["vectors"]))
        assert got == expected, name
        for metric in ("bytes_scanned", "rows_scanned", "peak_state_rows"):
            assert getattr(ctx.metrics, metric) == getattr(row_ctx.metrics, metric), (
                name,
                metric,
            )
    return expected, ctx.metrics


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


def test_stages_above_a_join_keep_vector_blocks(join_store):
    """Project above a residual join above nothing compilable: every
    breaker runs on the array path, none is handed to the batch engine
    (group order is first-occurrence order on both engines)."""
    sql = (
        "SELECT l.q + r.q, count(*), sum(r.id) FROM l JOIN r "
        "ON l.k = r.k AND l.id <> r.id WHERE l.q + r.q > 1 GROUP BY l.q + r.q"
    )
    row = Session(join_store, OptimizerConfig(engine="row")).execute(sql)
    compiled = Session(
        join_store, OptimizerConfig(engine="compiled", vectors="numpy", profile=True)
    ).execute(sql)
    assert compiled.rows == row.rows
    if not numpy_enabled():
        return
    assert compiled.metrics.breakers_batch == 0
    assert compiled.metrics.breakers_vectorized == 2
    assert "breakers_vectorized=2" in compiled.metrics.summary()
    labels = " ".join(compiled.metrics.operator_times)
    assert "Join[vector]" in labels and "GroupBy[vector]" in labels
    assert "Project #" in labels  # stages fetched by array operators are metered
    # Scalar aggregation is a sink, not a breaker: only the join counts.
    scalar = Session(join_store, OptimizerConfig(engine="compiled")).execute(
        "SELECT count(*), sum(l.q + r.q) FROM l JOIN r ON l.k = r.k"
    )
    assert (scalar.metrics.breakers_vectorized, scalar.metrics.breakers_batch) == (1, 0)


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
    got, metrics = _assert_plan_exact(join_store, plan)
    if numpy_enabled():
        assert (metrics.breakers_vectorized, metrics.breakers_batch) == (1, 0)
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
    assert _assert_plan_exact(join_store, plan)[0] == []


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
    rows, _ = _assert_plan_exact(join_store, ScalarApply(outer, subquery, count, out))
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


@needs_numpy
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
    assert list(execute_compiled(plan, RunContext(Store()))) == list(
        execute(plan, RunContext(Store()))
    )


@needs_numpy
def test_skewed_join_memory_follows_the_slice_bound(tpcds_store, monkeypatch):
    """``ss_quantity * 0 = i_item_sk * 0``: one key, every pair a match.
    Peak traced memory of the query is governed by the slice bound, not
    by |probe block| x |build|."""
    import tracemalloc

    sql = (
        "SELECT count(*) FROM store_sales s JOIN item i "
        "ON s.ss_quantity * 0 = i.i_item_sk * 0"
    )
    session = Session(tpcds_store, OptimizerConfig(engine="compiled"))
    rows = tpcds_store.get("store_sales").row_count * tpcds_store.get("item").row_count
    peaks = {}
    for bound in (1 << 30, 512):
        monkeypatch.setattr(batch_executor, "_JOIN_PAIR_SLICE", bound)
        session.execute(sql)  # plan and kernels warm: measure the join
        tracemalloc.start()
        try:
            result = session.execute(sql)
            peaks[bound] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.rows == [(rows,)]
        assert result.metrics.breakers_batch == 0
    assert peaks[512] * 4 < peaks[1 << 30]


@needs_numpy
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


@needs_numpy
def test_join_over_non_scan_children_has_its_own_deadline_point(join_store):
    """Values / GroupBy outputs reach the join through
    ``_blocks_from_row_list``, which has no checkpoint: the join's build
    loop must be the deadline point, not its parent."""
    ctx = RunContext(Store(), limits=ResourceLimits(timeout_ms=0))
    with pytest.raises(QueryTimeoutError) as info:
        list(execute_compiled(_skew_join(), ctx))
    assert "_run_join_nv" in [frame.name for frame in info.traceback]

    session = Session(join_store, OptimizerConfig(engine="compiled"))
    with pytest.raises(QueryTimeoutError):
        session.execute(
            "SELECT l.id, g.c FROM l JOIN "
            "(SELECT r.k AS k, count(*) AS c FROM r GROUP BY r.k) g ON l.k = g.k",
            timeout_ms=0,
        )


@pytest.mark.parametrize("kind", [JoinKind.INNER, JoinKind.LEFT])
def test_batch_join_expands_in_bounded_slices(monkeypatch, kind):
    """The list-backed twin of the test above: no block the batch join
    yields, and no index list behind it, exceeds the shared bound."""
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


def _joins(plan) -> list:
    """Distinct Join nodes of a plan (plans may share subtrees)."""
    found = {id(plan): plan} if isinstance(plan, Join) else {}
    for child in plan.children:
        found.update((id(j), j) for j in _joins(child))
    return list(found.values())


@needs_numpy
@pytest.mark.parametrize("name", sorted(STUDIED_QUERIES))
def test_studied_queries_keep_equi_joins_on_the_array_path(tpcds_store, name):
    """The structural guard of the vector operators, independent of
    timing: under the costed compiled configuration no studied query
    hands an equi-join, a keyed GroupBy, a MarkDistinct, a Window or a
    Sort to the batch engine (Q09's one-row CROSS joins may go)."""
    session = Session(
        tpcds_store,
        OptimizerConfig(
            engine="compiled", vectors="numpy", cost_based=True, profile=True
        ),
    )
    result = session.execute(STUDIED_QUERIES[name])
    joins = _joins(result.optimized_plan)
    cross = [j for j in joins if j.kind is JoinKind.CROSS]
    assert not cross or name == "q09"
    labels = list(result.metrics.operator_times)
    assert sum("Join[batch]" in label for label in labels) == len(cross)
    assert sum("Join[vector]" in label for label in labels) == len(joins) - len(cross)
    metrics = result.metrics
    assert metrics.breakers_batch == len(cross)
    assert metrics.breakers_vectorized >= len(joins) - len(cross)
    assert metrics.breakers_vectorized + metrics.breakers_batch > 0
    windowed = name in ("q01", "q30", "q65")  # GroupByJoinToWindow's output
    assert any("Window[vector]" in label for label in labels) is windowed
