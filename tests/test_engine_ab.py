"""Differential tests: the row engine vs. the block engine over NumPy
vector columns (the default) and over Python lists.

Every workload query (and the paper-example SQL) must produce the same
result multiset and byte-identical scan metrics under every
engine — block execution is a pure execution-speed change, invisible
to everything the paper measures except wall time.  Both column
representations match the row engine byte for byte, float aggregates
included: array folds add in lane order, as the row engine does.
(``engine="compiled"`` is the block engine's former name; the sessions
below still spell it so, which also checks the alias.)
"""

from __future__ import annotations

import math

import pytest

from repro.algebra.types import DataType
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.tpcds.queries import STUDIED_QUERIES, WORKLOAD_QUERIES
from tests import test_paper_examples as paper
from tests.conftest import simple_table

#: Metrics that must match exactly between the engines.
EQUAL_METRICS = (
    "bytes_scanned",
    "rows_scanned",
    "partitions_read",
    "rows_output",
)

PAPER_EXAMPLES = {
    "q65_paper_rewrite": paper.Q65_PAPER_REWRITE,
    "q01_paper_rewrite": paper.Q01_PAPER_REWRITE,
    "cte_tag_original": paper.TestCteTagExample.ORIGINAL,
    "cte_tag_rewrite": paper.TestCteTagExample.PAPER_REWRITE,
}


@pytest.fixture(scope="module")
def row_session(tpcds_store) -> Session:
    return Session(tpcds_store, OptimizerConfig(engine="row"))


@pytest.fixture(scope="module")
def batch_session(tpcds_store) -> Session:
    return Session(tpcds_store, OptimizerConfig(engine="batch"))


@pytest.fixture(scope="module")
def compiled_py_session(tpcds_store) -> Session:
    return Session(
        tpcds_store, OptimizerConfig(engine="compiled", vectors="python")
    )


@pytest.fixture(scope="module")
def compiled_np_session(tpcds_store) -> Session:
    return Session(
        tpcds_store, OptimizerConfig(engine="compiled", vectors="numpy")
    )


def assert_engines_agree(row_session: Session, batch_session: Session, sql: str):
    row_result = row_session.execute(sql)
    batch_result = batch_session.execute(sql)
    assert row_result.sorted_rows() == batch_result.sorted_rows()
    for metric in EQUAL_METRICS:
        assert getattr(row_result.metrics, metric) == getattr(
            batch_result.metrics, metric
        ), f"{metric} diverged between engines"
    return row_result, batch_result


@pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
def test_workload_query_identical(name, row_session, batch_session):
    assert_engines_agree(row_session, batch_session, WORKLOAD_QUERIES[name])


@pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
def test_workload_query_compiled_python_identical(
    name, row_session, compiled_py_session
):
    """List columns are held to byte-identical rows: the block
    operators evaluate the same scalar arithmetic in the same order as
    the row engine, a list comprehension per expression node."""
    assert_engines_agree(row_session, compiled_py_session, WORKLOAD_QUERIES[name])


@pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
def test_workload_query_compiled_numpy_agrees(
    name, row_session, compiled_np_session
):
    """NumPy columns are held to byte-identical rows too — float sums
    fold in lane order — and to every scan metric.  Falls back to
    list columns when NumPy is unavailable, in which case this still
    checks the fallback path end to end."""
    assert_engines_agree(row_session, compiled_np_session, WORKLOAD_QUERIES[name])


@pytest.mark.parametrize("name", sorted(PAPER_EXAMPLES))
def test_paper_example_identical(name, row_session, batch_session):
    assert_engines_agree(row_session, batch_session, PAPER_EXAMPLES[name])


@pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
def test_workload_query_identical_without_fusion(name, tpcds_store):
    """The baseline (unfused) plans exercise different operator shapes
    — duplicated scans, join-backs — so diff those too."""
    row_s = Session(tpcds_store, OptimizerConfig(enable_fusion=False, engine="row"))
    batch_s = Session(tpcds_store, OptimizerConfig(enable_fusion=False, engine="batch"))
    assert_engines_agree(row_s, batch_s, WORKLOAD_QUERIES[name])


def test_tiny_block_size_still_identical(tpcds_store):
    """Block boundaries must be invisible: a pathological 3-row block
    size produces the same answers and metrics as the row engine."""
    row_s = Session(tpcds_store, OptimizerConfig(engine="row"))
    tiny_s = Session(tpcds_store, OptimizerConfig(engine="batch", batch_rows=3))
    for name in ("q01", "q09", "q23", "q28", "q65", "q95"):
        assert_engines_agree(row_s, tiny_s, STUDIED_QUERIES[name])


@pytest.mark.parametrize("vectors", ["python", "numpy"])
def test_compiled_without_fusion_identical(vectors, tpcds_store):
    """Unfused (baseline) plans pipeline differently — duplicated
    scans, join-backs — so diff the compiled engine on those shapes
    too, on the scan-heavy studied queries."""
    row_s = Session(tpcds_store, OptimizerConfig(enable_fusion=False, engine="row"))
    compiled_s = Session(
        tpcds_store,
        OptimizerConfig(enable_fusion=False, engine="compiled", vectors=vectors),
    )
    for name in ("q09", "q28", "q88", "q65"):
        assert_engines_agree(row_s, compiled_s, STUDIED_QUERIES[name])


@pytest.mark.parametrize("vectors", ["python", "numpy"])
def test_tiny_block_compiled_still_identical(vectors, tpcds_store):
    """Block boundaries must be invisible in both representations:
    3-row blocks match the row engine."""
    row_s = Session(tpcds_store, OptimizerConfig(engine="row"))
    tiny_s = Session(
        tpcds_store,
        OptimizerConfig(engine="compiled", vectors=vectors, batch_rows=3),
    )
    for name in ("q01", "q09", "q28", "q65"):
        assert_engines_agree(row_s, tiny_s, STUDIED_QUERIES[name])


def _null_salted_store():
    """A store whose group keys, filter columns, and aggregate inputs
    all contain NULLs — the axis where vectorized masks diverge first."""
    from repro.storage.columnar import Store

    rows = []
    for i in range(600):  # above the vectorized-GroupBy row gate
        key = None if i % 11 == 0 else i % 7
        cat = None if i % 13 == 0 else ("ab", "cd", None, "ef")[i % 4]
        qty = None if i % 5 == 0 else i % 97
        price = None if i % 17 == 0 else round((i * 37 % 1000) / 4.0, 2)
        rows.append((i, key, cat, qty, price))
    store = Store()
    store.put(
        simple_table(
            "sales",
            [
                ("id", DataType.INTEGER),
                ("grp", DataType.INTEGER),
                ("cat", DataType.STRING),
                ("qty", DataType.INTEGER),
                ("price", DataType.DOUBLE),
            ],
            rows,
            primary_key=("id",),
        )
    )
    return store


NULL_SALTED_QUERIES = {
    "keyed_int": (
        "SELECT s.grp, count(*), sum(s.qty), count(DISTINCT s.qty) "
        "FROM sales s GROUP BY s.grp"
    ),
    "keyed_string": (
        "SELECT s.cat, min(s.qty), max(s.qty) FROM sales s GROUP BY s.cat"
    ),
    "multi_key": (
        "SELECT s.grp, s.cat, count(s.qty) FROM sales s GROUP BY s.grp, s.cat"
    ),
    "float_aggs": (
        "SELECT s.grp, avg(s.price), sum(s.price) FROM sales s GROUP BY s.grp"
    ),
    "filtered": (
        "SELECT s.grp, count(*) FROM sales s "
        "WHERE s.qty > 10 AND s.cat <> 'cd' GROUP BY s.grp"
    ),
    "scalar_agg": (
        "SELECT count(*), count(s.qty), sum(s.qty), min(s.grp) FROM sales s"
    ),
    "scalar_float_aggs": (
        "SELECT sum(s.price), avg(s.price), stddev_samp(s.price), "
        "sum(DISTINCT s.price) FROM sales s WHERE s.qty > 3"
    ),
    "limit_after_group": (
        "SELECT s.grp, count(*) FROM sales s GROUP BY s.grp LIMIT 3"
    ),
}


@pytest.mark.parametrize("name", sorted(NULL_SALTED_QUERIES))
@pytest.mark.parametrize("vectors", ["python", "numpy"])
def test_null_salted_compiled_agrees(name, vectors):
    """NULL-heavy grouping/filtering/aggregation: the compiled engine
    (both vector backends) must match the row engine, including NULL
    group slots, first-seen group order under LIMIT, and NULL-skipping
    aggregate semantics.  Float aggregates are held exact too."""
    store = _null_salted_store()
    row_s = Session(store, OptimizerConfig(engine="row"))
    compiled_s = Session(
        store, OptimizerConfig(engine="compiled", vectors=vectors)
    )
    assert_engines_agree(row_s, compiled_s, NULL_SALTED_QUERIES[name])


@pytest.mark.parametrize("engine", ["row", "batch", "compiled"])
def test_signed_zero_literals_do_not_share_a_memoized_closure(engine):
    """``x * 0.0`` then, on a fresh store whose column ids restart,
    ``x * -0.0``: the expression-keyed block memo must not serve the
    first literal's closure for the second (-0.0 == 0.0 as floats)."""
    from repro.storage.columnar import Store

    def product_sign(zero: str) -> float:
        store = Store()
        store.put(simple_table("t", [("x", DataType.DOUBLE)], [(2.0,)]))
        session = Session(store, OptimizerConfig(engine=engine))
        ((value,),) = session.execute(f"SELECT x * {zero} FROM t").rows
        assert value == 0.0
        return math.copysign(1.0, value)

    assert product_sign("0.0") == 1.0
    assert product_sign("-0.0") == -1.0


def test_engine_knob_validated():
    with pytest.raises(ValueError):
        OptimizerConfig(engine="turbo")
    with pytest.raises(ValueError):
        OptimizerConfig(batch_rows=0)


def test_state_metrics_populated_by_batch_engine(batch_session):
    """Stateful operators register their resident rows in the batch
    engine too (the §V.C memory axis stays observable)."""
    result = batch_session.execute(STUDIED_QUERIES["q65"])
    assert result.metrics.peak_state_rows > 0
    assert result.metrics.total_state_rows >= result.metrics.peak_state_rows
