"""Differential tests: row vs. batch vs. compiled execution engines.

Every workload query (and the paper-example SQL) must produce the same
result multiset and byte-identical scan/spool metrics under every
engine — batch and compiled execution are pure execution-speed
changes, invisible to everything the paper measures except wall time.

The compiled engine's pure-Python vector backend must match the row
engine byte-for-byte.  The NumPy backend is granted float latitude
(``canonical_rows``, 10 significant digits): array reductions are
pairwise, so Sum/Avg/Stddev over floats differ from sequential
accumulation in the last ulp.  Integer results stay exact either way.
"""

from __future__ import annotations

import math

import pytest

from repro.algebra.types import DataType
from repro.engine.session import Session
from repro.engine.vectors import numpy_enabled
from repro.optimizer.config import OptimizerConfig
from repro.testing.oracle import canonical_rows
from repro.tpcds.queries import STUDIED_QUERIES, WORKLOAD_QUERIES
from tests import test_paper_examples as paper
from tests.conftest import simple_table

#: Metrics that must match exactly between the engines.
EQUAL_METRICS = (
    "bytes_scanned",
    "rows_scanned",
    "partitions_read",
    "spooled_rows",
    "spool_read_rows",
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


def assert_compiled_agrees(
    row_session: Session, compiled_session: Session, sql: str, exact: bool = True
):
    """Differential check against the compiled engine.  ``exact=False``
    compares via ``canonical_rows`` (the NumPy float latitude); metrics
    must match exactly either way."""
    row_result = row_session.execute(sql)
    compiled_result = compiled_session.execute(sql)
    if exact:
        assert row_result.sorted_rows() == compiled_result.sorted_rows()
    else:
        assert canonical_rows(row_result.rows) == canonical_rows(
            compiled_result.rows
        )
    for metric in EQUAL_METRICS:
        assert getattr(row_result.metrics, metric) == getattr(
            compiled_result.metrics, metric
        ), f"{metric} diverged between row and compiled engines"
    return row_result, compiled_result


@pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
def test_workload_query_identical(name, row_session, batch_session):
    assert_engines_agree(row_session, batch_session, WORKLOAD_QUERIES[name])


@pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
def test_workload_query_compiled_python_identical(
    name, row_session, compiled_py_session
):
    """The pure-Python compiled backend is held to byte-identical rows:
    it evaluates the same scalar arithmetic in the same order as the
    row engine, just through fused per-pipeline kernels."""
    assert_compiled_agrees(
        row_session, compiled_py_session, WORKLOAD_QUERIES[name], exact=True
    )


@pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
def test_workload_query_compiled_numpy_agrees(
    name, row_session, compiled_np_session
):
    """The NumPy backend gets canonical-rows float latitude (pairwise
    reductions) but must still match every scan/spool metric exactly.
    Falls back to the pure-Python vectors when NumPy is unavailable,
    in which case this still checks the fallback path end to end."""
    assert_compiled_agrees(
        row_session, compiled_np_session, WORKLOAD_QUERIES[name], exact=False
    )


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


@pytest.mark.parametrize("name", ["q65", "q23", "q95"])
def test_spooled_plans_identical(name, tpcds_store):
    """Spooling plans exercise the Spool operator in both engines; the
    spool write/read metrics must agree exactly."""
    spool = dict(enable_fusion=False, enable_spooling=True)
    row_s = Session(tpcds_store, OptimizerConfig(engine="row", **spool))
    batch_s = Session(tpcds_store, OptimizerConfig(engine="batch", **spool))
    row_result, batch_result = assert_engines_agree(
        row_s, batch_s, STUDIED_QUERIES[name]
    )
    if name in ("q65", "q23"):
        assert batch_result.metrics.spooled_rows > 0


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
        assert_compiled_agrees(
            row_s, compiled_s, STUDIED_QUERIES[name], exact=(vectors == "python")
        )


@pytest.mark.parametrize("vectors", ["python", "numpy"])
def test_tiny_block_compiled_still_identical(vectors, tpcds_store):
    """Kernel loop boundaries must be invisible too: 3-row blocks
    through the fused kernels match the row engine."""
    row_s = Session(tpcds_store, OptimizerConfig(engine="row"))
    tiny_s = Session(
        tpcds_store,
        OptimizerConfig(engine="compiled", vectors=vectors, batch_rows=3),
    )
    for name in ("q01", "q09", "q28", "q65"):
        assert_compiled_agrees(
            row_s, tiny_s, STUDIED_QUERIES[name], exact=(vectors == "python")
        )


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
        "FROM sales s GROUP BY s.grp",
        True,
    ),
    "keyed_string": (
        "SELECT s.cat, min(s.qty), max(s.qty) FROM sales s GROUP BY s.cat",
        True,
    ),
    "multi_key": (
        "SELECT s.grp, s.cat, count(s.qty) FROM sales s GROUP BY s.grp, s.cat",
        True,
    ),
    "float_aggs": (
        "SELECT s.grp, avg(s.price), sum(s.price) FROM sales s GROUP BY s.grp",
        False,
    ),
    "filtered": (
        "SELECT s.grp, count(*) FROM sales s "
        "WHERE s.qty > 10 AND s.cat <> 'cd' GROUP BY s.grp",
        True,
    ),
    "scalar_agg": (
        "SELECT count(*), count(s.qty), sum(s.qty), min(s.grp) FROM sales s",
        True,
    ),
    "limit_after_group": (
        "SELECT s.grp, count(*) FROM sales s GROUP BY s.grp LIMIT 3",
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(NULL_SALTED_QUERIES))
@pytest.mark.parametrize("vectors", ["python", "numpy"])
def test_null_salted_compiled_agrees(name, vectors):
    """NULL-heavy grouping/filtering/aggregation: the compiled engine
    (both vector backends) must match the row engine, including NULL
    group slots, first-seen group order under LIMIT, and NULL-skipping
    aggregate semantics.  Integer aggregates are held exact even under
    NumPy."""
    store = _null_salted_store()
    sql, int_exact = NULL_SALTED_QUERIES[name]
    row_s = Session(store, OptimizerConfig(engine="row"))
    compiled_s = Session(
        store, OptimizerConfig(engine="compiled", vectors=vectors)
    )
    exact = int_exact or vectors == "python"
    assert_compiled_agrees(row_s, compiled_s, sql, exact=exact)


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
