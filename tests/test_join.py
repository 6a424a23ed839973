"""The block engine's one join (``batch_executor._run_join``) against
the row engine.

* a hypothesis property over hand-built ``Join`` plans — every kind,
  every condition shape, keys mixing int / float / bool / NULL / NaN /
  ±0.0 — at three block sizes over both column representations: rows
  in order, ``peak_state_rows``, and the state released at the end;
* the NaN rule: ``=`` never matches NaN, so neither does an equi join
  or ``IN (SELECT …)``, whichever objects the NaNs are.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import And, ColumnRef, Comparison
from repro.algebra.operators import Join, JoinKind, Scan, Values
from repro.algebra.schema import ColumnAllocator
from repro.algebra.types import DataType
from repro.engine.batch_executor import execute_batch
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import Store
from tests.conftest import simple_table

_I, _D, _B = DataType.INTEGER, DataType.DOUBLE, DataType.BOOLEAN
_SHARED_NAN = float("nan")

#: Key values per column kind, few enough that keys collide; a fresh
#: ``float("nan")`` per draw next to one NaN object shared by every row
#: and both sides.  A "mixed" column stays a list in every
#: representation; the others scan as arrays under ``vectors="numpy"``.
_KEYS = {
    "int": st.integers(0, 2),
    "float": st.one_of(
        st.sampled_from([_SHARED_NAN, 0.0, -0.0, 1.0]),
        st.builds(float, st.just("nan")),
    ),
    "bool": st.booleans(),
}
_KEYS["mixed"] = st.one_of(*_KEYS.values())
_DTYPES = {"int": _I, "float": _D, "bool": _B, "mixed": _D}

_SHAPES = ("equi", "multi_key", "residual_only", "equi_residual")


@st.composite
def _side(draw):
    """Column kinds of ``(k1, k2)`` and up to a dozen ``(k1, k2, v)`` rows."""
    kinds = draw(st.lists(st.sampled_from(sorted(_KEYS)), min_size=2, max_size=2))
    key = [st.one_of(st.none(), _KEYS[k]) for k in kinds]
    row = st.tuples(*key, st.one_of(st.none(), st.integers(0, 4)))
    return kinds, draw(st.lists(row, max_size=12))


def _child(source, table, side, alloc, store):
    kinds, rows = side
    names = ("k1", "k2", "v")
    cols = tuple(
        alloc.fresh(name, dtype)
        for name, dtype in zip(names, [_DTYPES[k] for k in kinds] + [_I])
    )
    if source == "values":
        return Values(cols, tuple(rows)), cols
    layout = [(name, col.dtype) for name, col in zip(names, cols)]
    store.put(simple_table(table, layout, rows, partition_rows=5))
    return Scan(table, cols, names), cols


def _condition(shape, left, right):
    def eq(i):
        return Comparison("=", ColumnRef(left[i]), ColumnRef(right[i]))

    lt = Comparison("<", ColumnRef(left[2]), ColumnRef(right[2]))
    return {
        "equi": eq(0),
        "multi_key": And((eq(0), eq(1))),
        "residual_only": lt,
        "equi_residual": And((eq(0), lt)),
    }[shape]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_join_matches_the_row_engine(data):
    kind = data.draw(st.sampled_from(list(JoinKind)))
    shape = None if kind is JoinKind.CROSS else data.draw(st.sampled_from(_SHAPES))
    source = data.draw(st.sampled_from(["values", "scan"]))
    store, alloc = Store(), ColumnAllocator()
    left, left_cols = _child(source, "l", data.draw(_side()), alloc, store)
    right, right_cols = _child(source, "r", data.draw(_side()), alloc, store)
    condition = None if shape is None else _condition(shape, left_cols, right_cols)
    plan = Join(kind, left, right, condition)

    row_ctx = RunContext(store)
    expected = [repr(r) for r in execute(plan, row_ctx)]
    assert row_ctx._state_rows == 0
    for block_rows in (1, 7, 1024):
        for vectors in ("python", "numpy"):
            ctx = RunContext(store)
            got = [repr(r) for r in execute_batch(plan, ctx, block_rows, vectors)]
            cell = (block_rows, vectors)
            assert got == expected, cell
            assert ctx.metrics.peak_state_rows == row_ctx.metrics.peak_state_rows, cell
            assert ctx._state_rows == 0, cell


_ENGINES = {
    "row": OptimizerConfig(engine="row"),
    "batch": OptimizerConfig(),
    "batch-lists": OptimizerConfig(vectors="python"),
}


@pytest.mark.parametrize("shared", [False, True], ids=["distinct_nans", "one_nan"])
@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_nan_equi_join_keys_never_match(engine, shared):
    """A NaN key joins nothing, as a NULL key does.  A hash table alone
    matches a NaN by object identity: the row engine and the former list
    join returned (1, 1) and (3, 3) where the array join returned only
    (2, 2)."""
    first = float("nan")
    second = first if shared else float("nan")
    store = Store()
    columns = [("id", _I), ("k", _D)]
    store.put(simple_table("a", columns, [(1, first), (2, 1.0), (3, second)]))
    store.put(simple_table("b", columns, [(7, first), (8, 1.0), (9, second)]))
    queries = {
        "SELECT x.id, y.id FROM a x JOIN a y ON x.k = y.k": [(2, 2)],
        "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k": [(2, 8)],
        "SELECT a.id FROM a WHERE a.k IN (SELECT b.k FROM b)": [(2,)],
    }
    session = Session(store, _ENGINES[engine])
    for sql, expected in queries.items():
        assert session.execute(sql).sorted_rows() == expected, sql
