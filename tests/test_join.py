"""The block engine's one join (``batch_executor._run_join``) against
the row engine.

* a hypothesis property over hand-built ``Join`` plans — every kind,
  every condition shape, keys mixing int / float / bool / NULL / NaN /
  ±0.0 — at three block sizes over both column representations: rows
  in order, ``peak_state_rows``, and the state released at the end;
* the NaN rule: ``=`` never matches NaN, so neither does an equi join
  or ``IN (SELECT …)``, whichever objects the NaNs are;
* the probe on integer keys and codes, by directory or binary search,
  against a nested loop, with slices that end inside lanes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import And, ColumnRef, Comparison
from repro.algebra.operators import Join, JoinKind, Scan, Values
from repro.algebra.schema import ColumnAllocator
from repro.algebra.types import DataType
from repro.engine import batch_executor
from repro.engine.batch_executor import execute_batch
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.engine.vectors import np
from repro.storage.columnar import NumpyVector, Store
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


# -- the probe: a directory or a binary search, against a nested loop ----------

#: Integer keys far apart: a build side that holds one of them spans far
#: more than the directory bound and probes by binary search.
_FAR = [2**62 - 1, -(2**62 - 1), 5000, -5000]
_PROBED_KINDS = [JoinKind.INNER, JoinKind.LEFT, JoinKind.SEMI, JoinKind.ANTI]


def _int_rows(key):
    """Up to a dozen ``(k, v, id)`` rows: ``k`` from ``key`` or NULL,
    ``id`` the row's insertion position."""
    row = st.tuples(st.one_of(st.none(), key), st.one_of(st.none(), st.integers(0, 3)))
    return st.lists(row, max_size=12).map(
        lambda rows: [(k, v, i) for i, (k, v) in enumerate(rows)]
    )


def _int_child(source, table, rows, alloc, store):
    cols = tuple(alloc.fresh(name, _I) for name in ("k", "v", "id"))
    if source == "values":  # list columns: the join probes codes
        return Values(cols, tuple(rows)), cols
    store.put(simple_table(table, [(c.name, _I) for c in cols], rows, partition_rows=5))
    return Scan(table, cols, ("k", "v", "id")), cols


def _nested_loop(kind, probe, build, residual):
    """The reference: every probe row in order against every build row
    in insertion order."""
    out = []
    for p in probe:
        matches = [
            b
            for b in build
            if p[0] is not None
            and p[0] == b[0]
            and (not residual or (p[1] is not None and b[1] is not None and p[1] < b[1]))
        ]
        if kind is JoinKind.SEMI:
            out += [p] if matches else []
        elif kind is JoinKind.ANTI:
            out += [] if matches else [p]
        else:
            out += [p + b for b in matches]
            if kind is JoinKind.LEFT and not matches:
                out.append(p + (None, None, None))
    return out


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_probe_pairs_match_a_nested_loop(data):
    """Integer keys dense or sparse (either side of the directory's span
    bound), negative, at ±(2**62 - 1), duplicated, NULL, absent from an
    empty build, or probed outside the build's range; array or list
    (codes) columns on either side; a slice bound of one or three pairs
    over probe blocks of one or four lanes, so slices end inside
    lanes."""
    pool = data.draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    pool += data.draw(st.lists(st.sampled_from(_FAR), max_size=2))
    build = data.draw(_int_rows(st.sampled_from(pool)))
    probe = data.draw(_int_rows(st.one_of(st.sampled_from(pool), st.integers(-9, 9))))
    kind = data.draw(st.sampled_from(_PROBED_KINDS))
    residual = data.draw(st.booleans())
    store, alloc = Store(), ColumnAllocator()
    left, l = _int_child(data.draw(st.sampled_from(["scan", "values"])), "l", probe, alloc, store)
    right, r = _int_child(data.draw(st.sampled_from(["scan", "values"])), "r", build, alloc, store)
    condition = Comparison("=", ColumnRef(l[0]), ColumnRef(r[0]))
    if residual:
        condition = And((condition, Comparison("<", ColumnRef(l[1]), ColumnRef(r[1]))))
    plan = Join(kind, left, right, condition)

    expected = _nested_loop(kind, probe, build, residual)
    for pair_slice in (1, 3):
        for block_rows in (1, 4, 1024):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(batch_executor, "_JOIN_PAIR_SLICE", pair_slice)
                got = list(execute_batch(plan, RunContext(store), block_rows))
            assert got == expected, (pair_slice, block_rows)


def _key_index(values, as_codes=False):
    keys = NumpyVector(np.array(values))
    return batch_executor._sort_build_keys(keys, np.arange(len(values)), as_codes)[0]


def test_the_key_domain_picks_the_probe():
    """A directory exactly while the integer keys' span is at most
    ``4 x rows + 1 024``, and for codes whatever the values; float,
    bool and sparser integer keys keep the sorted array."""
    directory = batch_executor._Directory
    rows = 3
    widest = batch_executor._DIRECTORY_DENSITY * rows + batch_executor._DIRECTORY_SLACK
    assert type(_key_index([0, 7, widest - 1])) is directory
    assert type(_key_index([0, 7, widest])) is np.ndarray
    assert type(_key_index([-(2**62 - 1), 2**62 - 1], as_codes=True)) is directory
    assert type(_key_index([0.0, 1.0])) is np.ndarray
    assert type(_key_index([True, False])) is np.ndarray
    assert type(_key_index(np.zeros(0, dtype=np.int64))) is directory
