"""The keyed-state core (repro.engine.keyed) and the four operators
that call it — GroupBy, MarkDistinct, Window, Sort — in both block
engines.

* a hypothesis property for the core itself, against the row engine's
  ``Aggregator`` loop, over every column representation;
* the cancel / deadline / state-budget points of the keyed operators
  over inputs with no scan boundary;
* the NaN key rules (every NaN one key; ``=`` never matches NaN) on
  every engine cell, fused and unfused.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import TRUE, ColumnRef
from repro.algebra.operators import (
    AggregateAssignment,
    GroupBy,
    MarkDistinct,
    Sort,
    SortKey,
    Values,
    Window,
    WindowAssignment,
)
from repro.algebra.schema import ColumnAllocator
from repro.algebra.types import DataType
from repro.engine.batch_executor import execute_batch, execute_blocks
from repro.engine.compiled import execute_compiled
from repro.engine.evaluator import Aggregator, canon_key
from repro.engine.executor import execute
from repro.engine.keyed import GroupState
from repro.engine.metrics import ResourceLimits, RunContext
from repro.engine.session import Session
from repro.engine.vectors import delist, numpy_enabled, vector_from_values
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import Store
from tests.test_compiled_engine import (
    _nan_canonical_rows,
    _store_with_prices,
    _vector_fetch,
)

_I, _D, _B, _S = (
    DataType.INTEGER,
    DataType.DOUBLE,
    DataType.BOOLEAN,
    DataType.STRING,
)
_NAN = float("nan")

# -- the core, against the Aggregator loop ---------------------------------

_VALUES = {
    _I: st.one_of(
        st.integers(-4, 4), st.sampled_from([2**61, -(2**61), 2**62, -(2**62)])
    ),
    _D: st.one_of(
        st.sampled_from([0.0, -0.0, 1.5, -2.25, _NAN, float("nan"), 1e300]),
        st.floats(-8, 8, allow_nan=False),
    ),
    _B: st.booleans(),
    _S: st.sampled_from(["a", "b", "", "zz"]),
}
_NUMERIC_FUNCS = ("count", "sum", "avg", "min", "max", "stddev_samp")
_FUNCS = {_I: _NUMERIC_FUNCS, _D: _NUMERIC_FUNCS, _B: ("count", "min", "max"),
          _S: ("count", "min", "max")}


def _column(dtype, n, wide=False):
    """``n`` values of ``dtype`` salted with NULL; ``wide`` keys are
    nearly unique."""
    values = st.integers(0, 10**6) if wide else _VALUES[dtype]
    return st.lists(st.one_of(st.none(), values), min_size=n, max_size=n)


@st.composite
def _keyed_input(draw):
    n = draw(st.integers(0, 40))
    key_types = draw(st.lists(st.sampled_from([_I, _D, _B, _S]), min_size=1, max_size=2))
    wide = draw(st.booleans())
    keys = [draw(_column(t, n, wide and t is _I)) for t in key_types]
    value_type = draw(st.sampled_from([_I, _D, _B, _S]))
    values = draw(_column(value_type, n))
    mask = draw(st.lists(st.sampled_from([True, True, False, None]), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        # Every lane of the first group masked out.
        mask = [m if k != keys[0][0] else False for m, k in zip(mask, keys[0])]
    return key_types, keys, value_type, values, mask


def _reference(keys, values, mask, specs):
    """The row engine's keyed GroupBy loop."""
    groups: dict[tuple, list[Aggregator]] = {}
    for i, raw in enumerate(zip(*keys)):
        key = tuple(canon_key(v) for v in raw)
        accs = groups.get(key)
        if accs is None:
            accs = groups[key] = [Aggregator(f, d) for f, d, _, _ in specs]
        for acc, (_, _, arg_slot, mask_slot) in zip(accs, specs):
            if mask_slot is not None and mask[i] is not True:
                continue
            if arg_slot is None:
                acc.add_count_star()
            else:
                acc.add(values[i])
    return [key + tuple(acc.result() for acc in accs) for key, accs in groups.items()]


def _same(expected, actual) -> bool:
    if type(expected) is not type(actual):
        return False
    if isinstance(expected, float):
        if expected != expected or actual != actual:
            return expected != expected and actual != actual
        return math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-9)
    return expected == actual


@pytest.mark.parametrize("representation", ["lists", "streamed", "vectors", "numpy-disabled"])
@given(data=_keyed_input())
@settings(max_examples=120, deadline=None)
def test_core_matches_the_aggregator_loop(representation, data):
    """Same groups in first-seen order, same values *and Python types*
    (floats to the oracle's 1e-9), whatever the column representation."""
    key_types, keys, value_type, values, mask = data
    n = len(values)
    # slot 0: the argument, slot 1: the mask
    specs = [("count", False, None, None), ("count", False, None, 1)]
    for func in _FUNCS[value_type]:
        specs += [(func, False, 0, None), (func, False, 0, 1), (func, True, 0, 1)]
    expected = _reference(keys, values, mask, specs)

    environ = {"REPRO_DISABLE_NUMPY": "1"} if representation == "numpy-disabled" else {}
    with mock.patch.dict(os.environ, environ):
        cols = [*keys, values, mask]
        if representation != "lists" and representation != "streamed":
            types = [*key_types, value_type, _B]
            cols = [vector_from_values(c, t) or c for c, t in zip(cols, types)]
        state = GroupState(specs)
        step = 7 if representation == "streamed" else max(n, 1)
        for start in range(0, max(n, 1), step):
            block = [c[start : start + step] for c in cols]
            state.update(block[: len(keys)], block[len(keys) :], len(block[-1]))
        out = [delist(c) for c in state.columns()]
    actual = list(zip(*out)) if state.size else []
    assert len(actual) == len(expected) == state.size
    for want, got in zip(expected, actual):
        assert len(want) == len(got)
        assert all(map(_same, want, got)), (want, got)


# -- hand-built plans over Values: no scan, so no scan checkpoint ----------


def _values(rows=600, groups=40):
    alloc = ColumnAllocator()
    k = alloc.fresh("k", _I)
    v = alloc.fresh("v", _I)
    return Values((k, v), tuple((i % groups, i) for i in range(rows))), alloc, k, v


def _group_by(child, alloc, key, arg, name):
    target = alloc.fresh(name, _I)
    agg = AggregateAssignment(target, "sum", ColumnRef(arg), TRUE, False)
    return GroupBy(child, (key,), (agg,)), target


def _keyed_plans(over_group_by=True):
    """One plan per keyed operator — GroupBy, MarkDistinct, Window, Sort
    — over a keyed GroupBy's output (40 rows), or straight over the
    600-row ``Values``."""
    child, alloc, k, total = _values()
    if over_group_by:
        child, total = _group_by(child, alloc, k, total, "total")
    outer, _ = _group_by(child, alloc, k, total, "again")
    window = Window(
        child, (k,), (WindowAssignment(alloc.fresh("w", _I), "max", ColumnRef(total)),)
    )
    marked = MarkDistinct(child, (k,), alloc.fresh("m", _B), TRUE)
    ordered = Sort(child, (SortKey(ColumnRef(total), False),))
    return {"GroupBy": outer, "MarkDistinct": marked, "Window": window, "Sort": ordered}


def _block_streams(plan, ctx, block_rows=8):
    """The plan's block stream in each block engine (no ``_iter_rows``
    on top: the operator itself must be the checkpoint)."""
    yield "batch", lambda: execute_blocks(plan, ctx, block_rows)
    if numpy_enabled():
        yield "compiled", lambda: _vector_fetch(plan, ctx, block_rows)


@pytest.mark.parametrize("name", ["GroupBy", "MarkDistinct", "Window", "Sort"])
def test_keyed_operators_match_the_row_engine_in_order(name):
    plan = _keyed_plans()[name]
    expected = list(execute(plan, RunContext(Store())))
    assert list(execute_batch(plan, RunContext(Store()), 8)) == expected
    for vectors in ("python", "numpy"):
        ctx = RunContext(Store())
        assert list(execute_compiled(plan, ctx, 8, vectors)) == expected
        assert ctx.metrics.breakers_batch == 0  # "python" is the batch engine


@pytest.mark.parametrize("name", ["GroupBy", "Window"])
def test_keyed_operators_are_deadline_and_cancel_points(name):
    """A keyed operator over a GroupBy's output sees no scan boundary;
    its own block-consumption loop must check the deadline and the
    cancel flag (on the parent commit the batch GroupBy ran to the end)."""
    plan = _keyed_plans()[name]
    ctx = RunContext(Store(), limits=ResourceLimits(timeout_ms=0))
    for _, blocks in _block_streams(plan, ctx):
        with pytest.raises(QueryTimeoutError) as info:
            list(blocks())
        frames = [frame.name for frame in info.traceback]
        assert "_run_group_by" in frames  # the innermost keyed operator
    ctx = RunContext(Store())
    ctx.cancel()
    for _, blocks in _block_streams(plan, ctx):
        with pytest.raises(QueryCancelledError):
            list(blocks())


@pytest.mark.parametrize("name", ["GroupBy", "MarkDistinct", "Window", "Sort"])
def test_keyed_operators_respect_the_state_budget(name):
    """40 groups / distinct keys, 600 buffered Window / Sort rows."""
    plan = _keyed_plans(over_group_by=False)[name]
    for limit, fits in ((30, False), (600, True)):
        ctx = RunContext(Store(), limits=ResourceLimits(max_state_rows=limit))
        for _, blocks in _block_streams(plan, ctx):
            if fits:
                assert sum(n for _, n in blocks()) == (40 if name == "GroupBy" else 600)
                assert ctx._state_rows == 0
            else:
                with pytest.raises(ResourceExhaustedError, match="max_state_rows"):
                    list(blocks())


# -- NaN keys ----------------------------------------------------------------

_CELLS = (
    OptimizerConfig(engine="row"),
    OptimizerConfig(engine="batch"),
    OptimizerConfig(engine="compiled", vectors="python"),
    OptimizerConfig(engine="compiled", vectors="numpy"),
)
_NAN_PRICES = [1.0, _NAN, 2.0, _NAN, 1.0, None, float("nan"), 3.0, None, 2.0] * 8


def test_nan_window_partitions_agree_on_every_cell():
    """Every NaN is one partition, as it is one group (``canon_key``) —
    on the parent commit the row and batch engines partitioned NaN by
    object identity, which changes once values pass through an array."""
    alloc = ColumnAllocator()
    k = alloc.fresh("k", _D)
    v = alloc.fresh("v", _I)
    rows = tuple((p, i) for i, p in enumerate(_NAN_PRICES))
    plan = Window(
        Values((k, v), rows),
        (k,),
        (WindowAssignment(alloc.fresh("c", _I), "count", None),),
    )
    expected = {1.0: 16, 2.0: 16, 3.0: 8, None: 16, "NaN": 24}
    streams = {
        "row": lambda: execute(plan, RunContext(Store())),
        "batch": lambda: execute_batch(plan, RunContext(Store()), 16),
        "compiled+python": lambda: execute_compiled(plan, RunContext(Store()), 16, "python"),
        "compiled+numpy": lambda: execute_compiled(plan, RunContext(Store()), 16, "numpy"),
    }
    for cell, rows_of in streams.items():
        out = list(rows_of())
        assert [r[:2] for r in _nan_canonical_rows(out)] == [
            r[:2] for r in _nan_canonical_rows(rows)
        ], cell
        for price, _, count in out:
            assert count == expected["NaN" if price != price else price], cell


@pytest.mark.parametrize("fusion", [True, False])
def test_groupby_join_to_window_drops_nan_keys_like_the_join(fusion):
    """``t.price = g.p`` drops NaN keys as it drops NULL keys; the
    Window that replaces the join must too (its guard was only NOT
    NULL, so fusion returned 32 rows where the join returns 20)."""
    store = _store_with_prices(_NAN_PRICES)
    sql = (
        "SELECT t.id FROM t, (SELECT t2.price AS p, avg(t2.id) AS a "
        "FROM t t2 GROUP BY t2.price) g WHERE t.price = g.p AND t.id >= g.a"
    )
    results = []
    for config in _CELLS:
        session = Session(store, replace(config, enable_fusion=fusion))
        result = session.execute(sql)
        assert ("groupby_join_to_window" in result.fired_rules) is fusion
        results.append(result.sorted_rows())
    assert len(results[0]) == 20
    assert all(rows == results[0] for rows in results)
