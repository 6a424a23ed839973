"""The keyed-state core (repro.engine.keyed) and the four operators
that call it — GroupBy, MarkDistinct, Window, Sort — over both column
representations.

* a hypothesis property for the core itself, against the row engine's
  ``Aggregator`` loop, over every column representation, and one for
  its one-group arm (scalar aggregation) fed block by block;
* a hypothesis property for the factorizer's two arms — direct
  address and sort — on both sides of the density rule, against the
  list factorizer;
* scalar GroupBy through the block engine: DISTINCT over many blocks,
  MIN/MAX over NaN across block boundaries, state over empty input;
* a hypothesis property for every keyed operator, and both join sides,
  over streams that mix array and list blocks (a UnionAll of a Scan and
  a Values): rows in order, ``peak_state_rows`` and the state released;
* ``peak_state_rows`` / ``total_state_rows`` of the studied queries,
  identical over arrays and lists;
* the cancel / deadline / state-budget points of the keyed operators
  over inputs with no scan boundary;
* the NaN key rules (every NaN one key; ``=`` never matches NaN) on
  every engine cell, fused and unfused.
"""

from __future__ import annotations

import struct
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import TRUE, ColumnRef, Comparison
from repro.algebra.operators import (
    AggregateAssignment,
    GroupBy,
    Join,
    JoinKind,
    MarkDistinct,
    Scan,
    Sort,
    SortKey,
    UnionAll,
    Values,
    Window,
    WindowAssignment,
)
from repro.algebra.schema import ColumnAllocator
from repro.algebra.types import DataType
from repro.engine.batch_executor import execute_batch, execute_blocks
from repro.engine import keyed
from repro.engine.compiled import execute_compiled
from repro.engine.evaluator import Aggregator, canon_key
from repro.engine.executor import execute
from repro.engine.keyed import GroupState, OneGroup
from repro.engine.metrics import ResourceLimits, RunContext
from repro.engine.session import Session
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import NumpyVector, Store, delist, vector_from_values
from repro.tpcds.queries import STUDIED_QUERIES
from tests.conftest import simple_table
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
    """Equal values of one Python type; floats bit for bit (so ``0.0``
    is not ``-0.0``), every NaN equal to every NaN."""
    if type(expected) is not type(actual):
        return False
    if isinstance(expected, float):
        if expected != expected or actual != actual:
            return expected != expected and actual != actual
        return struct.pack("<d", expected) == struct.pack("<d", actual)
    return expected == actual


@pytest.mark.parametrize("representation", ["lists", "vectors"])
@given(data=_keyed_input())
@settings(max_examples=120, deadline=None)
def test_core_matches_the_aggregator_loop(representation, data):
    """Same groups in first-seen order, same values *and Python types*
    (floats bit for bit), whatever the column representation."""
    key_types, keys, value_type, values, mask = data
    n = len(values)
    # slot 0: the argument, slot 1: the mask
    specs = [("count", False, None, None), ("count", False, None, 1)]
    for func in _FUNCS[value_type]:
        specs += [(func, False, 0, None), (func, False, 0, 1), (func, True, 0, 1)]
    expected = _reference(keys, values, mask, specs)

    cols = [*keys, values, mask]
    if representation == "vectors":
        types = [*key_types, value_type, _B]
        cols = [vector_from_values(c, t) or c for c, t in zip(cols, types)]
    state = GroupState(specs, cols[: len(keys)], cols[len(keys) :], n)
    out = [delist(c) for c in state.columns()]
    actual = list(zip(*out)) if state.size else []
    assert len(actual) == len(expected) == state.size
    for want, got in zip(expected, actual):
        assert len(want) == len(got)
        assert all(map(_same, want, got)), (want, got)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_one_group_matches_the_aggregator_loop(data):
    """The one-group arm (scalar aggregation) fed the lanes in blocks of
    any size, each block a list or a vector — int blocks after float
    ones included — gives the Aggregator loop's results, values and
    Python types (floats bit for bit)."""
    value_type = data.draw(st.sampled_from([_I, _D, _B, _S]))
    n = data.draw(st.integers(0, 40))
    values = data.draw(_column(value_type, n))
    if value_type is _D and data.draw(st.booleans()):
        # Integral lanes as ints: int blocks then meet float blocks.
        values = [
            int(v) if type(v) is float and v.is_integer() and abs(v) < 2**53 else v
            for v in values
        ]
    mask = data.draw(st.lists(st.sampled_from([True, False, None]), min_size=n, max_size=n))
    specs = [("count", False, None, None), ("count", False, None, 1)]
    for func in _FUNCS[value_type]:
        specs += [(func, False, 0, None), (func, False, 0, 1)]
    rows = _reference([[None] * n], values, mask, specs)  # one group, key NULL
    if rows:
        expected = rows[0][1:]
    else:
        expected = tuple(Aggregator(f, d).result() for f, d, _, _ in specs)
    state = OneGroup(specs)
    start = 0
    while start < n:
        stop = data.draw(st.integers(start + 1, n))
        block = [values[start:stop], mask[start:stop]]
        if data.draw(st.booleans()):
            dtype = _I if all(type(v) is int for v in block[0] if v is not None) else value_type
            block = [vector_from_values(c, t) or c for c, t in zip(block, (dtype, _B))]
        state.reduce(block, stop - start)
        start = stop
    got = tuple(column[0] for column in state.columns())
    assert all(map(_same, expected, got)), (expected, got)


@pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0], [1.0, 0.0, -0.0, -0.0]])
def test_min_max_over_signed_zeros_follow_lane_order(values):
    """``0.0 == -0.0``, so Python's ``min`` / ``max`` keep whichever
    zero comes first.  Regression: over vectors the keyed arm's
    ``minimum.at`` / ``maximum.at`` and the one-group arm's
    ``data.min()`` / ``.max()`` returned ``-0.0`` over ``[0.0, -0.0]``,
    where the lists and the row engine give ``0.0``."""
    n = len(values)
    specs = [("min", False, 0, None), ("max", False, 0, None)]
    expected = _reference([[7] * n], values, [True] * n, specs)[0][1:]
    vector = vector_from_values(values, _D)
    keyed = GroupState(specs, [vector_from_values([7] * n, _I)], [vector], n)
    one = OneGroup(specs)
    one.reduce([vector], n)
    for state in (keyed, one):
        got = tuple(delist(column)[0] for column in state.columns()[-2:])
        assert all(map(_same, expected, got)), (values, expected, got)


def _aggregate_columns(values: list, dtype, funcs) -> list:
    """A GroupState's aggregate columns over one argument column —
    a vector where ``vector_from_values`` makes one — in two groups."""
    n = len(values)
    keys = vector_from_values([i % 2 for i in range(n)], _I)
    arg = vector_from_values(values, dtype) or values
    specs = [(func, False, 0, None) for func in funcs]
    return GroupState(specs, [keys], [arg], n).columns()[1:]


@pytest.mark.parametrize(
    "dtype, values",
    [(_I, [3, None, -4, None, 7, None]), (_D, [1.5, None, -2.25, None, 0.0, None])],
)
def test_exact_keyed_aggregates_emit_vectors(dtype, values):
    """Exact folds over array input emit vectors, so the operators
    above a GroupBy or Window stay on arrays; group 1, all NULL, is a
    NULL lane."""
    funcs = ("count", "sum", "avg", "min", "max")
    columns = _aggregate_columns(values, dtype, funcs)
    assert [type(c) for c in columns] == [NumpyVector] * len(funcs)
    assert [delist(c)[1] for c in columns] == [0, None, None, None, None]
    n = len(values)
    star = GroupState(
        [("count", False, None, None)], [vector_from_values([1] * n, _I)], [], n
    )
    assert type(star.columns()[1]) is NumpyVector


@pytest.mark.parametrize(
    "dtype, values, funcs",
    [
        # A sum that could pass the int64 guard.
        (_I, [2**61, -(2**61), 2**61, 1], ("sum", "avg")),
        # An int AVG whose total a double does not hold exactly.
        (_I, [2**53, 1, 2**53, 1], ("avg",)),
        (_D, [1.0, _NAN, 2.0, 3.0], ("min", "max")),
        (_D, [0.0, 1.0, -0.0, 2.0], ("min", "max")),
        (_B, [True, False, False, True], ("min", "max")),
        (_S, ["b", "a", "c", "d"], ("min", "max")),
    ],
)
def test_inexact_keyed_aggregates_emit_lists(dtype, values, funcs):
    """Where only the Python loop is exact (``keyed._arrays_exact``, an
    int AVG's total beyond 2**53) the aggregate takes the list arm and
    emits a list, equal to the row engine's."""
    columns = _aggregate_columns(values, dtype, funcs)
    assert [type(c) for c in columns] == [list] * len(funcs)
    keys = [[i % 2 for i in range(len(values))]]
    specs = [(func, False, 0, None) for func in funcs]
    expected = _reference(keys, values, [True] * len(values), specs)
    for want, got in zip(expected, zip(*columns)):
        assert all(map(_same, want[1:], got)), (want, got)


# -- factorize: direct address against sort -------------------------------

#: The widest int an array column holds (``columnar._INT_GUARD`` - 1).
_BIG = 2**62 - 1
_FACTORIZE_KINDS = ("int", "int", "extreme", "string", "float")


def _widest(n: int) -> int:
    """The density rule's largest direct-addressed key bound for ``n``
    lanes."""
    return keyed._DIRECTORY_DENSITY * n + keyed._DIRECTORY_SLACK


@st.composite
def _factorize_case(draw):
    """1–3 ``(kind, values)`` key columns over 0–300 lanes: ints whose
    span is drawn around the density bound (NULL and negatives salted
    in), ±(2**62 - 1) extremes, a string list column, floats with NaN,
    ±0.0 and NULL."""
    n = draw(st.integers(0, 300))
    case = []
    for kind in draw(st.lists(st.sampled_from(_FACTORIZE_KINDS), min_size=1, max_size=3)):
        if kind == "string":
            values = _VALUES[_S]
        elif kind == "float":
            values = _VALUES[_D]
        elif kind == "extreme":
            values = st.sampled_from([-_BIG, _BIG, 0, -1])
        else:
            span = draw(
                st.integers(max(1, _widest(n) - 8), _widest(n) + 8) | st.integers(1, 2 * n + 2)
            )
            low = draw(st.integers(-3000, 3000))
            values = st.integers(low, low + span - 1)
        column = draw(st.lists(st.one_of(st.none(), values), min_size=n, max_size=n))
        if kind == "int" and n >= 2 and draw(st.booleans()):
            column[0], column[-1] = low, low + span - 1  # the drawn span exactly
        case.append((kind, column))
    return case


def _at_bound(n: int, past: int) -> list:
    """One int column of ``n`` lanes whose key bound is the density
    rule's for ``n``, plus ``past``."""
    return [("int", [-7] * (n - 1) + [-7 + _widest(n) - 1 + past])]


@contextmanager
def _arms_taken(arms: list):
    """Append to ``arms`` the arm each call of the factorizer's core
    takes, by name."""
    with ExitStack() as stack:
        for arm in ("_first_seen_direct", "_first_seen_sorted"):

            def spy(*args, _run=getattr(keyed, arm), _arm=arm):
                arms.append(_arm)
                return _run(*args)

            stack.enter_context(mock.patch.object(keyed, arm, spy))
        yield


def _as_key_column(kind: str, values: list):
    return values if kind == "string" else vector_from_values(values, _D if kind == "float" else _I)


@given(case=_factorize_case())
@example(case=_at_bound(50, 0))
@example(case=_at_bound(50, 1))
@example(case=[("int", [3, 1, 3, 2]), ("extreme", [_BIG, -_BIG, _BIG, 0]), ("int", [1, 2, 1, 1])])
@settings(max_examples=120, deadline=None)
def test_factorize_arms_agree(case):
    """The direct-address arm, the sort arm (forced: no key bound fits
    a zero rule) and the list factorizer over the delisted columns give
    the same ``(codes, first)`` — codes in first-seen order, ``first``
    each group's first lane — whatever arm each column-combine step
    takes, the re-densify steps before an int64 product could wrap
    included.  A single array column takes the direct arm exactly where
    its key bound (its valid lanes' span, plus one code for NULL) fits
    the rule; a float column's codes are dense, so it always does."""
    n = len(case[0][1])
    cols = [_as_key_column(kind, values) for kind, values in case]
    arms = []
    with _arms_taken(arms):
        codes, first = keyed.factorize(cols, n)
    with mock.patch.object(keyed, "_DIRECTORY_DENSITY", 0), \
            mock.patch.object(keyed, "_DIRECTORY_SLACK", 0):
        forced = keyed.factorize(cols, n)
    listed = keyed.factorize([delist(c) for c in cols], n)
    as_lists = [list(map(int, codes)), list(map(int, first))]
    assert as_lists == [list(map(int, forced[0])), list(map(int, forced[1]))]
    assert as_lists == [listed[0], listed[1]]
    if len(cols) == 1 and n and type(cols[0]) is not list:
        data, valid = cols[0].data, cols[0].valid
        dense = data.dtype.kind == "f"
        if not dense:
            live = data if valid is None else data[valid]
            span = int(live.max()) - int(live.min()) + 1 if live.size else 1
            dense = span + (valid is not None) <= _widest(n)
        assert arms == ["_first_seen_direct" if dense else "_first_seen_sorted"]


@pytest.mark.parametrize(
    "values",
    [
        [None if i % 100 == 99 else 10**6 + i % 7 for i in range(2000)],
        [None] * 5,
    ],
    ids=["one_null_in_100_near_1e6", "all_null"],
)
def test_nullable_int_key_spans_its_valid_lanes(values):
    """A NULL lane's fill value (0) takes no part in the key's span: 7
    values near 10**6 with a NULL in every 100 lanes are 8 dense codes,
    not a million-wide sparse key, and take the direct arm with the sort
    arm's ``(codes, first)``."""
    col = vector_from_values(values, _I)
    assert col.valid is not None
    n = len(values)
    arms = []
    with _arms_taken(arms):
        codes, first = keyed.factorize([col], n)
    assert arms == ["_first_seen_direct"]
    with mock.patch.object(keyed, "_DIRECTORY_DENSITY", 0), \
            mock.patch.object(keyed, "_DIRECTORY_SLACK", 0):
        sorted_codes, sorted_first = keyed.factorize([col], n)
    assert codes.tolist() == sorted_codes.tolist()
    assert first.tolist() == sorted_first.tolist()
    listed = keyed.factorize([values], n)
    assert (codes.tolist(), first.tolist()) == (listed[0], listed[1])


def test_empty_int_key_column_has_one_code_bound():
    codes, bound = keyed._column_codes(vector_from_values([], _I), 0)
    assert codes.tolist() == [] and bound == 1
    assert keyed.factorize([vector_from_values([], _I)], 0) == ([], [])


def test_factorize_re_densifies_through_both_arms():
    """A small int key beside a ±(2**62 - 1) one: before the product
    could wrap, the combined key so far re-densifies by direct address
    and the extreme column by sort; the dense product then takes the
    direct arm."""
    small = vector_from_values([3, 1, 3, 2], _I)
    extreme = vector_from_values([_BIG, -_BIG, _BIG, 0], _I)
    arms = []
    with _arms_taken(arms):
        codes, first = keyed.factorize([small, extreme], 4)
    assert arms == ["_first_seen_direct", "_first_seen_sorted", "_first_seen_direct"]
    assert (codes.tolist(), first.tolist()) == ([0, 1, 0, 2], [0, 1, 3])


# -- streams mixing array and list blocks ----------------------------------
#
# Scans hand out arrays under vectors="numpy"; Values hands out lists
# whatever the mode.  A keyed operator over a UnionAll of both must read
# the stream as one input: two array blocks factorized apart would get
# overlapping group codes.

#: Key values per column kind: few enough that keys collide, with a
#: fresh ``float("nan")`` per draw next to one shared NaN object.
_MIXED_KEYS = {
    "int": st.integers(-2, 2),
    "float": st.one_of(
        st.sampled_from([_NAN, 0.0, -0.0, 1.5]), st.builds(float, st.just("nan"))
    ),
}
_KEY_DTYPES = {"int": _I, "float": _D}
_NAMES = ("k1", "k2", "v")


@st.composite
def _rows(draw, kind):
    key = st.one_of(st.none(), _MIXED_KEYS[kind])
    row = st.tuples(key, key, st.one_of(st.none(), st.integers(0, 4)))
    return draw(st.lists(row, max_size=12))


def _scan(draw, store, alloc, table, kind):
    dtypes = (_KEY_DTYPES[kind], _KEY_DTYPES[kind], _I)
    cols = tuple(alloc.fresh(name, t) for name, t in zip(_NAMES, dtypes))
    layout = list(zip(_NAMES, dtypes))
    store.put(simple_table(table, layout, draw(_rows(kind)), partition_rows=5))
    return Scan(table, cols, _NAMES), cols


def _mixed_stream(draw, store, alloc, values_first):
    """``(UnionAll(Scan, Values), its columns)`` — one key kind for both
    branches, the Scan split over partitions of five rows."""
    kind = draw(st.sampled_from(sorted(_MIXED_KEYS)))
    scan = _scan(draw, store, alloc, "mixed", kind)
    dtypes = [c.dtype for c in scan[1]]
    cols = tuple(alloc.fresh(name, t) for name, t in zip(_NAMES, dtypes))
    branches = [scan, (Values(cols, tuple(draw(_rows(kind)))), cols)]
    if values_first:
        branches.reverse()
    out = tuple(alloc.fresh(name, t) for name, t in zip(_NAMES, dtypes))
    union = UnionAll(tuple(p for p, _ in branches), out, tuple(c for _, c in branches))
    return union, out


def _over_mixed_stream(name, draw, values_first):
    store, alloc = Store(), ColumnAllocator()
    child, (k1, k2, v) = _mixed_stream(draw, store, alloc, values_first)
    if name == "GroupBy":
        distinct_count = AggregateAssignment(
            alloc.fresh("n", _I), "count", ColumnRef(k2), TRUE, True
        )
        distinct_sum = AggregateAssignment(
            alloc.fresh("s", k2.dtype), "sum", ColumnRef(k2), TRUE, True
        )
        total = AggregateAssignment(alloc.fresh("t", _I), "sum", ColumnRef(v))
        return GroupBy(child, (k1,), (distinct_count, distinct_sum, total)), store
    if name == "MarkDistinct":
        return MarkDistinct(child, (k1, k2), alloc.fresh("m", _B), TRUE), store
    if name == "Window":
        functions = (
            WindowAssignment(alloc.fresh("w", _I), "sum", ColumnRef(v)),
            WindowAssignment(alloc.fresh("c", _I), "count", ColumnRef(k2)),
        )
        return Window(child, (k1,), functions), store
    if name == "Sort":
        return Sort(child, (SortKey(ColumnRef(k1)), SortKey(ColumnRef(k2), False))), store
    kind = draw(st.sampled_from([JoinKind.INNER, JoinKind.LEFT, JoinKind.SEMI, JoinKind.ANTI]))
    other, other_cols = _scan(draw, store, alloc, "other", draw(st.sampled_from(sorted(_MIXED_KEYS))))
    if name == "Join-probe":
        condition = Comparison("=", ColumnRef(k1), ColumnRef(other_cols[0]))
        return Join(kind, child, other, condition), store
    condition = Comparison("=", ColumnRef(other_cols[0]), ColumnRef(k1))
    return Join(kind, other, child, condition), store


@pytest.mark.parametrize("values_first", [False, True], ids=["scan_first", "values_first"])
@pytest.mark.parametrize(
    "name", ["GroupBy", "MarkDistinct", "Window", "Sort", "Join-probe", "Join-build"]
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_keyed_operators_over_mixed_streams_match_the_row_engine(name, values_first, data):
    plan, store = _over_mixed_stream(name, data.draw, values_first)
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


@pytest.mark.parametrize("values_first", [False, True], ids=["scan_first", "values_first"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_scalar_distinct_over_many_blocks_matches_the_row_engine(values_first, data):
    """A hand-built scalar GroupBy with DISTINCT aggregates (the planner
    lowers them into a MarkDistinct) over a stream of many blocks: a
    value repeated in a later block — NULL, NaN, 0.0 after -0.0 — is
    still a duplicate."""
    store, alloc = Store(), ColumnAllocator()
    child, (k1, _, v) = _mixed_stream(data.draw, store, alloc, values_first)
    aggregates = (
        AggregateAssignment(alloc.fresh("n", _I), "count", ColumnRef(k1), TRUE, True),
        AggregateAssignment(alloc.fresh("s", k1.dtype), "sum", ColumnRef(k1), TRUE, True),
        AggregateAssignment(alloc.fresh("t", _I), "sum", ColumnRef(v)),
    )
    plan = GroupBy(child, (), aggregates)
    expected = [repr(r) for r in execute(plan, RunContext(store))]
    for block_rows in (1, 7, OptimizerConfig.batch_rows):
        for vectors in ("python", "numpy"):
            ctx = RunContext(store)
            got = [repr(r) for r in execute_batch(plan, ctx, block_rows, vectors)]
            assert got == expected, (block_rows, vectors)
            assert ctx._state_rows == 0


def test_scalar_group_over_empty_input_holds_no_state():
    """The one group is registered at the first block that has rows, as
    the row engine registers it at the first row.  Regression: an empty
    scan's one empty block registered it, a peak of 1 against 0."""
    store, alloc = Store(), ColumnAllocator()
    x = alloc.fresh("x", _I)
    store.put(simple_table("t", [("x", _I)], []))
    count = AggregateAssignment(alloc.fresh("n", _I), "count", None)
    plan = GroupBy(Scan("t", (x,), ("x",)), (), (count,))
    row_ctx = RunContext(store)
    assert list(execute(plan, row_ctx)) == [(0,)]
    for vectors in ("python", "numpy"):
        ctx = RunContext(store)
        assert list(execute_batch(plan, ctx, vectors=vectors)) == [(0,)]
        assert ctx.metrics.peak_state_rows == row_ctx.metrics.peak_state_rows == 0


def test_scalar_min_max_over_nan_follow_lane_order_across_blocks():
    """Python's ``min`` / ``max`` over NaN depend on where the NaN is.
    Regression: scalar aggregation took each block's own extreme before
    merging it, so a block that starts with NaN hid the rest of it (MIN
    1.0 and MAX 2.0 over two-row blocks here, where the row engine's
    lane loop gives 0.5 and 3.0)."""
    store, alloc = Store(), ColumnAllocator()
    x = alloc.fresh("x", _D)
    rows = [(1.0,), (2.0,), (_NAN,), (0.5,), (_NAN,), (3.0,)]
    store.put(simple_table("t", [("x", _D)], rows, partition_rows=6))
    aggregates = tuple(
        AggregateAssignment(alloc.fresh(func, _D), func, ColumnRef(x))
        for func in ("min", "max")
    )
    plan = GroupBy(Scan("t", (x,), ("x",)), (), aggregates)
    assert list(execute(plan, RunContext(store))) == [(0.5, 3.0)]
    for block_rows in (2, 4):
        for vectors in ("python", "numpy"):
            got = list(execute_batch(plan, RunContext(store), block_rows, vectors))
            assert got == [(0.5, 3.0)], (block_rows, vectors)


@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("name", sorted(STUDIED_QUERIES))
def test_state_rows_do_not_depend_on_the_representation(tpcds_store, name, fusion):
    """Every keyed operator reads its whole input over lists as over
    arrays, so the studied queries hold the same state at the same
    moments.  (When only arrays were read whole, a list GroupBy counted
    its groups while the join under it still held its build side: 10 of
    these 16 cells differed between the two.)"""
    runs = []
    for vectors in ("numpy", "python"):
        config = OptimizerConfig(enable_fusion=fusion, vectors=vectors)
        result = Session(tpcds_store, config).execute(STUDIED_QUERIES[name])
        m = result.metrics
        runs.append(
            (
                [repr(r) for r in result.rows],
                m.bytes_scanned,
                m.rows_scanned,
                m.peak_state_rows,
                m.total_state_rows,
            )
        )
    assert runs[0] == runs[1]


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
    yield "numpy", lambda: _vector_fetch(plan, ctx, block_rows)


@pytest.mark.parametrize("name", ["GroupBy", "MarkDistinct", "Window", "Sort"])
def test_keyed_operators_match_the_row_engine_in_order(name):
    plan = _keyed_plans()[name]
    expected = list(execute(plan, RunContext(Store())))
    assert list(execute_batch(plan, RunContext(Store()), 8)) == expected
    for vectors in ("python", "numpy"):
        ctx = RunContext(Store())
        assert list(execute_compiled(plan, ctx, 8, vectors)) == expected


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
