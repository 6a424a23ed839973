"""Scans hand out runs of partition chunks where demand is unbounded.

A scan the plan drains whole concatenates consecutive partition chunks
into one block of up to ``batch_rows`` rows (``Store.scan_blocks(...,
coalesce=True)``); under a LIMIT, an ``EnforceSingleRow`` or a
``ScalarApply`` subquery it hands out one chunk, or a slice of one, per
block, so early termination reads exactly what the row engine reads.
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import ColumnRef, Comparison, integer
from repro.algebra.operators import (
    AggregateAssignment,
    EnforceSingleRow,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    Project,
    ScalarApply,
    Scan,
    Sort,
    SortKey,
    Values,
    Window,
    WindowAssignment,
)
from repro.algebra.schema import ColumnAllocator
from repro.algebra.types import DataType
from repro.engine.batch_executor import drained_scans, execute_batch
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.engine.session import Session
from repro.errors import ExecutionError
from repro.optimizer.config import OptimizerConfig
from repro.storage.accounting import ScanAccounting
from repro.storage.columnar import NumpyVector, Store
from repro.tpcds.queries import STUDIED_QUERIES
from tests.conftest import simple_table

I, D, S = DataType.INTEGER, DataType.DOUBLE, DataType.STRING
#: Past the int64 guard: partition 4's ``w`` chunk is stored as a list.
HUGE = 1 << 63
PARTITION_ROWS, PARTITIONS = 10, 8
COLUMNS = ("k", "v", "w", "s")
DEFAULT = OptimizerConfig().batch_rows


def _row(i):
    v = None if i in (23, 57) else i * 0.5  # NULLs in partitions 2 and 5
    w = HUGE if i == 45 else i
    return (i % 20, v, w, f"s{i}")


@pytest.fixture()
def store() -> Store:
    store = Store()
    store.put(
        simple_table(
            "t",
            [("k", I), ("v", D), ("w", I), ("s", S)],
            [_row(i) for i in range(PARTITION_ROWS * PARTITIONS)],
            partition_rows=PARTITION_ROWS,
        )
    )
    return store


_alloc = ColumnAllocator(start=7000)


def scan_t() -> Scan:
    columns = tuple(_alloc.fresh(n, t) for n, t in zip(COLUMNS, (I, D, I, S)))
    return Scan("t", columns, COLUMNS)


def _blocks(store, block_rows, coalesce=True, as_vectors=True):
    return list(
        store.scan_blocks(
            "t", COLUMNS, ScanAccounting(), block_rows=block_rows,
            as_vectors=as_vectors, coalesce=coalesce,
        )
    )


# -- block shapes ----------------------------------------------------------


def test_runs_are_whole_chunks_up_to_the_block_size(store):
    # A run ends at the block size and where ``w`` switches to the
    # list chunk of partition 4 and back.
    assert [n for _, n in _blocks(store, 25)] == [20, 20, 10, 20, 10]
    assert [n for _, n in _blocks(store, DEFAULT)] == [40, 10, 30]
    assert [n for _, n in _blocks(store, DEFAULT, coalesce=False)] == [10] * 8
    # Lists everywhere: only the block size ends a run.
    assert [n for _, n in _blocks(store, DEFAULT, as_vectors=False)] == [80]


def test_a_chunk_larger_than_the_block_is_still_sliced(store):
    assert [n for _, n in _blocks(store, 4)] == [4, 4, 2] * PARTITIONS
    assert [n for _, n in _blocks(store, PARTITION_ROWS)] == [10] * PARTITIONS


def test_runs_keep_each_columns_representation(store):
    (first, _), (middle, _), (last, _) = _blocks(store, DEFAULT)
    assert all(type(c) is NumpyVector for c in first[:3] + last[:3])
    assert type(middle[2]) is list and middle[2][5] == HUGE
    # A one-chunk block is the stored chunk itself.
    stored = store.stored_table("t").partitions[4]
    assert all(c is stored.chunk(n).values for c, n in zip(middle, COLUMNS))
    rows = [_row(i) for i in range(PARTITION_ROWS * PARTITIONS)]
    got = [r for cols, _ in _blocks(store, DEFAULT) for r in zip(*map(list, cols))]
    assert got == rows


def test_validity_concatenates_across_chunks_with_and_without_nulls(store):
    blocks = _blocks(store, 20)  # partitions (0, 1), (2, 3), 4, (5, 6), 7
    v = [cols[1] for cols, _ in blocks]
    assert v[0].valid is None
    assert v[1].valid.tolist() == [i != 3 for i in range(20)]
    assert v[3].valid.tolist() == [i != 7 for i in range(20)]
    assert [x for col in v for x in col.tolist()] == [
        _row(i)[1] for i in range(PARTITION_ROWS * PARTITIONS)
    ]


def test_runs_charge_what_single_chunks_charge(store):
    charged = []
    for coalesce in (False, True):
        accounting = ScanAccounting()
        blocks = store.scan_blocks(
            "t", COLUMNS, accounting, block_rows=DEFAULT, coalesce=coalesce
        )
        list(blocks)
        charged.append(
            (accounting.bytes_scanned, accounting.rows_scanned, accounting.partitions_read)
        )
    assert charged[0] == charged[1]


def test_the_engine_coalesces_only_drained_scans(store, monkeypatch):
    sizes = []
    real = store.scan_blocks

    def spy(*args, **kwargs):
        for cols, n in real(*args, **kwargs):
            sizes.append(n)
            yield cols, n

    monkeypatch.setattr(store, "scan_blocks", spy)
    s = scan_t()
    list(execute_batch(Sort(s, (SortKey(ColumnRef(s.columns[0])),)), RunContext(store)))
    assert sizes == [40, 10, 30]
    sizes.clear()
    list(execute_batch(Limit(Filter(s, _k_is(s, 19)), 1), RunContext(store)))
    assert sizes == [10, 10]


# -- bounded demand --------------------------------------------------------


def _k_is(scan, value):
    return Comparison("=", ColumnRef(scan.columns[0]), integer(value))


def test_drained_scans_follow_bounded_demand():
    probe, build, below_sort, sub = scan_t(), scan_t(), scan_t(), scan_t()
    on = Comparison("=", ColumnRef(probe.columns[0]), ColumnRef(build.columns[0]))
    join = Join(JoinKind.INNER, probe, build, on)
    assert drained_scans(Limit(join, 3)) == {id(build)}
    assert drained_scans(join) == {id(probe), id(build)}
    ordered = Sort(below_sort, (SortKey(ColumnRef(below_sort.columns[0])),))
    assert drained_scans(Limit(ordered, 1)) == {id(below_sort)}
    out = _alloc.fresh("x", I)
    subquery = Project(sub, ((out, ColumnRef(sub.columns[0])),))
    apply = ScalarApply(probe, subquery, out, _alloc.fresh("y", I))
    assert drained_scans(apply) == {id(probe)}
    assert drained_scans(EnforceSingleRow(Filter(sub, _k_is(sub, 1)))) == frozenset()
    # One Scan object reached both ways counts as bounded.
    shared = Join(JoinKind.CROSS, Limit(sub, 1), sub)
    assert drained_scans(shared) == frozenset()


def _metrics(ctx):
    m = ctx.metrics
    return m.bytes_scanned, m.rows_scanned, m.partitions_read


def _assert_same_reads(plan, store, error=None):
    """Both engines return the same rows (or raise ``error``) having
    read the same bytes, rows and partitions — fewer than all."""
    got = []
    for run in (execute, execute_batch):
        ctx = RunContext(store)
        if error is None:
            rows = list(run(plan, ctx))
        else:
            with pytest.raises(ExecutionError, match=error):
                list(run(plan, ctx))
            rows = None
        got.append((rows, _metrics(ctx)))
    assert got[0] == got[1]
    assert got[0][1][2] < PARTITIONS


def test_limit_over_a_filtered_scan_reads_what_the_row_engine_reads(store):
    s = scan_t()
    _assert_same_reads(Limit(Filter(s, _k_is(s, 19)), 2), store)


def test_limit_over_a_join_probe_reads_what_the_row_engine_reads(store):
    probe = scan_t()
    key = _alloc.fresh("key", I)
    build = Values((key,), tuple((i,) for i in range(20)))
    join = Join(
        JoinKind.INNER, probe, build,
        Comparison("=", ColumnRef(probe.columns[0]), ColumnRef(key)),
    )
    _assert_same_reads(Limit(join, 25), store)


def test_scalar_subquery_over_a_filtered_scan_reads_what_the_row_engine_reads(store):
    # k = 0 matches rows 0 and 20: the second match, in partition 2,
    # fails the query, and neither engine reads further.
    s = scan_t()
    plan = EnforceSingleRow(Filter(s, _k_is(s, 0)))
    _assert_same_reads(plan, store, error="more than one row")


def test_correlated_scalar_apply_reads_what_the_row_engine_reads(store):
    outer = _alloc.fresh("ok", I)
    sub = scan_t()
    correlated = Filter(sub, Comparison("=", ColumnRef(sub.columns[0]), ColumnRef(outer)))
    plan = ScalarApply(
        Values((outer,), ((0,),)), correlated, sub.columns[2], _alloc.fresh("w0", I)
    )
    _assert_same_reads(plan, store, error="correlated scalar subquery")


# -- block size is invisible -----------------------------------------------


def _plans():
    s = scan_t()
    yield Filter(s, Comparison(">", ColumnRef(s.columns[1]), ColumnRef(s.columns[0])))
    s = scan_t()
    yield GroupBy(
        s,
        (s.columns[0],),
        (
            AggregateAssignment(_alloc.fresh("n", I), "count", None),
            AggregateAssignment(_alloc.fresh("sv", D), "sum", ColumnRef(s.columns[1])),
            AggregateAssignment(_alloc.fresh("mw", I), "max", ColumnRef(s.columns[2])),
        ),
    )
    s = scan_t()
    yield Sort(s, (SortKey(ColumnRef(s.columns[1])), SortKey(ColumnRef(s.columns[3]))))
    s = scan_t()
    yield Window(
        s, (s.columns[0],),
        (WindowAssignment(_alloc.fresh("ws", D), "sum", ColumnRef(s.columns[1])),),
    )
    left, right = scan_t(), scan_t()
    yield Join(
        JoinKind.LEFT, left, right,
        Comparison("=", ColumnRef(left.columns[2]), ColumnRef(right.columns[2])),
    )


@pytest.mark.parametrize("vectors", ["numpy", "python"])
@pytest.mark.parametrize("block_rows", [1, 7, 128, DEFAULT])
def test_results_do_not_depend_on_the_block_size(store, block_rows, vectors):
    for plan in _plans():
        row_ctx, block_ctx = RunContext(store), RunContext(store)
        expected = list(execute(plan, row_ctx))
        got = list(execute_batch(plan, block_ctx, block_rows, vectors))
        assert repr(got) == repr(expected)
        assert _metrics(block_ctx) == _metrics(row_ctx)


@pytest.mark.parametrize("block_rows", [7, 128, DEFAULT])
def test_studied_queries_do_not_depend_on_the_block_size(tpcds_store, block_rows):
    reference = Session(tpcds_store, OptimizerConfig(engine="row"))
    session = Session(tpcds_store, OptimizerConfig(batch_rows=block_rows))
    for name in ("q09", "q28", "q65", "q88"):
        want = reference.execute(STUDIED_QUERIES[name])
        got = session.execute(STUDIED_QUERIES[name])
        assert repr(got.sorted_rows()) == repr(want.sorted_rows())
        assert got.metrics.bytes_scanned == want.metrics.bytes_scanned
