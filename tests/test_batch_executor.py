"""Unit tests for the vectorized batch executor.

Each operator is run through both engines on the same hand-built store
with a deliberately tiny block size (so every operator crosses block
boundaries) and must match the row engine's rows and scan metrics.
The SQL-level differential suite lives in ``tests/test_engine_ab.py``.
"""

from __future__ import annotations

from repro.algebra.expressions import ColumnRef, Comparison, integer
from repro.algebra.operators import (
    AggregateAssignment,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    MarkDistinct,
    Project,
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
from repro.engine.executor import execute
from repro.engine.metrics import RunContext

I = DataType.INTEGER
D = DataType.DOUBLE
S = DataType.STRING

alloc = ColumnAllocator(start=5000)


def scan_people():
    cols = (
        alloc.fresh("id", I),
        alloc.fresh("fname", S),
        alloc.fresh("lname", S),
        alloc.fresh("age", I),
        alloc.fresh("city_id", I),
    )
    return Scan("people", cols, ("id", "fname", "lname", "age", "city_id"))


def scan_orders():
    cols = (
        alloc.fresh("order_id", I),
        alloc.fresh("person_id", I),
        alloc.fresh("amount", D),
        alloc.fresh("day", I),
    )
    return Scan("orders", cols, ("order_id", "person_id", "amount", "day"))


def assert_engines_match(plan, store, block_rows=2, ordered=False):
    row_ctx = RunContext(store)
    row_rows = list(execute(plan, row_ctx))
    batch_ctx = RunContext(store)
    batch_rows = list(execute_batch(plan, batch_ctx, block_rows=block_rows))
    if ordered:
        assert row_rows == batch_rows
    else:
        key = lambda r: tuple((v is None, str(v)) for v in r)
        assert sorted(row_rows, key=key) == sorted(batch_rows, key=key)
    assert row_ctx.metrics.bytes_scanned == batch_ctx.metrics.bytes_scanned
    assert row_ctx.metrics.rows_scanned == batch_ctx.metrics.rows_scanned
    assert row_ctx.metrics.partitions_read == batch_ctx.metrics.partitions_read
    return batch_rows


class TestOperators:
    def test_scan_with_predicate(self, people_store):
        s = scan_people()
        pred = Comparison(">", ColumnRef(s.columns[3]), integer(25))
        assert_engines_match(s.with_predicate(pred), people_store)

    def test_filter_and_project(self, people_store):
        s = scan_people()
        f = Filter(s, Comparison(">", ColumnRef(s.columns[3]), integer(25)))
        target = alloc.fresh("age2", I)
        from repro.algebra.expressions import Arithmetic

        p = Project(
            f,
            (
                (s.columns[0], ColumnRef(s.columns[0])),
                (target, Arithmetic("*", ColumnRef(s.columns[3]), integer(2))),
            ),
        )
        assert_engines_match(p, people_store)

    def test_hash_join_all_kinds(self, people_store):
        for kind in (JoinKind.INNER, JoinKind.LEFT, JoinKind.SEMI, JoinKind.ANTI):
            left = scan_people()
            right = scan_orders()
            cond = Comparison(
                "=", ColumnRef(left.columns[0]), ColumnRef(right.columns[1])
            )
            assert_engines_match(Join(kind, left, right, cond), people_store)

    def test_cross_join(self, people_store):
        assert_engines_match(
            Join(JoinKind.CROSS, scan_people(), scan_orders()), people_store
        )

    def test_non_equi_join(self, people_store):
        left = scan_people()
        right = scan_orders()
        cond = Comparison("<", ColumnRef(left.columns[0]), ColumnRef(right.columns[1]))
        assert_engines_match(Join(JoinKind.INNER, left, right, cond), people_store)

    def test_group_by(self, people_store):
        s = scan_people()
        n = alloc.fresh("n", I)
        total = alloc.fresh("total", I)
        g = GroupBy(
            s,
            (s.columns[2],),
            (
                AggregateAssignment(n, "count", None),
                AggregateAssignment(total, "sum", ColumnRef(s.columns[3])),
            ),
        )
        assert_engines_match(g, people_store)

    def test_scalar_group_by_empty_input(self, people_store):
        s = scan_people()
        empty = Filter(s, Comparison(">", ColumnRef(s.columns[0]), integer(100)))
        n = alloc.fresh("n", I)
        g = GroupBy(empty, (), (AggregateAssignment(n, "count", None),))
        rows = assert_engines_match(g, people_store)
        assert rows == [(0,)]

    def test_mark_distinct_chain_preserves_order(self, people_store):
        s = scan_people()
        m1 = alloc.fresh("d1", DataType.BOOLEAN)
        m2 = alloc.fresh("d2", DataType.BOOLEAN)
        chain = MarkDistinct(MarkDistinct(s, (s.columns[2],), m1), (s.columns[1],), m2)
        assert_engines_match(chain, people_store, ordered=True)

    def test_window(self, people_store):
        s = scan_people()
        target = alloc.fresh("n", I)
        w = Window(s, (s.columns[4],), (WindowAssignment(target, "count", None),))
        assert_engines_match(w, people_store)

    def test_sort_is_ordered_and_stable(self, people_store):
        s = scan_people()
        plan = Sort(s, (SortKey(ColumnRef(s.columns[3]), ascending=True),))
        assert_engines_match(plan, people_store, ordered=True)

    def test_union_all(self, people_store):
        v1 = Values((alloc.fresh("a", I), alloc.fresh("b", I)), ((1, 2), (3, 4)))
        v2 = Values((alloc.fresh("c", I), alloc.fresh("d", I)), ((5, 6),))
        out = (alloc.fresh("x", I),)
        union = UnionAll((v1, v2), out, ((v1.columns[1],), (v2.columns[0],)))
        assert_engines_match(union, people_store, ordered=True)

    def test_limit_slices_mid_block(self, people_store):
        s = scan_people()
        for count in (0, 1, 3, 6, 99):
            rows = list(
                execute_batch(Limit(s, count), RunContext(people_store), block_rows=4)
            )
            assert len(rows) == min(count, 6)


class TestBlockShape:
    def test_blocks_respect_block_size(self, people_store):
        s = scan_people()
        blocks = list(execute_blocks(s, RunContext(people_store), block_rows=4))
        assert [n for _, n in blocks] == [4, 2]
        for cols, n in blocks:
            assert all(len(c) == n for c in cols)

    def test_empty_blocks_are_not_emitted(self, people_store):
        s = scan_people()
        f = Filter(s, Comparison(">", ColumnRef(s.columns[0]), integer(100)))
        assert list(execute_blocks(f, RunContext(people_store), block_rows=2)) == []

    def test_project_pass_through_is_zero_copy(self, people_store):
        s = scan_people()
        p = Project(s, ((s.columns[1], ColumnRef(s.columns[1])),))
        ctx = RunContext(people_store)
        scan_block = next(execute_blocks(s, RunContext(people_store), block_rows=1024))
        proj_block = next(execute_blocks(p, ctx, block_rows=1024))
        # Same values without a copy: the projected column is the
        # scanned column object itself (both alias the stored string
        # chunk; a numeric chunk is a vector, delisted under lists).
        assert proj_block[0][0] == scan_block[0][1]
        assert proj_block[0][0] is people_store.stored_table("people").partitions[0].chunk("fname").values
