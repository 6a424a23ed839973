"""Additional fusion edge cases: outer/anti joins, cross joins, values,
mismatched roots, and pathological inputs."""

import pytest

from repro.algebra.expressions import TRUE, ColumnRef, Comparison, integer
from repro.algebra.operators import (
    Filter,
    Join,
    JoinKind,
    MarkDistinct,
    Project,
    Scan,
    Values,
)
from repro.algebra.schema import Column, ColumnAllocator
from repro.algebra.types import DataType
from repro.algebra.validator import validate_plan
from repro.algebra.visitors import collect
from repro.catalog.catalog import Catalog
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.fusion.fuse import Fuser
from repro.fusion.result import reconstruct_left, reconstruct_right
from repro.sql.binder import Binder

I = DataType.INTEGER


@pytest.fixture()
def env(people_store):
    catalog = Catalog()
    people_store.load_catalog(catalog)
    return people_store, catalog, Binder(catalog), Fuser(catalog.allocator)


def rows_of(plan, store):
    return sorted(
        execute(plan, RunContext(store)),
        key=lambda r: tuple((v is None, str(v)) for v in r),
    )


def check(result, p1, p2, store, allocator):
    validate_plan(result.plan)
    assert rows_of(reconstruct_left(result, p1), store) == rows_of(p1, store)
    assert rows_of(reconstruct_right(result, p2, allocator), store) == rows_of(p2, store)


class TestJoinVariants:
    def join_pair(self, binder, kind_sql: str, extra1: str = "", extra2: str = ""):
        sql = (
            "SELECT id, age FROM people {kind} cities "
            "ON people.city_id = cities.city_id{extra}"
        )
        p1 = binder.bind_sql(sql.format(kind=kind_sql, extra=extra1)).plan
        p2 = binder.bind_sql(sql.format(kind=kind_sql, extra=extra2)).plan
        return p1, p2

    def test_left_join_exact_fuses(self, env):
        store, catalog, binder, fuser = env
        p1, p2 = self.join_pair(binder, "LEFT JOIN")
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        check(result, p1, p2, store, catalog.allocator)

    def test_left_join_with_left_side_filters(self, env):
        store, catalog, binder, fuser = env
        sql1 = (
            "SELECT id FROM (SELECT * FROM people WHERE age > 30) p "
            "LEFT JOIN cities ON p.city_id = cities.city_id"
        )
        sql2 = (
            "SELECT id FROM (SELECT * FROM people WHERE age < 25) p "
            "LEFT JOIN cities ON p.city_id = cities.city_id"
        )
        p1 = binder.bind_sql(sql1).plan
        p2 = binder.bind_sql(sql2).plan
        result = fuser.fuse(p1, p2)
        assert result is not None
        check(result, p1, p2, store, catalog.allocator)

    def test_left_join_with_right_side_difference_fails(self, env):
        store, catalog, binder, fuser = env
        sql1 = (
            "SELECT id FROM people LEFT JOIN "
            "(SELECT * FROM cities WHERE city = 'Austin') c ON people.city_id = c.city_id"
        )
        sql2 = (
            "SELECT id FROM people LEFT JOIN "
            "(SELECT * FROM cities WHERE city = 'Boise') c ON people.city_id = c.city_id"
        )
        p1 = binder.bind_sql(sql1).plan
        p2 = binder.bind_sql(sql2).plan
        # Filtering the right side of a left join changes padding:
        # fusion must refuse.
        assert fuser.fuse(p1, p2) is None

    def test_anti_join_exact_fuses(self, env):
        store, catalog, binder, fuser = env
        sql = (
            "SELECT id FROM people WHERE city_id NOT IN (SELECT city_id FROM cities)"
        )
        p1 = binder.bind_sql(sql).plan
        p2 = binder.bind_sql(sql).plan
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        check(result, p1, p2, store, catalog.allocator)

    def test_cross_join_with_filters(self, env):
        store, catalog, binder, fuser = env
        p1 = binder.bind_sql("SELECT id, cities.city_id FROM people, cities WHERE age > 40").plan
        p2 = binder.bind_sql("SELECT id, cities.city_id FROM people, cities WHERE age < 25").plan
        result = fuser.fuse(p1, p2)
        assert result is not None and not result.is_exact
        check(result, p1, p2, store, catalog.allocator)

    def test_mixed_join_kinds_fail(self, env):
        store, catalog, binder, fuser = env
        inner = binder.bind_sql(
            "SELECT id FROM people JOIN cities ON people.city_id = cities.city_id"
        ).plan
        left = binder.bind_sql(
            "SELECT id FROM people LEFT JOIN cities ON people.city_id = cities.city_id"
        ).plan
        assert fuser.fuse(inner, left) is None


class TestValuesFusion:
    def test_identical_values_fuse(self, env):
        store, catalog, binder, fuser = env
        allocator = ColumnAllocator(start=500)
        v1 = Values((allocator.fresh("tag", I),), ((1,), (2,)))
        v2 = Values((allocator.fresh("tag", I),), ((1,), (2,)))
        result = fuser.fuse(v1, v2)
        assert result is not None and result.is_exact
        assert result.mapping.map_column(v2.columns[0]) == v1.columns[0]

    def test_different_rows_fail(self, env):
        _, _, _, fuser = env
        allocator = ColumnAllocator(start=500)
        v1 = Values((allocator.fresh("tag", I),), ((1,),))
        v2 = Values((allocator.fresh("tag", I),), ((2,),))
        assert fuser.fuse(v1, v2) is None

    def test_type_mismatch_fails(self, env):
        _, _, _, fuser = env
        allocator = ColumnAllocator(start=500)
        v1 = Values((allocator.fresh("tag", I),), ((1,),))
        v2 = Values((allocator.fresh("tag", DataType.DOUBLE),), ((1,),))
        assert fuser.fuse(v1, v2) is None


class TestRootMismatches:
    def test_project_manufactured_on_bare_scan(self, env):
        store, catalog, binder, fuser = env
        p1 = binder.bind_sql("SELECT age + 1 AS x FROM people").plan
        cols, sources = catalog.fresh_scan_columns("people")
        bare = Scan("people", cols, sources)
        result = fuser.fuse(p1, bare)
        assert result is not None
        check(result, p1, bare, store, catalog.allocator)

    def test_mark_distinct_skip_right_with_filter(self, env):
        store, catalog, binder, fuser = env
        plain = binder.bind_sql("SELECT lname FROM people WHERE age > 30").plan
        inner = binder.bind_sql("SELECT lname FROM people WHERE age < 40").plan
        marker = catalog.allocator.fresh("d", DataType.BOOLEAN)
        marked = MarkDistinct(inner, (inner.output_columns[0],), marker)
        result = fuser.fuse(plain, marked)
        assert result is not None
        marks = collect(result.plan, MarkDistinct)
        assert marks and marks[0].mask != TRUE  # guarded by R
        check(result, plain, marked, store, catalog.allocator)

    def test_totally_different_operators_fail(self, env):
        store, catalog, binder, fuser = env
        grouped = binder.bind_sql("SELECT count(*) AS n FROM people").plan
        sorted_plan = binder.bind_sql("SELECT id FROM people ORDER BY id").plan
        assert fuser.fuse(grouped, sorted_plan) is None

    def test_fusion_is_deterministic(self, env):
        store, catalog, binder, fuser = env
        p1 = binder.bind_sql("SELECT lname FROM people WHERE age > 30").plan
        p2 = binder.bind_sql("SELECT lname FROM people WHERE age < 25").plan
        first = fuser.fuse(p1, p2)
        second = fuser.fuse(p1, p2)
        assert first.plan == second.plan
        assert first.left_filter == second.left_filter
