"""Tests for the plan→SQL renderer, including full round-trips:
bind(sql) → render → bind again → execute → identical results."""

import pytest

from repro.algebra.operators import MarkDistinct, Project, Scan
from repro.algebra.schema import Column
from repro.algebra.sql_renderer import RenderError, render_expression, render_sql
from repro.algebra.types import DataType
from repro.algebra.visitors import walk_plan
from repro.catalog.catalog import Catalog
from repro.engine.session import Session
from repro.optimizer.config import BASELINE, OptimizerConfig
from repro.sql.binder import Binder
from repro.tpcds.queries import WORKLOAD_QUERIES


@pytest.fixture()
def env(people_store):
    catalog = Catalog()
    people_store.load_catalog(catalog)
    return people_store, Binder(catalog)


def roundtrip(store, binder, sql):
    """bind → render → re-execute both, compare."""
    session = Session(store, OptimizerConfig())
    bound = binder.bind_sql(sql)
    rendered = render_sql(bound.plan, bound.column_names)
    original = session.execute(sql)
    again = session.execute(rendered)
    assert original.columns == again.columns
    assert original.sorted_rows() == again.sorted_rows()
    return rendered


class TestRoundTrips:
    def test_simple_select(self, env):
        store, binder = env
        roundtrip(store, binder, "SELECT id, fname FROM people WHERE age > 30")

    def test_joins_and_aggregates(self, env):
        store, binder = env
        roundtrip(
            store,
            binder,
            "SELECT city, count(*) AS n, sum(age) FILTER (WHERE age > 30) AS old "
            "FROM people JOIN cities ON people.city_id = cities.city_id "
            "GROUP BY city HAVING count(*) > 0 ORDER BY city LIMIT 5",
        )

    def test_semi_and_anti_joins(self, env):
        store, binder = env
        roundtrip(
            store,
            binder,
            "SELECT id FROM people WHERE city_id IN (SELECT city_id FROM cities)",
        )
        roundtrip(
            store,
            binder,
            "SELECT id FROM people WHERE city_id NOT IN (SELECT city_id FROM cities)",
        )

    def test_union_all_and_values(self, env):
        store, binder = env
        roundtrip(
            store,
            binder,
            "SELECT id AS v FROM people UNION ALL SELECT tag FROM (VALUES (1), (2)) t(tag)",
        )

    def test_window_and_distinct(self, env):
        store, binder = env
        roundtrip(
            store,
            binder,
            "SELECT DISTINCT lname FROM people",
        )
        roundtrip(
            store,
            binder,
            "SELECT id, avg(age) OVER (PARTITION BY city_id) AS a FROM people",
        )

    def test_case_like_in_and_functions(self, env):
        store, binder = env
        roundtrip(
            store,
            binder,
            "SELECT CASE WHEN age > 40 THEN 'old' ELSE 'young' END AS bucket, "
            "abs(age - 40) AS dist "
            "FROM people WHERE fname LIKE 'J%' AND city_id IN (10, 20)",
        )

    def test_cross_join_and_left_join(self, env):
        store, binder = env
        roundtrip(store, binder, "SELECT id, city FROM people, cities")
        roundtrip(
            store,
            binder,
            "SELECT id, city FROM people LEFT JOIN cities "
            "ON people.city_id = cities.city_id",
        )

    def test_string_escaping(self, env):
        store, binder = env
        rendered = roundtrip(store, binder, "SELECT 'it''s' AS s FROM people LIMIT 1")
        assert "''" in rendered


def _rows_close(left: list[tuple], right: list[tuple]) -> bool:
    """Row-set equality with float tolerance (the re-bound plan may sum
    floats in a different join order)."""
    import math

    if len(left) != len(right):
        return False
    for row_l, row_r in zip(left, right):
        if len(row_l) != len(row_r):
            return False
        for a, b in zip(row_l, row_r):
            if isinstance(a, float) and isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


@pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
def test_workload_round_trips(name, tpcds_store):
    """Every workload query survives bind → render → bind → execute."""
    session = Session(tpcds_store, OptimizerConfig())
    catalog = Catalog()
    tpcds_store.load_catalog(catalog)
    binder = Binder(catalog)
    sql = WORKLOAD_QUERIES[name]
    bound = binder.bind_sql(sql)
    rendered = render_sql(bound.plan, bound.column_names)
    original = session.execute(sql)
    again = session.execute(rendered)
    assert _rows_close(original.sorted_rows(), again.sorted_rows())


@pytest.mark.parametrize("name", sorted(WORKLOAD_QUERIES))
def test_optimized_scan_predicates_round_trip(name, tpcds_store):
    """Optimized plans carry pushed-down scan predicates, which binder
    output never does.  Each renders as a filter over the
    predicate-free scan and re-binds to the same rows."""
    session = Session(tpcds_store, BASELINE)
    sql = WORKLOAD_QUERIES[name]
    plan, names = session.plan(sql)
    if not any(isinstance(n, Scan) and n.predicate is not None for n in walk_plan(plan)):
        pytest.skip("no scan predicate")
    try:
        rendered = render_sql(plan, names)
    except RenderError as exc:  # MarkDistinct, zero-column projections
        pytest.skip(str(exc))
    again = session.execute(rendered)
    assert _rows_close(session.execute(sql).sorted_rows(), again.sorted_rows())


class TestRenderErrors:
    def test_mark_distinct_not_renderable(self, env):
        store, binder = env
        inner = binder.bind_sql("SELECT lname FROM people").plan
        marker = Column(9999, "d", DataType.BOOLEAN)
        plan = MarkDistinct(inner, (inner.output_columns[0],), marker)
        with pytest.raises(RenderError):
            render_sql(plan)

    def test_arity_mismatch(self, env):
        store, binder = env
        plan = binder.bind_sql("SELECT id FROM people").plan
        with pytest.raises(RenderError):
            render_sql(plan, ("a", "b"))

    def test_empty_projection(self, env):
        store, binder = env
        inner = binder.bind_sql("SELECT id FROM people").plan
        with pytest.raises(RenderError):
            render_sql(Project(inner, ()))


class TestExpressionRendering:
    def test_null_and_booleans(self):
        from repro.algebra.expressions import FALSE, TRUE, Literal

        assert render_expression(TRUE) == "TRUE"
        assert render_expression(FALSE) == "FALSE"
        assert render_expression(Literal(None, DataType.INTEGER)) == "NULL"

    def test_is_not_null_sugar(self):
        from repro.algebra.expressions import is_not_null, ColumnRef

        column = Column(7, "x", DataType.INTEGER)
        assert render_expression(is_not_null(ColumnRef(column))) == "(c7 IS NOT NULL)"
