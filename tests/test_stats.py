"""Tests for column statistics collection and cardinality estimation."""

import math

import pytest

from tests.conftest import simple_table
from repro.algebra.expressions import ColumnRef, Comparison, Literal
from repro.algebra.operators import CachedScan, CachePopulate, Exchange, Filter
from repro.algebra.types import DataType
from repro.catalog.catalog import Catalog, ColumnStats
from repro.optimizer.stats import CardinalityEstimator
from repro.sql.binder import Binder


@pytest.fixture()
def env(people_store):
    catalog = Catalog()
    people_store.load_catalog(catalog)
    return catalog, Binder(catalog), CardinalityEstimator(catalog)


class TestStatsCollection:
    def test_ndv_and_nulls(self, env):
        catalog, _, _ = env
        stats = catalog.column_stats("people", "lname")
        assert stats.ndv == 5  # Smith, Smith, Doe, Kahn, Reyes, Voss
        age = catalog.column_stats("people", "age")
        assert age.null_fraction == pytest.approx(1 / 6)
        assert age.min_value == 23 and age.max_value == 61

    def test_unknown_column(self, env):
        catalog, _, _ = env
        assert catalog.column_stats("people", "missing") is None

    def test_primary_key_ndv_equals_rows(self, env):
        catalog, _, _ = env
        stats = catalog.column_stats("people", "id")
        assert stats.ndv == catalog.row_count("people")


class TestScanEstimates:
    def estimate(self, env, sql):
        catalog, binder, estimator = env
        return estimator.estimate(binder.bind_sql(sql).plan)

    def test_bare_scan(self, env):
        assert self.estimate(env, "SELECT id FROM people") == 6.0

    def test_equality_uses_ndv(self, env):
        # lname = 'Smith': 6 rows / 5 distinct values
        rows = self.estimate(env, "SELECT id FROM people WHERE lname = 'Smith'")
        assert rows == pytest.approx(6 / 5, rel=0.01)

    def test_range_uses_min_max(self, env):
        # age < 42 over [23, 61]: ~half the non-null rows
        rows = self.estimate(env, "SELECT id FROM people WHERE age < 42")
        assert 1.5 < rows < 4.5

    def test_impossible_range_estimates_small(self, env):
        low = self.estimate(env, "SELECT id FROM people WHERE age < 23")
        high = self.estimate(env, "SELECT id FROM people WHERE age < 100")
        assert low < high

    def test_and_multiplies(self, env):
        single = self.estimate(env, "SELECT id FROM people WHERE lname = 'Smith'")
        double = self.estimate(
            env, "SELECT id FROM people WHERE lname = 'Smith' AND fname = 'John'"
        )
        assert double < single

    def test_or_unions(self, env):
        either = self.estimate(
            env, "SELECT id FROM people WHERE lname = 'Smith' OR lname = 'Doe'"
        )
        single = self.estimate(env, "SELECT id FROM people WHERE lname = 'Smith'")
        assert either > single

    def test_is_null_uses_null_fraction(self, env):
        rows = self.estimate(env, "SELECT id FROM people WHERE age IS NULL")
        assert rows == pytest.approx(1.0, rel=0.01)

    def test_in_list(self, env):
        rows = self.estimate(env, "SELECT id FROM people WHERE city_id IN (10, 20)")
        assert rows > self.estimate(env, "SELECT id FROM people WHERE city_id IN (10)")


class TestPlanEstimates:
    def estimate(self, env, sql):
        catalog, binder, estimator = env
        return estimator.estimate(binder.bind_sql(sql).plan)

    def test_equi_join_uses_key_ndv(self, env):
        rows = self.estimate(
            env,
            "SELECT 1 FROM people JOIN cities ON people.city_id = cities.city_id",
        )
        # 6 * 4 / max(ndv) = 24 / 4 = 6
        assert rows == pytest.approx(6.0, rel=0.2)

    def test_cross_join_multiplies(self, env):
        rows = self.estimate(env, "SELECT 1 FROM people, cities")
        assert rows == 24.0

    def test_group_by_capped_by_ndv(self, env):
        rows = self.estimate(
            env, "SELECT lname, count(*) AS n FROM people GROUP BY lname"
        )
        assert rows == pytest.approx(5.0, rel=0.01)

    def test_scalar_aggregate_is_one(self, env):
        assert self.estimate(env, "SELECT count(*) AS n FROM people") == 1.0

    def test_limit_caps(self, env):
        assert self.estimate(env, "SELECT id FROM people LIMIT 2") == 2.0

    def test_union_adds(self, env):
        rows = self.estimate(
            env, "SELECT id FROM people UNION ALL SELECT city_id FROM cities"
        )
        assert rows == 10.0

    def test_semi_join_bounded_by_left(self, env):
        rows = self.estimate(
            env,
            "SELECT id FROM people WHERE city_id IN (SELECT city_id FROM cities)",
        )
        assert 1.0 <= rows <= 6.0

    def test_renaming_projection_forwards_stats(self, env):
        catalog, binder, estimator = env
        rows = estimator.estimate(
            binder.bind_sql(
                "SELECT x FROM (SELECT lname AS x FROM people) t WHERE x = 'Smith'"
            ).plan
        )
        assert rows == pytest.approx(6 / 5, rel=0.01)

    def test_unknown_table_defaults(self, env):
        catalog, binder, estimator = env
        from repro.algebra.operators import Scan
        from repro.algebra.schema import Column
        from repro.algebra.types import DataType

        ghost = Scan("ghost", (Column(9999, "x", DataType.INTEGER),), ("x",))
        assert estimator.estimate(ghost) == 1000.0


class TestPlacementPassThrough:
    """Exchange/CachePopulate/CachedScan estimates.

    These placement and caching markers are bag-semantically the
    identity (or, for CachedScan, a replay of a known materialization),
    so the estimator must pass through to the child — not fall back to
    the unknown-plan default.
    """

    def plan(self, env, sql):
        _, binder, _ = env
        return binder.bind_sql(sql).plan

    def test_exchange_passes_through(self, env):
        *_, estimator = env
        plan = self.plan(env, "SELECT id FROM people WHERE lname = 'Smith'")
        base = estimator.estimate(plan)
        assert base != 1000.0  # regression guard: the old fallback value
        assert estimator.estimate(Exchange(plan, 0)) == base

    def test_cache_populate_passes_through(self, env):
        *_, estimator = env
        plan = self.plan(env, "SELECT id FROM people")
        base = estimator.estimate(plan)
        wrapped = CachePopulate(
            plan, "fp-test", ("c0",), ("people",), (("people", 1),)
        )
        assert estimator.estimate(wrapped) == base

    def test_nested_placement_nodes(self, env):
        *_, estimator = env
        plan = self.plan(env, "SELECT id FROM people WHERE lname = 'Smith'")
        base = estimator.estimate(plan)
        nested = Exchange(
            CachePopulate(plan, "fp-test", ("c0",), ("people",), (("people", 1),)),
            1,
        )
        assert estimator.estimate(nested) == base

    def test_cached_scan_uses_cache_entry(self, env):
        from repro.algebra.schema import Column
        from repro.engine.plan_cache import CacheEntry, PlanCache, entry_checksum

        catalog, _, _ = env
        cache = PlanCache(budget_bytes=1 << 20)
        columns = {"tok0": [1, 2, 3]}
        cache.put(
            CacheEntry(
                fingerprint="fp-cached",
                columns=columns,
                row_count=3,
                nbytes=24.0,
                tables=frozenset({"people"}),
                table_versions=(("people", catalog.table_version("people")),),
                saved_bytes=0.0,
                checksum=entry_checksum(columns),
            )
        )
        node = CachedScan(
            "fp-cached",
            (Column(9001, "x", DataType.INTEGER),),
            ("tok0",),
            ("people",),
        )
        estimator = CardinalityEstimator(catalog, plan_cache=cache)
        assert estimator.estimate(node) == 3.0

    def test_cached_scan_without_cache_defaults(self, env):
        from repro.algebra.schema import Column

        *_, estimator = env
        node = CachedScan(
            "fp-missing", (Column(9002, "x", DataType.INTEGER),), ("tok0",)
        )
        assert estimator.estimate(node) == 1000.0


class TestSelectivityBugfixes:
    """Pins for the boolean-literal and IN-list NULL-handling fixes."""

    @pytest.fixture()
    def flags_env(self):
        # 10 rows: 8 TRUE, 2 FALSE, no NULLs.  min/max are False/True,
        # so the old numeric interpolation saw a degenerate [0, 1]
        # range and produced nonsense fractions for </>.
        from repro.storage.columnar import Store

        store = Store()
        store.put(
            simple_table(
                "flags",
                [("id", DataType.INTEGER), ("active", DataType.BOOLEAN)],
                [(i, i < 8) for i in range(10)],
                primary_key=("id",),
            )
        )
        catalog = Catalog()
        store.load_catalog(catalog)
        return catalog, Binder(catalog), CardinalityEstimator(catalog)

    def test_bool_comparison_treated_as_equality(self, flags_env):
        catalog, binder, estimator = flags_env
        scan_plan = binder.bind_sql("SELECT id, active FROM flags").plan
        bool_col = next(c for c in scan_plan.output_columns if c.name == "active")
        eq = estimator.estimate(
            Filter(
                scan_plan,
                Comparison("=", ColumnRef(bool_col), Literal(True, DataType.BOOLEAN)),
            )
        )
        for op in ("<", "<=", ">", ">="):
            ranged = estimator.estimate(
                Filter(
                    scan_plan,
                    Comparison(
                        op, ColumnRef(bool_col), Literal(True, DataType.BOOLEAN)
                    ),
                )
            )
            # Bool "ranges" are meaningless; the fix prices every bool
            # comparison like an equality over ndv instead of
            # interpolating across the degenerate False..True span.
            assert ranged == pytest.approx(eq), op
        assert eq == pytest.approx(10 / 2)

    def test_in_list_respects_null_fraction(self):
        # 10 rows, 8 NULL, values {1, 2}: IN (1, 2) can match at most
        # the 2 non-null rows.  The old estimate ignored null_fraction
        # and claimed all 10 rows.
        from repro.storage.columnar import Store

        store = Store()
        store.put(
            simple_table(
                "sparse",
                [("id", DataType.INTEGER), ("v", DataType.INTEGER)],
                [(0, 1), (1, 2), *[(i, None) for i in range(2, 10)]],
                primary_key=("id",),
            )
        )
        catalog = Catalog()
        store.load_catalog(catalog)
        estimator = CardinalityEstimator(catalog)
        binder = Binder(catalog)
        rows = estimator.estimate(
            binder.bind_sql("SELECT id FROM sparse WHERE v IN (1, 2)").plan
        )
        assert rows == pytest.approx(2.0, rel=0.01)
        # And a single-value IN behaves like equality under the same cap.
        one = estimator.estimate(
            binder.bind_sql("SELECT id FROM sparse WHERE v IN (1)").plan
        )
        assert one == pytest.approx(1.0, rel=0.01)


class TestMemoization:
    def test_stats_collected_once_per_node(self, env):
        catalog, binder, estimator = env
        calls = {"n": 0}
        original = catalog.column_stats

        def counting(table, column):
            calls["n"] += 1
            return original(table, column)

        catalog.column_stats = counting  # instance shadow, test-local
        plan = binder.bind_sql("SELECT id FROM people WHERE lname = 'Smith'").plan
        estimator.estimate(plan)
        first = calls["n"]
        assert first > 0
        estimator.estimate(plan)
        assert calls["n"] == first  # second estimate is fully memoized

    def test_wrapping_reuses_child_memo(self, env):
        catalog, binder, estimator = env
        plan = binder.bind_sql("SELECT id FROM people WHERE age < 42").plan
        base = estimator.estimate(plan)
        calls = {"n": 0}
        original = catalog.column_stats

        def counting(table, column):
            calls["n"] += 1
            return original(table, column)

        catalog.column_stats = counting
        assert estimator.estimate(Exchange(plan, 0)) == base
        assert calls["n"] == 0  # the shared subtree was not re-collected


class TestGeneratorPropertySweep:
    """Seeded property sweep: every generator plan gets a sane estimate."""

    def test_estimates_are_finite_positive_and_wrap_invariant(self, tpcds_store):
        from repro.errors import BindingError, SqlSyntaxError
        from repro.testing.generator import QueryGenerator

        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        estimator = CardinalityEstimator(catalog)
        generator = QueryGenerator(catalog, seed=1234)
        checked = 0
        for _ in range(60):
            spec = generator.generate()
            try:
                plan = Binder(catalog).bind_sql(spec.render()).plan
            except (BindingError, SqlSyntaxError):
                continue
            rows = estimator.estimate(plan)
            assert math.isfinite(rows), spec.render()
            assert rows >= 1.0, spec.render()
            wrapped = Exchange(plan, 1)
            assert estimator.estimate(wrapped) == rows, spec.render()
            checked += 1
        assert checked >= 30  # the generator must yield mostly bindable SQL
