"""Unit tests for the Fuse operation (§III), per operator case.

Each test checks both the *shape* of the fused result and its
*semantics*: executing the compensated reconstructions against the
original plans on real data must give identical multisets.
"""

import pytest

from repro.algebra.expressions import (
    FALSE,
    TRUE,
    And,
    ColumnRef,
    Comparison,
    Or,
    columns_in,
    integer,
    normalize,
    string,
)
from repro.algebra.operators import (
    EnforceSingleRow,
    Filter,
    GroupBy,
    Join,
    Limit,
    MarkDistinct,
    Project,
    Scan,
    Sort,
    UnionAll,
    Window,
)
from repro.algebra.validator import validate_plan
from repro.algebra.visitors import collect, scan_tables
from repro.catalog.catalog import Catalog
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.fusion.fuse import Fuser, structural_equivalence
from repro.fusion.result import reconstruct_left, reconstruct_right
from repro.sql.binder import Binder


@pytest.fixture()
def env(people_store):
    catalog = Catalog()
    people_store.load_catalog(catalog)
    binder = Binder(catalog)
    return people_store, catalog, binder, Fuser(catalog.allocator)


def plan_of(binder, sql):
    return binder.bind_sql(sql).plan


def rows_of(plan, store):
    return sorted(
        execute(plan, RunContext(store)),
        key=lambda r: tuple((v is None, str(v)) for v in r),
    )


def check_reconstruction(result, p1, p2, store, allocator):
    """The FusionResult invariant: L/M/R restore both inputs."""
    validate_plan(result.plan)
    left = reconstruct_left(result, p1)
    right = reconstruct_right(result, p2, allocator)
    validate_plan(left)
    validate_plan(right)
    assert rows_of(left, store) == rows_of(p1, store)
    assert rows_of(right, store) == rows_of(p2, store)


class TestScanFusion:
    def test_same_table_fuses(self, env):
        store, catalog, binder, fuser = env
        p1 = plan_of(binder, "SELECT id, fname FROM people")
        p2 = plan_of(binder, "SELECT fname, lname FROM people")
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        assert scan_tables(result.plan) == ["people"]
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_different_tables_fail(self, env):
        _, _, binder, fuser = env
        p1 = plan_of(binder, "SELECT id FROM people")
        p2 = plan_of(binder, "SELECT city_id FROM cities")
        assert fuser.fuse(p1, p2) is None

    def test_mapping_is_positional_by_source(self, env):
        _, catalog, binder, fuser = env
        cols1, src1 = catalog.fresh_scan_columns("people")
        cols2, src2 = catalog.fresh_scan_columns("people")
        s1, s2 = Scan("people", cols1, src1), Scan("people", cols2, src2)
        result = fuser.fuse(s1, s2)
        for c2, c1 in zip(cols2, cols1):
            assert result.mapping.map_column(c2) == c1

    def test_disjoint_column_subsets_extend_schema(self, env):
        store, catalog, binder, fuser = env
        cols1, _ = catalog.fresh_scan_columns("people")
        cols2, _ = catalog.fresh_scan_columns("people")
        s1 = Scan("people", cols1[:2], ("id", "fname"))
        s2 = Scan("people", cols2[3:], ("age", "city_id"))
        result = fuser.fuse(s1, s2)
        assert len(result.plan.output_columns) == 4
        check_reconstruction(result, s1, s2, store, catalog.allocator)

    def test_scan_predicates_fuse_like_filters(self, env):
        store, catalog, binder, fuser = env
        cols1, src = catalog.fresh_scan_columns("people")
        cols2, _ = catalog.fresh_scan_columns("people")
        s1 = Scan("people", cols1, src, Comparison(">", ColumnRef(cols1[3]), integer(30)))
        s2 = Scan("people", cols2, src, Comparison("<", ColumnRef(cols2[3]), integer(25)))
        result = fuser.fuse(s1, s2)
        assert result is not None and not result.is_exact
        assert isinstance(result.plan.predicate, Or)
        check_reconstruction(result, s1, s2, store, catalog.allocator)


class TestFilterFusion:
    def test_paper_section_b_example_shape(self, env):
        """§III.B: same scan, different brand filters -> OR'd filter."""
        store, catalog, binder, fuser = env
        p1 = plan_of(
            binder,
            "SELECT lname FROM people WHERE lname = 'Smith' AND age > 30",
        )
        p2 = plan_of(
            binder,
            "SELECT lname FROM people WHERE lname = 'Smith' AND age < 25",
        )
        result = fuser.fuse(p1, p2)
        assert result is not None and not result.is_exact
        filters = collect(result.plan, Filter)
        assert filters and isinstance(filters[0].condition, (Or, And))
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_equivalent_filters_stay_exact(self, env):
        store, catalog, binder, fuser = env
        p1 = plan_of(binder, "SELECT id FROM people WHERE age > 30 AND lname = 'Smith'")
        p2 = plan_of(binder, "SELECT id FROM people WHERE lname = 'Smith' AND age > 30")
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_filter_against_bare_scan(self, env):
        """§III.G root mismatch: Filter on one side only is absorbed."""
        store, catalog, binder, fuser = env
        p1 = plan_of(binder, "SELECT id, age FROM people WHERE age > 30")
        p2 = plan_of(binder, "SELECT id, age FROM people")
        result = fuser.fuse(p1, p2)
        assert result is not None
        assert result.right_filter == TRUE
        assert result.left_filter != TRUE
        check_reconstruction(result, p1, p2, store, catalog.allocator)


class TestProjectFusion:
    def test_shared_expressions_deduplicated(self, env):
        """§III.C: equal expressions map, new ones extend the schema."""
        store, catalog, binder, fuser = env
        p1 = plan_of(binder, "SELECT age + 1 AS age_plus_one FROM people")
        p2 = plan_of(binder, "SELECT age + 1 AS x, 'new' AS y FROM people")
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        project = result.plan
        assert isinstance(project, Project)
        assert len(project.assignments) == 2  # age+1 shared, 'new' added
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_nested_projection_example(self, env):
        """§III.C second example: projection over a renamed subquery."""
        store, catalog, binder, fuser = env
        p1 = plan_of(binder, "SELECT age + 1 AS a1 FROM people")
        p2 = plan_of(
            binder,
            "SELECT new_age + 1 AS x FROM (SELECT age AS new_age FROM people) t",
        )
        result = fuser.fuse(p1, p2)
        assert result is not None
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_compensating_filter_pulls_through_projection(self, env):
        """L/R must stay well-formed over the projected schema."""
        store, catalog, binder, fuser = env
        p1 = plan_of(binder, "SELECT fname FROM people WHERE age > 30")
        p2 = plan_of(binder, "SELECT fname FROM people WHERE age < 25")
        result = fuser.fuse(p1, p2)
        assert result is not None
        out = set(result.plan.output_columns)
        assert columns_in(result.left_filter) <= out
        assert columns_in(result.right_filter) <= out
        check_reconstruction(result, p1, p2, store, catalog.allocator)


class TestJoinFusion:
    def test_same_join_different_filters(self, env):
        """§III.D: pairwise side fusion, conditions must match."""
        store, catalog, binder, fuser = env
        p1 = plan_of(
            binder,
            "SELECT id FROM people JOIN cities ON people.city_id = cities.city_id "
            "WHERE age > 30",
        )
        p2 = plan_of(
            binder,
            "SELECT id FROM people JOIN cities ON people.city_id = cities.city_id "
            "WHERE city = 'Austin'",
        )
        result = fuser.fuse(p1, p2)
        assert result is not None
        assert scan_tables(result.plan).count("people") == 1
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_different_join_conditions_fail(self, env):
        _, _, binder, fuser = env
        p1 = plan_of(binder, "SELECT 1 FROM people JOIN cities ON people.city_id = cities.city_id")
        p2 = plan_of(binder, "SELECT 1 FROM people JOIN cities ON people.id = cities.city_id")
        assert fuser.fuse(p1, p2) is None

    def test_semi_join_requires_exact_right(self, env):
        store, catalog, binder, fuser = env
        p1 = plan_of(
            binder,
            "SELECT id FROM people WHERE city_id IN (SELECT city_id FROM cities)",
        )
        p2 = plan_of(
            binder,
            "SELECT id FROM people WHERE city_id IN "
            "(SELECT city_id FROM cities WHERE city = 'Austin')",
        )
        assert fuser.fuse(p1, p2) is None

    def test_semi_join_exact_fuses(self, env):
        store, catalog, binder, fuser = env
        sql = "SELECT id FROM people WHERE city_id IN (SELECT city_id FROM cities)"
        p1 = plan_of(binder, sql)
        p2 = plan_of(binder, sql)
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        check_reconstruction(result, p1, p2, store, catalog.allocator)


class TestGroupByFusion:
    def test_paper_section_e_masks(self, env):
        """§III.E: masks tightened, compensating counts added."""
        store, catalog, binder, fuser = env
        p1 = plan_of(
            binder,
            "SELECT lname, min(age) AS mi FROM people WHERE city_id = 10 GROUP BY lname",
        )
        p2 = plan_of(
            binder,
            "SELECT lname, avg(age) FILTER (WHERE id > 2) AS avga FROM people GROUP BY lname",
        )
        result = fuser.fuse(p1, p2)
        assert result is not None
        grouped = collect(result.plan, GroupBy)[0]
        # min with tightened mask, avg with its own mask, comp count.
        assert len(grouped.aggregates) == 3
        masks = [a.mask for a in grouped.aggregates]
        assert sum(m != TRUE for m in masks) >= 2
        assert result.left_filter != TRUE  # count > 0 compensation
        assert result.right_filter == TRUE  # p2 had no filter
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_shared_aggregates_mapped_not_duplicated(self, env):
        store, catalog, binder, fuser = env
        sql = "SELECT lname, count(*) AS n FROM people GROUP BY lname"
        p1, p2 = plan_of(binder, sql), plan_of(binder, sql)
        result = fuser.fuse(p1, p2)
        grouped = collect(result.plan, GroupBy)[0]
        assert len(grouped.aggregates) == 1
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_different_keys_fail(self, env):
        _, _, binder, fuser = env
        p1 = plan_of(binder, "SELECT lname, count(*) AS n FROM people GROUP BY lname")
        p2 = plan_of(binder, "SELECT fname, count(*) AS n FROM people GROUP BY fname")
        assert fuser.fuse(p1, p2) is None

    def test_scalar_aggregates_fuse_without_compensation(self, env):
        """§IV.B scalar special case feeds on this: comp filters TRUE."""
        store, catalog, binder, fuser = env
        p1 = plan_of(binder, "SELECT count(*) AS n FROM people WHERE age > 30")
        p2 = plan_of(binder, "SELECT avg(age) AS a FROM people WHERE age < 25")
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        grouped = collect(result.plan, GroupBy)[0]
        assert all(a.mask != TRUE for a in grouped.aggregates)
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_groups_emptied_by_mask_are_filtered(self, env):
        """The subtle §III.E detail: groups whose rows were all
        discarded by the mask must not appear for that consumer."""
        store, catalog, binder, fuser = env
        p1 = plan_of(
            binder,
            "SELECT city_id, count(*) AS n FROM people WHERE age > 40 GROUP BY city_id",
        )
        p2 = plan_of(binder, "SELECT city_id, count(*) AS n FROM people GROUP BY city_id")
        result = fuser.fuse(p1, p2)
        assert result is not None
        check_reconstruction(result, p1, p2, store, catalog.allocator)
        # p1 only has groups for cities with someone over 40.
        left_rows = rows_of(reconstruct_left(result, p1), store)
        assert left_rows == rows_of(p1, store)


class TestMarkDistinctFusion:
    def build_mark_distinct(self, binder, where=None):
        sql = "SELECT lname FROM people" + (f" WHERE {where}" if where else "")
        inner = binder.bind_sql(sql).plan
        marker = binder.catalog.allocator.fresh("d", __import__("repro.algebra.types", fromlist=["DataType"]).DataType.BOOLEAN)
        return MarkDistinct(inner, (inner.output_columns[0],), marker)

    def test_exact_chain(self, env):
        store, catalog, binder, fuser = env
        p1 = self.build_mark_distinct(binder)
        p2 = self.build_mark_distinct(binder)
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        assert len(collect(result.plan, MarkDistinct)) == 2
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_compensated_masks(self, env):
        """§III.F with filters: markers must be tightened per consumer."""
        store, catalog, binder, fuser = env
        p1 = self.build_mark_distinct(binder, "age > 30")
        p2 = self.build_mark_distinct(binder, "age < 30")
        result = fuser.fuse(p1, p2)
        assert result is not None and not result.is_exact
        marks = collect(result.plan, MarkDistinct)
        assert all(m.mask != TRUE for m in marks)
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_skip_mark_distinct_mismatch(self, env):
        """§III.G: Filter(T) vs MarkDistinct(Filter(T)) resolves by
        skipping the MarkDistinct, not injecting a trivial filter."""
        store, catalog, binder, fuser = env
        plain = plan_of(binder, "SELECT lname FROM people WHERE age > 30")
        marked = self.build_mark_distinct(binder, "age > 30")
        result = fuser.fuse(plain, marked)
        assert result is not None
        # Good outcome: single filter chain, MarkDistinct on top.
        assert isinstance(result.plan, MarkDistinct)
        check_reconstruction(result, plain, marked, store, catalog.allocator)


class TestGenericAndStructural:
    def test_enforce_single_row(self, env):
        store, catalog, binder, fuser = env
        inner = plan_of(binder, "SELECT max(age) AS m FROM people")
        p1, p2 = EnforceSingleRow(inner), EnforceSingleRow(
            plan_of(binder, "SELECT max(age) AS m FROM people")
        )
        result = fuser.fuse(p1, p2)
        assert result is not None and isinstance(result.plan, EnforceSingleRow)
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_sort_fusion_with_filters(self, env):
        store, catalog, binder, fuser = env
        p1 = plan_of(binder, "SELECT id, age FROM people WHERE age > 30 ORDER BY id")
        p2 = plan_of(binder, "SELECT id, age FROM people WHERE age < 25 ORDER BY id")
        result = fuser.fuse(p1, p2)
        assert result is not None
        assert isinstance(result.plan, Sort)
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_sort_direction_mismatch_fails(self, env):
        _, _, binder, fuser = env
        p1 = plan_of(binder, "SELECT id FROM people ORDER BY id")
        p2 = plan_of(binder, "SELECT id FROM people ORDER BY id DESC")
        assert fuser.fuse(p1, p2) is None

    def test_limit_fuses_only_exact(self, env):
        store, catalog, binder, fuser = env
        p1 = plan_of(binder, "SELECT id FROM people ORDER BY id LIMIT 3")
        p2 = plan_of(binder, "SELECT id FROM people ORDER BY id LIMIT 3")
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        p3 = plan_of(binder, "SELECT id FROM people WHERE age > 30 ORDER BY id LIMIT 3")
        assert fuser.fuse(p1, p3) is None

    def test_structural_equivalence_union(self, env):
        store, catalog, binder, fuser = env
        sql = "SELECT id FROM people UNION ALL SELECT city_id FROM cities"
        p1, p2 = plan_of(binder, sql), plan_of(binder, sql)
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_structural_equivalence_rejects_different(self, env):
        _, _, binder, fuser = env
        p1 = plan_of(binder, "SELECT id FROM people UNION ALL SELECT city_id FROM cities")
        p2 = plan_of(binder, "SELECT id FROM people UNION ALL SELECT id FROM people")
        assert structural_equivalence(p1, p2) is None

    def test_fallback_sees_through_inner_join_input_order(self, env):
        # UnionAll has no §III case, so it fuses only when both sides
        # compute the same rows.  Here the branch joins list their INNER
        # inputs in opposite orders: the same rows, and the same
        # fingerprint in the plan cache.
        store, catalog, binder, fuser = env
        tail = " UNION ALL SELECT city_id FROM cities"
        p1 = plan_of(
            binder,
            "SELECT p.id FROM people p JOIN cities c ON p.city_id = c.city_id" + tail,
        )
        p2 = plan_of(
            binder,
            "SELECT p.id FROM cities c JOIN people p ON p.city_id = c.city_id" + tail,
        )
        result = fuser.fuse(p1, p2)
        assert result is not None and result.is_exact
        check_reconstruction(result, p1, p2, store, catalog.allocator)

    def test_window_fusion_merges_functions(self, env):
        store, catalog, binder, fuser = env
        p1 = plan_of(
            binder,
            "SELECT id, avg(age) OVER (PARTITION BY city_id) AS a FROM people",
        )
        p2 = plan_of(
            binder,
            "SELECT id, avg(age) OVER (PARTITION BY city_id) AS a, "
            "count(*) OVER (PARTITION BY city_id) AS n FROM people",
        )
        result = fuser.fuse(p1, p2)
        assert result is not None
        window = collect(result.plan, Window)[0]
        assert len(window.functions) == 2
        check_reconstruction(result, p1, p2, store, catalog.allocator)
