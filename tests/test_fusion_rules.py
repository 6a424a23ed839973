"""Unit tests for the four §IV fusion rules, with plan-shape and
semantics checks on small concrete data."""

import pytest

from repro.algebra.expressions import ColumnRef, Case
from repro.algebra.operators import (
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Project,
    Scan,
    UnionAll,
    Values,
    Window,
)
from repro.algebra.validator import validate_plan
from repro.algebra.visitors import collect, scan_tables
from repro.catalog.catalog import Catalog
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.fusion_rules import (
    GroupByJoinToWindow,
    JoinOnKeys,
    UnionAllFusion,
    UnionAllOnJoin,
)
from repro.optimizer.rewrites import (
    Cleanup,
    PredicatePushdown,
    RemoveScalarSubqueries,
)
from repro.sql.binder import Binder


@pytest.fixture()
def env(people_store):
    catalog = Catalog()
    people_store.load_catalog(catalog)
    binder = Binder(catalog)
    ctx = OptimizerContext(catalog, OptimizerConfig())
    return people_store, binder, ctx


def rows_of(plan, store):
    return sorted(
        execute(plan, RunContext(store)),
        key=lambda r: tuple((v is None, str(v)) for v in r),
    )


def check(rule, plan, store, ctx, expect_change=True):
    rewritten = rule.run(plan, ctx)
    validate_plan(rewritten)
    assert rows_of(rewritten, store) == rows_of(plan, store)
    if expect_change:
        assert rewritten != plan
    return rewritten


class TestGroupByJoinToWindow:
    CTE = (
        "WITH spend AS (SELECT person_id, city_id, sum(amount) AS total "
        "FROM orders, people WHERE person_id = id GROUP BY person_id, city_id) "
    )

    def test_q65_like_pattern(self, env):
        """Aggregate of a CTE joined back to the CTE -> window."""
        store, binder, ctx = env
        sql = self.CTE + (
            "SELECT s1.person_id, s1.total, s2.avg_total "
            "FROM spend s1, (SELECT city_id, avg(total) AS avg_total "
            "FROM spend GROUP BY city_id) s2 "
            "WHERE s1.city_id = s2.city_id"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = check(GroupByJoinToWindow(), plan, store, ctx)
        assert collect(rewritten, Window)
        assert scan_tables(rewritten).count("orders") == 1

    def test_residual_condition_kept(self, env):
        store, binder, ctx = env
        sql = self.CTE + (
            "SELECT s1.person_id FROM spend s1, "
            "(SELECT city_id, avg(total) AS avg_total FROM spend GROUP BY city_id) s2 "
            "WHERE s1.city_id = s2.city_id AND s1.total > s2.avg_total"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = check(GroupByJoinToWindow(), plan, store, ctx)
        assert collect(rewritten, Window)

    def test_different_subexpressions_do_not_fire(self, env):
        store, binder, ctx = env
        sql = (
            "SELECT p.id FROM people p, "
            "(SELECT city_id, avg(amount) AS a FROM orders, people "
            "WHERE person_id = id GROUP BY city_id) agg "
            "WHERE p.city_id = agg.city_id"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = GroupByJoinToWindow().run(plan, ctx)
        assert not collect(rewritten, Window)

    def test_filter_between_join_and_group_by(self, env):
        """§IV.E: a HAVING on the aggregated side (a filter between the
        join and the GroupBy) is pulled above the window rewrite."""
        store, binder, ctx = env
        sql = self.CTE + (
            "SELECT s1.person_id FROM spend s1, "
            "(SELECT city_id, avg(total) AS avg_total FROM spend "
            " GROUP BY city_id HAVING avg(total) > 20) s2 "
            "WHERE s1.city_id = s2.city_id"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = check(GroupByJoinToWindow(), plan, store, ctx)
        assert collect(rewritten, Window)
        assert scan_tables(rewritten).count("orders") == 1

    def test_masked_aggregates_block_rule(self, env):
        store, binder, ctx = env
        sql = self.CTE + (
            "SELECT s1.person_id FROM spend s1, "
            "(SELECT city_id, avg(total) FILTER (WHERE total > 10) AS avg_total "
            "FROM spend GROUP BY city_id) s2 "
            "WHERE s1.city_id = s2.city_id"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = GroupByJoinToWindow().run(plan, ctx)
        assert not collect(rewritten, Window)


class TestJoinOnKeys:
    def test_scalar_aggregates_merge_over_cross_join(self, env):
        """§IV.B special case (Q09-shaped)."""
        store, binder, ctx = env
        sql = (
            "SELECT (SELECT count(*) FROM orders WHERE amount > 50) AS big, "
            "(SELECT avg(amount) FROM orders WHERE amount < 20) AS small_avg"
        )
        plan = binder.bind_sql(sql).plan
        plan = RemoveScalarSubqueries().run(plan, ctx)
        plan = Cleanup().run(plan, ctx)
        rewritten = check(JoinOnKeys(), plan, store, ctx)
        assert scan_tables(rewritten).count("orders") == 1
        grouped = collect(rewritten, GroupBy)
        assert len(grouped) == 1 and len(grouped[0].aggregates) == 2

    def test_keyed_group_bys_fused_via_join(self, env):
        store, binder, ctx = env
        sql = (
            "SELECT a.person_id, a.total, b.cnt FROM "
            "(SELECT person_id, sum(amount) AS total FROM orders GROUP BY person_id) a, "
            "(SELECT person_id, count(*) AS cnt FROM orders GROUP BY person_id) b "
            "WHERE a.person_id = b.person_id"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = check(JoinOnKeys(), plan, store, ctx)
        assert scan_tables(rewritten).count("orders") == 1

    def test_transitively_connected_keys(self, env):
        """§V.D shape: both distincts join to the same outer column."""
        store, binder, ctx = env
        sql = (
            "SELECT people.id FROM people, "
            "(SELECT DISTINCT person_id FROM orders) r0, "
            "(SELECT DISTINCT person_id AS pid FROM orders) r2 "
            "WHERE id = r0.person_id AND id = r2.pid"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = check(JoinOnKeys(), plan, store, ctx)
        assert scan_tables(rewritten).count("orders") == 1

    def test_non_key_join_does_not_fire(self, env):
        store, binder, ctx = env
        sql = (
            "SELECT a.total FROM "
            "(SELECT person_id, day, sum(amount) AS total FROM orders GROUP BY person_id, day) a, "
            "(SELECT person_id, count(*) AS cnt FROM orders GROUP BY person_id) b "
            "WHERE a.person_id = b.person_id"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = JoinOnKeys().run(plan, ctx)
        # Keys {person_id, day} vs {person_id} differ: no fusion.
        assert scan_tables(rewritten).count("orders") == 2


class TestUnionAllFusion:
    def test_paper_cte_tag_example(self, env):
        """§I's second example: two filters of one CTE -> tagged replication."""
        store, binder, ctx = env
        sql = (
            "WITH cte AS (SELECT fname, lname, id FROM people, orders WHERE id = person_id) "
            "SELECT id FROM cte WHERE fname = 'John' "
            "UNION ALL SELECT id FROM cte WHERE lname = 'Smith'"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = check(UnionAllFusion(), plan, store, ctx)
        assert not collect(rewritten, UnionAll)
        assert scan_tables(rewritten).count("people") == 1
        values = collect(rewritten, Values)
        assert values and values[0].rows == ((1,), (2,))

    def test_disjoint_filters_skip_tag_table(self, env):
        """§IV.D extension: L AND R = FALSE -> no replication."""
        store, binder, ctx = env
        sql = (
            "WITH cte AS (SELECT age, id FROM people, orders WHERE id = person_id) "
            "SELECT id FROM cte WHERE age > 40 "
            "UNION ALL SELECT id FROM cte WHERE age < 30"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = check(UnionAllFusion(), plan, store, ctx)
        assert not collect(rewritten, Values)  # no constant tag table
        assert not collect(rewritten, UnionAll)

    def test_case_elided_for_identical_columns(self, env):
        store, binder, ctx = env
        sql = (
            "WITH cte AS (SELECT id, age FROM people, orders WHERE id = person_id) "
            "SELECT id FROM cte WHERE age > 40 "
            "UNION ALL SELECT id FROM cte WHERE age > 50"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = check(UnionAllFusion(), plan, store, ctx)
        top = rewritten
        assert isinstance(top, Project)
        assert not any(isinstance(e, Case) for _, e in top.assignments)

    def test_nary_union(self, env):
        store, binder, ctx = env
        sql = (
            "WITH cte AS (SELECT age, id FROM people, orders WHERE id = person_id) "
            "SELECT id FROM cte WHERE age > 40 "
            "UNION ALL SELECT id FROM cte WHERE age BETWEEN 25 AND 35 "
            "UNION ALL SELECT id FROM cte WHERE age < 25"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = check(UnionAllFusion(), plan, store, ctx)
        assert not collect(rewritten, UnionAll)
        values = collect(rewritten, Values)
        assert values and len(values[0].rows) == 3

    def test_cheap_branches_not_rewritten(self, env):
        store, binder, ctx = env
        sql = (
            "SELECT tag FROM (VALUES (1)) a(tag) "
            "UNION ALL SELECT tag FROM (VALUES (2)) b(tag)"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = UnionAllFusion().run(plan, ctx)
        assert collect(rewritten, UnionAll)  # heuristic: not worth fusing

    def test_different_sources_do_not_fuse(self, env):
        store, binder, ctx = env
        sql = (
            "SELECT id AS v FROM people UNION ALL SELECT city_id AS v FROM cities"
        )
        plan = binder.bind_sql(sql).plan
        rewritten = UnionAllFusion().run(plan, ctx)
        assert collect(rewritten, UnionAll)


class TestUnionAllOnJoin:
    def test_q23_shaped_rewrite(self, env):
        """Branches differing only in the left table: union pushed below."""
        store, binder, ctx = env
        sql = (
            "WITH vip AS (SELECT person_id AS pid FROM orders "
            "GROUP BY person_id HAVING sum(amount) > 90) "
            "SELECT fname FROM people, cities "
            "WHERE people.city_id = cities.city_id AND city = 'Seattle' "
            "AND id IN (SELECT pid FROM vip) "
            "UNION ALL "
            "SELECT lname FROM people, cities "
            "WHERE people.city_id = cities.city_id AND city = 'Seattle' "
            "AND id IN (SELECT pid FROM vip)"
        )
        # Both branches share cities + the vip semi-join, differ in the
        # projected column only — the differing "input" is people itself
        # via its projections.  Push predicates first, as the pipeline does.
        plan = binder.bind_sql(sql).plan
        plan = PredicatePushdown().run(plan, ctx)
        rewritten = UnionAllOnJoin().run(plan, ctx)
        validate_plan(rewritten)
        assert rows_of(rewritten, store) == rows_of(plan, store)

    def test_different_fact_tables_share_dimension(self, env):
        store, binder, ctx = env
        # Both branches join the shared dimension (people) on the same
        # key column (§IV.C's d1i = M(d2i) requirement), and the union
        # slots carry the same type.
        sql = (
            "SELECT person_id AS v FROM orders, people "
            "WHERE person_id = id AND age > 25 "
            "UNION ALL "
            "SELECT cities.city_id AS v FROM cities, people "
            "WHERE cities.city_id = people.id AND age > 25"
        )
        plan = binder.bind_sql(sql).plan
        plan = PredicatePushdown().run(plan, ctx)
        rewritten = UnionAllOnJoin().run(plan, ctx)
        validate_plan(rewritten)
        assert rows_of(rewritten, store) == rows_of(plan, store)
        # people (the shared input) must now be scanned once.
        assert scan_tables(rewritten).count("people") == 1
        unions = collect(rewritten, UnionAll)
        assert unions  # the union of the two differing tables remains
