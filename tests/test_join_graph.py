"""Unit tests for the n-ary join-region machinery (§IV.E)."""

import pytest

from repro.algebra.expressions import ColumnRef, Comparison, IsNull, Not, integer
from repro.algebra.operators import Filter, Join, JoinKind, Project, Scan
from repro.algebra.validator import validate_plan
from repro.algebra.visitors import collect
from repro.catalog.catalog import Catalog
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.join_graph import (
    EquivalenceClasses,
    JoinGraph,
    flatten_join_region,
    peel_renaming,
    rebuild_join_region,
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


class TestFlatten:
    def test_flatten_inner_join_chain(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT 1 FROM people JOIN cities ON people.city_id = cities.city_id "
            "JOIN orders ON people.id = orders.person_id WHERE age > 30"
        ).plan
        # Strip the final projection to reach the region root.
        region = plan.child if isinstance(plan, Project) else plan
        graph = flatten_join_region(region)
        assert graph is not None
        assert len(graph.inputs) == 3
        assert len(graph.conjuncts) == 3  # two join conds + the filter

    def test_non_region_returns_none(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql("SELECT id FROM people").plan
        assert flatten_join_region(plan) is None

    def test_semi_joins_hoisted(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT 1 FROM people, cities WHERE people.city_id = cities.city_id "
            "AND id IN (SELECT person_id FROM orders)"
        ).plan
        region = plan.child if isinstance(plan, Project) else plan
        graph = flatten_join_region(region)
        assert graph is not None and len(graph.semis) == 1
        assert len(graph.inputs) == 2

    def test_renaming_projection_absorbed(self, env):
        store, binder, ctx = env
        inner = binder.bind_sql(
            "SELECT x FROM (SELECT id AS x FROM people) t, cities WHERE x = cities.city_id"
        ).plan
        region = inner.child if isinstance(inner, Project) else inner
        graph = flatten_join_region(region)
        assert graph is not None
        # The rename (x := id) sits in the substitution, inputs are raw.
        assert all(isinstance(node, (Scan, Filter)) for node in graph.inputs)

    def test_roundtrip_preserves_semantics(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT id, city FROM people JOIN cities ON people.city_id = cities.city_id "
            "WHERE age > 25"
        ).plan
        region = plan.child if isinstance(plan, Project) else plan
        graph = flatten_join_region(region)
        rebuilt = rebuild_join_region(graph, ctx)
        validate_plan(rebuilt)
        assert set(rebuilt.output_columns) >= set(region.output_columns)
        full = Project(
            rebuilt,
            tuple((c, ColumnRef(c)) for c in region.output_columns),
        )
        assert rows_of(full, store) == rows_of(
            Project(region, tuple((c, ColumnRef(c)) for c in region.output_columns)),
            store,
        )

    def test_left_join_is_opaque(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql(
            "SELECT 1 FROM people LEFT JOIN cities ON people.city_id = cities.city_id, orders"
        ).plan
        region = plan.child if isinstance(plan, Project) else plan
        graph = flatten_join_region(region)
        assert graph is not None
        assert any(
            isinstance(node, Join) and node.kind is JoinKind.LEFT for node in graph.inputs
        )


class TestSubstitution:
    def test_self_equality_becomes_not_null(self, env):
        store, binder, ctx = env
        scan = collect(binder.bind_sql("SELECT id FROM people").plan, Scan)[0]
        a = scan.columns[0]
        b_plan = binder.bind_sql("SELECT id FROM people").plan
        b = collect(b_plan, Scan)[0].columns[0]
        graph = JoinGraph(
            [scan],
            [Comparison("=", ColumnRef(a), ColumnRef(b))],
            [],
            (a,),
        )
        graph.add_substitution({b.cid: ColumnRef(a)})
        graph.apply_substitution()
        assert graph.conjuncts == [Not(IsNull(ColumnRef(a)))]

    def test_substitution_composition(self, env):
        store, binder, ctx = env
        scan = collect(binder.bind_sql("SELECT id FROM people").plan, Scan)[0]
        a, b, c = scan.columns[0], scan.columns[1], scan.columns[2]
        graph = JoinGraph([scan], [], [], (a,))
        graph.add_substitution({a.cid: ColumnRef(b)})
        graph.add_substitution({b.cid: ColumnRef(c)})
        assert graph.substitution[a.cid] == ColumnRef(c)


class TestHelpers:
    def test_peel_renaming(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql("SELECT id AS x FROM people").plan
        inner, exposure = peel_renaming(plan)
        assert isinstance(inner, Scan)
        [(outer_cid, source)] = [
            (cid, col) for cid, col in exposure.items() if col.name == "id"
        ]
        assert source in inner.output_columns

    def test_peel_stops_at_computed(self, env):
        store, binder, ctx = env
        plan = binder.bind_sql("SELECT id + 1 AS x FROM people").plan
        inner, exposure = peel_renaming(plan)
        assert inner is plan  # computed projection is not peeled

    def test_equivalence_classes(self, env):
        store, binder, ctx = env
        scan = collect(binder.bind_sql("SELECT id FROM people").plan, Scan)[0]
        a, b, c, d = scan.columns[:4]
        classes = EquivalenceClasses(
            [
                Comparison("=", ColumnRef(a), ColumnRef(b)),
                Comparison("=", ColumnRef(b), ColumnRef(c)),
            ]
        )
        assert classes.connected(a, c)
        assert not classes.connected(a, d)
