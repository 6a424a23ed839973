"""The plan abstract interpreter (repro.algebra.analysis).

Three layers of coverage:

* per-transfer-function unit tests — derived facts for scans, filter
  narrowing, join null-introduction, aggregation, union widening …
  checked on the hand-built ``people`` dataset, and each prediction
  re-checked against the rows the engine actually produces
  (:func:`verify_facts` must stay silent);
* planted unsound rewrites — a test-only optimizer pass that silently
  changes plan semantics must be caught by the pipeline's fact-drift
  check with per-rule blame;
* a seeded consistency sweep — every ``GroupBy``'s key set must be
  confirmed unique by the analyzer's ``is_unique`` over 200
  generated-and-optimized plans.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.analysis import (
    TOP,
    ColumnFacts,
    FactAnalyzer,
    bool_range,
    derive_facts,
    expression_facts,
    fact_conflicts,
    join_facts,
    meet_facts,
    narrow_env,
    verify_facts,
)
from repro.algebra.expressions import (
    ColumnRef,
    Comparison,
    FunctionCall,
    IsNull,
    Literal,
    Not,
)
from repro.algebra.operators import Filter, GroupBy, Project
from repro.algebra.schema import Column
from repro.algebra.types import DataType
from repro.algebra.visitors import transform_up, walk_plan
from repro.catalog.catalog import Catalog
from repro.engine.evaluator import SCALAR_FUNCTIONS
from repro.engine.session import Session
from repro.errors import OptimizerError
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.pipeline import optimize
from repro.optimizer.rule import PlanPass, run_pipeline
from repro.sql.binder import Binder
from repro.testing.generator import QueryGenerator


@pytest.fixture()
def env(people_store):
    catalog = Catalog()
    people_store.load_catalog(catalog)
    return catalog, Binder(catalog)


def facts_for(env, sql):
    """Derived facts for the bound (unoptimized) plan of ``sql``."""
    catalog, binder = env
    plan = binder.bind_sql(sql).plan
    return plan, derive_facts(plan, catalog)


def column_facts(plan, facts, name):
    (col,) = [c for c in plan.output_columns if c.name == name]
    return facts.columns.get(col.cid, TOP)


class TestTransferFunctions:
    def test_scan_seeds_from_catalog_stats(self, env):
        plan, facts = facts_for(env, "SELECT id, age FROM people")
        id_facts = column_facts(plan, facts, "id")
        assert not id_facts.nullable
        assert (id_facts.low, id_facts.high) == (1, 6)
        age_facts = column_facts(plan, facts, "age")
        assert age_facts.nullable  # the table holds a NULL age
        assert (age_facts.low, age_facts.high) == (23, 61)
        assert facts.max_rows == 6

    def test_scan_primary_key_becomes_a_key(self, env):
        plan, facts = facts_for(env, "SELECT id, fname FROM people")
        (id_col,) = [c for c in plan.output_columns if c.name == "id"]
        (fname_col,) = [c for c in plan.output_columns if c.name == "fname"]
        assert facts.is_unique({id_col.cid})
        assert facts.is_unique({id_col.cid, fname_col.cid})
        assert not facts.is_unique({fname_col.cid})

    def test_filter_narrows_bounds_and_nullability(self, env):
        plan, facts = facts_for(env, "SELECT age FROM people WHERE age > 30")
        age = column_facts(plan, facts, "age")
        assert not age.nullable  # `age > 30` TRUE implies age non-NULL
        assert age.low is not None and age.low >= 30

    def test_filter_equality_derives_a_constant(self, env):
        plan, facts = facts_for(env, "SELECT id FROM people WHERE id = 3")
        id_facts = column_facts(plan, facts, "id")
        assert id_facts.has_const and id_facts.const == 3
        assert not id_facts.nullable

    def test_provably_empty_filter(self, env):
        # `id` is non-nullable by catalog stats, so IS NULL never holds.
        _, facts = facts_for(env, "SELECT id FROM people WHERE id IS NULL")
        assert facts.max_rows == 0

    def test_inner_join_preserves_non_null(self, env):
        plan, facts = facts_for(
            env,
            "SELECT p.id, c.city FROM people p "
            "JOIN cities c ON p.city_id = c.city_id",
        )
        assert not column_facts(plan, facts, "city").nullable

    def test_left_join_makes_right_side_nullable(self, env):
        plan, facts = facts_for(
            env,
            "SELECT p.id, c.city FROM people p "
            "LEFT JOIN cities c ON p.city_id = c.city_id",
        )
        assert column_facts(plan, facts, "city").nullable
        assert not column_facts(plan, facts, "id").nullable

    def test_scalar_aggregate_single_row(self, env):
        plan, facts = facts_for(env, "SELECT count(*) AS n FROM people")
        assert facts.max_rows == 1
        assert facts.is_unique(set())
        n = column_facts(plan, facts, "n")
        assert not n.nullable
        assert n.low is not None and n.low >= 0

    def test_group_by_keys_its_grouping_columns(self, env):
        plan, facts = facts_for(
            env, "SELECT city_id, count(*) AS n FROM people GROUP BY city_id"
        )
        (key,) = [c for c in plan.output_columns if c.name == "city_id"]
        assert facts.is_unique({key.cid})
        n = column_facts(plan, facts, "n")
        assert not n.nullable
        assert n.low is not None and n.low >= 1  # every group has a row

    def test_union_all_widens(self, env):
        plan, facts = facts_for(
            env,
            "SELECT id FROM people UNION ALL SELECT city_id AS id FROM cities",
        )
        out = column_facts(plan, facts, plan.output_columns[0].name)
        assert not out.nullable  # both branches non-nullable
        assert (out.low, out.high) == (1, 40)  # [1,6] joined with [10,40]
        assert facts.max_rows == 10
        assert not facts.is_unique({plan.output_columns[0].cid})

    def test_limit_caps_max_rows(self, env):
        _, facts = facts_for(env, "SELECT id FROM people LIMIT 3")
        assert facts.max_rows == 3


class TestFactsAgainstExecution:
    """Every static prediction must hold on the rows the engine
    actually produces — the same check the fuzzer's analysis oracle
    runs on every cell."""

    QUERIES = (
        "SELECT id, fname, age FROM people",
        "SELECT age FROM people WHERE age > 30",
        "SELECT id FROM people WHERE id = 3",
        "SELECT p.id, c.city FROM people p "
        "LEFT JOIN cities c ON p.city_id = c.city_id",
        "SELECT city_id, count(*) AS n, sum(age) AS s "
        "FROM people GROUP BY city_id",
        "SELECT count(*) AS n FROM people WHERE fname IS NULL",
        "SELECT id FROM people UNION ALL SELECT city_id AS id FROM cities",
        "SELECT o.amount FROM orders o JOIN people p ON o.person_id = p.id",
    )

    @pytest.mark.parametrize("sql", QUERIES)
    def test_predictions_hold_at_runtime(self, people_store, sql):
        session = Session(people_store, OptimizerConfig(validate_plans=True))
        result = session.execute(sql)
        violations = verify_facts(
            result.optimized_plan, result.rows, session.catalog
        )
        assert violations == []

    def test_verify_facts_flags_a_planted_null(self, people_store):
        session = Session(people_store, OptimizerConfig())
        plan, _ = session.plan("SELECT id FROM people")
        violations = verify_facts(plan, [(None,)], session.catalog)
        assert any("non-NULL" in v for v in violations)

    def test_verify_facts_flags_out_of_bounds(self, people_store):
        session = Session(people_store, OptimizerConfig())
        plan, _ = session.plan("SELECT id FROM people")
        violations = verify_facts(plan, [(99,)], session.catalog)
        assert any("bound" in v for v in violations)

    def test_verify_facts_flags_duplicate_keys(self, people_store):
        session = Session(people_store, OptimizerConfig())
        plan, _ = session.plan("SELECT id FROM people")
        violations = verify_facts(plan, [(1,), (1,)], session.catalog)
        assert any("duplicate" in v for v in violations)


class _PlantedConstLie(PlanPass):
    """Test-only unsound rewrite: silently bumps the literal in every
    filter comparison (``x = 3`` becomes ``x = 4``)."""

    name = "planted_const_lie"

    def run(self, plan, ctx):
        def bump(expr):
            if isinstance(expr, Literal) and expr.value == 3:
                return Literal(4, expr.type)
            if isinstance(expr, Comparison):
                return Comparison(expr.op, bump(expr.left), bump(expr.right))
            return expr

        def rewrite(node):
            if isinstance(node, Filter):
                return Filter(node.child, bump(node.condition))
            return node

        return transform_up(plan, rewrite)


class _PlantedNullLie(PlanPass):
    """Test-only unsound rewrite: replaces every projected expression
    with NULL while keeping the output schema."""

    name = "planted_null_lie"

    def run(self, plan, ctx):
        def rewrite(node):
            if isinstance(node, Project):
                return Project(
                    node.child,
                    tuple(
                        (target, Literal(None, target.dtype))
                        for target, _ in node.assignments
                    ),
                )
            return node

        return transform_up(plan, rewrite)


class TestPlantedUnsoundRewrites:
    """The pipeline's fact-drift check must blame the planted pass."""

    def run_pipeline(self, env, sql, planted):
        catalog, binder = env
        plan = binder.bind_sql(sql).plan
        ctx = OptimizerContext(catalog, OptimizerConfig(validate_plans=True))
        run_pipeline(plan, [planted], ctx)

    def test_constant_lie_is_blamed(self, env):
        with pytest.raises(OptimizerError, match="planted_const_lie"):
            self.run_pipeline(
                env, "SELECT id FROM people WHERE id = 3", _PlantedConstLie()
            )

    def test_null_lie_is_blamed(self, env):
        with pytest.raises(
            OptimizerError, match="planted_null_lie.*always-NULL"
        ):
            self.run_pipeline(env, "SELECT id FROM people", _PlantedNullLie())

    def test_sound_pass_is_not_blamed(self, env):
        class Identity(PlanPass):
            name = "identity_rebuild"

            def run(self, plan, ctx):
                # Rebuild the tree (new object identity, same semantics).
                return transform_up(plan, lambda node: node)

        self.run_pipeline(
            env, "SELECT id FROM people WHERE id = 3", Identity()
        )


class TestLatticeOperations:
    def col(self, cid=1, name="x", dtype=DataType.INTEGER):
        from repro.algebra.schema import Column

        return Column(cid, name, dtype)

    def test_join_facts_takes_the_union(self):
        a = ColumnFacts(nullable=False, low=1, high=5)
        b = ColumnFacts(nullable=True, low=10, high=40)
        joined = join_facts(a, b)
        assert joined.nullable
        assert (joined.low, joined.high) == (1, 40)

    def test_meet_facts_takes_the_intersection(self):
        a = ColumnFacts(nullable=True, low=1, high=10)
        b = ColumnFacts(nullable=False, low=5, high=40)
        met = meet_facts(a, b)
        assert not met.nullable
        assert (met.low, met.high) == (5, 10)

    def test_bool_range_decides_interval_comparisons(self):
        col = self.col()
        env = {col.cid: ColumnFacts(nullable=False, low=10, high=20)}
        always = bool_range(
            Comparison(">", ColumnRef(col), Literal(5, DataType.INTEGER)), env
        )
        assert always.may_true and not always.may_false and not always.may_null
        never = bool_range(
            Comparison("<", ColumnRef(col), Literal(5, DataType.INTEGER)), env
        )
        assert not never.may_true
        null_free = bool_range(IsNull(ColumnRef(col)), env)
        assert not null_free.may_true

    def test_narrow_env_flags_contradictions(self):
        col = self.col()
        env = {col.cid: ColumnFacts(nullable=False, low=10, high=20)}
        _, never_true = narrow_env(
            env, Comparison("=", ColumnRef(col), Literal(99, DataType.INTEGER))
        )
        assert never_true
        _, never_true = narrow_env(env, IsNull(ColumnRef(col)))
        assert never_true
        _, never_true = narrow_env(env, Not(IsNull(ColumnRef(col))))
        assert not never_true

    def test_fact_conflicts_tolerates_precision_changes(self):
        from repro.algebra.analysis import PlanFacts

        col = self.col()
        sharp = PlanFacts({col.cid: ColumnFacts(nullable=False, low=1, high=5)})
        blunt = PlanFacts({col.cid: TOP})
        # Losing or gaining precision is fine in either direction ...
        assert fact_conflicts(sharp, blunt, (col,)) == []
        assert fact_conflicts(blunt, sharp, (col,)) == []
        # ... but definite disagreement is not.
        other = PlanFacts({col.cid: ColumnFacts(nullable=False, low=7, high=9)})
        assert fact_conflicts(sharp, other, (col,))


class TestPropertiesConsistency:
    """A GroupBy is keyed by its grouping columns, and the abstract
    interpreter must prove it: every GroupBy key set is unique to the
    analyzer — over 200 seeded generated queries, at every GroupBy of
    the optimized plan."""

    def test_seeded_plans(self, tpcds_store):
        catalog = Catalog()
        tpcds_store.load_catalog(catalog)
        binder = Binder(catalog)
        generator = QueryGenerator(catalog, seed=0)
        config = OptimizerConfig(validate_plans=True)
        checked_plans = 0
        checked_keys = 0
        for _ in range(200):
            sql = generator.generate().render()
            try:
                bound = binder.bind_sql(sql)
            except Exception:
                continue  # generator occasionally emits unbindable SQL
            optimized, _ = optimize(bound.plan, catalog, config)
            analyzer = FactAnalyzer(catalog)
            checked_plans += 1
            for node in walk_plan(optimized):
                if not isinstance(node, GroupBy):
                    continue
                checked_keys += 1
                cids = {column.cid for column in node.keys}
                assert analyzer.facts(node).is_unique(cids), (
                    f"GroupBy keys {sorted(cids)} are not unique to the "
                    f"analyzer\nsql: {sql}"
                )
        assert checked_plans >= 100  # the sweep must actually run
        assert checked_keys > 0


# -- scalar function facts (no fuzzed query calls a scalar function) --------

#: Argument kinds per function: "int" / "float" columns carry numeric
#: bounds (floats may also hold NaN, which escapes every ordering claim),
#: "str" columns only nullability and constants.
_FUNCTION_ARGS = {
    "abs": (("int", "float"),),
    "floor": (("int", "float"),),
    "length": (("str",),),
    "coalesce": (("int",), ("int",), ("int",)),
    "round": (("int", "float"), ("int",)),
    "lower": (("str",),),
    "upper": (("str",),),
    "substr": (("str",), ("int",), ("int",)),
    "concat": (("str",), ("int", "float", "str")),
}


@st.composite
def _argument_column(draw, kind):
    """(facts, values): a column's facts and values those facts admit."""
    if draw(st.booleans()) and draw(st.booleans()):
        return ColumnFacts(nullable=True, always_null=True), [None]
    nullable = draw(st.booleans())
    if kind == "str":
        if draw(st.booleans()):
            const = draw(st.text(max_size=4))
            values = [const]
            facts = ColumnFacts(nullable=nullable, const=const, has_const=True)
        else:
            values = draw(st.lists(st.text(max_size=4), min_size=1, max_size=3))
            facts = ColumnFacts(nullable=nullable)
    else:
        number = (
            st.integers(-50, 50)
            if kind == "int"
            else st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        )
        low, high = sorted([draw(number), draw(number)])
        if draw(st.booleans()):
            high = low
        values = draw(st.lists(st.sampled_from([low, high]) | number.filter(
            lambda v: low <= v <= high), min_size=1, max_size=3))
        if low == high and draw(st.booleans()):
            facts = ColumnFacts(
                nullable=nullable, low=low, high=high, const=low, has_const=True
            )
        else:
            facts = ColumnFacts(
                nullable=nullable,
                low=low if draw(st.booleans()) else None,
                high=high if draw(st.booleans()) else None,
            )
        if kind == "float" and draw(st.booleans()):
            values.append(float("nan"))
    if nullable:
        values.append(None)
    return facts, values


def _admits(facts: ColumnFacts, value: object) -> bool:
    """The claims verify_facts checks against an executed value."""
    if value is None:
        return facts.nullable
    if facts.always_null:
        return False
    if isinstance(value, float) and value != value:
        return True
    if facts.has_const and value != facts.const:
        return False
    if facts.low is not None and value < facts.low:
        return False
    return facts.high is None or value <= facts.high


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_function_facts_contain_every_value(data):
    """The facts ``expression_facts`` derives for a scalar function call
    admit every value ``SCALAR_FUNCTIONS`` returns on arguments the
    argument facts admit."""
    name = data.draw(st.sampled_from(sorted(_FUNCTION_ARGS)))
    env, columns, per_argument = {}, [], []
    for position, kinds in enumerate(_FUNCTION_ARGS[name]):
        kind = data.draw(st.sampled_from(kinds))
        facts, values = data.draw(_argument_column(kind))
        dtype = {"int": DataType.INTEGER, "float": DataType.DOUBLE}.get(kind, DataType.STRING)
        column = Column(100 + position, f"a{position}", dtype)
        env[column.cid] = facts
        columns.append(column)
        per_argument.append(values)
    call = FunctionCall(name, tuple(ColumnRef(c) for c in columns))
    derived = expression_facts(call, env)
    for args in itertools.product(*per_argument):
        try:
            value = SCALAR_FUNCTIONS[name](list(args))
        except (TypeError, ValueError, OverflowError):
            continue  # e.g. floor(NaN): an execution error, not a value
        assert _admits(derived, value), (name, args, value, derived)
