"""Seeded-bad-plan tests for the plan invariant validator.

Each test hand-builds (or sabotages) a plan violating one invariant
and asserts :func:`repro.algebra.validator.validate_plan` (or
``validate_fusion_result``) rejects it with a diagnostic naming the
problem — and, through :func:`run_pipeline` with ``validate_plans=True``,
that the resulting ``OptimizerError`` names the responsible rule.
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import (
    TRUE,
    ColumnRef,
    Comparison,
    integer,
)
from repro.algebra.operators import (
    AggregateAssignment,
    Filter,
    GroupBy,
    Project,
    Scan,
    UnionAll,
    Window,
    WindowAssignment,
)
from repro.algebra.schema import Column
from repro.algebra.types import DataType
from repro.algebra.validator import validate_fusion_result, validate_plan
from repro.catalog.catalog import Catalog
from repro.errors import OptimizerError, PlanError
from repro.fusion.fuse import Fuser
from repro.fusion.mapping import ColumnMapping
from repro.fusion.result import FusionResult
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.rule import PlanPass, run_pipeline
from repro.sql.binder import Binder


@pytest.fixture()
def env(people_store):
    catalog = Catalog()
    people_store.load_catalog(catalog)
    return catalog, Binder(catalog)


def scan_people(catalog, *names):
    columns, sources = catalog.fresh_scan_columns("people")
    if names:
        keep = [i for i, s in enumerate(sources) if s in names]
        columns = tuple(columns[i] for i in keep)
        sources = tuple(sources[i] for i in keep)
    return Scan("people", columns, sources)


class TestBadPlans:
    def test_valid_plans_pass(self, env):
        catalog, binder = env
        for sql in (
            "SELECT id, fname FROM people WHERE age > 30",
            "SELECT lname, count(*) AS n FROM people GROUP BY lname",
            "SELECT p.fname FROM people p JOIN cities c ON p.city_id = c.city_id",
        ):
            validate_plan(binder.bind_sql(sql).plan, catalog)

    def test_dangling_column_ref(self, env):
        catalog, _ = env
        scan = scan_people(catalog, "id", "age")
        orphan = Column(999_999, "ghost", DataType.INTEGER)
        plan = Filter(scan, Comparison(">", ColumnRef(orphan), integer(1)))
        with pytest.raises(PlanError, match="not produced by its children"):
            validate_plan(plan, catalog)

    def test_non_boolean_filter_condition(self, env):
        catalog, _ = env
        scan = scan_people(catalog, "id", "age")
        plan = Filter(scan, ColumnRef(scan.columns[1]))  # age: INTEGER
        with pytest.raises(PlanError, match="expected boolean"):
            validate_plan(plan, catalog)

    def test_duplicate_output_columns(self, env):
        catalog, _ = env
        scan = scan_people(catalog, "id")
        col = scan.columns[0]
        plan = Project(scan, ((col, ColumnRef(col)), (col, ColumnRef(col))))
        with pytest.raises(PlanError, match="duplicate columns"):
            validate_plan(plan, catalog)

    def test_project_type_mismatch(self, env):
        catalog, _ = env
        scan = scan_people(catalog, "id", "fname")
        id_col, fname_col = scan.columns
        target = Column(catalog.allocator.fresh("x", DataType.INTEGER).cid,
                        "x", DataType.INTEGER)
        plan = Project(scan, ((target, ColumnRef(fname_col)),))
        with pytest.raises(PlanError, match="has type"):
            validate_plan(plan, catalog)

    def test_group_by_key_not_child_output(self, env):
        catalog, _ = env
        scan = scan_people(catalog, "id")
        ghost = Column(888_888, "ghost", DataType.INTEGER)
        plan = GroupBy(scan, (ghost,), ())
        with pytest.raises(PlanError, match="not produced by its children"):
            validate_plan(plan, catalog)

    def test_duplicate_aggregate_targets(self, env):
        catalog, _ = env
        scan = scan_people(catalog, "city_id")
        key = scan.columns[0]
        target = catalog.allocator.fresh("n", DataType.INTEGER)
        agg = AggregateAssignment(target, "count", None, TRUE, False)
        plan = GroupBy(scan, (key,), (agg, agg))
        with pytest.raises(PlanError, match="duplicate"):
            validate_plan(plan, catalog)

    def test_aggregate_target_type_mismatch(self, env):
        catalog, _ = env
        scan = scan_people(catalog, "city_id", "fname")
        key = next(c for c in scan.columns if c.name == "city_id")
        # count produces INTEGER; a STRING target is malformed.
        target = catalog.allocator.fresh("n", DataType.STRING)
        plan = GroupBy(
            scan, (key,), (AggregateAssignment(target, "count", None, TRUE, False),)
        )
        with pytest.raises(PlanError, match="produces"):
            validate_plan(plan, catalog)

    def test_sum_of_string_argument(self, env):
        catalog, _ = env
        scan = scan_people(catalog, "city_id", "fname")
        fname = next(c for c in scan.columns if c.name == "fname")
        key = next(c for c in scan.columns if c.name == "city_id")
        target = catalog.allocator.fresh("s", DataType.DOUBLE)
        plan = GroupBy(
            scan,
            (key,),
            (AggregateAssignment(target, "sum", ColumnRef(fname), TRUE, False),),
        )
        with pytest.raises(PlanError, match="non-numeric"):
            validate_plan(plan, catalog)

    def test_window_partition_key_not_produced(self, env):
        catalog, _ = env
        scan = scan_people(catalog, "id", "age")
        ghost = Column(777_777, "ghost", DataType.INTEGER)
        target = catalog.allocator.fresh("w", DataType.INTEGER)
        plan = Window(scan, (ghost,), (WindowAssignment(target, "count", None),))
        with pytest.raises(PlanError, match="Window"):
            validate_plan(plan, catalog)

    def test_union_branch_column_not_produced(self, env):
        catalog, _ = env
        s1 = scan_people(catalog, "id")
        s2 = scan_people(catalog, "id")
        out = catalog.allocator.fresh("u", DataType.INTEGER)
        ghost = Column(666_666, "ghost", DataType.INTEGER)
        plan = UnionAll((s1, s2), (out,), ((s1.columns[0],), (ghost,)))
        with pytest.raises(PlanError, match="not produced"):
            validate_plan(plan, catalog)

    def test_scan_of_unknown_stored_column(self, env):
        catalog, _ = env
        col = catalog.allocator.fresh("z", DataType.INTEGER)
        plan = Scan("people", (col,), ("no_such_column",))
        with pytest.raises(PlanError, match="unknown column"):
            validate_plan(plan, catalog)

    def test_scan_stored_type_mismatch(self, env):
        catalog, _ = env
        col = catalog.allocator.fresh("fname", DataType.INTEGER)
        plan = Scan("people", (col,), ("fname",))
        with pytest.raises(PlanError, match="stored column"):
            validate_plan(plan, catalog)

    def test_comparison_of_integer_with_string(self, env):
        """INTEGER = STRING resolves structurally but would only fail
        deep inside a vector backend at runtime; the validator must
        reject it as a plan error instead."""
        catalog, _ = env
        scan = scan_people(catalog, "id", "fname")
        id_col, fname_col = scan.columns
        plan = Filter(
            scan, Comparison("=", ColumnRef(id_col), ColumnRef(fname_col))
        )
        with pytest.raises(PlanError, match="compares"):
            validate_plan(plan, catalog)

    def test_in_list_item_type_mismatch(self, env):
        from repro.algebra.expressions import InList, Literal, string

        catalog, _ = env
        scan = scan_people(catalog, "id")
        plan = Filter(
            scan,
            InList(ColumnRef(scan.columns[0]), (integer(1), string("x"))),
        )
        with pytest.raises(PlanError, match="IN item"):
            validate_plan(plan, catalog)

    def test_null_literal_is_a_type_wildcard(self, env):
        """Bare NULL is typed BOOLEAN by the binder but compares
        legally (yielding NULL) against any operand type."""
        from repro.algebra.expressions import InList, Literal

        catalog, _ = env
        scan = scan_people(catalog, "id")
        null = Literal(None, DataType.BOOLEAN)
        validate_plan(
            Filter(scan, Comparison("=", ColumnRef(scan.columns[0]), null)),
            catalog,
        )
        validate_plan(
            Filter(
                scan, InList(ColumnRef(scan.columns[0]), (integer(1), null))
            ),
            catalog,
        )

    def test_mixed_comparison_blamed_on_rule(self, env):
        """Through a validating pipeline, the pass that introduced the
        mixed-type comparison is named in the error."""
        catalog, binder = env
        plan = binder.bind_sql("SELECT id, fname FROM people").plan

        class MixesTypes(PlanPass):
            name = "planted_type_mixer"

            def run(self, inner, ctx):
                id_col = next(
                    c for c in inner.output_columns if c.name == "id"
                )
                fname = next(
                    c for c in inner.output_columns if c.name == "fname"
                )
                return Filter(
                    inner,
                    Comparison("=", ColumnRef(id_col), ColumnRef(fname)),
                )

        ctx = OptimizerContext(catalog, OptimizerConfig(validate_plans=True))
        with pytest.raises(OptimizerError, match="planted_type_mixer"):
            run_pipeline(plan, [MixesTypes()], ctx)


class TestBadFusionResults:
    """Sabotaged §III contracts caught by ``validate_fusion_result``."""

    def fused(self, env, sql1, sql2):
        catalog, binder = env
        p1 = binder.bind_sql(sql1).plan
        p2 = binder.bind_sql(sql2).plan
        result = Fuser(catalog.allocator).fuse(p1, p2)
        assert result is not None
        return result, p1, p2

    def test_sound_result_passes(self, env):
        result, p1, p2 = self.fused(
            env,
            "SELECT id FROM people WHERE age > 30",
            "SELECT id, fname FROM people WHERE age < 60",
        )
        validate_fusion_result(result, p1, p2)

    def test_dropped_p1_output(self, env):
        result, p1, p2 = self.fused(
            env, "SELECT id, fname FROM people", "SELECT id FROM people"
        )
        # Sabotage: project p1's fname away from the fused plan.
        keep = [c for c in result.plan.output_columns if c.name != "fname"]
        narrowed = Project(result.plan, tuple((c, ColumnRef(c)) for c in keep))
        bad = FusionResult(narrowed, result.mapping, result.left_filter,
                           result.right_filter)
        with pytest.raises(PlanError, match="dropped P1 output"):
            validate_fusion_result(bad, p1, p2)

    def test_mapping_to_missing_column(self, env):
        result, p1, p2 = self.fused(
            env, "SELECT id FROM people", "SELECT id, age FROM people"
        )
        ghost = Column(555_555, "ghost", DataType.INTEGER)
        broken = ColumnMapping(
            {c2: ghost for c2 in p2.output_columns}
        )
        bad = FusionResult(result.plan, broken, result.left_filter,
                           result.right_filter)
        with pytest.raises(PlanError, match="does not produce"):
            validate_fusion_result(bad, p1, p2)

    def test_compensation_references_dropped_column(self, env):
        result, p1, p2 = self.fused(
            env,
            "SELECT id FROM people WHERE age > 30",
            "SELECT id FROM people WHERE age < 60",
        )
        assert not result.is_exact
        ghost = Column(444_444, "dropped", DataType.INTEGER)
        bad = FusionResult(
            result.plan,
            result.mapping,
            Comparison(">", ColumnRef(ghost), integer(0)),
            result.right_filter,
        )
        with pytest.raises(PlanError, match="columns the\nfused plan|columns the fused plan"):
            validate_fusion_result(bad, p1, p2)

    def test_non_boolean_compensation(self, env):
        result, p1, p2 = self.fused(
            env, "SELECT id, age FROM people", "SELECT id, age FROM people"
        )
        age = next(c for c in result.plan.output_columns if c.name == "age")
        bad = FusionResult(result.plan, result.mapping, ColumnRef(age), TRUE)
        with pytest.raises(PlanError, match="expected boolean"):
            validate_fusion_result(bad, p1, p2)


class _SabotagePass(PlanPass):
    """A pass that rewrites the plan into one with a dangling ref."""

    name = "sabotage_pass"

    def run(self, plan, ctx):
        ghost = Column(333_333, "ghost", DataType.INTEGER)
        return Filter(plan, Comparison(">", ColumnRef(ghost), integer(1)))


class _IdentityPass(PlanPass):
    name = "identity_pass"

    def run(self, plan, ctx):
        return plan


class TestPipelineValidation:
    """``validate_plans=True`` blames the pass that broke the plan."""

    def plan_and_ctx(self, env, validate):
        catalog, binder = env
        plan = binder.bind_sql("SELECT id FROM people").plan
        ctx = OptimizerContext(catalog, OptimizerConfig(validate_plans=validate))
        return plan, ctx

    def test_offending_rule_is_named(self, env):
        plan, ctx = self.plan_and_ctx(env, validate=True)
        with pytest.raises(OptimizerError, match="sabotage_pass"):
            run_pipeline(plan, [_IdentityPass(), _SabotagePass()], ctx)

    def test_disabled_by_default(self, env):
        plan, ctx = self.plan_and_ctx(env, validate=False)
        # Without validation the broken plan sails through the
        # optimizer (and would only fail later, at execution).
        result = run_pipeline(plan, [_SabotagePass()], ctx)
        assert isinstance(result, Filter)

    def test_innocent_pass_not_blamed(self, env):
        plan, ctx = self.plan_and_ctx(env, validate=True)
        with pytest.raises(OptimizerError, match="sabotage_pass"):
            run_pipeline(plan, [_SabotagePass(), _IdentityPass()], ctx)

    def test_fuser_validates_when_configured(self, env):
        catalog, binder = env
        config = OptimizerConfig(validate_plans=True)
        ctx = OptimizerContext(catalog, config)
        assert ctx.fuser.validate is True
        p1 = binder.bind_sql("SELECT id FROM people WHERE age > 30").plan
        p2 = binder.bind_sql("SELECT id FROM people WHERE age < 60").plan
        result = ctx.fuser.fuse(p1, p2)  # sound fusion passes silently
        assert result is not None
