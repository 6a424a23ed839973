"""The Exchange plan operator and the ParallelPlan pass.

Exchange is a bag-identity placement marker: serial engines execute it
as a pass-through, the validator checks that it gathers a
Filter/Project chain over one Scan, and the semantic fingerprint looks
straight through it (so parallel plans share cross-query cache entries
with serial ones).
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import ColumnRef, Comparison, integer
from repro.algebra.fingerprint import plan_fingerprint
from repro.algebra.operators import (
    AggregateAssignment,
    Exchange,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    SortKey,
)
from repro.algebra.printer import explain
from repro.algebra.schema import Column
from repro.algebra.types import DataType
from repro.algebra.validator import validate_plan
from repro.algebra.visitors import walk_plan
from repro.engine.batch_executor import execute_batch
from repro.engine.compiled import execute_compiled
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.errors import PlanError
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.parallel_plan import ParallelPlan
from tests.conftest import simple_table

I = DataType.INTEGER


def _scan(table: str = "t", start: int = 1) -> Scan:
    columns = (Column(start, "k", I), Column(start + 1, "v", I))
    return Scan(table, columns, ("k", "v"))


# -- operator structure ------------------------------------------------------


def test_exchange_is_schema_transparent():
    scan = _scan()
    exchange = Exchange(scan, 1)
    assert exchange.output_columns == scan.output_columns
    assert exchange.children == (scan,)
    other = _scan(start=5)
    assert exchange.with_children((other,)) == Exchange(other, 1)


def _pipeline(scan: Scan) -> PlanNode:
    key, value = scan.output_columns
    kept = Filter(scan, Comparison(">", ColumnRef(value), integer(2)))
    return Project(kept, ((key, ColumnRef(key)),))


def test_validator_accepts_well_formed_placement():
    validate_plan(Exchange(_scan(), 1))
    validate_plan(Exchange(_pipeline(_scan()), 2))


def test_validator_rejects_exchange_over_group_by():
    scan = _scan()
    plan = Exchange(_agg(scan, keys=(scan.output_columns[0],)), 1)
    with pytest.raises(PlanError, match="Exchange #1 gathers GroupBy"):
        validate_plan(plan)


def test_validator_rejects_exchange_over_two_scan_join():
    left, right = _scan("a"), _scan("b", start=10)
    condition = Comparison(
        "=", ColumnRef(left.output_columns[0]), ColumnRef(right.output_columns[0])
    )
    plan = Exchange(Join(JoinKind.INNER, left, right, condition), 3)
    with pytest.raises(PlanError, match="Exchange #3 gathers Join"):
        validate_plan(plan)


def test_printer_describes_placement_operators():
    text = explain(Exchange(_pipeline(_scan()), 8))
    assert text.splitlines()[0] == "- Exchange[#8]"


def test_fingerprint_ignores_placement_operators():
    pipeline = _pipeline(_scan())
    wrapped = Exchange(pipeline, 2)
    assert plan_fingerprint(wrapped).digest == plan_fingerprint(pipeline).digest


# -- serial pass-through execution ------------------------------------------


@pytest.fixture()
def kv_store():
    from repro.storage.columnar import Store

    store = Store()
    rows = [(i % 3, i) for i in range(10)]
    store.put(simple_table("t", [("k", I), ("v", I)], rows))
    return store


def _bound_plan(store) -> PlanNode:
    """Exchange(Filter(Scan)) over the real stored table, bound through
    the catalog so cids match stored columns."""
    from repro.catalog.catalog import Catalog
    from repro.sql.binder import Binder

    catalog = Catalog()
    store.load_catalog(catalog)
    bound = Binder(catalog).bind_sql("SELECT k, v FROM t WHERE v >= 2")
    inner = bound.plan
    while not isinstance(inner, Filter):  # peel the top-level Project
        inner = inner.children[0]
    return Exchange(inner, 1)


def test_serial_engines_execute_placement_as_passthrough(kv_store):
    plan = _bound_plan(kv_store)
    expected = [(i % 3, i) for i in range(2, 10)]
    assert list(execute(plan, RunContext(kv_store))) == expected
    assert (
        list(execute_batch(plan, RunContext(kv_store), block_rows=3)) == expected
    )
    assert (
        list(execute_compiled(plan, RunContext(kv_store), block_rows=3))
        == expected
    )


# -- the ParallelPlan pass ---------------------------------------------------


def _ctx(partition_counts=None) -> OptimizerContext:
    from repro.catalog.catalog import Catalog

    return OptimizerContext(
        Catalog(), OptimizerConfig(workers=4), partition_counts=partition_counts
    )


def _agg(scan: Scan, *, keys: tuple[Column, ...]) -> GroupBy:
    target = Column(50, "n", I)
    return GroupBy(
        scan, keys, (AggregateAssignment(target, "count", None),)
    )


def test_keyed_group_by_gathers_below_the_aggregation():
    scan = _scan("store_sales")
    plan = _agg(scan, keys=(scan.output_columns[0],))
    result = ParallelPlan().run(plan, _ctx({"store_sales": 8}))
    # Workers only read and filter; the aggregation's state stays on
    # the coordinator.
    assert isinstance(result, GroupBy)
    assert result.child == Exchange(scan, 1)


def test_scalar_group_by_keeps_aggregation_serial():
    plan = _agg(_scan(), keys=())
    result = ParallelPlan().run(plan, _ctx({"t": 4}))
    assert isinstance(result, GroupBy)  # aggregation stays on top
    assert isinstance(result.child, Exchange)


def test_single_partition_tables_stay_serial():
    plan = _agg(_scan(), keys=())
    result = ParallelPlan().run(plan, _ctx({"t": 1}))
    assert result is plan
    assert not any(isinstance(n, Exchange) for n in walk_plan(result))


def test_equi_join_gathers_each_side():
    left, right = _scan("a"), _scan("b", start=10)
    condition = Comparison(
        "=", ColumnRef(left.output_columns[0]), ColumnRef(right.output_columns[0])
    )
    join = Join(JoinKind.INNER, left, right, condition)
    result = ParallelPlan().run(join, _ctx({"a": 4, "b": 4}))
    assert isinstance(result, Join)
    assert result.left == Exchange(left, 1)
    assert result.right == Exchange(right, 2)


def test_cross_join_is_not_shuffled():
    left, right = _scan("a"), _scan("b", start=10)
    join = Join(JoinKind.CROSS, left, right, None)
    result = ParallelPlan().run(join, _ctx({"a": 4, "b": 4}))
    # The children parallelize as plain gathers; the join runs on the
    # coordinator.
    assert not isinstance(result, Exchange)
    assert isinstance(result.left, Exchange)
    assert isinstance(result.right, Exchange)


def test_limit_keeps_demanded_subtree_serial():
    scan = _scan()
    plan = Limit(scan, 3)
    result = ParallelPlan().run(plan, _ctx({"t": 4}))
    # Early termination in the serial engine scans less than a full
    # parallel gather would: exact bytes_scanned equivalence forbids an
    # Exchange under a streaming Limit.
    assert result is plan


def test_blocking_operator_restores_parallelism_under_limit():
    scan = _scan()
    sort = Sort(scan, (SortKey(ColumnRef(scan.output_columns[1])),))
    plan = Limit(sort, 3)
    result = ParallelPlan().run(plan, _ctx({"t": 4}))
    # Sort drains its input fully regardless of the Limit above it, so
    # the pipeline below the Sort may still parallelize.
    assert isinstance(result, Limit)
    assert isinstance(result.child.children[0], Exchange)


def test_keyed_group_by_is_safe_under_limit():
    scan = _scan()
    plan = Limit(_agg(scan, keys=(scan.output_columns[0],)), 2)
    result = ParallelPlan().run(plan, _ctx({"t": 4}))
    # GroupBy drains its input whatever the Limit asks for, so the scan
    # below it still gathers in parallel.
    assert isinstance(result.child, GroupBy)
    assert result.child.child == Exchange(scan, 1)


def _wrap_first(node: PlanNode, kind: type) -> tuple[PlanNode, bool]:
    """``node`` with its first ``kind`` subtree (preorder) in an
    Exchange, and whether one was found."""
    if isinstance(node, kind):
        return Exchange(node, 99), True
    kids, found = [], False
    for child in node.children:
        if not found:
            child, found = _wrap_first(child, kind)
        kids.append(child)
    return (node.with_children(tuple(kids)) if found else node), found


@pytest.mark.parametrize(
    "kind, sql",
    [
        (
            GroupBy,
            "SELECT ss_store_sk, count(*) FROM store_sales GROUP BY ss_store_sk",
        ),
        (
            Join,
            "SELECT ss_item_sk, cs_quantity FROM store_sales, catalog_sales "
            "WHERE ss_item_sk = cs_item_sk",
        ),
    ],
    ids=["group_by", "two_scan_join"],
)
def test_seeded_stateful_exchange_names_the_pass(monkeypatch, tpcds_store, kind, sql):
    """A ParallelPlan that hands a worker stateful work fails plan
    validation, and the error names the pass."""
    from repro.engine.session import Session
    from repro.errors import OptimizerError

    original = ParallelPlan.run

    def sabotage(self, plan, ctx):
        plan, found = _wrap_first(original(self, plan, ctx), kind)
        assert found
        return plan

    monkeypatch.setattr(ParallelPlan, "run", sabotage)
    config = OptimizerConfig(workers=2, validate_plans=True)
    with Session(tpcds_store, config) as session:
        with pytest.raises(
            OptimizerError, match=f"'ParallelPlan'.*Exchange #99 gathers {kind.__name__}"
        ) as info:
            session.plan(sql)
    assert isinstance(info.value.__cause__, PlanError)
