"""Property-based test of the central fusion invariant:

    if Fuse(P1, P2) = (P, M, L, R) then
        P1 == Project[outCols(P1)](Filter[L](P))
        P2 == Project[M(outCols(P2))](Filter[R](P))

Random plan pairs are generated over one concrete table by stacking
random Filter / Project / GroupBy / MarkDistinct layers; when fusion
succeeds, both reconstructions are executed and compared to the
originals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    TRUE,
    Arithmetic,
    ColumnRef,
    Comparison,
    Literal,
)
from repro.algebra.operators import (
    AggregateAssignment,
    Filter,
    GroupBy,
    MarkDistinct,
    PlanNode,
    Project,
    Scan,
)
from repro.algebra.schema import ColumnAllocator
from repro.algebra.types import DataType
from repro.algebra.validator import validate_plan
from repro.catalog.catalog import ColumnDef, TableDef
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.fusion.fuse import Fuser
from repro.fusion.result import reconstruct_left, reconstruct_right
from repro.storage.columnar import Store, StoredTable

I = DataType.INTEGER

TABLE = TableDef("t", (ColumnDef("k", I), ColumnDef("v", I), ColumnDef("w", I)))


def build_store(rows: list[tuple]) -> Store:
    store = Store()
    store.put(
        StoredTable.from_columns(
            TABLE,
            {
                "k": [r[0] for r in rows],
                "v": [r[1] for r in rows],
                "w": [r[2] for r in rows],
            },
        )
    )
    return store


row_values = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
table_rows = st.lists(st.tuples(row_values, row_values, row_values), min_size=0, max_size=12)

#: A "layer program": a sequence of operator constructors to stack.
layer = st.sampled_from(["filter_lo", "filter_hi", "project", "group", "mark"])
programs = st.lists(layer, min_size=0, max_size=3)


def build_plan(program: list[str], allocator: ColumnAllocator) -> PlanNode:
    columns = (
        allocator.fresh("k", I),
        allocator.fresh("v", I),
        allocator.fresh("w", I),
    )
    plan: PlanNode = Scan("t", columns, ("k", "v", "w"))

    def col(name: str):
        for column in plan.output_columns:
            if column.name == name:
                return column
        return plan.output_columns[0]

    for op in program:
        if op == "filter_lo":
            plan = Filter(plan, Comparison("<", ColumnRef(col("v")), Literal(3, I)))
        elif op == "filter_hi":
            plan = Filter(plan, Comparison(">=", ColumnRef(col("v")), Literal(2, I)))
        elif op == "project":
            target = allocator.fresh("p", I)
            passthrough = []
            for column in (col("k"), col("v")):
                if all(column != existing for existing, _ in passthrough):
                    passthrough.append((column, ColumnRef(column)))
            plan = Project(
                plan,
                tuple(passthrough)
                + ((target, Arithmetic("+", ColumnRef(col("v")), Literal(1, I))),),
            )
        elif op == "group":
            total = allocator.fresh("total", I)
            count = allocator.fresh("cnt", I)
            plan = GroupBy(
                plan,
                (col("k"),),
                (
                    AggregateAssignment(total, "sum", ColumnRef(col("v"))),
                    AggregateAssignment(count, "count", None),
                ),
            )
        elif op == "mark":
            marker = allocator.fresh("d", DataType.BOOLEAN)
            plan = MarkDistinct(plan, (col("k"),), marker)
    return plan


def rows_of(plan: PlanNode, store: Store):
    return sorted(
        execute(plan, RunContext(store)),
        key=lambda r: tuple((v is None, str(v)) for v in r),
    )


@given(rows=table_rows, program1=programs, program2=programs)
@settings(max_examples=150, deadline=None)
def test_fusion_reconstruction_invariant(rows, program1, program2):
    store = build_store(rows)
    allocator = ColumnAllocator()
    p1 = build_plan(program1, allocator)
    p2 = build_plan(program2, allocator)
    result = Fuser(allocator).fuse(p1, p2)
    if result is None:
        return  # ⊥ is always allowed; soundness is what we check
    validate_plan(result.plan)
    left = reconstruct_left(result, p1)
    right = reconstruct_right(result, p2, allocator)
    validate_plan(left)
    validate_plan(right)
    assert rows_of(left, store) == rows_of(p1, store)
    assert rows_of(right, store) == rows_of(p2, store)


@given(rows=table_rows, program=programs)
@settings(max_examples=60, deadline=None)
def test_identical_programs_fuse_exactly(rows, program):
    store = build_store(rows)
    allocator = ColumnAllocator()
    p1 = build_plan(program, allocator)
    p2 = build_plan(program, allocator)
    result = Fuser(allocator).fuse(p1, p2)
    assert result is not None
    assert result.is_exact
    assert rows_of(result.plan, store)[: len(rows_of(p1, store))] is not None
