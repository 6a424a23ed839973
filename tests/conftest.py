"""Shared fixtures.

Provides a tiny deterministic dataset + sessions for integration-style
tests, and small hand-built tables for unit tests that need exact
values.  The generated dataset is module-scoped: generating it once
keeps the suite fast while every test still sees identical data.
"""

from __future__ import annotations

import pytest

from repro.algebra.schema import ColumnAllocator
from repro.algebra.types import DataType
from repro.catalog.catalog import Catalog, ColumnDef, TableDef
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import Store, StoredTable, vector_from_values
from repro.tpcds.generator import generate_dataset

#: Small scale keeps the whole suite fast; large enough that every
#: studied query returns rows.
TEST_SCALE = 0.05


#: Column representations the block compiler must treat alike.
BLOCK_REPRESENTATIONS = ("lists", "vectors", "mixed")


def block_columns(columns, rows, representation: str) -> list:
    """``rows`` as a block's column list in one representation:
    all Python lists, every eligible column a ``NumpyVector``, or every
    other eligible column a vector."""
    cols = [list(c) for c in zip(*rows)] if rows else [[] for _ in columns]
    if representation != "lists":
        step = 1 if representation == "vectors" else 2
        for i in range(0, len(cols), step):
            vec = vector_from_values(cols[i], columns[i].dtype)
            if vec is not None:
                cols[i] = vec
    return cols


@pytest.fixture(scope="session")
def tpcds_store() -> Store:
    return generate_dataset(scale=TEST_SCALE, seed=7)


@pytest.fixture()
def baseline_session(tpcds_store) -> Session:
    return Session(tpcds_store, OptimizerConfig(enable_fusion=False))


@pytest.fixture()
def fusion_session(tpcds_store) -> Session:
    return Session(tpcds_store, OptimizerConfig(enable_fusion=True))


def make_store(tables: dict[str, tuple[TableDef, dict]]) -> Store:
    """Build a store from {name: (definition, column data)}."""
    store = Store()
    for definition, data in tables.values():
        store.put(StoredTable.from_columns(definition, data))
    return store


def simple_table(
    name: str,
    columns: list[tuple[str, DataType]],
    rows: list[tuple],
    primary_key: tuple[str, ...] = (),
    partition_column: str | None = None,
    partition_rows: int | None = None,
) -> StoredTable:
    """A stored table from row tuples (test convenience)."""
    definition = TableDef(
        name,
        tuple(ColumnDef(n, t) for n, t in columns),
        primary_key=primary_key,
        partition_column=partition_column,
    )
    data = {
        n: [row[i] for row in rows] for i, (n, _) in enumerate(columns)
    }
    return StoredTable.from_columns(definition, data, partition_rows=partition_rows)


@pytest.fixture()
def people_store() -> Store:
    """A small concrete table for engine/optimizer unit tests."""
    store = Store()
    store.put(
        simple_table(
            "people",
            [
                ("id", DataType.INTEGER),
                ("fname", DataType.STRING),
                ("lname", DataType.STRING),
                ("age", DataType.INTEGER),
                ("city_id", DataType.INTEGER),
            ],
            [
                (1, "John", "Smith", 34, 10),
                (2, "Jane", "Smith", 28, 10),
                (3, "John", "Doe", 45, 20),
                (4, "Alma", "Kahn", 61, 20),
                (5, "Omar", "Reyes", 23, None),
                (6, None, "Voss", None, 30),
            ],
            primary_key=("id",),
        )
    )
    store.put(
        simple_table(
            "cities",
            [("city_id", DataType.INTEGER), ("city", DataType.STRING)],
            [(10, "Seattle"), (20, "Austin"), (30, "Boise"), (40, "Nome")],
            primary_key=("city_id",),
        )
    )
    store.put(
        simple_table(
            "orders",
            [
                ("order_id", DataType.INTEGER),
                ("person_id", DataType.INTEGER),
                ("amount", DataType.DOUBLE),
                ("day", DataType.INTEGER),
            ],
            [
                (100, 1, 25.0, 1),
                (101, 1, 75.0, 2),
                (102, 2, 10.0, 2),
                (103, 3, 99.0, 3),
                (104, 3, 1.0, 3),
                (105, 3, 50.0, 4),
                (106, None, 5.0, 4),
                (107, 5, 20.0, 5),
            ],
            primary_key=("order_id",),
            partition_column="day",
        )
    )
    return store


@pytest.fixture()
def people_session(people_store) -> Session:
    return Session(people_store, OptimizerConfig(enable_fusion=True))


@pytest.fixture()
def people_baseline(people_store) -> Session:
    return Session(people_store, OptimizerConfig(enable_fusion=False))


@pytest.fixture()
def allocator() -> ColumnAllocator:
    return ColumnAllocator()
