"""Unit tests for the columnar store, accounting, and catalog."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.types import DataType
from repro.catalog.catalog import Catalog, ColumnDef, TableDef
from repro.errors import CatalogError
from repro.storage.accounting import ScanAccounting
from repro.storage.columnar import (
    ColumnChunk,
    NumpyVector,
    Store,
    StoredTable,
    chunk_checksum,
    delist,
    vector_from_values,
)
from repro.storage.faults import FaultInjector

I = DataType.INTEGER
S = DataType.STRING


def table_def(partitioned: bool = False) -> TableDef:
    return TableDef(
        "t",
        (ColumnDef("k", I), ColumnDef("v", S, avg_string_bytes=4.0)),
        primary_key=("k",),
        partition_column="k" if partitioned else None,
    )


class TestChunks:
    def test_build_tracks_min_max(self):
        chunk = ColumnChunk.build("k", I, [3, None, 1, 7])
        assert chunk.min_value == 1 and chunk.max_value == 7
        assert chunk.encoded_size == 16.0  # 4 values * 4 bytes

    def test_all_null_chunk(self):
        chunk = ColumnChunk.build("k", I, [None, None])
        assert chunk.min_value is None and chunk.max_value is None

    def test_string_chunk_uses_avg_bytes(self):
        chunk = ColumnChunk.build("v", S, ["ab", "cd"], avg_string_bytes=4.0)
        assert chunk.encoded_size == 8.0


_BIG = 1 << 62
_INTS = st.one_of(
    st.integers(-1000, 1000),
    st.integers(_BIG - 3, _BIG + 3),
    st.integers(-_BIG - 3, -_BIG + 3),
)
_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.nan]))
#: The exact element type a vector chunk holds per dtype, its lanes,
#: and the lanes that make a column mixed.
_ELEMENTS = {
    DataType.INTEGER: (int, _INTS, _FLOATS),
    DataType.DATE: (int, _INTS, _FLOATS),
    DataType.DOUBLE: (float, _FLOATS, _INTS),
    DataType.BOOLEAN: (bool, st.booleans(), _INTS),
}


@st.composite
def _columns(draw):
    dtype = draw(st.sampled_from(list(_ELEMENTS)))
    _, lanes, others = _ELEMENTS[dtype]
    if draw(st.booleans()):
        lanes = st.one_of(lanes, others)
    return dtype, draw(st.lists(st.one_of(st.none(), lanes), max_size=12))


def _same(a, b) -> bool:
    """Lane identity: exact Python type, value, sign of zero, NaN."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        if math.isnan(a):
            return math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _loop_bounds(values):
    """Chunk bounds as a first-to-last loop takes them: NULLs skipped,
    a leading NaN skipped, ties keep the first value."""
    low = high = None
    for v in values:
        if v is None:
            continue
        if low is None:
            if v != v:
                continue
            low = high = v
        elif v < low:
            low = v
        elif v > high:
            high = v
    return low, high


class TestChunkRoundTrip:
    """A chunk holds one representation: a read-only vector when
    every value fits one, the input list otherwise.  Reading it back
    loses nothing, and one flipped lane always changes its checksum."""

    @settings(max_examples=400, deadline=None)
    @given(column=_columns(), seed=st.integers(0, 1 << 16))
    def test_build_round_trips_and_detects_one_flip(self, column, seed):
        dtype, values = column
        chunk = ColumnChunk.build("c", dtype, list(values))
        element = _ELEMENTS[dtype][0]
        eligible = all(
            v is None or (type(v) is element and (element is not int or -_BIG < v < _BIG))
            for v in values
        )
        if eligible:
            assert type(chunk.values) is NumpyVector
            arrays = [chunk.values.data, chunk.values.valid]
            assert not any(a.flags.writeable for a in arrays if a is not None)
        else:
            assert type(chunk.values) is list
        stored = delist(chunk.values)
        assert len(stored) == len(values)
        assert all(_same(a, b) for a, b in zip(stored, values))
        bounds = (chunk.min_value, chunk.max_value)
        assert all(map(_same, bounds, _loop_bounds(values)))
        assert chunk.checksum == chunk_checksum(chunk.values)

        injector = FaultInjector(seed=seed)
        injector.corrupt_chunk("t", 0, "c")
        injector.on_chunk_read(("t", 0, "c"), chunk, attempt=0)
        assert injector.stats.corruptions == (1 if values else 0)
        if values:
            assert chunk_checksum(chunk.values) != chunk.checksum

    def test_generated_numeric_chunks_are_vectors(self, tpcds_store):
        from repro.tpcds.schema import ALL_TABLES

        kinds = set()
        for table in ALL_TABLES:
            for part in tpcds_store.stored_table(table.name).partitions:
                for chunk in part.chunks.values():
                    kinds.add(type(chunk.values))
                    if type(chunk.values) is list:
                        assert vector_from_values(chunk.values, chunk.dtype) is None
                    else:
                        assert type(chunk.values) is NumpyVector
                        assert not chunk.values.data.flags.writeable
        assert kinds == {list, NumpyVector}


class TestStoredTable:
    def test_from_columns_and_row_count(self):
        table = StoredTable.from_columns(table_def(), {"k": [1, 2], "v": ["a", "b"]})
        assert table.row_count == 2
        assert len(table.partitions) == 1

    def test_partitioning_by_row_count(self):
        data = {"k": list(range(10)), "v": ["x"] * 10}
        table = StoredTable.from_columns(table_def(True), data, partition_rows=3)
        assert len(table.partitions) == 4
        assert [p.row_count for p in table.partitions] == [3, 3, 3, 1]

    def test_missing_column_rejected(self):
        with pytest.raises(CatalogError):
            StoredTable.from_columns(table_def(), {"k": [1]})

    def test_length_mismatch_rejected(self):
        with pytest.raises(CatalogError):
            StoredTable.from_columns(table_def(), {"k": [1], "v": ["a", "b"]})

    def test_total_bytes_column_subset(self):
        table = StoredTable.from_columns(table_def(), {"k": [1, 2], "v": ["a", "b"]})
        assert table.total_bytes(["k"]) == 8.0
        assert table.total_bytes() == 16.0


class TestStoreScan:
    def make_store(self) -> Store:
        store = Store()
        data = {"k": [1, 1, 2, 2, 3, 3], "v": list("abcdef")}
        store.put(StoredTable.from_columns(table_def(True), data, partition_rows=2))
        return store

    def test_scan_streams_rows(self):
        store = self.make_store()
        acct = ScanAccounting()
        rows = list(store.scan("t", ["v", "k"], acct))
        assert rows[0] == ("a", 1)
        assert acct.rows_scanned == 6
        assert acct.partitions_read == 3
        assert acct.scans_by_table == {"t": 1}

    def test_scan_charges_only_requested_columns(self):
        store = self.make_store()
        acct = ScanAccounting()
        list(store.scan("t", ["k"], acct))
        assert acct.bytes_scanned == 24.0  # 6 ints

    def test_partition_pruning_skips_charges(self):
        store = self.make_store()
        acct = ScanAccounting()
        rows = list(
            store.scan("t", ["k"], acct, partition_predicate=lambda c: c.min_value >= 3)
        )
        assert rows == [(3,), (3,)]
        assert acct.partitions_read == 1

    def test_missing_table(self):
        store = self.make_store()
        with pytest.raises(CatalogError):
            store.stored_table("nope")

    def test_accounting_snapshot_and_reset(self):
        acct = ScanAccounting()
        acct.record_scan("t")
        acct.record_partition(5)
        acct.record_chunk("t", 100.0)
        snap = acct.snapshot()
        acct.reset()
        assert snap.bytes_scanned == 100.0 and snap.rows_scanned == 5
        assert acct.bytes_scanned == 0.0 and not acct.bytes_by_table


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        catalog.register(table_def())
        assert catalog.has_table("T")
        assert catalog.table("t").column("V").dtype is S
        with pytest.raises(CatalogError):
            catalog.table("missing")

    def test_fresh_scan_columns_unique(self):
        catalog = Catalog()
        catalog.register(table_def())
        cols1, sources = catalog.fresh_scan_columns("t")
        cols2, _ = catalog.fresh_scan_columns("t")
        assert sources == ("k", "v")
        assert not set(cols1) & set(cols2)

    def test_row_count_update(self):
        catalog = Catalog()
        catalog.register(table_def())
        catalog.set_row_count("t", 42)
        assert catalog.row_count("t") == 42

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableDef("bad", (ColumnDef("a", I), ColumnDef("A", I)))

    def test_partition_column_must_exist(self):
        with pytest.raises(CatalogError):
            TableDef("bad", (ColumnDef("a", I),), partition_column="nope")

    def test_store_load_catalog_row_counts(self):
        store = Store()
        store.put(StoredTable.from_columns(table_def(), {"k": [1, 2, 3], "v": list("abc")}))
        catalog = Catalog()
        store.load_catalog(catalog)
        assert catalog.row_count("t") == 3


class TestNaNPruning:
    """A NaN anywhere in a partition-column chunk bounds nothing: chunk
    bounds skip it, so pruning keeps every partition a row can match,
    and the catalog claims no range for the column.  ``NOT`` over a
    DOUBLE comparison keeps the NaN rows (NaN compares false)."""

    @staticmethod
    def _store() -> Store:
        from tests.conftest import simple_table

        nan = float("nan")
        rows = [(1, nan), (2, 5.0), (3, 7.0), (4, 5.0), (5, nan), (6, 9.0)]
        store = Store()
        store.put(
            simple_table(
                "t",
                [("id", I), ("x", DataType.DOUBLE)],
                rows,
                partition_column="x",
                partition_rows=3,
            )
        )
        return store

    def test_chunk_bounds_skip_nan(self):
        nan = float("nan")
        chunk = ColumnChunk.build("x", DataType.DOUBLE, [nan, 5.0, None, 7.0, nan])
        assert (chunk.min_value, chunk.max_value) == (5.0, 7.0)
        only_nan = ColumnChunk.build("x", DataType.DOUBLE, [nan, None])
        assert only_nan.min_value is None and only_nan.max_value is None

    def test_catalog_claims_no_range_for_a_nan_column(self):
        catalog = Catalog()
        self._store().load_catalog(catalog)
        stats = catalog.column_stats("t", "x")
        assert stats.min_value is None and stats.max_value is None
        assert catalog.column_stats("t", "id").max_value == 6

    @pytest.mark.parametrize("mixed", [False, True], ids=["vector", "list"])
    def test_ndv_counts_every_nan_as_one_value(self, mixed):
        from repro.engine.session import Session
        from tests.conftest import simple_table

        # Distinct NaN objects, a repeated value and both zeros: GROUP BY
        # sees three keys.  An int lane makes the column a list chunk.
        column = [float("nan") for _ in range(3)] + [1.0, 1 if mixed else 1.0, -0.0, 0.0]
        store = Store()
        store.put(simple_table("t", [("x", DataType.DOUBLE)], [(v,) for v in column]))
        kind = list if mixed else NumpyVector
        assert type(store.stored_table("t").partitions[0].chunk("x").values) is kind
        catalog = Catalog()
        store.load_catalog(catalog)
        groups = Session(store).execute("SELECT x FROM t GROUP BY x").rows
        assert catalog.column_stats("t", "x").ndv == len(groups) == 3

    @pytest.mark.parametrize(
        "engine, vectors",
        [("row", "numpy"), ("batch", "numpy"), ("batch", "python")],
        ids=["row", "batch", "batch-lists"],
    )
    @pytest.mark.parametrize(
        "predicate, expected",
        [
            ("x = 5.0", [2, 4]),
            ("x < 6.0", [2, 4]),
            ("x IN (5.0, 9.0)", [2, 4, 6]),
            ("NOT (x < 6.0)", [1, 3, 5, 6]),
        ],
    )
    def test_pruning_keeps_matching_rows(self, engine, vectors, predicate, expected):
        from repro.engine.session import Session
        from repro.optimizer.config import OptimizerConfig

        config = OptimizerConfig(engine=engine, vectors=vectors)
        session = Session(self._store(), config)
        result = session.execute(f"SELECT id FROM t WHERE {predicate} ORDER BY id")
        assert [row[0] for row in result.rows] == expected
