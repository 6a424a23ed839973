"""One array per column: chunks are views, runs are slices.

A column whose every value fits a vector is stored once, as one
table-wide :class:`NumpyVector`; each partition's chunk is a view of it
and a scan that drains adjacent partitions hands out one slice, no copy.
Every chunk of a run is still read, fault-checked, CRC-verified and
charged on its own, and a table's catalog statistics are derived once,
when it is built.

``tests/data/scan_reads.json`` pins the checksum verifications and bytes
scanned of the 32 workload queries; regenerate it (only when a change
is meant to read different chunks) with::

    PYTHONPATH=src python tests/test_column_layout.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.algebra.types import DataType
from repro.catalog.catalog import Catalog, ColumnStats
from repro.engine.metrics import RunContext
from repro.engine.session import Session
from repro.errors import DataCorruptionError
from repro.optimizer.config import OptimizerConfig
from repro.storage.accounting import ScanAccounting
from repro.storage.columnar import NumpyVector, Store, concat_column, delist
from repro.storage.faults import FaultInjector, bit_flip
from repro.tpcds.queries import WORKLOAD_QUERIES
from tests.conftest import simple_table

I, D, B, S = DataType.INTEGER, DataType.DOUBLE, DataType.BOOLEAN, DataType.STRING
DEFAULT = OptimizerConfig().batch_rows
READS = Path(__file__).parent / "data" / "scan_reads.json"
PARTITION_ROWS, PARTITIONS = 4, 5


def _row(i):
    v = None if i in (9, 17) else i * 0.5  # NULLs in partitions 2 and 4
    return (i % 3, v, f"s{i}")


@pytest.fixture()
def store() -> Store:
    store = Store()
    store.put(
        simple_table(
            "t",
            [("k", I), ("v", D), ("s", S)],
            [_row(i) for i in range(PARTITION_ROWS * PARTITIONS)],
            partition_rows=PARTITION_ROWS,
        )
    )
    return store


def _blocks(store, columns=("k", "v"), runtime=None, **kwargs):
    kwargs.setdefault("block_rows", DEFAULT)
    kwargs.setdefault("coalesce", True)
    return list(
        store.scan_blocks(
            "t", list(columns), ScanAccounting(), runtime=runtime, as_vectors=True, **kwargs
        )
    )


# -- layout ----------------------------------------------------------------


def test_vector_chunks_view_one_column_and_drop_an_empty_mask(store):
    stored = store.stored_table("t")
    assert sorted(stored.columns) == ["k", "v"]  # strings keep list chunks
    for index, part in enumerate(stored.partitions):
        for key in ("k", "v"):
            chunk = part.chunk(key).values
            assert chunk.data.base is stored.columns[key].data
            assert not chunk.data.flags.writeable
        # Only partitions 2 and 4 hold a NULL of ``v``.
        assert (part.chunk("v").values.valid is None) == (index not in (2, 4))
        assert type(part.chunk("s").values) is list


def test_a_run_is_a_slice_of_the_column(store):
    stored = store.stored_table("t")
    (cols, n), = _blocks(store)
    assert n == PARTITION_ROWS * PARTITIONS
    for col, key in zip(cols, ("k", "v")):
        assert np.shares_memory(col.data, stored.columns[key].data)
    assert cols[1].tolist() == [_row(i)[1] for i in range(n)]


def test_a_one_chunk_block_is_the_stored_chunk(store):
    stored = store.stored_table("t")
    blocks = _blocks(store, ("k", "v", "s"), block_rows=PARTITION_ROWS)
    assert len(blocks) == PARTITIONS
    for part, (cols, _) in zip(stored.partitions, blocks):
        assert all(c is part.chunk(k).values for c, k in zip(cols, ("k", "v", "s")))


@pytest.mark.parametrize("block_rows", [4, 8, 12, 16, 20])
def test_run_slices_equal_the_concatenated_chunks(store, block_rows):
    # A slice's mask is None exactly where concatenating the chunks
    # gives None, and its lanes are the same.
    chunks = _blocks(store, ("k", "v", "s"), coalesce=False)
    runs = _blocks(store, ("k", "v", "s"), block_rows=block_rows)
    per_run = block_rows // PARTITION_ROWS
    for r, (cols, n) in enumerate(runs):
        segs = chunks[r * per_run : (r + 1) * per_run]
        assert n == sum(m for _, m in segs)
        for j, col in enumerate(cols):
            want = concat_column([c[j] for c, _ in segs])
            assert type(col) is type(want)
            assert delist(col) == delist(want)
            if type(col) is NumpyVector:
                assert (col.valid is None) == (want.valid is None)


def test_a_column_with_a_list_chunk_keeps_one_chunk_per_partition():
    store = Store()
    rows = [(i, 1 << 63 if i == 5 else i) for i in range(12)]
    store.put(simple_table("t", [("k", I), ("w", I)], rows, partition_rows=4))
    stored = store.stored_table("t")
    assert sorted(stored.columns) == ["k"]
    kinds = [type(p.chunk("w").values) for p in stored.partitions]
    assert kinds == [NumpyVector, list, NumpyVector]
    chunks = [p.chunk("w").values for p in stored.partitions]
    assert all(type(c) is list or c.data.base is None for c in chunks)
    assert [n for _, n in _blocks(store, ("k", "w"))] == [4, 4, 4]


# -- runs without a row bound ----------------------------------------------


def _keyed(rows=10):
    store = Store()
    store.put(
        simple_table(
            "t", [("k", I)], [(i,) for i in range(rows)],
            partition_column="k", partition_rows=4,
        )
    )
    return store


def test_coalescing_without_a_block_size_makes_one_run():
    blocks = list(_keyed().scan_blocks("t", ["k"], ScanAccounting(), coalesce=True))
    assert [n for _, n in blocks] == [10]
    assert blocks[0][0][0] == list(range(10))


def test_a_run_ends_at_a_pruned_partition():
    store = _keyed()
    column = store.stored_table("t").columns["k"]

    def outside_4_to_7(chunk):
        return chunk.max_value < 4 or chunk.min_value >= 8

    for block_rows in (None, DEFAULT):
        accounting = ScanAccounting()
        blocks = list(
            store.scan_blocks(
                "t", ["k"], accounting, partition_predicate=outside_4_to_7,
                block_rows=block_rows, as_vectors=True, coalesce=True,
            )
        )
        assert [(c[0].tolist(), n) for c, n in blocks] == [([0, 1, 2, 3], 4), ([8, 9], 2)]
        assert all(np.shares_memory(c[0].data, column.data) for c, _ in blocks)
        assert (accounting.partitions_read, accounting.bytes_scanned) == (2, 24.0)


# -- the fault model -------------------------------------------------------


def test_a_flipped_lane_in_a_run_fails_its_partition_and_evicts(store):
    session = Session(store, OptimizerConfig(enable_plan_cache=True))
    session.execute("SELECT k, sum(v) AS s FROM t GROUP BY k")
    assert any("t" in e.tables for e in session.plan_cache.entries())
    store.fault_injector = FaultInjector(seed=3)
    store.fault_injector.corrupt_chunk("t", 2, "v")
    ctx = RunContext(store, plan_cache=session.plan_cache)
    with pytest.raises(DataCorruptionError, match=r"t\.v partition 2"):
        _blocks(store, runtime=ctx)
    # Partitions 0 and 1 and partition 2's ``k`` were verified first.
    assert ctx.metrics.checksum_verifications == 2 * 2 + 2
    assert not any("t" in e.tables for e in session.plan_cache.entries())


def test_without_checks_a_run_returns_the_flipped_lane(store):
    stored = store.stored_table("t")
    store.verify_checksums = False
    store.fault_injector = FaultInjector(seed=1)  # flips lane 3, not the NULL
    store.fault_injector.corrupt_chunk("t", 2, "v")
    (cols, n), = _blocks(store)
    want = [_row(i)[1] for i in range(n)]
    got = cols[1].tolist()
    changed = [i for i in range(n) if got[i] != want[i]]
    assert len(changed) == 1 and 8 <= changed[0] < 12
    assert got[changed[0]] == bit_flip(want[changed[0]])
    # The swapped chunk is no view: ``v`` is concatenated, ``k`` sliced.
    assert not np.shares_memory(cols[1].data, stored.columns["v"].data)
    assert np.shares_memory(cols[0].data, stored.columns["k"].data)


# -- statistics at build ---------------------------------------------------


def _stats_by_delisting(stored, cdef) -> ColumnStats:
    """The catalog statistics as every ``Session()`` derived them before
    they were computed at build: every chunk delisted into one set."""
    total = stored.row_count
    distinct: set = set()
    nulls = 0
    chunks = [part.chunk(cdef.name) for part in stored.partitions]
    for chunk in chunks:
        values = delist(chunk.values)
        distinct.update(values)
        nulls += values.count(None)
    distinct.discard(None)
    ndv = len(distinct)
    bounded = [c for c in chunks if c.min_value is not None]
    if cdef.dtype is DataType.DOUBLE and math.isnan(sum(distinct)):
        numbers = [v for v in distinct if v == v]
        ndv = len(numbers) + (len(numbers) < ndv)
        bounded = []
    return ColumnStats(
        ndv=ndv,
        null_fraction=nulls / total if total else 0.0,
        min_value=min(c.min_value for c in bounded) if bounded else None,
        max_value=max(c.max_value for c in bounded) if bounded else None,
    )


def _assert_stats_as_derived(store):
    catalog = Catalog()
    store.load_catalog(catalog)
    for stored in store._tables.values():
        for cdef in stored.definition.columns:
            want = _stats_by_delisting(stored, cdef)
            # repr tells -0.0 from 0.0 and True from 1 from 1.0.
            assert repr(stored.stats[cdef.name.lower()]) == repr(want), cdef.name
            assert catalog.column_stats(stored.name, cdef.name) is stored.stats[cdef.name.lower()]


def test_generated_stats_equal_the_delisted_derivation(tpcds_store):
    _assert_stats_as_derived(tpcds_store)


def test_edge_value_stats_equal_the_delisted_derivation():
    nan, inf = float("nan"), float("inf")
    columns = {
        "nan": (D, [nan, 0.0, -0.0, None, 1.0, float("nan"), 2.5, None, nan]),
        "zeros": (D, [-0.0, 0.0, None, 0.0, -0.0, None, None, 0.0, 0.0]),
        "infs": (D, [inf, 1.0, None, -inf, 1.0, 2.0, None, 3.0, 4.0]),
        "flags": (B, [True, None, False, True, True, None, False, False, True]),
        "mixed": (I, [1, 1.0, True, None, 2, 3.5, False, 0.0, None]),
        "huge": (I, [1, 2, 3, None, 1 << 63, 5, 6, 7, 8]),
        "text": (S, ["a", None, "b", "a", "c", None, "b", "d", "e"]),
        "empty": (I, [None] * 9),
    }
    for partition_rows in (None, 2, 4):
        store = Store()
        rows = list(zip(*(values for _, values in columns.values())))
        schema = [(name, dtype) for name, (dtype, _) in columns.items()]
        store.put(simple_table("t", schema, rows, partition_rows=partition_rows))
        store.put(simple_table("e", schema, [], partition_rows=partition_rows))
        _assert_stats_as_derived(store)
    stats = store.stored_table("t").stats
    assert (stats["nan"].ndv, stats["nan"].min_value) == (4, None)
    assert stats["mixed"].ndv == 4 and stats["flags"].ndv == 2


# -- what the workload reads -----------------------------------------------

CONFIGS = {
    "fused": OptimizerConfig(),
    "baseline": OptimizerConfig(enable_fusion=False),
}


def scan_reads(store) -> dict[str, dict[str, list]]:
    """``{config: {query: [checksum verifications, bytes scanned]}}``."""
    out = {}
    for label, config in CONFIGS.items():
        with Session(store, config) as session:
            out[label] = {}
            for name, sql in WORKLOAD_QUERIES.items():
                metrics = session.execute(sql).metrics
                out[label][name] = [metrics.checksum_verifications, metrics.bytes_scanned]
    return out


def test_workload_reads_match_the_pinned_counts(tpcds_store):
    assert scan_reads(tpcds_store) == json.loads(READS.read_text())


if __name__ == "__main__":
    # Same data as the ``tpcds_store`` fixture in conftest.py.
    from repro.tpcds.generator import generate_dataset
    from tests.conftest import TEST_SCALE

    READS.write_text(
        json.dumps(scan_reads(generate_dataset(scale=TEST_SCALE, seed=7)), indent=1) + "\n"
    )
