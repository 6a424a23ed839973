"""Columnar partitioned storage — the stand-in for S3 + Parquet.

Tables are stored as a list of partitions; each partition holds one
column chunk per column.  The layout mirrors the paper's setup: the
large fact tables are range-partitioned by their date surrogate key
("partitioned the largest 7 tables by appropriate date columns"),
dimension tables are single-partition.

Reading is columnar and metered: a scan declares which columns it
needs, and only those chunks are charged to the
:class:`~repro.storage.accounting.ScanAccounting` — so a plan rewrite
that drops a duplicate scan, or prunes columns/partitions, directly
shows up as fewer bytes scanned, exactly the Figure-2 axis.

Each column is stored once, in the representation the engines read.
A column whose values all fit a read-only :class:`NumpyVector`
(INTEGER / DATE / DOUBLE / BOOLEAN, :func:`vector_from_values`) is one
table-wide vector, and each partition's chunk is a view of it (a
NULL-free chunk's view has no validity mask).  A scan that drains a
run of adjacent partitions hands out one slice of that vector, no
copy.  Any other column keeps one chunk per partition: a vector where
the partition's values fit one, a Python list for the rest (strings,
mixed element types, ints at or beyond ±2**62).  The row engine and
``vectors="python"`` read a vector chunk delisted.  A table's catalog
statistics are derived once, when it is built.

Reads are also *fault tolerant*: every chunk carries a build-time
content checksum that is re-verified on read (corruption raises
:class:`~repro.errors.DataCorruptionError` and evicts any plan-cache
entries derived from the table), and an optional
:class:`~repro.storage.faults.FaultInjector` on the store can make
reads fail transiently — absorbed by the caller's retry policy without
double-charging accounting, since a chunk is charged only once its
read succeeds.
"""

from __future__ import annotations

import io
import math
import pickle
import zlib
from dataclasses import dataclass
from itertools import accumulate, chain
from time import sleep as _sleep
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.algebra.types import DataType, encoded_bytes
from repro.catalog.catalog import Catalog, ColumnStats, TableDef
from repro.errors import CatalogError, DataCorruptionError, TransientReadError

#: Exact Python element type required per storage dtype.  Mixed-type or
#: otherwise ineligible columns stay Python lists — round-tripping a
#: value through the array must preserve its exact type, or engines
#: would disagree on output rows (``3`` vs ``3.0``) and sort keys.
_ELEMENT_TYPES = {
    DataType.INTEGER: int,
    DataType.DATE: int,  # DATE is an integer day number
    DataType.DOUBLE: float,
    DataType.BOOLEAN: bool,
}

_NP_DTYPES = {int: "int64", float: "float64", bool: "bool"}

#: int64 magnitude guard: ints at or beyond it keep their column a
#: list, and array + - * and array sums run only while operand
#: magnitudes cannot reach it (Python ints are exact).
_INT_GUARD = 1 << 62


class NumpyVector:
    """One column vector: ``data`` ndarray + optional validity mask.

    ``valid`` is ``None`` when every lane is valid, else a bool array
    where False marks NULL.  Instances are immutable by the same
    convention as list blocks (a stored chunk's arrays are read-only);
    slicing returns views.
    """

    __slots__ = ("data", "valid")

    def __init__(self, data, valid=None):
        self.data = data
        self.valid = valid

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self):
        return iter(self.tolist())

    def __getitem__(self, item):
        if isinstance(item, slice):
            valid = self.valid
            return NumpyVector(
                self.data[item], None if valid is None else valid[item]
            )
        if self.valid is not None and not self.valid[item]:
            return None
        return self.data[item].item()

    def tolist(self) -> list:
        out = self.data.tolist()
        if self.valid is None:
            return out
        return [
            v if ok else None for v, ok in zip(out, self.valid.tolist())
        ]

    def take(self, indexes) -> "NumpyVector":
        valid = self.valid
        return NumpyVector(
            self.data[indexes], None if valid is None else valid[indexes]
        )


def vector_from_values(values: list, dtype: DataType) -> NumpyVector | None:
    """Convert one column's Python values to a read-only vector, or
    ``None`` when the column is ineligible (strings, mixed element
    types, ints at or beyond the int64 guard)."""
    element = _ELEMENT_TYPES.get(dtype)
    if element is None:
        return None
    has_null = False
    for v in values:
        if v is None:
            has_null = True
        elif type(v) is not element:
            return None
        elif element is int and not -_INT_GUARD < v < _INT_GUARD:
            return None
    np_dtype = _NP_DTYPES[element]
    if has_null:
        data = np.array([0 if v is None else v for v in values], dtype=np_dtype)
        valid = np.array([v is not None for v in values], dtype=bool)
        valid.flags.writeable = False
    else:
        data, valid = np.array(values, dtype=np_dtype), None
    data.flags.writeable = False
    return NumpyVector(data, valid)


def delist(column):
    """A plain Python list view of a column (no-op for lists)."""
    if type(column) is NumpyVector:
        return column.tolist()
    return column


def concat_column(segs: list):
    """Concatenate column segments; NumPy when every segment is a
    vector (a NULL-free segment contributes all-True validity lanes),
    else a list.  A single segment is returned by reference."""
    if len(segs) == 1:
        return segs[0]
    if segs and all(type(s) is NumpyVector for s in segs):
        data = np.concatenate([s.data for s in segs])
        if all(s.valid is None for s in segs):
            return NumpyVector(data)
        valid = [np.ones(len(s), bool) if s.valid is None else s.valid for s in segs]
        return NumpyVector(data, np.concatenate(valid))
    return list(chain.from_iterable(map(delist, segs)))


def _bounds(values: list) -> tuple:
    """``(min, max)`` of one chunk's non-NULL values, first to last:
    a NaN bounds nothing (a later one compares false) and ties keep the
    first value."""
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


def chunk_checksum(values) -> int:
    """Content digest of a column chunk, over whichever representation
    it holds.

    A vector digests its raw array buffers (CRC32, C-speed, no
    per-element boxing).  A list digests its pickled bytes: floats are
    pickled as their exact bits and ints exactly, so one flipped bit in
    any lane — the fault injector's corruption model — always changes
    the digest (``hash(tuple(...))`` misses some: ``hash(-1) ==
    hash(-2)``).  Memoization is off, so equal content gives an equal
    digest whatever objects the list shares.
    """
    if type(values) is NumpyVector:
        crc = zlib.crc32(values.data)
        return crc if values.valid is None else zlib.crc32(values.valid, crc)
    out = io.BytesIO()
    pickler = pickle.Pickler(out, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(values)
    return zlib.crc32(out.getbuffer())


@dataclass
class ColumnChunk:
    """One column's values within one partition: a :class:`NumpyVector`
    when :func:`vector_from_values` accepts them, else a Python list."""

    name: str
    dtype: DataType
    values: NumpyVector | list
    encoded_size: float
    min_value: object | None = None
    max_value: object | None = None
    #: Build-time content digest; None disables verification (chunks
    #: constructed directly in tests).
    checksum: int | None = None

    @classmethod
    def build(
        cls, name: str, dtype: DataType, values: Sequence, avg_string_bytes: float | None = None
    ) -> "ColumnChunk":
        # No defensive re-copy when the caller hands us a fresh list
        # (both construction paths do — build takes ownership).
        if type(values) is not list:
            values = list(values)
        stored = vector_from_values(values, dtype)
        return cls.of(name, dtype, values, values if stored is None else stored, avg_string_bytes)

    @classmethod
    def of(cls, name, dtype, values: list, stored, avg_string_bytes=None) -> "ColumnChunk":
        """The chunk holding ``stored``, the representation of the
        Python ``values`` it is built from."""
        size = encoded_bytes(dtype, avg_string_bytes) * len(values)
        return cls(name, dtype, stored, size, *_bounds(values), chunk_checksum(stored))


@dataclass
class Partition:
    """A horizontal slice of a table: one chunk per column."""

    chunks: dict[str, ColumnChunk]
    row_count: int

    def chunk(self, name: str) -> ColumnChunk:
        try:
            return self.chunks[name.lower()]
        except KeyError:
            raise CatalogError(f"partition has no column {name!r}") from None


class StoredTable:
    """All partitions of one table, with the table-wide vectors their
    chunks view and the per-column catalog statistics."""

    def __init__(self, definition: TableDef, partitions: list[Partition], columns: dict):
        self.definition = definition
        self.partitions = partitions
        #: Lowercase column name -> the table-wide vector every chunk
        #: of that column views (columns with a list chunk are absent).
        self.columns = columns
        #: Row offset of each partition, then the row count.
        self.starts = list(accumulate((p.row_count for p in partitions), initial=0))
        self.row_count = self.starts[-1]
        self.stats = {c.name.lower(): self._column_stats(c) for c in definition.columns}

    @property
    def name(self) -> str:
        return self.definition.name

    @classmethod
    def from_columns(
        cls,
        definition: TableDef,
        data: dict[str, Sequence],
        partition_rows: int | None = None,
    ) -> "StoredTable":
        """Build a stored table from column vectors.

        Rows are chunked into fixed-size partitions of
        ``partition_rows`` (one partition when unset) — partition
        boundaries ignore the partition column, so a key's rows may
        span two partitions.  This is the layout the TPC-DS generator
        uses (its output is pinned by regression tests).  Each column
        is converted once; its chunks are views of the one vector.
        """
        lower = {k.lower(): v if type(v) is list else list(v) for k, v in data.items()}
        names = [c.name.lower() for c in definition.columns]
        missing = [n for n in names if n not in lower]
        if missing:
            raise CatalogError(f"table {definition.name!r} missing columns {missing}")
        total = len(lower[names[0]]) if names else 0
        for n in names:
            if len(lower[n]) != total:
                raise CatalogError(f"column {n!r} length mismatch in {definition.name!r}")

        if partition_rows is None or partition_rows <= 0 or total == 0:
            boundaries = [(0, total)]
        else:
            boundaries = [
                (start, min(start + partition_rows, total))
                for start in range(0, total, partition_rows)
            ]

        partitions = [Partition({}, end - start) for start, end in boundaries]
        columns: dict[str, NumpyVector] = {}
        for cdef in definition.columns:
            key = cdef.name.lower()
            values = lower[key]
            column = vector_from_values(values, cdef.dtype)
            if column is not None:
                columns[key] = column
            for part, (start, end) in zip(partitions, boundaries):
                chunk = values[start:end]
                if column is None:
                    part.chunks[key] = ColumnChunk.build(
                        cdef.name, cdef.dtype, chunk, cdef.avg_string_bytes
                    )
                    continue
                view = column[start:end]
                if view.valid is not None and view.valid.all():
                    view.valid = None  # a NULL-free view has no mask
                part.chunks[key] = ColumnChunk.of(
                    cdef.name, cdef.dtype, chunk, view, cdef.avg_string_bytes
                )
        return cls(definition, partitions, columns)

    def _column_stats(self, cdef) -> ColumnStats:
        """NDV, NULL fraction and bounds of one column, as GROUP BY and
        the chunk bounds see its values: all NaNs are one value and
        leave the column unbounded, ``0.0 == -0.0``, and in a list
        column ``1 == 1.0 == True``.  Bounds are the extremes of the
        chunk bounds."""
        key = cdef.name.lower()
        chunks = [part.chunks[key] for part in self.partitions]
        bounded = [c for c in chunks if c.min_value is not None]
        column = self.columns.get(key)
        if column is not None:
            data = np.sort(column.data if column.valid is None else column.data[column.valid])
            nulls = len(column) - len(data)
            nans = int(np.isnan(data).sum()) if data.dtype.kind == "f" else 0
            numbers = data[: len(data) - nans]  # NaNs sort last
            ndv = int(np.count_nonzero(numbers[1:] != numbers[:-1]))
            ndv += (len(numbers) > 0) + (nans > 0)
            if nans or (len(numbers) and numbers[0] == -math.inf and numbers[-1] == math.inf):
                bounded = []  # NaN, or +inf and -inf summing to NaN
        else:
            values = [v for chunk in chunks for v in delist(chunk.values)]
            nulls = values.count(None)
            distinct = set(values) - {None}
            # A float sum is NaN when a term is (or when +inf meets
            # -inf, where no bounds is merely imprecise), at C speed
            # over the set.  The set keeps each NaN object apart.
            ndv = len(distinct)
            if cdef.dtype is DataType.DOUBLE and math.isnan(sum(distinct)):
                numbers = [v for v in distinct if v == v]
                ndv = len(numbers) + (len(numbers) < ndv)
                bounded = []
        total = self.row_count
        return ColumnStats(
            ndv=ndv,
            null_fraction=nulls / total if total else 0.0,
            min_value=min(c.min_value for c in bounded) if bounded else None,
            max_value=max(c.max_value for c in bounded) if bounded else None,
        )

    def run_block(self, keys: list[str], first: int, run: list[list], rows: int) -> list:
        """The columns of a run of chunks read from adjacent partitions
        ``first``, ``first + 1``, …: one block of ``rows`` rows.  A
        vector column is a slice of its table-wide vector while every
        chunk is still its view (its mask ``None`` exactly where the
        chunks' are); a list column, or a run holding a chunk the fault
        injector swapped, is the chunks concatenated."""
        start, end = self.starts[first], self.starts[first] + rows
        out = []
        for key, segs in zip(keys, zip(*run)):
            column = self.columns.get(key)
            if len(segs) > 1 and column is not None and all(
                type(s) is NumpyVector and s.data.base is column.data for s in segs
            ):
                valid = None if all(s.valid is None for s in segs) else column.valid[start:end]
                out.append(NumpyVector(column.data[start:end], valid))
            else:
                out.append(concat_column(segs))
        return out

    def total_bytes(self, columns: Iterable[str] | None = None) -> float:
        """Encoded size of the table (optionally a column subset)."""
        wanted = None if columns is None else {c.lower() for c in columns}
        total = 0.0
        for part in self.partitions:
            for key, chunk in part.chunks.items():
                if wanted is None or key in wanted:
                    total += chunk.encoded_size
        return total


class Store:
    """In-memory object store holding all tables for a session.

    ``fault_injector`` (a :class:`~repro.storage.faults.FaultInjector`)
    makes reads fail like S3 does; ``verify_checksums`` re-checks every
    chunk's build-time digest on read.  Both, and ``io_latency_ms``, are
    attributes of the store alone: every session and every fragment
    worker reading it sees the same values.
    """

    def __init__(self, fault_injector=None, verify_checksums: bool = True) -> None:
        self._tables: dict[str, StoredTable] = {}
        self.fault_injector = fault_injector
        self.verify_checksums = verify_checksums
        #: Simulated object-store round-trip latency per partition read
        #: (milliseconds).  The store is in-memory, so reads are
        #: unrealistically free; this knob restores the S3-like regime
        #: the paper's engine operates in, where per-partition latency —
        #: not CPU — dominates scans and partition-parallel workers win
        #: by overlapping it.  0 disables (the default).
        self.io_latency_ms: float = 0.0

    def put(self, table: StoredTable) -> None:
        self._tables[table.name.lower()] = table

    def has(self, name: str) -> bool:
        return name.lower() in self._tables

    def stored_table(self, name: str) -> StoredTable:
        """The stored table ``name``; faults strike its chunk reads in
        :meth:`scan_blocks`, never this lookup."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no stored data for table {name!r}") from None

    def partition_count(self, name: str) -> int:
        """Stored partition count of ``name`` (metadata only)."""
        return len(self.stored_table(name).partitions)

    def load_catalog(self, catalog: Catalog) -> None:
        """Register every stored table's definition (with live row
        counts and per-column statistics) into ``catalog``."""
        for stored in self._tables.values():
            self.register_table(stored.name, catalog)

    def register_table(self, name: str, catalog: Catalog) -> None:
        """(Re-)register one stored table into ``catalog``.

        Also the reload path: after replacing a table's data via
        :meth:`put`, re-registering bumps the catalog's table version
        (see :meth:`~repro.catalog.catalog.Catalog.register`), which
        invalidates any cross-query cache entries built over the old
        data.
        """
        stored = self.stored_table(name)
        definition = stored.definition
        for cdef in definition.columns:
            catalog.set_column_stats(definition.name, cdef.name, stored.stats[cdef.name.lower()])
        # Registration bumps the table's version, so it comes last: a
        # planner that reads the new version also sees the new stats.
        catalog.register(
            TableDef(
                definition.name,
                definition.columns,
                definition.primary_key,
                definition.partition_column,
                stored.row_count,
            )
        )

    def scan_blocks(
        self,
        table_name: str,
        columns: Sequence[str],
        accounting,
        partition_predicate: Callable[[ColumnChunk], bool] | None = None,
        block_rows: int | None = None,
        runtime=None,
        as_vectors: bool = False,
        coalesce: bool = False,
    ) -> Iterator[tuple[list[list], int]]:
        """Columnar fast path: yield ``(column_vectors, row_count)``
        blocks of the requested columns, charging accounting.

        With ``as_vectors=True`` (the block engine's NumPy mode), each
        column comes back as the chunk holds it: the stored
        :class:`NumpyVector` (read-only arrays), or the stored list for
        the columns :func:`vector_from_values` refuses (strings, mixed
        types).  With ``as_vectors=False`` (the row engine, and
        ``vectors="python"``) a vector chunk is delisted first, so every
        column is a Python list — same length, same logical values.

        ``partition_predicate`` receives the *partition column's* chunk
        (with min/max) and returns False to prune the whole partition —
        pruned partitions are never charged.  With ``block_rows`` set,
        partitions larger than the limit are sliced into consecutive
        blocks.  A block spans no partition boundary unless ``coalesce``
        is set too (the caller drains the scan whole): then consecutive
        partitions share one block of at most ``block_rows`` rows, a
        *run*, which also ends where a column switches between a vector
        chunk and a list chunk, so coalescing never delists a vector.
        A run of vector chunks is one slice of the table-wide vector, no
        copy, so a run also ends at a partition the scan skips.  Without
        ``block_rows`` a run ends only there and at a representation
        switch.  Accounting is identical either way: chunks are read,
        fault-checked, verified and charged one at a time.  Callers must
        treat the yielded columns as immutable: a one-chunk block hands
        out the stored chunks by reference.

        ``runtime`` (a :class:`~repro.engine.metrics.RunContext`)
        supplies the retry policy for transient faults, deadline checks
        at partition boundaries, fault/retry/verification counters, and
        the plan cache to evict from when corruption is detected.  A
        chunk is charged to ``accounting`` only once its read succeeds,
        so retries never double-charge ``bytes_scanned``.
        """
        stored = self.stored_table(table_name)
        table = stored.name
        accounting.record_scan(table)
        part_col = stored.definition.partition_column
        window = None
        if runtime is not None:
            window = getattr(runtime, "partition_window", None)
            if window is not None and window[0] != table.lower():
                window = None
        keys = [name.lower() for name in columns]
        read = self._verified if self.fault_injector is None else self._read_chunk_values
        run: list[list] = []  # read and charged, not yet yielded
        run_rows = first = 0
        for index, part in enumerate(stored.partitions):
            if window is not None and not (window[1] <= index < window[2]):
                # Outside this morsel's window: another worker reads
                # (and charges) it, so skipping here is accounting-free.
                continue
            if partition_predicate is not None and part_col is not None:
                if not partition_predicate(part.chunk(part_col)):
                    continue
            if runtime is not None:
                runtime.checkpoint()
            if self.io_latency_ms > 0.0:
                _sleep(self.io_latency_ms / 1000.0)
            accounting.record_partition(part.row_count)
            vectors = []
            for key in keys:
                chunk = part.chunk(key)
                values = read(table, index, chunk, runtime)
                accounting.record_chunk(table, chunk.encoded_size)
                vectors.append(values if as_vectors else delist(values))
            total = part.row_count
            if run and (
                index != first + len(run)
                or (block_rows is not None and run_rows + total > block_rows)
                or list(map(type, run[0])) != list(map(type, vectors))
            ):
                yield stored.run_block(keys, first, run, run_rows), run_rows
                run, run_rows = [], 0
            if block_rows is None or total <= block_rows:
                if coalesce:
                    if not run:
                        first = index
                    run.append(vectors)
                    run_rows += total
                else:
                    yield vectors, total
            else:
                for start in range(0, total, block_rows):
                    end = min(start + block_rows, total)
                    yield [v[start:end] for v in vectors], end - start
        if run:
            yield stored.run_block(keys, first, run, run_rows), run_rows

    def _verified(self, table: str, partition: int, chunk: ColumnChunk, runtime):
        """One chunk's values once its checksum matches (when checks
        are on); a mismatch evicts plan-cache entries over ``table`` and
        raises :class:`~repro.errors.DataCorruptionError` with recovery
        steps."""
        values = chunk.values
        if not self.verify_checksums or chunk.checksum is None:
            return values
        if runtime is not None and runtime.metrics is not None:
            runtime.metrics.checksum_verifications += 1
        if chunk_checksum(values) != chunk.checksum:
            if runtime is not None and runtime.plan_cache is not None:
                runtime.plan_cache.invalidate_table(table)
            raise DataCorruptionError(
                f"checksum mismatch on {table}.{chunk.name} partition "
                f"{partition}: stored data is corrupt; reload the table "
                "(store.put + session.reload_table) and re-run the query"
            )
        return values

    def _read_chunk_values(
        self, table: str, partition: int, chunk: ColumnChunk, runtime
    ) -> NumpyVector | list:
        """One chunk read under the fault injector: the injected fault,
        checksum verification, and bounded retries of transient
        failures.

        Transient faults are retried per the runtime's policy (with
        backoff); corruption is never retried (:meth:`_verified`).
        """
        policy = None if runtime is None else runtime.retry_policy
        metrics = None if runtime is None else runtime.metrics
        site = (table.lower(), partition, chunk.name.lower())
        attempt = 0
        while True:
            try:
                self.fault_injector.on_chunk_read(site, chunk, attempt, metrics=metrics)
                return self._verified(table, partition, chunk, runtime)
            except TransientReadError as exc:
                if policy is None or attempt >= policy.max_retries:
                    raise TransientReadError(
                        f"reading {table}.{chunk.name} partition {partition} failed "
                        f"after {attempt + 1} attempt(s): {exc}; enable or raise "
                        "retries (--retries) to absorb transient faults"
                    ) from exc
                policy.backoff(attempt, site)
                attempt += 1
                if metrics is not None:
                    metrics.retries += 1

    def verify_integrity(self, tables: Iterable[str] | None = None) -> int:
        """Re-verify every stored chunk against its build-time checksum.

        Returns the number of chunks checked; raises
        :class:`~repro.errors.DataCorruptionError` naming the first
        mismatching chunk.  Tests use it to turn silent in-place
        mutation of a handed-out list chunk into a hard failure (a
        stored vector's arrays are read-only: writing one raises).
        """
        wanted = None if tables is None else {t.lower() for t in tables}
        checked = 0
        for key, stored in self._tables.items():
            if wanted is not None and key not in wanted:
                continue
            for index, part in enumerate(stored.partitions):
                for chunk in part.chunks.values():
                    if chunk.checksum is None:
                        continue
                    checked += 1
                    if chunk_checksum(chunk.values) != chunk.checksum:
                        raise DataCorruptionError(
                            f"integrity check failed: {stored.name}.{chunk.name} "
                            f"partition {index} no longer matches its build-time "
                            "checksum (in-place mutation of a scanned block, or "
                            "corruption); reload the table to recover"
                        )
        return checked

    def scan(
        self,
        table_name: str,
        columns: Sequence[str],
        accounting,
        partition_predicate: Callable[[ColumnChunk], bool] | None = None,
        runtime=None,
    ) -> Iterator[tuple]:
        """Stream rows of the requested columns, charging accounting.

        Row-tuple view over :meth:`scan_blocks` (same pruning, same
        accounting and fault handling by construction).
        """
        for vectors, count in self.scan_blocks(
            table_name, columns, accounting, partition_predicate, runtime=runtime
        ):
            if vectors:
                yield from zip(*vectors)
            else:
                yield from (() for _ in range(count))
