"""Cross-query subplan result cache.

The paper's premise is *computation reuse*; fusion and spools realize
it within one query.  This module extends reuse across queries in a
:class:`~repro.engine.session.Session`: a byte-budgeted LRU of
materialized subplan results keyed by semantic plan fingerprint
(:mod:`repro.algebra.fingerprint`).  Entries store full column vectors
keyed by column *token*, so any alpha-equivalent consumer — different
aliases, different column ids, reordered select list — can replay the
exact bytes without touching storage, which is the whole game in a
pay-per-byte-scanned cloud.

Invalidation is by catalog table version: an entry remembers the
``(table, version)`` pairs of its lineage at population time;
``lookup`` drops entries whose versions no longer match (lazy), and
:meth:`PlanCache.invalidate_table` evicts eagerly on reload.

Entries hit during *planning* are pinned until the session releases
them after execution, so populations triggered later in the same query
can never evict a result the running plan still needs to replay.

The cache is safe for concurrent use from multiple threads (the server
front end in :mod:`repro.server` runs many queries against one
session): :class:`PlanCache` serializes on one reentrant lock, and pins
are tracked per *thread* so one query releasing its pins cannot unpin
an entry a concurrent query still replays.

It also carries the **in-flight registry** behind concurrent shared
execution (DESIGN.md §14): when fingerprint-equal subplans are being
populated simultaneously by different queries, :meth:`InflightRegistry.claim`
elects one leader and binds the rest as followers to its single
execution — the "Pay One, Get Hundreds for Free" generalization of the
paper's replay reuse.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.algebra.types import DataType, encoded_bytes

MIB = 1024 * 1024

#: Accounting bytes charged per NULL in a string vector (matches the
#: dictionary-encoding floor, not the 12-byte average).
_NULL_STRING_BYTES = 4.0


@dataclass
class CacheStats:
    """Cumulative counters over the cache's lifetime."""

    hits: int = 0
    misses: int = 0
    replays: int = 0
    populations: int = 0
    evictions: int = 0
    invalidations: int = 0
    rejected: int = 0
    #: Populations refused because the entry was built against a table
    #: version that a concurrent ``invalidate_table`` already retired —
    #: the put/invalidate race that must never resurrect stale data.
    stale_rejected: int = 0


class InflightExecution:
    """One in-flight subplan population that followers can bind to.

    The leader executes the subplan; followers block on :attr:`ready`
    and replay :attr:`entry` when it is published.  ``entry`` stays
    ``None`` if the leader failed (followers then fall back to
    executing the subplan themselves — shared execution is an
    optimization, never a new failure mode).
    """

    __slots__ = ("fingerprint", "ready", "entry", "failed", "followers")

    def __init__(self, fingerprint: str):
        self.fingerprint = fingerprint
        self.ready = threading.Event()
        self.entry: CacheEntry | None = None
        self.failed = False
        self.followers = 0


class InflightRegistry:
    """Per-fingerprint registry of populations currently executing.

    ``claim`` elects the single leader for a fingerprint; every
    concurrent claimant until the leader publishes (or fails) becomes a
    follower of the same :class:`InflightExecution`.  Publication hands
    the materialized entry to followers *directly* — even when the
    byte-budgeted cache refused to admit it — so fan-out never depends
    on cache capacity.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight: dict[str, InflightExecution] = {}
        #: Cumulative counters: elected leaders / bound followers.
        self.leaders = 0
        self.followers = 0

    def claim(self, fingerprint: str) -> tuple[bool, InflightExecution]:
        """Returns ``(is_leader, execution)``; a follower result means
        another thread is populating this fingerprint right now."""
        with self._lock:
            execution = self._inflight.get(fingerprint)
            if execution is not None:
                execution.followers += 1
                self.followers += 1
                return False, execution
            execution = InflightExecution(fingerprint)
            self._inflight[fingerprint] = execution
            self.leaders += 1
            return True, execution

    def publish(self, execution: InflightExecution, entry: CacheEntry) -> int:
        """Leader completion: fan ``entry`` out to followers.  Returns
        how many followers were bound when the result landed."""
        execution.entry = entry
        with self._lock:
            self._inflight.pop(execution.fingerprint, None)
            fanout = execution.followers
        execution.ready.set()
        return fanout

    def fail(self, execution: InflightExecution) -> None:
        """Leader failure: release followers to execute on their own."""
        execution.failed = True
        with self._lock:
            self._inflight.pop(execution.fingerprint, None)
        execution.ready.set()


@dataclass
class CacheEntry:
    """One materialized subplan result.

    ``columns`` maps column token -> full value vector (all vectors
    share ``row_count``).  ``saved_bytes`` is what the producing
    subplan charged to scan accounting while populating — the bytes a
    replay avoids re-scanning, reported as ``cache_bytes_saved``.
    """

    fingerprint: str
    columns: dict[str, list] = field(repr=False)
    row_count: int
    nbytes: float
    tables: frozenset[str]
    table_versions: tuple[tuple[str, int], ...]
    saved_bytes: float
    #: Content digest of ``columns`` at population time, re-verified on
    #: replay — a corrupt replayed vector would otherwise silently
    #: poison every query that hits this entry.  None disables.
    checksum: int | None = None


def entry_checksum(columns: dict[str, list]) -> int:
    """Content digest of a cache entry's column vectors (token-keyed,
    order-independent)."""
    return hash(tuple(sorted((token, tuple(vector)) for token, vector in columns.items())))


def vector_bytes(vectors: list[list], dtypes: list[DataType]) -> float:
    """Encoded size of a set of column vectors, using the storage
    layer's per-type widths (strings by actual length)."""
    total = 0.0
    for vector, dtype in zip(vectors, dtypes):
        if dtype is DataType.STRING:
            for value in vector:
                total += _NULL_STRING_BYTES if value is None else float(len(str(value)))
        else:
            total += encoded_bytes(dtype) * len(vector)
    return total


def entry_from_rows(populate, rows: list[tuple], saved_bytes: float) -> CacheEntry:
    """Build a cache entry from a CachePopulate node's materialized
    rows (shared by the row and batch executors so both produce
    identical entries)."""
    width = len(populate.column_tokens)
    if width and rows:
        vectors = [list(v) for v in zip(*rows)]
    else:
        vectors = [[] for _ in range(width)]
    dtypes = [c.dtype for c in populate.child.output_columns]
    columns = dict(zip(populate.column_tokens, vectors))
    return CacheEntry(
        fingerprint=populate.fingerprint,
        columns=columns,
        row_count=len(rows),
        nbytes=vector_bytes(vectors, dtypes),
        tables=frozenset(populate.tables),
        table_versions=populate.table_versions,
        saved_bytes=saved_bytes,
        checksum=entry_checksum(columns),
    )


class PlanCache:
    """Byte-budgeted LRU of :class:`CacheEntry`, keyed by fingerprint."""

    def __init__(self, budget_bytes: float = 64 * MIB):
        if budget_bytes <= 0:
            raise ValueError("cache budget must be positive")
        self.budget_bytes = float(budget_bytes)
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: fingerprint -> outstanding pin count (across all threads).
        self._pinned: dict[str, int] = {}
        #: Per-thread record of the pins it took, so ``release_pins``
        #: from one query thread never unpins a concurrent query's
        #: entries (a thread may pin the same fingerprint twice when a
        #: subplan occurs twice — hence a list, not a set).
        self._local = threading.local()
        #: Minimum admissible version per table: raised by
        #: ``invalidate_table(..., min_version=...)`` so an in-flight
        #: population racing the invalidation cannot resurrect a stale
        #: entry (see tests/test_sharded_cache.py).
        self._min_versions: dict[str, int] = {}
        self._lock = threading.RLock()
        self.bytes_used = 0.0
        self.stats = CacheStats()
        #: Concurrent shared execution registry (DESIGN.md §14).
        self.inflight = InflightRegistry()

    def _my_pins(self) -> list[str]:
        pins = getattr(self._local, "pins", None)
        if pins is None:
            pins = self._local.pins = []
        return pins

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def has(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def entries(self) -> list[CacheEntry]:
        """Entries in LRU order (oldest first); for tests/inspection."""
        with self._lock:
            return list(self._entries.values())

    def lookup(self, fingerprint: str, catalog=None, pin: bool = False):
        """Planning-time lookup: validates table versions against
        ``catalog`` (dropping stale entries), refreshes LRU position,
        and optionally pins the entry until :meth:`release_pins`.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.stats.misses += 1
                return None
            if catalog is not None:
                for table, version in entry.table_versions:
                    if catalog.table_version(table) != version:
                        self._drop(fingerprint)
                        self.stats.invalidations += 1
                        self.stats.misses += 1
                        return None
            self._entries.move_to_end(fingerprint)
            self.stats.hits += 1
            if pin:
                self._pinned[fingerprint] = self._pinned.get(fingerprint, 0) + 1
                self._my_pins().append(fingerprint)
            return entry

    def replay(self, fingerprint: str):
        """Execution-time fetch (no version check — versions were
        validated, and the entry pinned, when the plan was built)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.replays += 1
            return entry

    def put(self, entry: CacheEntry) -> bool:
        """Admit ``entry``, evicting unpinned LRU entries to fit the
        byte budget.  Returns False (without evicting anything) when
        the entry already exists, was built against an invalidated
        table version, exceeds the whole budget, or could only fit by
        evicting pinned entries."""
        with self._lock:
            if entry.fingerprint in self._entries:
                return False
            for table, version in entry.table_versions:
                if version < self._min_versions.get(table, 0):
                    self.stats.stale_rejected += 1
                    self.stats.rejected += 1
                    return False
            if entry.nbytes > self.budget_bytes:
                self.stats.rejected += 1
                return False
            needed = self.bytes_used + entry.nbytes - self.budget_bytes
            if needed > 0:
                victims = []
                reclaimed = 0.0
                for fingerprint, candidate in self._entries.items():
                    if self._pinned.get(fingerprint, 0) > 0:
                        continue
                    victims.append(fingerprint)
                    reclaimed += candidate.nbytes
                    if reclaimed >= needed:
                        break
                if reclaimed < needed:
                    self.stats.rejected += 1
                    return False
                for fingerprint in victims:
                    self._drop(fingerprint)
                    self.stats.evictions += 1
            self._entries[entry.fingerprint] = entry
            self.bytes_used += entry.nbytes
            self.stats.populations += 1
            return True

    def evict(self, fingerprint: str) -> bool:
        """Drop one entry (e.g. after a failed replay checksum);
        counts as an invalidation.  Returns False if absent."""
        with self._lock:
            if fingerprint not in self._entries:
                return False
            self._drop(fingerprint)
            self.stats.invalidations += 1
            return True

    def is_stale(self, entry: CacheEntry) -> bool:
        """Was ``entry`` built against a table version that a
        concurrent ``invalidate_table`` has since fenced off?  The
        shared-execution leader checks this before fanning its result
        out to followers: fingerprints are version-free, so an entry
        :meth:`put` refused as stale must not be published either.
        Min-versions only ever rise, so a True answer is final."""
        with self._lock:
            return any(
                version < self._min_versions.get(table, 0)
                for table, version in entry.table_versions
            )

    def invalidate_table(self, table: str, min_version: int | None = None) -> int:
        """Eagerly evict every entry whose lineage includes ``table``;
        returns how many were dropped.

        ``min_version`` (the table's new catalog version) additionally
        fences future admissions: any in-flight population that was
        planned against an older version is refused by :meth:`put`, so
        a concurrent put/invalidate interleaving can never resurrect a
        stale entry after the invalidation completed.
        """
        key = table.lower()
        with self._lock:
            if min_version is not None and min_version > self._min_versions.get(key, 0):
                self._min_versions[key] = min_version
            victims = [
                fingerprint
                for fingerprint, entry in self._entries.items()
                if key in entry.tables
            ]
            for fingerprint in victims:
                self._drop(fingerprint)
                self.stats.invalidations += 1
            return len(victims)

    def release_pins(self) -> None:
        """Release the pins taken *by the calling thread* (each query
        runs planning + execution on one thread, so this is exactly
        the finished query's pins)."""
        with self._lock:
            for fingerprint in self._my_pins():
                count = self._pinned.get(fingerprint, 0) - 1
                if count <= 0:
                    self._pinned.pop(fingerprint, None)
                else:
                    self._pinned[fingerprint] = count
            self._my_pins().clear()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._pinned.clear()
            self._min_versions.clear()
            self.bytes_used = 0.0

    def _drop(self, fingerprint: str) -> None:
        entry = self._entries.pop(fingerprint)
        self.bytes_used -= entry.nbytes
        self._pinned.pop(fingerprint, None)

    def summary(self) -> str:
        return (
            f"entries={len(self._entries)} "
            f"bytes={self.bytes_used/1024:.1f}KiB "
            f"hits={self.stats.hits} misses={self.stats.misses} "
            f"replays={self.stats.replays} evictions={self.stats.evictions} "
            f"invalidations={self.stats.invalidations}"
        )
