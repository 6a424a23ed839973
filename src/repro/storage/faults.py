"""Deterministic fault injection + retry policy for the object store.

The paper's substrate is S3, where transient read failures, stragglers
and (rarely) corrupt objects are routine; Athena's engine retries and
degrades gracefully instead of failing whole query batches.  This
module gives the in-memory :class:`~repro.storage.columnar.Store` two
of those failures, transient reads and corruption, *deterministically*:

* :class:`FaultInjector` decides per read **site** — a
  ``(table, partition_index, column)`` triple — whether reads of that
  chunk fail transiently or are bit-flip corrupted.  Every
  decision is a pure function of ``(seed, site)``, so the same seed
  always produces the same chaos and a test failure replays exactly.
* :class:`RetryPolicy` bounds attempts with exponential backoff and
  *deterministic* jitter (again a pure function of seed + site +
  attempt), with an injectable ``sleep`` so tests run at full speed.

A faulty site fails its first ``n`` read attempts (``n`` derived from
the site hash, bounded by ``MAX_FAILURES``) and then succeeds — so any
retry budget ``>= MAX_FAILURES`` makes every query identical to a
fault-free run, while a zero budget surfaces a structured
:class:`~repro.errors.TransientReadError` on first contact.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import TransientReadError
from repro.storage.columnar import NumpyVector

#: A read site: (table, partition index, column), all lowercase.
Site = tuple[str, int, str]

#: The most consecutive attempts a faulty site fails.
MAX_FAILURES = 2


def _unit(seed: int, *key: object) -> float:
    """Deterministic uniform value in [0, 1) from ``(seed, *key)``."""
    digest = hashlib.sha256(repr((seed,) + key).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _draw(seed: int, *key: object) -> int:
    """Deterministic 64-bit integer from ``(seed, *key)``."""
    digest = hashlib.sha256(repr((seed,) + key).encode()).digest()
    return int.from_bytes(digest[8:16], "big")


def bit_flip(value: object) -> object:
    """The corrupted form of one stored value (a single flipped bit
    where the type allows, a sentinel change otherwise)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 1
    if isinstance(value, float):
        bits = struct.unpack("<Q", struct.pack("<d", value))[0]
        return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]
    if isinstance(value, str):
        if not value:
            return "\x01"
        return chr(ord(value[0]) ^ 1) + value[1:]
    if value is None:
        return 0
    return value


@dataclass
class FaultStats:
    """Cumulative counters over the injector's lifetime."""

    transient_faults: int = 0
    corruptions: int = 0


class FaultInjector:
    """Seeded chaos source wrapping ``Store`` chunk reads.

    ``fault_rate`` is the fraction of read sites that fail transiently
    (each such site fails its first 1..``MAX_FAILURES`` attempts, then
    succeeds).  Corruption is targeted explicitly via
    :meth:`corrupt_chunk` — it is a one-shot bit flip of one stored lane
    (in place in a list chunk, a flipped copy swapped in for a vector
    chunk), detected by the chunk checksum on the next read.
    """

    def __init__(self, fault_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        self.fault_rate = fault_rate
        self.seed = seed
        self.stats = FaultStats()
        #: Counter updates must not lose increments when concurrent
        #: server queries share one injector on one store.
        self._stats_lock = threading.Lock()
        self._corrupt_targets: set[Site] = set()

    def failures_at(self, site: Site) -> int:
        """How many consecutive attempts fail at ``site`` (0 = healthy)."""
        if self.fault_rate <= 0.0:
            return 0
        if _unit(self.seed, "fault", site) >= self.fault_rate:
            return 0
        return 1 + _draw(self.seed, "failures", site) % MAX_FAILURES

    # -- corruption -------------------------------------------------------

    def corrupt_chunk(self, table: str, partition: int, column: str) -> None:
        """Schedule a one-shot bit flip of ``table``'s ``column`` chunk
        in partition ``partition``, applied on its next read."""
        self._corrupt_targets.add((table.lower(), partition, column.lower()))

    # -- hooks called by the Store ---------------------------------------

    def on_chunk_read(self, site: Site, chunk, attempt: int, metrics=None) -> None:
        """Called before each chunk read attempt; may corrupt one lane
        of the stored chunk, or raise :class:`TransientReadError`."""
        values = chunk.values
        if site in self._corrupt_targets and values:
            self._corrupt_targets.discard(site)
            index = _draw(self.seed, "victim", site) % len(values)
            if type(values) is list:
                values[index] = bit_flip(values[index])
            else:
                # A stored vector is read-only: swap in a flipped copy.
                data = values.data.copy()
                data[index] = bit_flip(data[index].item())
                data.flags.writeable = False
                chunk.values = NumpyVector(data, values.valid)
            with self._stats_lock:
                self.stats.corruptions += 1
            if metrics is not None:
                metrics.faults_injected += 1
        failures = self.failures_at(site)
        if attempt < failures:
            with self._stats_lock:
                self.stats.transient_faults += 1
            if metrics is not None:
                metrics.faults_injected += 1
            table, partition, column = site
            raise TransientReadError(
                f"injected transient read failure on {table}.{column} "
                f"partition {partition} (attempt {attempt + 1} of "
                f"{failures} failing)"
            )


#: Backoff growth per retry and the cap on one retry's nominal delay.
BACKOFF_MULTIPLIER = 2.0
MAX_RETRY_DELAY_MS = 50.0


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_retries`` counts retries *after* the first attempt; 0 disables
    retrying.  Delay for retry ``attempt`` (0-based) is
    ``base_delay_ms * BACKOFF_MULTIPLIER**attempt`` capped at
    ``MAX_RETRY_DELAY_MS``, scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` that is a pure function of
    ``(seed, site, attempt)`` — reproducible, but de-synchronized
    across sites like randomized jitter would be.
    ``sleep`` is injectable so tests pay no wall-clock cost.
    """

    max_retries: int = 3
    base_delay_ms: float = 1.0
    jitter: float = 0.25
    seed: int = 0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_delay_ms < 0:
            raise ValueError("retry delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_ms(self, attempt: int, site: object = ()) -> float:
        delay = min(self.base_delay_ms * BACKOFF_MULTIPLIER**attempt, MAX_RETRY_DELAY_MS)
        if self.jitter:
            swing = 2.0 * _unit(self.seed, "retry", site, attempt) - 1.0
            delay *= 1.0 + self.jitter * swing
        return delay

    def backoff(self, attempt: int, site: object = ()) -> None:
        """Sleep the (deterministic) delay before retry ``attempt``."""
        delay = self.delay_ms(attempt, site)
        if delay > 0:
            self.sleep(delay / 1000.0)


#: Retrying disabled: first transient fault surfaces to the caller.
NO_RETRY = RetryPolicy(max_retries=0, base_delay_ms=0.0, jitter=0.0)
