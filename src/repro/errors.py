"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subclasses distinguish
the layer that failed (parsing, binding, planning, execution), mirroring
how a query service reports errors to users.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SqlSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed.

    Carries the (1-based) line and column of the offending token when
    available so error messages can point at the query text.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = f" at line {line}:{column}" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class BindingError(ReproError):
    """Name resolution or semantic analysis failed (unknown table/column,
    ambiguous reference, misplaced aggregate, unsupported construct)."""


class CatalogError(ReproError):
    """A catalog object (table, column) is missing or inconsistent."""


class PlanError(ReproError):
    """An algebraic plan is malformed (e.g. an operator references a
    column its child does not produce)."""


class ExecutionError(ReproError):
    """Runtime failure while evaluating a plan (e.g. EnforceSingleRow
    saw more than one row, or a scalar function received bad input)."""


class StorageError(ReproError):
    """Base class for failures in the storage layer (the S3 stand-in).

    Distinguishes *transient* faults, which a retry policy may absorb,
    from *corruption*, which no retry can fix.
    """


class TransientReadError(StorageError):
    """A chunk read failed transiently (the S3 analogue of a 500/503 or
    a dropped connection).  Retried by the engine's retry policy; it
    only reaches callers when retries are exhausted or disabled."""


class DataCorruptionError(StorageError):
    """A chunk (or cached result) no longer matches its build-time
    checksum.  Not retried: the data itself is bad.  Detection evicts
    any plan-cache entries derived from the affected table; reloading
    the table (``store.put`` + ``session.reload_table``) recovers."""


class QueryTimeoutError(ReproError):
    """The query exceeded its per-query deadline (``timeout_ms``).
    Raised cooperatively at block boundaries, so partial work is
    abandoned promptly without leaving operators in a broken state."""


class QueryCancelledError(ReproError):
    """The query was cancelled cooperatively (``Session.cancel``),
    observed at the next block boundary."""


class ResourceExhaustedError(ReproError):
    """A resource budget was exceeded: operator state grew past
    ``max_state_rows`` or a spool past ``max_spool_rows``.  The limits
    are per query; raise them or reduce the data processed."""


class AdmissionRejectedError(ReproError):
    """The query was shed at the service boundary before any work ran:
    the admission queue is full, the tenant is over its rate limit, or
    the tenant's in-flight budget is exhausted.  Carries
    ``retry_after_ms`` — the client should back off at least that long
    before resubmitting (the 503-with-Retry-After of a query service).
    """

    def __init__(self, message: str, retry_after_ms: float = 0.0):
        super().__init__(f"{message} (retry after {retry_after_ms:.0f}ms)")
        self.retry_after_ms = retry_after_ms


class QueryQueueTimeoutError(ReproError):
    """The query was admitted but waited in the service queue longer
    than its queue-wait deadline; it was dropped without executing.
    Distinct from :class:`QueryTimeoutError`, which means execution
    itself exceeded the per-query deadline."""


class CircuitOpenError(ReproError):
    """Every execution rung the degradation ladder could try for this
    query has an open circuit breaker (its recent failure rate tripped
    the rolling-window threshold).  The service refuses to burn work on
    a configuration that keeps failing; breakers half-open and probe
    recovery automatically after their cooldown."""


class WorkerPoolError(ReproError):
    """The fragment worker pool is unhealthy beyond repair for the
    current query (e.g. it could not be rebuilt after a wipeout).  The
    degradation ladder responds by retrying the query serially."""


class OptimizerError(ReproError):
    """An optimizer rule produced an invalid rewrite.

    Rules are supposed to be semantics preserving; this error indicates
    a bug in a rule rather than in the user's query.
    """
