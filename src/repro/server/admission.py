"""Admission control and per-tenant quotas for the query service.

The service boundary of DESIGN.md §14: every query passes through the
:class:`AdmissionController` *before* any parsing or planning happens,
so an overloaded service sheds work at the cheapest possible point.
Two gates, plus a third for tenants whose quota sets a rate, checked
in order:

1. **Global queue depth** — the admission queue is bounded; a full
   queue rejects immediately (load shedding) with a ``retry_after_ms``
   that grows with queue pressure, the 503-with-Retry-After of a real
   query service.
2. **Per-tenant in-flight budget** — queued + running queries per
   tenant are capped, bounding the damage a single tenant's slow
   queries can do to shared memory and worker capacity.
3. **Per-tenant rate**, when the quota sets one — a token bucket per
   tenant (rate + burst), so one chatty dashboard cannot starve the
   others no matter how fast it resubmits.  The default quota sets no
   rate, so a tenant without an explicit quota is never rate-limited.

All decisions are made under one lock with an injectable clock, so
tests drive the bucket and the queue deterministically.
:class:`~repro.server.service.QueryService` admits every tenant under
the default :class:`TenantQuota`, so it runs the first two gates only.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import AdmissionRejectedError


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant limits; the controller's defaults are deliberately
    generous so single-tenant embedders never notice admission."""

    #: Queued + running queries allowed at once for this tenant.
    max_in_flight: int = 16
    #: Token-bucket refill rate (sustained queries per second); None
    #: means no bucket, so the tenant is never rate-limited.
    rate_per_s: float | None = None
    #: Token-bucket capacity (burst size), when a rate is set.
    burst: int = 64


class TokenBucket:
    """A standard token bucket with an injectable clock."""

    def __init__(self, rate_per_s: float, burst: int, clock=time.monotonic):
        self.rate = max(rate_per_s, 1e-9)
        self.burst = float(max(burst, 1))
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()

    def try_acquire(self) -> float:
        """Take one token; returns 0.0 on success, otherwise the
        milliseconds until a token will be available."""
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate * 1000.0


@dataclass
class AdmissionStats:
    admitted: int = 0
    rejected_queue_full: int = 0
    rejected_rate_limited: int = 0
    rejected_quota: int = 0

    @property
    def rejected(self) -> int:
        return (
            self.rejected_queue_full
            + self.rejected_rate_limited
            + self.rejected_quota
        )


#: Base ``retry_after_ms`` advertised to a shed client; a full queue
#: scales it up by how far over its bound the queue is.
SHED_RETRY_MS = 100.0


class AdmissionController:
    """Gatekeeper in front of the service's dispatch queue.

    ``admit`` either reserves a slot (call ``release`` exactly once
    when the query finishes, however it finishes) or raises
    :class:`~repro.errors.AdmissionRejectedError`; ``on_dequeue`` tells
    the controller a query left the queue for execution, which only
    affects the queue-depth gate.
    """

    def __init__(
        self,
        max_queue_depth: int = 64,
        default_quota: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        clock=time.monotonic,
    ):
        self.max_queue_depth = max_queue_depth
        self.default_quota = default_quota or TenantQuota()
        self._quotas = dict(quotas or {})
        self._clock = clock
        self._lock = threading.Lock()
        self._queued = 0
        self._in_flight: dict[str, int] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self.stats = AdmissionStats()

    def quota(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self.default_quota)

    def admit(self, tenant: str) -> None:
        """Reserve queue + tenant capacity for one query (or shed it)."""
        quota = self.quota(tenant)
        with self._lock:
            if self._queued >= self.max_queue_depth:
                self.stats.rejected_queue_full += 1
                retry = SHED_RETRY_MS * (
                    1.0 + self._queued / max(1, self.max_queue_depth)
                )
                raise AdmissionRejectedError(
                    f"admission queue is full ({self._queued} queued)",
                    retry_after_ms=retry,
                )
            if self._in_flight.get(tenant, 0) >= quota.max_in_flight:
                self.stats.rejected_quota += 1
                raise AdmissionRejectedError(
                    f"tenant {tenant!r} is at its in-flight limit "
                    f"({quota.max_in_flight})",
                    retry_after_ms=SHED_RETRY_MS,
                )
            bucket = self._buckets.get(tenant)
            if bucket is None and quota.rate_per_s is not None:
                bucket = self._buckets[tenant] = TokenBucket(
                    quota.rate_per_s, quota.burst, clock=self._clock
                )
            wait_ms = 0.0 if bucket is None else bucket.try_acquire()
            if wait_ms > 0.0:
                self.stats.rejected_rate_limited += 1
                raise AdmissionRejectedError(
                    f"tenant {tenant!r} is over its rate limit "
                    f"({quota.rate_per_s:g}/s)",
                    retry_after_ms=wait_ms,
                )
            self._queued += 1
            self._in_flight[tenant] = self._in_flight.get(tenant, 0) + 1
            self.stats.admitted += 1

    def on_dequeue(self) -> None:
        """A query left the admission queue for execution."""
        with self._lock:
            self._queued = max(0, self._queued - 1)

    def release(self, tenant: str) -> None:
        """The query finished (any outcome); free its tenant slot."""
        with self._lock:
            count = self._in_flight.get(tenant, 0) - 1
            if count > 0:
                self._in_flight[tenant] = count
            else:
                self._in_flight.pop(tenant, None)

    @property
    def queued(self) -> int:
        with self._lock:
            return self._queued

    def in_flight(self, tenant: str) -> int:
        with self._lock:
            return self._in_flight.get(tenant, 0)
