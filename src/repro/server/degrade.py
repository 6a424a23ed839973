"""Graceful degradation: the execution ladder and circuit breakers.

A query that fails on the fast path should, wherever the failure is an
infrastructure problem rather than the user's, be retried on a simpler
configuration instead of surfacing an error (DESIGN.md §14).  The
ladder is a small lattice over three axes, each strictly decreasing:

* **engine**: ``batch`` → ``row`` — block-engine failures (either
  column representation) fall back to the simplest interpreter;
* **parallel** → **serial** — fragment/worker-pool failures
  (:class:`~repro.errors.WorkerPoolError`,
  :class:`FragmentError <repro.engine.parallel.FragmentError>`) rerun
  the query on the coordinator alone;
* **cache** → **no cache** —
  :class:`~repro.errors.DataCorruptionError` bypasses the plan cache
  (a poisoned cached result must not be replayed again).

User-fatal errors (syntax, binding, timeout, cancellation, resource
budgets, admission) never demote: retrying cannot fix the query, so
the error surfaces unchanged.  Every demotion is recorded in
``QueryMetrics.degradations`` and the rungs actually tried in
``QueryMetrics.ladder_path``.

Each rung has its own :class:`CircuitBreaker` with a rolling
failure-rate window: a rung that keeps failing is skipped outright
(fail fast, spend the work on a rung that works) until its cooldown
expires and a half-open probe succeeds.  When every reachable rung is
open the query fails with :class:`~repro.errors.CircuitOpenError`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace

from repro.engine.parallel import FragmentError, WorkerPoisonedError
from repro.errors import (
    AdmissionRejectedError,
    BindingError,
    CatalogError,
    CircuitOpenError,
    DataCorruptionError,
    QueryCancelledError,
    QueryQueueTimeoutError,
    QueryTimeoutError,
    ResourceExhaustedError,
    SqlSyntaxError,
    WorkerPoolError,
)
from repro.optimizer.config import OptimizerConfig

#: Engine demotion order (absent key = already at the bottom).
_ENGINE_LADDER = {"batch": "row"}

#: Errors that no amount of degradation can fix — the query itself (or
#: its budget) is the problem, so they surface unchanged.
_USER_FATAL = (
    SqlSyntaxError,
    BindingError,
    CatalogError,
    QueryTimeoutError,
    QueryCancelledError,
    QueryQueueTimeoutError,
    ResourceExhaustedError,
    AdmissionRejectedError,
    CircuitOpenError,
)


@dataclass(frozen=True)
class Rung:
    """One point on the degradation lattice."""

    engine: str
    parallel: bool
    cache: bool

    @property
    def name(self) -> str:
        return "{}|{}|{}".format(
            self.engine,
            "parallel" if self.parallel else "serial",
            "cache" if self.cache else "nocache",
        )

    def config(self, base: OptimizerConfig) -> OptimizerConfig:
        """Specialize ``base`` for this rung."""
        return replace(
            base,
            engine=self.engine,
            workers=base.workers if self.parallel else 1,
            enable_plan_cache=base.enable_plan_cache and self.cache,
        )


def classify(exc: BaseException) -> str | None:
    """Which ladder axis (if any) this failure demotes.

    Returns ``"serial"``, ``"nocache"``, ``"engine"`` or ``None`` for
    user-fatal errors that must surface unchanged.
    """
    if isinstance(exc, _USER_FATAL):
        return None
    if isinstance(exc, (FragmentError, WorkerPoolError, WorkerPoisonedError)):
        return "serial"
    if isinstance(exc, DataCorruptionError):
        return "nocache"
    # Optimizer bugs, execution errors, storage retries exhausted, and
    # anything unforeseen: simplify the engine.
    return "engine"


def demote(rung: Rung, exc: BaseException) -> Rung | None:
    """The next rung down for this failure, or None to surface it."""
    action = classify(exc)
    if action is None:
        return None
    if action == "serial":
        return replace(rung, parallel=False) if rung.parallel else None
    if action == "nocache":
        return replace(rung, cache=False) if rung.cache else None
    nxt = _ENGINE_LADDER.get(rung.engine)
    if nxt is not None:
        return replace(rung, engine=nxt)
    # Row engine still failing: shed parallelism, then the cache, then
    # give up — each step strictly decreases, so this terminates.
    if rung.parallel:
        return replace(rung, parallel=False)
    if rung.cache:
        return replace(rung, cache=False)
    return None


def step_down(rung: Rung) -> Rung | None:
    """Generic next-rung-down (used to route around an open breaker)."""
    if rung.engine in _ENGINE_LADDER:
        return replace(rung, engine=_ENGINE_LADDER[rung.engine])
    if rung.parallel:
        return replace(rung, parallel=False)
    if rung.cache:
        return replace(rung, cache=False)
    return None


class CircuitBreaker:
    """Rolling-window circuit breaker with half-open probing.

    *Closed* while the failure rate over the last ``window_s`` seconds
    stays under ``failure_threshold`` (rates are only trusted once
    ``min_samples`` outcomes are in the window).  *Open* rejects every
    request for ``cooldown_s``, then *half-opens*: exactly one probe is
    let through; success closes the breaker (window cleared), failure
    re-opens it for another cooldown.  The clock is injectable so tests
    need no sleeping.
    """

    def __init__(
        self,
        window_s: float = 30.0,
        failure_threshold: float = 0.5,
        min_samples: int = 5,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ):
        self.window_s = window_s
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._events: deque[tuple[float, bool]] = deque()
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_out = False
        self._probe_at = 0.0
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _prune(self, now: float) -> None:
        while self._events and now - self._events[0][0] > self.window_s:
            self._events.popleft()

    def allow(self) -> bool:
        """May a request run on this rung right now?"""
        with self._lock:
            now = self._clock()
            if self._state == "open":
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._state = "half_open"
                self._probe_out = False
            if self._state == "half_open":
                if self._probe_out and now - self._probe_at < self.cooldown_s:
                    return False
                # No probe out, or the outstanding probe never reported
                # back within a cooldown (its caller died, or hit a
                # user-fatal error that says nothing about the rung's
                # health): issue a fresh probe rather than leaving the
                # rung wedged shut forever.
                self._probe_out = True
                self._probe_at = now
                return True
            return True

    def probe_abort(self) -> None:
        """The in-flight half-open probe ended without a verdict on the
        rung's health (a user-fatal error is the query's fault, not the
        rung's): free the probe slot so the next request can probe
        immediately instead of waiting out the reissue cooldown."""
        with self._lock:
            if self._state == "half_open":
                self._probe_out = False

    def record(self, ok: bool) -> None:
        with self._lock:
            now = self._clock()
            if self._state == "half_open":
                self._probe_out = False
                if ok:
                    self._state = "closed"
                    self._events.clear()
                else:
                    self._state = "open"
                    self._opened_at = now
                    self.trips += 1
                return
            self._events.append((now, ok))
            self._prune(now)
            if self._state == "closed" and len(self._events) >= self.min_samples:
                failures = sum(1 for _, event_ok in self._events if not event_ok)
                if failures / len(self._events) >= self.failure_threshold:
                    self._state = "open"
                    self._opened_at = now
                    self.trips += 1


class DegradationSupervisor:
    """Walks a query down the ladder until a rung succeeds.

    ``run`` is supplied by the service: ``run(rung, sql) -> QueryResult``
    executes on that rung's session.  The supervisor owns one breaker
    per rung (created on first use from ``breaker_factory``) and
    annotates the result's metrics with the path taken.
    """

    def __init__(self, start: Rung, breaker_factory=CircuitBreaker):
        self.start = start
        self._breaker_factory = breaker_factory
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = self._breaker_factory()
            return breaker

    def breaker_states(self) -> dict[str, str]:
        with self._lock:
            breakers = dict(self._breakers)
        return {name: breaker.state for name, breaker in breakers.items()}

    def execute(self, run, sql: str):
        rung: Rung | None = self.start
        path: list[str] = []
        degradations: list[str] = []
        while True:
            assert rung is not None
            breaker = self.breaker(rung.name)
            if not breaker.allow():
                skipped = rung
                rung = step_down(rung)
                if rung is None:
                    raise CircuitOpenError(
                        f"no rung left to try: circuit open at "
                        f"{skipped.name} and every fallback"
                    )
                degradations.append(f"{skipped.name}->{rung.name}:CircuitOpen")
                continue
            path.append(rung.name)
            try:
                result = run(rung, sql)
            except Exception as exc:
                # User-fatal errors (bad SQL, blown budgets) say nothing
                # about the rung's health — recording them would let one
                # tenant's typos open the breaker for everyone.  But if
                # this request held the half-open probe slot, the slot
                # must be returned or the rung wedges shut.
                if classify(exc) is not None:
                    breaker.record(False)
                else:
                    breaker.probe_abort()
                nxt = demote(rung, exc)
                if nxt is None:
                    raise
                degradations.append(
                    f"{rung.name}->{nxt.name}:{type(exc).__name__}"
                )
                rung = nxt
                continue
            breaker.record(True)
            result.metrics.ladder_path = list(path)
            result.metrics.degradations.extend(degradations)
            return result
