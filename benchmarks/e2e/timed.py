"""Set-up and the untraced timed runs that the end-to-end metrics come from.

Timing protocol, the same on every commit: ``gc.freeze()`` after
set-up so the generated data is never re-traversed; on the serial
workloads a ``gc.collect()`` before (outside) every timed execution, so
garbage left by one query is not collected on the next query's clock;
results are checked against the reference outside the timed region; every execution
carries the calibration kernel's time beside it (see calibration.py).
"""

from __future__ import annotations

import gc
import itertools
import random
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.engine.session import Session
from repro.server.service import QueryService, ServiceConfig
from repro.tpcds.generator import generate_dataset

from benchmarks.e2e.calibration import PauseGate, normalise, sample
from benchmarks.e2e.oracle import reference_results, rows_match
from benchmarks.e2e.workloads import (
    FACT_TABLES,
    INVALIDATE_EVERY,
    SERVICE_CLIENTS,
    SERVICE_DISPATCHERS,
    Workload,
    pass_order,
    service_sequence,
)

#: A serial run makes at least this many passes whatever ``--seconds``.
MIN_PASSES = 3
#: Longest a client thread may outlive the measuring window.
_JOIN_TIMEOUT_S = 120.0
#: The service load is parked for calibration this often.
SLICE_S = 1.0
#: Operations between two invalidations of the same fact table.
CYCLE_OPS = INVALIDATE_EVERY * len(FACT_TABLES)


@dataclass
class Prepared:
    """Everything set-up built: data, reference results, warmed target."""

    workload: Workload
    store: object
    #: Query name -> canonical rows of the reference result.
    reference: dict[str, list[tuple]]
    #: ``Session`` (serial) or ``QueryService`` (service).
    target: object
    setup_s: float
    generate_s: float
    #: Calibration kernel time during set-up (mean over its phases).
    kernel_ms: float
    #: Queries whose warm-up result did not match the reference.
    warm_failed: int

    def close(self) -> None:
        self.target.close()


def make_target(workload: Workload, store):
    if workload.kind == "service":
        return QueryService(
            store, ServiceConfig(base=workload.config, dispatchers=SERVICE_DISPATCHERS)
        )
    return Session(store, workload.config)


def set_up(workload: Workload, seed: int) -> Prepared:
    """Generate data, compute reference results, build the session or
    service under test and run every distinct query through it once.
    The calibration kernel runs at each phase boundary (a few
    milliseconds inside ``setup_s``, the same on every commit)."""
    kernel = [sample()]
    start = time.perf_counter()
    store = generate_dataset(workload.scale, seed=seed)
    generate_s = time.perf_counter() - start
    kernel.append(sample())
    reference = reference_results(store, workload.queries)
    kernel.append(sample())
    target = make_target(workload, store)
    warm_failed = 0
    for name, sql in workload.queries.items():
        if not rows_match(target.execute(sql).rows, reference[name]):
            warm_failed += 1
    setup_s = time.perf_counter() - start
    kernel.append(sample())
    return Prepared(
        workload, store, reference, target, setup_s, generate_s,
        sum(kernel) / len(kernel), warm_failed,
    )


@dataclass
class Op:
    """One completed execution, as its caller saw it."""

    name: str
    #: Position in the run's global issue order.
    number: int
    #: ``perf_counter`` reading when the call began.
    start: float
    #: Caller-observed latency on the clock as read, milliseconds.
    ms: float
    bytes_scanned: float
    #: Service only: time spent in the admission queue.
    queue_wait_ms: float | None
    #: Calibration kernel time beside this execution.
    kernel_ms: float = 0.0


@dataclass
class Samples:
    """Raw observations of one timed run."""

    ops: list[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    #: Time the load ran for: wall time less calibration pauses
    #: (service) or the sum of the timed regions (serial), seconds.
    busy_s: float = 0.0

    def record_error(self, kind: str) -> None:
        self.failed += 1
        self.errors[kind] = self.errors.get(kind, 0) + 1

    def merge(self, other: "Samples") -> None:
        self.ops.extend(other.ops)
        self.attempted += other.attempted
        self.failed += other.failed
        for kind, count in other.errors.items():
            self.errors[kind] = self.errors.get(kind, 0) + count

    def by_query(self, normalised: bool) -> dict[str, list[float]]:
        """Query name -> latencies, as read or scaled to the reference
        host speed."""
        out: dict[str, list[float]] = {}
        for op in self.ops:
            out.setdefault(op.name, []).append(
                normalise(op.ms, op.kernel_ms) if normalised else op.ms
            )
        return out

    def mean_kernel_ms(self) -> float:
        return statistics.fmean(op.kernel_ms for op in self.ops)

    def mean_bytes_scanned(self, cycle_ops: int | None = None) -> float:
        """Bytes scanned per execution.  The service's scans come in
        cycles of ``cycle_ops`` operations (one invalidation of every
        fact table); only whole cycles count, so where in a cycle the
        run stopped does not move the mean, and not the first, which
        starts from the warm-up's fully populated cache."""
        ops = self.ops
        if cycle_ops is not None:
            whole = max(op.number for op in ops) // cycle_ops * cycle_ops
            ops = [op for op in ops if cycle_ops <= op.number < whole] or ops
        return statistics.fmean(op.bytes_scanned for op in ops)


def timed_execute(
    target, name: str, number: int, sql: str, reference: dict[str, list[tuple]], out: Samples, **kw
) -> Op | None:
    """One caller-observed execution: clock around ``execute`` (parse to
    rows), result check after the clock stops."""
    out.attempted += 1
    start = time.perf_counter()
    try:
        result = target.execute(sql, **kw)
    except Exception as exc:  # noqa: BLE001 - the load must keep running; counted as failed
        out.record_error(type(exc).__name__)
        return None
    ms = (time.perf_counter() - start) * 1000.0
    if not rows_match(result.rows, reference[name]):
        out.record_error("ResultMismatch")
    metrics = result.metrics
    op = Op(name, number, start, ms, metrics.bytes_scanned, metrics.queue_wait_ms)
    out.ops.append(op)
    return op


def run_serial(prepared: Prepared, seed: int, seconds: float, min_passes: int = MIN_PASSES) -> Samples:
    """Passes over the distinct queries on one thread until ``seconds``
    have gone by (at least ``min_passes``).  The calibration kernel runs
    between executions; each execution is scaled by the mean of the
    kernel times either side of it."""
    workload = prepared.workload
    rng = random.Random(seed)
    names = list(workload.queries)
    numbers = itertools.count()
    out = Samples()
    deadline = time.perf_counter() + seconds
    passes = 0
    kernel_before = sample()
    while passes < min_passes or time.perf_counter() < deadline:
        for name in pass_order(names, rng):
            gc.collect()
            op = timed_execute(
                prepared.target, name, next(numbers), workload.queries[name],
                prepared.reference, out,
            )
            kernel_after = sample()
            if op is not None:
                op.kernel_ms = (kernel_before + kernel_after) / 2
            kernel_before = kernel_after
        passes += 1
    out.busy_s = sum(op.ms for op in out.ops) / 1000.0
    return out


def _quiet_kernel_ms() -> float:
    """Kernel time on a just-woken thread: the first runs after a sleep
    are ~25 % slow (cold core), so two go untimed."""
    sample()
    sample()
    return statistics.median(sample() for _ in range(5))


def run_service(prepared: Prepared, seed: int, seconds: float, max_ops: int | None = None) -> Samples:
    """Closed-loop clients, each walking its seeded sequence until the
    deadline (or ``max_ops`` operations each).

    Before every ``INVALIDATE_EVERY``-th operation of the run, the
    client about to issue it invalidates the next fact table
    round-robin, so cache population runs beside replay.  Every
    ``SLICE_S`` the clients are parked between operations while the
    calibration kernel runs; an execution is scaled by the mean of the
    kernel times at the two ends of its slice, and the pauses are left
    out of ``busy_s``.
    """
    workload = prepared.workload
    service = prepared.target
    names = list(workload.queries)
    per_client = [Samples() for _ in range(SERVICE_CLIENTS)]
    gate = PauseGate(SERVICE_CLIENTS)
    ended = [0.0] * SERVICE_CLIENTS
    numbers = itertools.count(1)
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        out = per_client[index]
        sequence = service_sequence(seed, index, names)
        try:
            for issued in itertools.count():
                if time.perf_counter() >= deadline or issued == max_ops:
                    return
                gate.checkpoint()
                number = next(numbers)
                if number % INVALIDATE_EVERY == 0:
                    table = FACT_TABLES[number // INVALIDATE_EVERY % len(FACT_TABLES)]
                    service.plan_cache.invalidate_table(table)
                name = next(sequence)
                timed_execute(
                    service, name, number, workload.queries[name], prepared.reference, out,
                    tenant=f"client{index}",
                )
        finally:
            ended[index] = time.perf_counter()
            gate.leave()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"e2e-client-{i}")
        for i in range(SERVICE_CLIENTS)
    ]
    #: (when, kernel ms) at every slice boundary.
    boundaries = [(time.perf_counter(), _quiet_kernel_ms())]
    busy_s = 0.0
    slice_start = time.perf_counter()
    for thread in threads:
        thread.start()
    while True:
        time.sleep(min(SLICE_S, max(0.0, deadline - time.perf_counter())))
        if not gate.pause(_JOIN_TIMEOUT_S):
            raise RuntimeError(f"clients did not park within {_JOIN_TIMEOUT_S}s")
        finished = gate.active == 0
        parked = max(ended) if finished else time.perf_counter()
        busy_s += parked - slice_start
        boundaries.append((parked, _quiet_kernel_ms()))
        if finished:
            break
        slice_start = time.perf_counter()
        gate.resume()
    for thread in threads:
        thread.join(_JOIN_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish within {_JOIN_TIMEOUT_S}s")
    kernel = [(before[1] + after[1]) / 2 for before, after in zip(boundaries, boundaries[1:])]
    out = Samples(busy_s=busy_s)
    for samples in per_client:
        out.merge(samples)
    out.ops.sort(key=lambda op: op.start)
    index = 0
    for op in out.ops:
        while index < len(kernel) - 1 and boundaries[index + 1][0] <= op.start:
            index += 1
        op.kernel_ms = kernel[index]
    return out


def run_timed(prepared: Prepared, seed: int, seconds: float, **kw) -> Samples:
    if prepared.workload.kind == "service":
        return run_service(prepared, seed, seconds, **kw)
    return run_serial(prepared, seed, seconds, **kw)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
