"""Partition-parallel fragment execution on a persistent worker pool.

The runtime half of DESIGN.md §13.  The ParallelPlan optimizer pass
(:mod:`repro.optimizer.parallel_plan`) wraps partition-parallel
pipelines — Filter/Project chains over one Scan — in
:class:`~repro.algebra.operators.Exchange`; this module reads and
filters those pipelines on a pool of ``multiprocessing`` workers and
deposits the gathered rows into ``RunContext.exchange_results``, after
which the coordinator runs the rest of the plan — every GroupBy, Join,
Window and Sort — with the session's configured engine (whose Exchange
operators replay the rows).

Design points, in the order they matter:

* **Morsels + work stealing.**  A fragment is the pipeline under an
  Exchange plus a *partition window* ``(table, lo, hi)``; windows tile
  the table's stored partitions.  All tasks go onto one shared queue
  that every worker pulls from — an idle worker steals the next morsel
  regardless of which Exchange it belongs to.

* **Exact results and metrics.**  Each Exchange's gather concatenates
  its morsel outputs in morsel order (= serial scan order), so every
  byte of the result matches serial execution.  Workers hold no
  operator state and return their accounting on success only, and
  morsel windows are disjoint, so summing them reproduces
  ``bytes_scanned`` / ``rows_scanned`` / ``partitions_read`` exactly;
  ``record_scan`` is charged once per Scan node by the coordinator
  (the workers' per-morsel counts are deliberately dropped).

* **Per-fragment fault domains.**  Transient chunk-read faults retry
  *inside* the worker through the same
  :class:`~repro.storage.faults.FaultInjector` / RetryPolicy machinery
  as serial execution (each task installs a fresh injector with the
  rate and seed of the coordinator store's, so the chaos schedule is
  identical to a serial run).  A
  fragment whose worker dies, is poisoned, or exhausts in-task retries
  is resubmitted to the pool with the failing worker banned, up to
  ``FRAGMENT_RETRIES`` times.
  Only infrastructure failures are retried — deterministic execution
  errors surface immediately with their original type.

* **Cancellation/deadline.**  The scheduler loop calls
  ``ctx.checkpoint()`` between queue polls, so ``Session.cancel()``
  and the query deadline abort a parallel query exactly like a serial
  one; on abort the pool's shared cancel event makes every in-flight
  worker raise at its next block boundary.  Tasks carry the remaining
  deadline so workers enforce it locally too.

Worker processes are forked (spawn where fork is unavailable), hold a
copy-on-write reference to the store, and live until the pool closes,
so the expression-closure memo (``vectors._BLOCK_MEMO``) stays warm
across fragments.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field

from repro.algebra.operators import Exchange, PlanNode, pipeline_scan
from repro.algebra.visitors import walk_plan
from repro.engine.metrics import ResourceLimits, RunContext
from repro.errors import ExecutionError, TransientReadError
from repro.storage.faults import FaultInjector, RetryPolicy

#: Target morsels per worker: windows are cut so each worker has about
#: this many to steal, balancing scheduling overhead against skew.
_MORSELS_PER_WORKER = 4

#: Scheduler poll interval (seconds) — bounds cancellation latency.
_POLL_S = 0.02

#: How often each worker's beat thread refreshes its heartbeat cell.
_BEAT_INTERVAL_S = 0.05

#: Per-fragment fault domain: how many times a failed fragment is
#: resubmitted (on a different worker when possible) before the query
#: fails.
FRAGMENT_RETRIES = 2


class WorkerPoisonedError(Exception):
    """Raised by a poisoned test worker for every task it receives."""


class FragmentError(ExecutionError):
    """A fragment failed on every allowed attempt."""


# -- task protocol -------------------------------------------------------


@dataclass
class _TaskSpec:
    """Everything a worker needs to run one fragment attempt."""

    epoch: int
    task_id: int
    plan_blob: bytes
    window: tuple[str, int, int] | None
    engine: str
    batch_rows: int
    vectors: str
    banned: frozenset[int] = frozenset()
    # Per-task store configuration: installed on the worker's
    # (process-local) store copy for the duration of the task, so a
    # pool forked early still honours the coordinator store's current
    # fault injector, latency and checksum switches.
    fault_rate: float = 0.0
    fault_seed: int = 0
    retry_seed: int = 7
    max_retries: int = 3
    retry_base_delay_ms: float = 1.0
    verify_checksums: bool = True
    io_latency_ms: float = 0.0
    timeout_ms: float | None = None


def _run_task(spec: _TaskSpec, store, cancel_event):
    """Execute one fragment in the worker process."""
    # Imported lazily so a spawn-context worker only pays for what it
    # uses; under fork these are already-loaded modules.
    from repro.engine.batch_executor import execute_batch
    from repro.engine.executor import execute

    plan = pickle.loads(spec.plan_blob)
    saved = (store.fault_injector, store.verify_checksums, store.io_latency_ms)
    store.fault_injector = (
        FaultInjector(fault_rate=spec.fault_rate, seed=spec.fault_seed)
        if spec.fault_rate > 0
        else None
    )
    store.verify_checksums = spec.verify_checksums
    store.io_latency_ms = spec.io_latency_ms
    try:
        ctx = RunContext(
            store,
            retry_policy=RetryPolicy(
                max_retries=spec.max_retries,
                base_delay_ms=spec.retry_base_delay_ms,
                seed=spec.retry_seed,
            ),
            limits=ResourceLimits(timeout_ms=spec.timeout_ms),
        )
        ctx.cancel_check = cancel_event.is_set
        ctx.partition_window = spec.window
        if spec.engine == "batch":
            rows = list(
                execute_batch(
                    plan, ctx, block_rows=spec.batch_rows, vectors=spec.vectors
                )
            )
        else:
            rows = list(execute(plan, ctx))
    finally:
        store.fault_injector, store.verify_checksums, store.io_latency_ms = saved
    acct = ctx.metrics.accounting
    metrics = ctx.metrics
    return {
        "rows": rows,
        "bytes_scanned": acct.bytes_scanned,
        "rows_scanned": acct.rows_scanned,
        "partitions_read": acct.partitions_read,
        "bytes_by_table": dict(acct.bytes_by_table),
        "retries": metrics.retries,
        "faults_injected": metrics.faults_injected,
        "checksum_verifications": metrics.checksum_verifications,
    }


def _worker_main(worker_id, store, tasks, results, cancel_event, poisoned, heartbeat):
    """Worker process loop: steal tasks until the ``None`` sentinel."""
    if heartbeat is not None:
        # The beat thread keeps ticking while a task executes (the GIL
        # switches between threads), so a *silent* heartbeat means the
        # whole process is frozen — SIGSTOP, a C-level hang, or a
        # scheduler pathology — not merely a slow fragment.
        def _beat():
            while True:
                heartbeat.value = time.time()
                time.sleep(_BEAT_INTERVAL_S)

        threading.Thread(target=_beat, daemon=True).start()
    while True:
        task = tasks.get()
        if task is None:
            break
        if worker_id in task.banned:
            # This attempt must run elsewhere: put it back and yield
            # the CPU so a peer picks it up.
            tasks.put(task)
            time.sleep(0.005)
            continue
        results.put(("start", task.epoch, task.task_id, worker_id))
        try:
            if poisoned:
                raise WorkerPoisonedError(
                    f"worker {worker_id} is poisoned (test hook)"
                )
            payload = _run_task(task, store, cancel_event)
        except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
            retryable = isinstance(exc, (TransientReadError, WorkerPoisonedError))
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = pickle.dumps(ExecutionError(repr(exc)))
            results.put(
                ("error", task.epoch, task.task_id, worker_id, blob, retryable)
            )
        else:
            results.put(("ok", task.epoch, task.task_id, worker_id, payload))


# -- the pool ------------------------------------------------------------


class WorkerPool:
    """A persistent pool of fragment-executing worker processes.

    Workers share one task queue (work stealing) and one result queue.
    The pool is reusable across queries and across sessions over the
    same store; per-task configuration travels in the task spec, so
    sessions with different fault/latency settings can share a pool.
    ``poison_worker`` marks the n-th spawned worker as permanently
    failing — the test hook behind the fragment-retry tests.

    Self-healing (DESIGN.md §13): every worker publishes a heartbeat
    into a shared cell from a dedicated beat thread.  ``health_check``
    kills workers whose heartbeat has gone silent (the process is
    frozen, not slow) and rebuilds the pool around any dead worker,
    replacing the task/result queues too — a worker SIGKILLed
    mid-``put`` can leave a queue's feeder lock held forever, so after
    a death the old queues are untrustworthy.  ``generation`` counts
    rebuilds; the scheduler uses it to know that queued-but-unstarted
    task specs were discarded with the old queue and must be
    resubmitted.  ``query_lock`` serializes *queries* (epochs) on the
    pool — fragments within one query still run concurrently.
    """

    def __init__(
        self,
        store,
        workers: int,
        poison_worker: int | None = None,
        heartbeat_timeout_s: float = 2.0,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.store = store
        self.size = workers
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._poison = poison_worker
        self._tasks = self._mp.Queue()
        self._results = self._mp.Queue()
        self.cancel_event = self._mp.Event()
        self._procs: dict[int, object] = {}
        self._beats: dict[int, object] = {}
        self._spawned = 0
        self._epoch = 0
        self._closed = False
        #: Concurrent parallel queries would collide on the shared
        #: result queue and epoch counter; holders run one at a time.
        self.query_lock = threading.Lock()
        #: Serializes health_check/reap/rebuild: any holder of the pool
        #: may nurse it, not only the scheduler.
        self._maint_lock = threading.Lock()
        #: Bumped by every rebuild — queued task specs from an earlier
        #: generation died with the old task queue.
        self.generation = 0
        #: Lifetime health counters (the scheduler watches them for churn).
        self.respawns = 0
        self.rebuilds = 0
        self.hung_workers_killed = 0
        for _ in range(workers):
            self._spawn()

    def _spawn(self) -> int:
        worker_id = self._spawned
        self._spawned += 1
        beat = self._mp.Value("d", time.time())
        proc = self._mp.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.store,
                self._tasks,
                self._results,
                self.cancel_event,
                self._poison == worker_id,
                beat,
            ),
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc
        self._beats[worker_id] = beat
        return worker_id

    def new_epoch(self) -> int:
        """Start a new scheduling epoch; stale results are discarded by
        epoch tag and the cancel flag from an aborted query is reset."""
        self._epoch += 1
        self.cancel_event.clear()
        return self._epoch

    def submit(self, spec: _TaskSpec) -> None:
        self._tasks.put(spec)

    def next_result(self, timeout: float):
        """The next worker message, or None after ``timeout`` seconds."""
        try:
            return self._results.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def reap(self) -> list[int]:
        """Collect dead workers, respawn replacements, return their ids."""
        with self._maint_lock:
            return self._reap_locked()

    def _reap_locked(self) -> list[int]:
        dead = [wid for wid, proc in self._procs.items() if not proc.is_alive()]
        for wid in dead:
            self._procs.pop(wid)
            self._beats.pop(wid, None)
            self._spawn()
            self.respawns += 1
        return dead

    def health_check(self) -> list[int]:
        """Kill frozen workers, respawn every dead one; returns the ids
        of workers that were replaced.

        A worker is *frozen* when it is alive but its heartbeat is more
        than ``heartbeat_timeout_s`` old — the beat thread survives slow
        fragments, so silence means the whole process is stuck.
        """
        if self._closed:
            return []
        with self._maint_lock:
            now = time.time()
            hung = []
            for wid, proc in list(self._procs.items()):
                beat = self._beats.get(wid)
                if (
                    proc.is_alive()
                    and beat is not None
                    and now - beat.value > self.heartbeat_timeout_s
                ):
                    proc.kill()
                    proc.join(timeout=5.0)
                    hung.append(wid)
            self.hung_workers_killed += len(hung)
            dead = set(hung) | {
                wid for wid, proc in self._procs.items() if not proc.is_alive()
            }
            # Any death taints the shared queues: a worker SIGKILLed
            # mid-``put`` dies holding the queue's cross-process lock,
            # after which every *surviving* worker blocks forever on
            # its next result (alive, heartbeating, making no
            # progress).  There is no portable way to tell a clean
            # death from a wedging one, so rebuild unconditionally —
            # deaths are rare and morsel granularity keeps the lost
            # work small.
            if dead:
                self._rebuild_locked()
            return sorted(dead)

    def _rebuild_locked(self) -> None:
        """Replace every worker *and* both queues in place.  Task specs
        queued in the old generation are lost — callers must resubmit
        all unfinished work (``generation`` tells them to)."""
        for proc in self._procs.values():
            proc.kill()
        for proc in self._procs.values():
            proc.join(timeout=5.0)
        self._procs.clear()
        self._beats.clear()
        # The old queues are abandoned, not closed: a concurrent
        # scheduler may still be blocked in ``get`` on them (it will
        # time out and notice the generation bump), and their feeder
        # threads are daemons, so leaking them is safe while closing
        # them under a reader is not.
        for old in (self._tasks, self._results):
            try:
                old.cancel_join_thread()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        self._tasks = self._mp.Queue()
        self._results = self._mp.Queue()
        self.generation += 1
        self.rebuilds += 1
        for _ in range(self.size):
            self._spawn()

    def worker_pids(self) -> dict[int, int]:
        """Live worker ids to OS pids (chaos tests SIGKILL these)."""
        with self._maint_lock:
            return {
                wid: proc.pid
                for wid, proc in self._procs.items()
                if proc.is_alive() and proc.pid is not None
            }

    @property
    def worker_ids(self) -> frozenset[int]:
        return frozenset(self._procs)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.cancel_event.set()
        for _ in self._procs:
            self._tasks.put(None)
        deadline = time.monotonic() + 5.0
        for proc in self._procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
        self._procs.clear()
        self._beats.clear()
        # A worker SIGKILLed mid-``put`` can leave a queue's pipe in a
        # state its feeder thread never drains; never block shutdown on
        # joining feeders.
        for q in (self._tasks, self._results):
            q.cancel_join_thread()
            q.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass


# -- fragments ----------------------------------------------------------


def _morsel_windows(store, table: str, workers: int) -> list[tuple[str, int, int]]:
    """Tile ``table``'s stored partitions into morsel windows."""
    stored = store.stored_table(table)
    nparts = max(1, len(stored.partitions))
    per = max(1, -(-nparts // (workers * _MORSELS_PER_WORKER)))
    name = stored.name.lower()
    return [
        (name, lo, min(lo + per, nparts)) for lo in range(0, nparts, per)
    ]


# -- the scheduler -------------------------------------------------------


@dataclass
class _Attempt:
    """One fragment — an Exchange's pipeline over one morsel window —
    and the state of its attempts."""

    exchange_id: int
    plan_blob: bytes
    window: tuple[str, int, int]
    attempts: int = 1
    banned: set = field(default_factory=set)
    started_by: int | None = None
    done: bool = False
    rows: list | None = None


class _FragmentScheduler:
    """Drives one query's Exchange pipelines to completion on the pool."""

    def __init__(self, ctx: RunContext, config, pool: WorkerPool):
        self.ctx = ctx
        self.config = config
        self.pool = pool
        self.store = ctx.store
        self.epoch = pool.new_epoch()
        self._generation = pool.generation
        self._churn = (pool.respawns, pool.rebuilds)
        self._next_task_id = 0
        self._inflight: dict[int, _Attempt] = {}

    # -- submission -------------------------------------------------------

    def _spec(self, attempt: _Attempt, task_id: int) -> _TaskSpec:
        config = self.config
        injector = self.store.fault_injector
        return _TaskSpec(
            epoch=self.epoch,
            task_id=task_id,
            plan_blob=attempt.plan_blob,
            window=attempt.window,
            engine=config.engine,
            batch_rows=config.batch_rows,
            vectors=config.vectors,
            banned=frozenset(attempt.banned),
            fault_rate=injector.fault_rate if injector is not None else 0.0,
            fault_seed=injector.seed if injector is not None else 0,
            retry_seed=config.fault_seed,
            max_retries=config.max_retries,
            retry_base_delay_ms=config.retry_base_delay_ms,
            verify_checksums=self.store.verify_checksums,
            io_latency_ms=self.store.io_latency_ms,
            timeout_ms=self.ctx.deadline_remaining_ms,
        )

    def _submit(self, attempt: _Attempt) -> None:
        task_id = self._next_task_id
        self._next_task_id += 1
        self._inflight[task_id] = attempt
        self.pool.submit(self._spec(attempt, task_id))

    def _resubmit(self, task_id: int, failed_worker: int | None) -> None:
        attempt = self._inflight[task_id]
        attempt.attempts += 1
        if failed_worker is not None:
            attempt.banned.add(failed_worker)
        # Never ban the whole pool — an unbannable worker just means
        # the retry may land on the same one.
        if attempt.banned >= self.pool.worker_ids:
            attempt.banned.clear()
        attempt.started_by = None
        self.pool.submit(self._spec(attempt, task_id))

    # -- the drive loop ---------------------------------------------------

    def run(self, exchanges: list[Exchange]) -> None:
        try:
            for exchange in exchanges:
                table = pipeline_scan(exchange.child).table
                blob = pickle.dumps(exchange.child)
                for window in _morsel_windows(self.store, table, self.pool.size):
                    self._submit(_Attempt(exchange.exchange_id, blob, window))
                # One scan-start per Scan node, exactly like a serial
                # execution (workers' per-morsel counts are dropped).
                self.ctx.accounting.record_scan(self.store.stored_table(table).name)
            self._drain()
        except BaseException:
            self._abort()
            raise
        # Task ids, and so ``_inflight``'s order, follow submission:
        # each Exchange's morsels concatenate in serial scan order.
        gathered = self.ctx.exchange_results
        for exchange in exchanges:
            gathered[exchange.exchange_id] = []
        for attempt in self._inflight.values():
            gathered[attempt.exchange_id].extend(attempt.rows)
        self._inflight.clear()

    def _drain(self) -> None:
        retries = FRAGMENT_RETRIES
        while any(not a.done for a in self._inflight.values()):
            self.ctx.checkpoint()
            message = self.pool.next_result(_POLL_S)
            if message is None:
                self._check_workers(retries)
                continue
            kind, epoch = message[0], message[1]
            if epoch != self.epoch:
                continue  # stale result from an aborted query
            task_id, worker_id = message[2], message[3]
            attempt = self._inflight.get(task_id)
            if attempt is None or attempt.done:
                continue  # duplicate of a resubmitted, finished task
            if kind == "start":
                attempt.started_by = worker_id
            elif kind == "ok":
                attempt.done = True
                payload = message[4]
                attempt.rows = payload["rows"]
                self._merge(payload)
            elif kind == "error":
                blob, retryable = message[4], message[5]
                if retryable and attempt.attempts <= retries:
                    self._resubmit(task_id, worker_id)
                else:
                    raise self._rebuild_error(blob, attempt)

    def _check_workers(self, retries: int) -> None:
        self.pool.health_check()
        # Worker churn is detected by counter, not by who found the
        # corpse: another caller of health_check or reap may have
        # rebuilt around a dead worker before this scheduler polled,
        # and the death signal must not be swallowed with it.
        churn = (self.pool.respawns, self.pool.rebuilds)
        if churn == self._churn:
            return
        self._churn = churn
        # A rebuild replaced the task queue: specs queued there are
        # gone, and every old worker is dead — resubmit *everything*
        # unfinished, not just the lost workers' started tasks.
        rebuilt = self.pool.generation != self._generation
        self._generation = self.pool.generation
        alive = self.pool.worker_ids
        for task_id, attempt in list(self._inflight.items()):
            if attempt.done:
                continue
            # Resubmit tasks whose starter is gone (respawns never
            # reuse worker ids), and also any not-yet-started task:
            # the victim may have dequeued one without living long
            # enough to report "start".  A task still sitting in the
            # queue just runs twice — duplicates share the task id, so
            # the first result wins and the second is discarded
            # without double-charging metrics.
            if (
                not rebuilt
                and attempt.started_by is not None
                and attempt.started_by in alive
            ):
                continue
            if attempt.attempts > retries:
                raise FragmentError(
                    f"fragment lost its worker (pid gone) "
                    f"{attempt.attempts} times; giving up"
                )
            self._resubmit(task_id, attempt.started_by)

    def _merge(self, payload: dict) -> None:
        acct = self.ctx.accounting
        acct.bytes_scanned += payload["bytes_scanned"]
        acct.rows_scanned += payload["rows_scanned"]
        acct.partitions_read += payload["partitions_read"]
        for table, nbytes in payload["bytes_by_table"].items():
            acct.bytes_by_table[table] = (
                acct.bytes_by_table.get(table, 0.0) + nbytes
            )
        metrics = self.ctx.metrics
        metrics.retries += payload["retries"]
        metrics.faults_injected += payload["faults_injected"]
        metrics.checksum_verifications += payload["checksum_verifications"]

    def _rebuild_error(self, blob: bytes, attempt: _Attempt) -> BaseException:
        try:
            exc = pickle.loads(blob)
        except Exception:
            exc = ExecutionError("fragment failed with an unpicklable error")
        if isinstance(exc, (TransientReadError, WorkerPoisonedError)):
            return FragmentError(
                f"fragment failed on all {attempt.attempts} allowed "
                f"attempts; last error: {exc}"
            )
        return exc

    def _abort(self) -> None:
        """Stop in-flight workers and drain our outstanding tasks so a
        shared pool is clean for the next query."""
        self.pool.cancel_event.set()
        deadline = time.monotonic() + 5.0
        while (
            any(not a.done for a in self._inflight.values())
            and time.monotonic() < deadline
        ):
            message = self.pool.next_result(_POLL_S)
            if message is None:
                if not any(
                    a.started_by is not None and not a.done
                    for a in self._inflight.values()
                ):
                    break  # only queued tasks left; epoch filter covers them
                self.pool.reap()
                continue
            if message[1] != self.epoch:
                continue
            if message[0] in ("ok", "error"):
                attempt = self._inflight.get(message[2])
                if attempt is not None:
                    attempt.done = True
        self._inflight.clear()


def execute_parallel(plan: PlanNode, ctx: RunContext, config, pool: WorkerPool) -> None:
    """Run every Exchange subtree of ``plan`` on ``pool``.

    Fills ``ctx.exchange_results`` (keyed by exchange id) and merges the
    workers' accounting/metrics into ``ctx`` so the caller can then run
    the plan with any serial engine — its Exchange operators replay the
    gathered rows.  A plan without Exchange nodes is a no-op.
    """
    exchanges = [n for n in walk_plan(plan) if isinstance(n, Exchange)]
    if not exchanges:
        return
    # One query at a time on a shared pool: concurrent epochs would
    # consume each other's result messages.  The wait is checkpointed
    # so cancellation and the deadline still fire while queued.
    while not pool.query_lock.acquire(timeout=_POLL_S):
        ctx.checkpoint()
    try:
        _FragmentScheduler(ctx, config, pool).run(exchanges)
    finally:
        pool.query_lock.release()
