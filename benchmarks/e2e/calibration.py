"""Host-speed calibration: what makes ten runs agree.

The boxes this benchmark runs on are shared.  Measured on the 2-core
dev box, the same deterministic pass over the studied queries takes
575 ms or 720 ms depending on which of two states the host is in, and
the state flips every 10-40 s — longer than any statistic over one
15 s run can average away, and wider than the 10 % bound.  CPU time
moves with wall time, so it is the host's speed, not scheduling.

So every timed execution is bracketed by a fixed pure-Python kernel,
and its latency is scaled by ``REFERENCE_MS / kernel time``: the
reported milliseconds are what the execution would have taken on a
host that runs the kernel in ``REFERENCE_MS`` (the dev box in its fast
state).  On the dev box this takes the spread of a ten-pass median
from 6 % to 1.5 %.  The kernel shares no code with the program under
test, so a change to the program cannot move it.
"""

from __future__ import annotations

import threading
import time

#: Kernel time on the dev box in its fast state, milliseconds.
REFERENCE_MS = 1.85


def kernel() -> None:
    """Interpreter-bound work of the kind the engines do: dict
    updates, float arithmetic, tuple building, a sort."""
    table: dict[int, float] = {}
    for i in range(12000):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
    rows = [(i % 97, i * 0.5, str(i)) for i in range(3000)]
    rows.sort()


def sample(clock=time.perf_counter) -> float:
    """One kernel run, milliseconds on ``clock``."""
    start = clock()
    kernel()
    return (clock() - start) * 1000.0


def normalise(ms: float, kernel_ms: float) -> float:
    return ms * REFERENCE_MS / kernel_ms


class PauseGate:
    """Lets one coordinator stop a closed-loop load between operations.

    The kernel cannot be timed beside running load threads (it would
    measure the load's interference, not the host), so the coordinator
    parks every client between two of its operations, times the kernel
    on an otherwise idle process, and lets them go again.
    """

    def __init__(self, parties: int):
        self._cond = threading.Condition()
        self._active = parties
        self._parked = 0
        self._paused = False

    def checkpoint(self) -> None:
        """Client side, between operations: park while paused."""
        if not self._paused:
            return
        with self._cond:
            self._parked += 1
            self._cond.notify_all()
            while self._paused:
                self._cond.wait()
            self._parked -= 1

    def leave(self) -> None:
        """Client side: this client issues no more operations."""
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def pause(self, timeout_s: float) -> bool:
        """Coordinator: returns once every live client is parked (True)
        or the timeout expired (False).  Also True when all have left."""
        with self._cond:
            self._paused = True
            return self._cond.wait_for(lambda: self._parked >= self._active, timeout_s)

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    @property
    def active(self) -> int:
        with self._cond:
            return self._active
