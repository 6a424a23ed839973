"""The degradation ladder and circuit breakers (repro.server.degrade).

Rung arithmetic and breaker state machines are pure and clock-injected;
the supervisor is driven with stub run functions that fail on command.
"""

from __future__ import annotations

import pytest

from repro.engine.parallel import FragmentError
from repro.errors import (
    BindingError,
    CircuitOpenError,
    DataCorruptionError,
    ExecutionError,
    QueryTimeoutError,
    SqlSyntaxError,
    WorkerPoolError,
)
from repro.optimizer.config import OptimizerConfig
from repro.server.degrade import (
    CircuitBreaker,
    DegradationSupervisor,
    Rung,
    classify,
    demote,
    step_down,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeMetrics:
    def __init__(self):
        self.ladder_path: list[str] = []
        self.degradations: list[str] = []


class FakeResult:
    def __init__(self):
        self.metrics = FakeMetrics()


TOP = Rung(engine="batch", parallel=True, cache=True)
BOTTOM = Rung(engine="row", parallel=False, cache=False)


class TestRung:
    def test_name_round_trips_the_axes(self):
        assert TOP.name == "batch|parallel|cache"
        assert BOTTOM.name == "row|serial|nocache"

    def test_config_specializes_base(self):
        base = OptimizerConfig(workers=4, enable_plan_cache=True)
        serial = Rung(engine="row", parallel=False, cache=False).config(base)
        assert serial.engine == "row"
        assert serial.workers == 1
        assert not serial.enable_plan_cache
        top = TOP.config(base)
        assert top.workers == 4 and top.enable_plan_cache


class TestClassifyAndDemote:
    @pytest.mark.parametrize(
        "exc",
        [
            SqlSyntaxError("nope"),
            BindingError("unknown column"),
            QueryTimeoutError("too slow"),
        ],
    )
    def test_user_fatal_never_demotes(self, exc):
        assert classify(exc) is None
        assert demote(TOP, exc) is None

    def test_fragment_failure_sheds_parallelism(self):
        nxt = demote(TOP, FragmentError("worker gone"))
        assert nxt is not None and not nxt.parallel
        assert nxt.engine == TOP.engine  # only the parallel axis moves
        serial = Rung(engine="row", parallel=False, cache=True)
        assert demote(serial, WorkerPoolError("pool dead")) is None

    def test_corruption_bypasses_cache(self):
        nxt = demote(TOP, DataCorruptionError("bad checksum"))
        assert nxt is not None and not nxt.cache
        nocache = Rung(engine="row", parallel=False, cache=False)
        assert demote(nocache, DataCorruptionError("still bad")) is None

    def test_engine_ladder_walks_to_row(self):
        exc = ExecutionError("vector path blew up")
        # One rung: list columns run the same operators, so a block-
        # engine failure goes straight to the row engine.
        r1 = demote(TOP, exc)
        assert r1 == Rung(engine="row", parallel=True, cache=True)
        # Row engine failing: shed the remaining axes before giving up.
        r2 = demote(r1, exc)
        assert r2 is not None and not r2.parallel
        r3 = demote(r2, exc)
        assert r3 is not None and not r3.cache
        assert demote(r3, exc) is None

    def test_step_down_total_order_terminates(self):
        rung, seen = TOP, set()
        while rung is not None:
            assert rung.name not in seen  # no cycles
            seen.add(rung.name)
            rung = step_down(rung)
        assert BOTTOM.name in seen


class TestCircuitBreaker:
    def _breaker(self, clock, **kw):
        defaults = dict(
            window_s=10.0,
            failure_threshold=0.5,
            min_samples=4,
            cooldown_s=5.0,
            clock=clock,
        )
        defaults.update(kw)
        return CircuitBreaker(**defaults)

    def test_stays_closed_under_min_samples(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record(False)
        assert breaker.state == "closed" and breaker.allow()

    def test_opens_on_failure_rate(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for ok in (True, False, False, False):
            breaker.record(ok)
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_window_forgets_old_failures(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record(False)
        clock.advance(11.0)  # past the window: the slate is clean
        breaker.record(False)
        assert breaker.state == "closed"

    def test_half_open_probe_recovers(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record(False)
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # second request still blocked
        breaker.record(True)
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record(False)
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record(False)
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 2

    def test_aborted_probe_frees_the_slot(self):
        # A probe that ends without a verdict on the rung's health (a
        # user-fatal error) must hand the slot back, not wedge the rung
        # shut forever.
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record(False)
        clock.advance(5.0)
        assert breaker.allow()
        breaker.probe_abort()
        assert breaker.state == "half_open"
        assert breaker.allow()  # next request probes immediately
        breaker.record(True)
        assert breaker.state == "closed"

    def test_lost_probe_reissues_after_cooldown(self):
        # A probe whose caller never reports back at all (crash, missed
        # abort) is reissued after a cooldown instead of permanently
        # disabling the rung.
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record(False)
        clock.advance(5.0)
        assert breaker.allow()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()


class TestDegradationSupervisor:
    def test_success_on_top_rung(self):
        supervisor = DegradationSupervisor(TOP)
        result = supervisor.execute(lambda rung, sql: FakeResult(), "SELECT 1")
        assert result.metrics.ladder_path == [TOP.name]
        assert result.metrics.degradations == []

    def test_walks_down_on_infrastructure_failure(self):
        supervisor = DegradationSupervisor(TOP)
        calls: list[str] = []

        def run(rung, sql):
            calls.append(rung.name)
            if rung.engine == "batch":
                raise ExecutionError("vector path failure")
            if rung.parallel:
                raise FragmentError("pool wipeout")
            return FakeResult()

        result = supervisor.execute(run, "SELECT 1")
        assert calls == [
            "batch|parallel|cache",
            "row|parallel|cache",
            "row|serial|cache",
        ]
        assert result.metrics.ladder_path == calls
        assert len(result.metrics.degradations) == 2
        assert "ExecutionError" in result.metrics.degradations[0]
        assert "FragmentError" in result.metrics.degradations[1]

    def test_user_fatal_surfaces_unchanged_without_tripping(self):
        supervisor = DegradationSupervisor(
            TOP,
            breaker_factory=lambda: CircuitBreaker(
                min_samples=1, failure_threshold=0.1
            ),
        )

        def run(rung, sql):
            raise SqlSyntaxError("bad sql")

        with pytest.raises(SqlSyntaxError):
            supervisor.execute(run, "NOT SQL")
        # Typos must not poison the rung for other tenants.
        assert supervisor.breaker(TOP.name).state == "closed"

    def test_open_breakers_route_around_and_finally_raise(self):
        clock = FakeClock()
        supervisor = DegradationSupervisor(
            TOP,
            breaker_factory=lambda: CircuitBreaker(
                min_samples=1,
                failure_threshold=0.1,
                cooldown_s=1e9,
                clock=clock,
            ),
        )

        def always_fail(rung, sql):
            raise ExecutionError("everything is broken")

        # One failing pass opens every rung's breaker on the way down.
        with pytest.raises(ExecutionError):
            supervisor.execute(always_fail, "SELECT 1")
        with pytest.raises(CircuitOpenError):
            supervisor.execute(always_fail, "SELECT 1")

    def test_user_fatal_probe_does_not_wedge_the_rung(self):
        # A user-fatal error on the half-open probe carries no verdict
        # on the rung's health; the supervisor must return the probe
        # slot so the next query can probe and close the breaker —
        # without this the rung degrades forever.
        clock = FakeClock()
        supervisor = DegradationSupervisor(
            BOTTOM,
            breaker_factory=lambda: CircuitBreaker(
                min_samples=2,
                failure_threshold=0.5,
                cooldown_s=5.0,
                clock=clock,
            ),
        )

        def infra_fail(rung, sql):
            raise ExecutionError("boom")

        for _ in range(2):  # open the bottom rung's breaker
            with pytest.raises(ExecutionError):
                supervisor.execute(infra_fail, "SELECT 1")
        assert supervisor.breaker(BOTTOM.name).state == "open"
        clock.advance(5.0)

        def user_fatal(rung, sql):
            raise QueryTimeoutError("deadline blown")

        # This query takes the half-open probe slot and ends user-fatal.
        with pytest.raises(QueryTimeoutError):
            supervisor.execute(user_fatal, "SELECT 1")
        # The slot was returned: a healthy query probes and recovers
        # (a wedged breaker would raise CircuitOpenError here instead).
        result = supervisor.execute(lambda rung, sql: FakeResult(), "SELECT 1")
        assert result.metrics.ladder_path == [BOTTOM.name]
        assert supervisor.breaker(BOTTOM.name).state == "closed"

    def test_open_top_breaker_skips_straight_to_fallback(self):
        clock = FakeClock()
        supervisor = DegradationSupervisor(
            TOP,
            breaker_factory=lambda: CircuitBreaker(
                min_samples=1,
                failure_threshold=0.1,
                cooldown_s=1e9,
                clock=clock,
            ),
        )
        supervisor.breaker(TOP.name).record(False)  # trip the top rung
        calls: list[str] = []

        def run(rung, sql):
            calls.append(rung.name)
            return FakeResult()

        result = supervisor.execute(run, "SELECT 1")
        assert calls == ["row|parallel|cache"]
        assert any("CircuitOpen" in d for d in result.metrics.degradations)
