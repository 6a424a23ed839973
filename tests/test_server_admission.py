"""Admission control: token buckets, quotas, load shedding.

All clocks are injected, so every rate/queue decision here is exact —
no sleeps, no flakes.
"""

from __future__ import annotations

import pytest

from repro.errors import AdmissionRejectedError
from repro.server.admission import AdmissionController, TenantQuota, TokenBucket


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refusal(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=3, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(100.0)  # 1 token at 10/s = 100ms

    def test_refill_over_time(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=1, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        clock.advance(0.1)  # exactly one token refilled
        assert bucket.try_acquire() == 0.0

    def test_burst_is_capped(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=2, clock=clock)
        clock.advance(60.0)  # a long idle period must not bank tokens
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0


class TestAdmissionController:
    def test_admits_within_limits(self):
        ctrl = AdmissionController(max_queue_depth=4, clock=FakeClock())
        ctrl.admit("a")
        assert ctrl.stats.admitted == 1
        assert ctrl.queued == 1
        assert ctrl.in_flight("a") == 1

    def test_queue_full_sheds_with_retry_after(self):
        ctrl = AdmissionController(max_queue_depth=2, clock=FakeClock())
        ctrl.admit("a")
        ctrl.admit("a")
        with pytest.raises(AdmissionRejectedError) as excinfo:
            ctrl.admit("b")
        assert excinfo.value.retry_after_ms > 0
        assert ctrl.stats.rejected_queue_full == 1
        # Draining the queue frees capacity for the next admit.
        ctrl.on_dequeue()
        ctrl.admit("b")

    def test_tenant_in_flight_quota(self):
        quota = TenantQuota(max_in_flight=1, rate_per_s=1000.0, burst=100)
        ctrl = AdmissionController(
            max_queue_depth=10, default_quota=quota, clock=FakeClock()
        )
        ctrl.admit("a")
        with pytest.raises(AdmissionRejectedError):
            ctrl.admit("a")
        assert ctrl.stats.rejected_quota == 1
        # Another tenant is unaffected: quotas are per tenant.
        ctrl.admit("b")
        # Completion frees the slot.
        ctrl.release("a")
        ctrl.admit("a")

    def test_rate_limit_per_tenant(self):
        clock = FakeClock()
        quota = TenantQuota(max_in_flight=100, rate_per_s=10.0, burst=1)
        ctrl = AdmissionController(
            max_queue_depth=100, default_quota=quota, clock=clock
        )
        ctrl.admit("a")
        ctrl.release("a")
        with pytest.raises(AdmissionRejectedError) as excinfo:
            ctrl.admit("a")
        assert excinfo.value.retry_after_ms == pytest.approx(100.0)
        assert ctrl.stats.rejected_rate_limited == 1
        clock.advance(0.1)
        ctrl.admit("a")

    def test_per_tenant_quota_override(self):
        quotas = {"vip": TenantQuota(max_in_flight=2)}
        ctrl = AdmissionController(
            max_queue_depth=10,
            default_quota=TenantQuota(max_in_flight=1, rate_per_s=1e6, burst=100),
            quotas=quotas,
            clock=FakeClock(),
        )
        assert ctrl.quota("vip").max_in_flight == 2
        assert ctrl.quota("anyone").max_in_flight == 1

    def test_release_never_goes_negative(self):
        ctrl = AdmissionController(clock=FakeClock())
        ctrl.release("ghost")
        assert ctrl.in_flight("ghost") == 0

    def test_rejected_aggregate(self):
        ctrl = AdmissionController(max_queue_depth=0, clock=FakeClock())
        for _ in range(3):
            with pytest.raises(AdmissionRejectedError):
                ctrl.admit("a")
        assert ctrl.stats.rejected == 3
