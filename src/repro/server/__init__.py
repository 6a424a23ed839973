"""Resilient multi-tenant query serving on top of the engine.

The serving layer of DESIGN.md §14: admission control and per-tenant
quotas (:mod:`repro.server.admission`), the concurrent
:class:`~repro.server.service.QueryService` itself, and the load
generator / byte-identity oracle used by the benchmarks and chaos
tests (:mod:`repro.server.loadgen`).
"""

from repro.server.admission import (
    AdmissionController,
    AdmissionStats,
    TenantQuota,
    TokenBucket,
)
from repro.server.loadgen import LoadReport, run_load, rows_digest, serial_baseline
from repro.server.service import QueryService, QueryTicket, ServiceConfig

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "LoadReport",
    "QueryService",
    "QueryTicket",
    "ServiceConfig",
    "TenantQuota",
    "TokenBucket",
    "rows_digest",
    "run_load",
    "serial_baseline",
]
