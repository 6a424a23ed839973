"""Resilient multi-tenant query serving on top of the engine.

The serving layer of DESIGN.md §14: admission control
(:mod:`repro.server.admission`) and the concurrent, serial-session
:class:`~repro.server.service.QueryService` itself.  The load
generator / byte-identity oracle the benchmarks drive it with is
:mod:`repro.server.loadgen`.
"""

from repro.server.admission import (
    AdmissionController,
    AdmissionStats,
    TenantQuota,
    TokenBucket,
)
from repro.server.service import QueryService, QueryTicket, ServiceConfig

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "QueryService",
    "QueryTicket",
    "ServiceConfig",
    "TenantQuota",
    "TokenBucket",
]
