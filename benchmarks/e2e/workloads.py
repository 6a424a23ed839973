"""The four workloads: what each runs, at which size, and why.

A workload is a set of distinct queries, a data scale and the
configuration under test.  ``--seed`` picks the generated data and the
order queries are issued in; the program under test sees only that data
and SQL text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.optimizer.config import OptimizerConfig
from repro.tpcds.queries import STUDIED_QUERIES, WORKLOAD_QUERIES
from repro.tpcds.schema import PARTITIONED_TABLES

#: Closed-loop client threads of the service workload (``nproc`` = 2 on
#: the box the bounds were measured on).
SERVICE_CLIENTS = 2
#: Dispatcher threads of the service under test.
SERVICE_DISPATCHERS = 2
#: One fact table is invalidated before every this-many operations of
#: the run, so cache population runs beside cache replay.
INVALIDATE_EVERY = 50
#: Round-robin order of the invalidated tables.
FACT_TABLES = PARTITIONED_TABLES

#: ``--smoke`` shrinks every workload to this scale.
SMOKE_SCALE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for ``BENCHMARK.json``; the README has the long form.
    why: str
    #: "serial": one client thread calling ``Session.execute``;
    #: "service": closed-loop clients calling ``QueryService.execute``.
    kind: str
    scale: float
    #: The configuration under test (for the service: its base config).
    config: OptimizerConfig
    queries: dict[str, str]


#: Data scale of the three ``studied_*`` workloads.  ISSUE 11 asked for
#: 2.0; the driver's time cap (set-up is repeated three times per run,
#: and every run must fit in ~37 s) leaves room for 1.0.
STUDIED_SCALE = 1.0
SERVICE_SCALE = 0.2

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "studied_fused",
            "paper's headline config: fusion rules on, batch engine; loads optimizer fusion rules and batch operators over fused plans",
            "serial",
            STUDIED_SCALE,
            OptimizerConfig(),
            STUDIED_QUERIES,
        ),
        Workload(
            "studied_baseline",
            "fusion off: Figure 1/2 denominator and the bypass for every fusion/cost change; storage and batch engine do nearly all the work",
            "serial",
            STUDIED_SCALE,
            OptimizerConfig(enable_fusion=False),
            STUDIED_QUERIES,
        ),
        Workload(
            "studied_compiled",
            "compiled engine, NumPy vectors, cost-based rewrites: execution is short, so front end, optimizer and kernel compile dominate",
            "serial",
            STUDIED_SCALE,
            OptimizerConfig(engine="compiled", vectors="numpy", cost_based=True),
            STUDIED_QUERIES,
        ),
        Workload(
            "service_mixed",
            "QueryService, 2 closed-loop clients, 32 queries on small data, shared plan cache with periodic invalidation: loads sql, cache and server",
            "service",
            SERVICE_SCALE,
            OptimizerConfig(enable_plan_cache=True),
            WORKLOAD_QUERIES,
        ),
    )
}


def pass_order(names: list[str], rng: random.Random) -> list[str]:
    """One pass over the distinct queries, in a seeded order."""
    order = list(names)
    rng.shuffle(order)
    return order


def service_sequence(seed: int, client: int, names: list[str]) -> Iterator[str]:
    """The endless query-name sequence client ``client`` issues.

    A concatenation of seeded permutations of the distinct queries, so
    every window of ``len(names)`` operations holds each query once:
    the traffic mix is the same for every seed, only the order differs.
    """
    rng = random.Random(f"{seed}:{client}")
    while True:
        yield from pass_order(names, rng)
