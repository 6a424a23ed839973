"""Cross-query reuse A/B: the full 32-query workload, cache on vs off.

The contract every cached session (and the ``service_mixed`` workload of
benchmarks/e2e) relies on:

* cache on and cache off produce byte-identical rows, in identical
  order, on every workload query — both on the cold first pass and on
  the warm replay pass;
* on the warm pass, queries whose whole plan was replaced by a
  ``CachedScan`` scan zero bytes, and the pass as a whole scans a tiny
  fraction of the cache-off bytes.
"""

from __future__ import annotations

import pytest

from repro.algebra.operators import CachedScan
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.tpcds.queries import WORKLOAD_QUERIES


@pytest.fixture(scope="module")
def ab_results(tpcds_store):
    off = Session(tpcds_store, OptimizerConfig())
    on = Session(tpcds_store, OptimizerConfig(enable_plan_cache=True))
    results = {}
    for name, sql in WORKLOAD_QUERIES.items():
        off_r = off.execute(sql)
        on_cold = on.execute(sql)
        on_warm = on.execute(sql)
        results[name] = (off_r, on_cold, on_warm)
    return on, results


def test_rows_byte_identical(ab_results):
    _, results = ab_results
    for name, (off_r, on_cold, on_warm) in results.items():
        assert on_cold.rows == off_r.rows, f"{name}: cold pass diverged"
        assert on_warm.rows == off_r.rows, f"{name}: warm pass diverged"


def test_fully_cached_queries_scan_zero_bytes(ab_results):
    _, results = ab_results
    fully_cached = 0
    for name, (_, _, on_warm) in results.items():
        if isinstance(on_warm.optimized_plan, CachedScan):
            fully_cached += 1
            assert on_warm.metrics.bytes_scanned == 0, name
            assert on_warm.metrics.cache_hits >= 1, name
            assert on_warm.metrics.cache_bytes_saved > 0, name
    # The default budget comfortably holds the test-scale workload:
    # essentially everything should replay from the root.
    assert fully_cached >= len(results) - 2


def test_warm_pass_scans_tiny_fraction(ab_results):
    _, results = ab_results
    off_bytes = sum(off_r.metrics.bytes_scanned for off_r, _, _ in results.values())
    warm_bytes = sum(w.metrics.bytes_scanned for _, _, w in results.values())
    assert off_bytes > 0
    assert warm_bytes <= 0.05 * off_bytes


def test_budget_invariant_held_throughout(ab_results):
    session, _ = ab_results
    cache = session.plan_cache
    assert cache.bytes_used <= cache.budget_bytes
    assert cache.stats.replays > 0
