"""Optimized plans pinned by fingerprint digest.

``tests/data/plan_digests.json`` holds ``plan_fingerprint(plan).digest``
of the optimized plan of each of the 32 workload queries (the 8 studied
ones among them) under the three configurations the benchmark runs.
Only the digest is pinned: column ids depend on allocator history.  A
PR that is meant to leave plans alone (an optimizer speed-up, a
refactor) passes this test untouched; a PR that is meant to change
plans regenerates the file and says so::

    PYTHONPATH=src python tests/test_plan_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.algebra.fingerprint import plan_fingerprint
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import WORKLOAD_QUERIES

DIGESTS = Path(__file__).parent / "data" / "plan_digests.json"

#: The configurations of ``benchmarks/e2e/workloads.py`` (the service's
#: plan cache is left out: cache-aware placement depends on what ran
#: before, and the cache-free plan is the one under it).
CONFIGS = {
    "fused": OptimizerConfig(),
    "baseline": OptimizerConfig(enable_fusion=False),
    "compiled": OptimizerConfig(engine="compiled", vectors="numpy", cost_based=True),
}


def plan_digests(store, label: str) -> dict[str, str]:
    """``{query: digest}`` of the optimized plans under ``CONFIGS[label]``."""
    with Session(store, CONFIGS[label]) as session:
        return {
            name: plan_fingerprint(session.plan(sql)[0]).digest
            for name, sql in WORKLOAD_QUERIES.items()
        }


@pytest.mark.parametrize("label", CONFIGS)
def test_optimized_plans_match_the_pinned_digests(tpcds_store, label):
    pinned = json.loads(DIGESTS.read_text())[label]
    got = plan_digests(tpcds_store, label)
    changed = sorted(name for name in pinned.keys() | got.keys() if got.get(name) != pinned.get(name))
    assert not changed, (
        f"optimized plans changed under {label!r}: {changed}; if intended, "
        "regenerate with `PYTHONPATH=src python tests/test_plan_golden.py`"
    )


if __name__ == "__main__":
    # Same data as the ``tpcds_store`` fixture in conftest.py.
    store = generate_dataset(scale=0.05, seed=7)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(
        json.dumps({label: plan_digests(store, label) for label in CONFIGS}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {DIGESTS}")
