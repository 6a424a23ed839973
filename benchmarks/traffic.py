#!/usr/bin/env python
"""The benchmark's own traffic, once: every distinct query of every
workload in ``BENCHMARK.json``, each at its workload's scale and
configuration.

The workloads are ``benchmarks/e2e/workloads.WORKLOADS``, read, not
copied, and each runs through the target the benchmark builds for it
(``timed.make_target``): the studied workloads through one ``Session``,
the service workload through a ``QueryService``.  Nothing is timed;
the point is which code that traffic reaches.  Under the line
collector::

    PYTHONPATH=src python benchmarks/reach.py run reach-traffic -- \\
        python benchmarks/traffic.py
    python benchmarks/reach.py report reach-traffic --json REACH_traffic.json --files

a line the report lists as unreached is one no benchmark workload runs,
so no benchmark number can show what it costs or saves.  Each workload
prints one line (its scale, query count and wall time); the exit status
is the number of queries that raised.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from benchmarks.e2e.timed import make_target  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.tpcds.generator import generate_dataset  # noqa: E402


def run_workload(workload, store) -> int:
    """Run each distinct query once, through the session or service the
    benchmark builds for the workload; the number that raised."""
    target = make_target(workload, store)
    failed = 0
    try:
        for name, sql in workload.queries.items():
            try:
                target.execute(sql)
            except ReproError as exc:
                print(f"  {workload.name} {name}: {type(exc).__name__}: {exc}")
                failed += 1
    finally:
        target.close()
    return failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="data seed (default 1)")
    args = parser.parse_args(argv)
    stores: dict[float, object] = {}
    failed = 0
    for workload in WORKLOADS.values():
        if workload.scale not in stores:
            stores[workload.scale] = generate_dataset(workload.scale, seed=args.seed)
        start = time.perf_counter()
        failed += run_workload(workload, stores[workload.scale])
        print(
            f"{workload.name}: scale {workload.scale}, "
            f"{len(workload.queries)} queries, {time.perf_counter() - start:.1f} s"
        )
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
