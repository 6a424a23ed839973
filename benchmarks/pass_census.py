"""Pass census: what each optimizer pass slot changes, and what it costs.

For every slot of ``build_pipeline`` under the default, baseline and
costed configurations it counts the plans whose fingerprint the slot
changed and the time spent inside the slot, over the 32 named queries
(fixture data: scale 0.05, seed 7) and over fuzz seeds 0 and 1, 1000
queries each (``QueryGenerator`` on the fuzzer's data: scale 0.01,
seed 7); ``--smoke`` runs seed 0 x 20 with the named queries at 0.01.  One
table per configuration is printed; a slot that changes no named-query
plan is marked ``idle``.

``--save`` writes the report, with every optimized plan's node count,
as JSON; ``--parent`` reads such a file written by another tree (the
parent commit) and reports the largest node-count growth against it,
exiting 1 when any plan grew::

    PYTHONPATH=src python benchmarks/pass_census.py --save CENSUS.json
    PYTHONPATH=src python benchmarks/pass_census.py --parent CENSUS_parent.json
    PYTHONPATH=src python benchmarks/pass_census.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.algebra.fingerprint import plan_fingerprint
from repro.algebra.visitors import count_nodes
from repro.catalog.catalog import Catalog
from repro.errors import ReproError
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.pipeline import build_pipeline
from repro.sql.binder import Binder
from repro.testing.generator import QueryGenerator
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import WORKLOAD_QUERIES

CONFIGS = {
    "default": OptimizerConfig(),
    "baseline": OptimizerConfig(enable_fusion=False),
    "costed": OptimizerConfig(cost_based=True),
}


def _catalog(scale: float) -> Catalog:
    catalog = Catalog()
    generate_dataset(scale=scale, seed=7).load_catalog(catalog)
    return catalog


def _queries(args) -> list[tuple[str, str, str, Catalog]]:
    """``(source, key, sql, catalog)``: the named queries, then each
    fuzz seed's stream."""
    named = _catalog(0.01 if args.smoke else 0.05)
    queries = [("named", name, sql, named) for name, sql in WORKLOAD_QUERIES.items()]
    fuzz = _catalog(0.01)
    seeds, count = ([0], 20) if args.smoke else ([0, 1], 1000)
    for seed in seeds:
        generator = QueryGenerator(fuzz, seed=seed)
        queries += [
            ("fuzz", f"s{seed}#{i}", generator.generate().render(), fuzz)
            for i in range(count)
        ]
    return queries


def census(args) -> dict:
    queries = _queries(args)
    report: dict = {"configs": {}, "nodes": {}}
    for label, config in CONFIGS.items():
        names = [p.name for p in build_pipeline(config)]
        slots = [{"name": n, "named": 0, "fuzz": 0, "ms": 0.0} for n in names]
        skipped = 0
        for source, key, sql, catalog in queries:
            try:
                plan = Binder(catalog).bind_sql(sql).plan
                ctx = OptimizerContext(catalog, config)
                digest = plan_fingerprint(plan).digest
                for slot, plan_pass in zip(slots, build_pipeline(config)):
                    start = time.perf_counter()
                    rewritten = plan_pass.run(plan, ctx)
                    slot["ms"] += (time.perf_counter() - start) * 1000.0
                    if rewritten is not plan:
                        after = plan_fingerprint(rewritten).digest
                        slot[source] += after != digest
                        plan, digest = rewritten, after
            except ReproError:
                skipped += 1
                continue
            report["nodes"][f"{label}/{key}"] = count_nodes(plan)
        report["configs"][label] = {"slots": slots, "skipped": skipped}
    return report


def print_report(report: dict) -> None:
    for label, entry in report["configs"].items():
        slots = entry["slots"]
        idle = [s for s in slots if not s["named"]]
        print(
            f"\n{label}: {len(slots)} slots, {len(idle)} change no named-query plan"
            f" ({entry['skipped']} queries refused)"
        )
        print(f"{'slot':>4}  {'pass':<28} {'named':>5} {'fuzz':>5} {'ms':>9}")
        for i, s in enumerate(slots):
            mark = "  idle" if not s["named"] else ""
            print(f"{i:>4}  {s['name']:<28} {s['named']:>5} {s['fuzz']:>5} {s['ms']:>9.1f}{mark}")


def growth(report: dict, parent: dict) -> list[tuple[int, str]]:
    """``(node-count growth, key)`` of every plan that grew, largest first."""
    grown = [
        (nodes - parent["nodes"][key], key)
        for key, nodes in report["nodes"].items()
        if key in parent["nodes"] and nodes > parent["nodes"][key]
    ]
    return sorted(grown, reverse=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="seed 0 x 20, named queries at 0.01")
    parser.add_argument("--save", help="write the report (with node counts) here")
    parser.add_argument("--parent", help="a saved report to compare node counts with")
    args = parser.parse_args(argv)
    report = census(args)
    print_report(report)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    if args.parent:
        with open(args.parent) as fh:
            parent = json.load(fh)
        grown = growth(report, parent)
        shrank = sum(
            1 for key, nodes in report["nodes"].items() if nodes < parent["nodes"].get(key, nodes)
        )
        print(
            f"\nnode counts vs parent: {len(grown)} of {len(report['nodes'])} plans grew,"
            f" {shrank} shrank"
        )
        for delta, key in grown[:10]:
            print(f"  +{delta}  {key}")
        return int(bool(grown))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
