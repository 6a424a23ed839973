"""Cost-based selection ablation (DESIGN.md §15; CI ``cost-smoke``).

The one thing no ``benchmarks/e2e`` workload loads: the *costed
accept/decline pair*.  The costed pipeline must still fire the
profitable fusions (q09, q65) and match the always-fuse byte savings,
while declining the row-replicating fusion of a narrow UNION ALL that
the heuristic pipeline always fires — byte-identical results
throughout.  Emits the comparison as ``BENCH_costs.json``::

    PYTHONPATH=src python benchmarks/bench_ablation.py --scale 0.2
"""

from __future__ import annotations

import argparse
import json

from repro.engine.executor import execute
from repro.engine.metrics import RunContext, Stopwatch
from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import STUDIED_QUERIES
from repro.tpcds.workload import FUSION_RULE_NAMES as FUSION_RULES

#: Fusing this UNION ALL cross-joins every store_sales row against a
#: 2-row tag table to save one re-scan of two narrow integer columns —
#: the SystemML counterexample to always-fuse.  The cost model must
#: decline it; the heuristic pipeline always fires.
COST_DECLINE_SQL = (
    "SELECT ss_item_sk, ss_quantity FROM store_sales WHERE ss_quantity > 10 "
    "UNION ALL "
    "SELECT ss_item_sk, ss_quantity FROM store_sales WHERE ss_quantity > 40"
)


def _measure(session, sql, rounds):
    """Plan once, run ``rounds`` times on the row engine (planning is
    not what a fusion decision buys or costs at run time); min wall ms
    plus the first run's rows and bytes."""
    plan, _ = session.plan(sql)
    first = None
    walls = []
    for _ in range(rounds):
        ctx = RunContext(session.store)
        with Stopwatch(ctx.metrics):
            rows = list(execute(plan, ctx))
        walls.append(ctx.metrics.wall_time_s)
        first = first or (rows, ctx.metrics.bytes_scanned)
    rows, bytes_scanned = first
    return {
        "rows": sorted(rows, key=lambda r: tuple((v is None, str(v)) for v in r)),
        "bytes_scanned": bytes_scanned,
        "wall_ms": round(min(walls) * 1000.0, 2),
        "fired_rules": sorted(set(session.execute(sql).fired_rules)),
    }


def run_cost_bench(scale: float, rounds: int = 3) -> dict:
    """The BENCH_costs.json payload: baseline vs always-fuse vs costed
    on the accept showcases (q09/q65) and the decline showcase."""
    store = generate_dataset(scale=scale, seed=7)
    workloads = [
        ("q09", STUDIED_QUERIES["q09"], "accept"),
        ("q65", STUDIED_QUERIES["q65"], "accept"),
        ("narrow-union", COST_DECLINE_SQL, "decline"),
    ]
    report = {"scale": scale, "rounds": rounds, "workloads": [], "checks": {}}
    accept_wins = 0
    declines = 0
    for name, sql, kind in workloads:
        cells = {
            "baseline": _measure(
                Session(store, OptimizerConfig(enable_fusion=False)), sql, rounds
            ),
            "heuristic": _measure(Session(store, OptimizerConfig()), sql, rounds),
            "costed": _measure(
                Session(store, OptimizerConfig(cost_based=True)), sql, rounds
            ),
        }
        identical = (
            cells["baseline"]["rows"]
            == cells["heuristic"]["rows"]
            == cells["costed"]["rows"]
        )
        costed_fired = set(cells["costed"]["fired_rules"])
        entry = {
            "name": name,
            "kind": kind,
            "identical_results": identical,
        }
        if kind == "accept":
            won = (
                identical
                and bool(FUSION_RULES & costed_fired)
                and cells["costed"]["bytes_scanned"]
                < cells["baseline"]["bytes_scanned"]
                and cells["costed"]["bytes_scanned"]
                == cells["heuristic"]["bytes_scanned"]
            )
            accept_wins += won
            entry["accepted_and_won"] = won
        else:
            declined = (
                identical
                and not (FUSION_RULES & costed_fired)
                and any(r.endswith(".cost_declined") for r in costed_fired)
                and cells["costed"]["wall_ms"] < cells["heuristic"]["wall_ms"]
            )
            declines += declined
            entry["correctly_declined"] = declined
        for cell, data in cells.items():
            entry[cell] = {k: v for k, v in data.items() if k != "rows"}
        report["workloads"].append(entry)
    report["checks"] = {
        "accept_and_win": accept_wins >= 1,
        "correct_decline": declines >= 1,
        "all_identical": all(w["identical_results"] for w in report["workloads"]),
    }
    report["ok"] = all(report["checks"].values())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Emit BENCH_costs.json: cost-based vs always-fuse ablation"
    )
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", default="BENCH_costs.json")
    args = parser.parse_args(argv)

    report = run_cost_bench(args.scale, rounds=args.rounds)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for workload in report["workloads"]:
        verdict = workload.get("accepted_and_won", workload.get("correctly_declined"))
        print(
            f"{workload['name']:<14} {workload['kind']:<7} "
            f"costed={workload['costed']['wall_ms']:8.2f}ms "
            f"heuristic={workload['heuristic']['wall_ms']:8.2f}ms "
            f"baseline={workload['baseline']['wall_ms']:8.2f}ms "
            f"{'OK' if verdict else 'FAIL'}"
        )
    print(f"checks: {report['checks']}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
