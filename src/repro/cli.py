"""Command-line interface.

Run SQL against a generated synthetic TPC-DS dataset and compare the
baseline and fusion pipelines::

    python -m repro "SELECT count(*) FROM store_sales"
    python -m repro --scale 0.2 --explain "SELECT ..."
    python -m repro --baseline "SELECT ..."         # fusion off
    python -m repro --compare "SELECT ..."          # run both, diff metrics
    python -m repro --cache --repeat 2 "SELECT ..." # cross-query reuse cache

or run the differential fuzzer (see repro.testing)::

    python -m repro fuzz --seed 0 --count 2000

The dataset is regenerated per invocation (it is deterministic, so
results are stable across runs with the same ``--scale``/``--seed``).
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.session import Session
from repro.errors import (
    DataCorruptionError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ResourceExhaustedError,
)
from repro.optimizer.config import OptimizerConfig
from repro.storage.faults import FaultInjector
from repro.tpcds.generator import generate_dataset

#: Process exit codes per error family, most specific class first.
#: 0 = success, 1 = generic/user error (syntax, binding, execution),
#: 2 = --compare disagreement; the errors a run can raise past the
#: session get distinct codes so callers (and the taxonomy tests) can
#: script against them.  7 to 10 are left unassigned, not reused, so a
#: script written against their old meanings (7 admission rejected, 8
#: queue timeout: only the query service raises those) cannot misread
#: a new error.
_EXIT_CODES: list[tuple[type[BaseException], int]] = [
    (QueryTimeoutError, 3),
    (QueryCancelledError, 4),
    (ResourceExhaustedError, 5),
    (DataCorruptionError, 6),
]


def exit_code_for(exc: BaseException) -> int:
    """Map an error to the CLI's exit code (generic ReproError -> 1)."""
    for klass, code in _EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run SQL on a synthetic TPC-DS dataset with/without query fusion.",
    )
    parser.add_argument("sql", help="the SQL query to run")
    parser.add_argument("--scale", type=float, default=0.1, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument(
        "--baseline", action="store_true", help="disable the fusion rules"
    )
    parser.add_argument(
        "--compare", action="store_true", help="run both pipelines and compare"
    )
    parser.add_argument(
        "--explain", action="store_true", help="print the optimized plan"
    )
    parser.add_argument(
        "--limit", type=int, default=20, help="max rows to print (default 20)"
    )
    parser.add_argument(
        "--engine",
        choices=("row", "batch"),
        default="batch",
        help="execution backend: the vectorized block engine 'batch' "
        "(default) or 'row'",
    )
    parser.add_argument(
        "--vectors",
        choices=("python", "numpy"),
        default="numpy",
        help="column representation of --engine batch: 'numpy' arrays "
        "(default) or 'python' lists",
    )
    parser.add_argument(
        "--batch-rows",
        type=int,
        default=OptimizerConfig.batch_rows,
        help="the most rows a block of the batch engine holds "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-operator wall-time breakdown",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the cross-query subplan result cache",
    )
    parser.add_argument(
        "--cache-budget-mb",
        type=float,
        default=64.0,
        help="plan-cache byte budget in MiB (default 64)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the query N times in the same session "
        "(shows cache replay metrics with --cache)",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="chaos: fraction of chunk-read sites that fail transiently "
        "(deterministic per --fault-seed; default 0 = no faults)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=7,
        help="seed for the fault injector and retry jitter (default 7)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="max retries of a transiently failing chunk read "
        "(0 surfaces the first fault; default 3)",
    )
    parser.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="per-query deadline in milliseconds (default: none)",
    )
    parser.add_argument(
        "--max-spool-rows",
        type=int,
        default=None,
        help="row budget for any plan-cache population (default: none)",
    )
    parser.add_argument(
        "--max-state-rows",
        type=int,
        default=None,
        help="budget for resident operator state in rows (default: none)",
    )
    parser.add_argument(
        "--validate-plans",
        action="store_true",
        help="run the plan invariant validator after every optimizer rule",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fragment worker processes: >1 cuts the plan into "
        "partition-parallel pipeline fragments dispatched to a "
        "persistent pool (default 1 = serial)",
    )
    parser.add_argument(
        "--io-latency-ms",
        type=float,
        default=0.0,
        help="simulated per-partition read latency in ms, set on the "
        "store that every session and fragment worker reads (models "
        "the S3 regime where parallel fragments overlap I/O; default 0)",
    )
    parser.add_argument(
        "--cost-based",
        action="store_true",
        help="cost-based rewrite selection: price fusion candidates, "
        "semi-join conversion, join order, and cache-populate "
        "placement (bytes scanned + rows processed) instead of firing "
        "on the heuristics alone",
    )
    return parser


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Differential fuzzing: seeded random queries checked "
        "across {row,batch,batch-lists} x {fusion on,off} "
        "x {cache cold,warm} with the plan invariant validator on.",
    )
    parser.add_argument("--seed", type=int, default=0, help="query-generator seed")
    parser.add_argument("--count", type=int, default=200, help="queries to run")
    parser.add_argument(
        "--scale", type=float, default=0.01, help="dataset scale factor"
    )
    parser.add_argument(
        "--data-seed", type=int, default=7, help="dataset generator seed"
    )
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip delta-debugging minimization of failing queries",
    )
    parser.add_argument(
        "--no-analysis",
        action="store_true",
        help="disable the static-analysis oracle (per-cell check of "
        "derived column facts against actual rows)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true", help="stop at the first divergence"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write a JSON report (incl. minimized failing queries) here",
    )
    parser.add_argument(
        "--progress-every",
        type=int,
        default=500,
        help="print a progress line every N queries (0 = quiet)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="*",
        default=[],
        help="add parallel-execution cells to the matrix: each count "
        "> 1 re-runs every query on the batch engine with that many "
        "fragment workers (e.g. --workers 2 4)",
    )
    parser.add_argument(
        "--cost-based",
        action="store_true",
        help="add costed cells to the matrix: the batch engine re-runs "
        "every query with cost-based rewrite selection (fusion on/off "
        "x cache cold/warm); costed plans must agree with heuristic "
        "plans row for row",
    )
    return parser


def fuzz_main(argv: list[str]) -> int:
    """``repro fuzz``: run a campaign, print the report, exit non-zero
    on any divergence."""
    import json

    from repro.testing import run_fuzz

    args = build_fuzz_parser().parse_args(argv)

    def progress(done: int, report) -> None:
        if args.progress_every and done % args.progress_every == 0:
            print(
                f"... {done}/{args.count} "
                f"({len(report.failures)} divergences so far)",
                flush=True,
            )

    report = run_fuzz(
        seed=args.seed,
        count=args.count,
        scale=args.scale,
        data_seed=args.data_seed,
        minimize_failures=not args.no_minimize,
        fail_fast=args.fail_fast,
        analysis=not args.no_analysis,
        workers=tuple(args.workers),
        cost_axis=args.cost_based,
        progress=progress,
    )
    print(report.summary())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.out}")
    return 0 if report.ok else 1


def _print_result(result, limit: int, explain: bool) -> None:
    if explain:
        print(result.explain())
        print()
    print("\t".join(result.columns))
    for row in result.rows[:limit]:
        print("\t".join("NULL" if v is None else str(v) for v in row))
    if len(result.rows) > limit:
        print(f"... ({len(result.rows) - limit} more rows)")
    print(f"-- {result.metrics.summary()}")
    if result.fired_rules:
        print(f"-- rules fired: {', '.join(sorted(set(result.fired_rules)))}")
    if result.metrics.operator_times:
        print(result.metrics.profile_report())


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    args = build_parser().parse_args(argv)
    store = generate_dataset(scale=args.scale, seed=args.seed)
    store.io_latency_ms = args.io_latency_ms
    if args.fault_rate > 0:
        store.fault_injector = FaultInjector(args.fault_rate, seed=args.fault_seed)

    engine_opts = {
        "engine": args.engine,
        "vectors": args.vectors,
        "profile": args.profile,
        "batch_rows": args.batch_rows,
        "enable_plan_cache": args.cache,
        "cache_budget_mb": args.cache_budget_mb,
        "fault_seed": args.fault_seed,
        "max_retries": args.retries,
        "timeout_ms": args.timeout_ms,
        "max_spool_rows": args.max_spool_rows,
        "max_state_rows": args.max_state_rows,
        "validate_plans": args.validate_plans,
        "workers": args.workers,
        "cost_based": args.cost_based,
    }
    try:
        if args.compare:
            baseline = Session(
                store, OptimizerConfig(enable_fusion=False, **engine_opts)
            )
            fused = Session(store, OptimizerConfig(enable_fusion=True, **engine_opts))
            base_result = baseline.execute(args.sql)
            fused_result = fused.execute(args.sql)
            if base_result.sorted_rows() != fused_result.sorted_rows():
                print("ERROR: pipelines disagree on results", file=sys.stderr)
                return 2
            print("== fusion result ==")
            _print_result(fused_result, args.limit, args.explain)
            base_m, fused_m = base_result.metrics, fused_result.metrics
            # Planning counts: fusion pays for its savings there.
            base_s = base_m.planning_s + base_m.wall_time_s
            fused_s = fused_m.planning_s + fused_m.wall_time_s
            fraction = fused_m.bytes_scanned / max(base_m.bytes_scanned, 1e-9)
            print()
            print("== baseline vs fusion ==")
            print(
                f"latency : {base_s*1000:.1f}ms -> "
                f"{fused_s*1000:.1f}ms ({base_s / max(fused_s, 1e-9):.2f}x)"
            )
            print(
                f"scanned : {base_m.bytes_scanned/1024:.1f}KiB -> "
                f"{fused_m.bytes_scanned/1024:.1f}KiB ({fraction*100:.0f}% of baseline)"
            )
            return 0

        config = OptimizerConfig(enable_fusion=not args.baseline, **engine_opts)
        with Session(store, config) as session:
            result = session.execute(args.sql)
            _print_result(result, args.limit, args.explain)
            for run in range(2, args.repeat + 1):
                result = session.execute(args.sql)
                print(f"-- run {run}: {result.metrics.summary()}")
            if session.plan_cache is not None and args.repeat > 1:
                print(f"-- cache: {session.plan_cache.summary()}")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
