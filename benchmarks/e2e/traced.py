"""The traced run: per-layer metrics, measured from outside.

The benchmark stages every query itself — parse, bind, each optimizer
pass, execute — and times the calls into each layer's public
functions.  Every timed call is a span (name, start, end, parent,
query, repeat); spans and counts stay in memory and are written to
``out/trace_<workload>.jsonl`` when the run ends.  A layer's time for
one query is the fastest of its repeats, and a metric is the sum of
those minima over the workload's distinct queries; the untraced
executions interleaved with the staged ones are summed the same way, so
the decomposition can be checked against them (``trace.coverage``).

End-to-end numbers never come from this file.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

from repro.algebra.fingerprint import plan_fingerprint
from repro.algebra.operators import Scan
from repro.algebra.visitors import walk_plan
from repro.engine.batch_executor import execute_batch
from repro.engine.compiled import execute_compiled
from repro.engine.executor import execute
from repro.engine.metrics import ResourceLimits, RunContext
from repro.engine.parallel import WorkerPool, execute_parallel
from repro.engine.session import Session
from repro.fusion import Fuser
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.cost import CostModel
from repro.optimizer.pipeline import build_pipeline, optimize
from repro.optimizer.stats import CardinalityEstimator
from repro.server.admission import AdmissionController, TenantQuota
from repro.sql import Binder, parse
from repro.sql.lexer import tokenize
from repro.storage.accounting import ScanAccounting
from repro.storage.faults import RetryPolicy
from repro.tpcds.queries import STUDIED_QUERIES
from repro.tpcds.workload import FUSION_RULE_NAMES

from benchmarks.e2e.calibration import sample
from benchmarks.e2e.metrics import PER_LAYER
from benchmarks.e2e.oracle import rows_match
from benchmarks.e2e.timed import Prepared, Samples, percentile, run_service, timed_execute
from benchmarks.e2e.workloads import FACT_TABLES, INVALIDATE_EVERY

#: Optimizer pass name -> the metric its time is reported under; every
#: other pass counts as classical.  The cost-gated group wraps the
#: fusion rules it prices, so it counts with them.
PASS_METRIC = {
    **dict.fromkeys(FUSION_RULE_NAMES | {"semijoin_distinct_group"}, "optimizer.fusion_rules_ms"),
    "greedy_join_order": "optimizer.join_order_ms",
    "fact_simplify": "optimizer.fact_simplify_ms",
    "cross_query_reuse": "optimizer.cross_query_reuse_ms",
}

#: Bound fragment pairs for the ``fusion`` layer: the paper's §III
#: walkthrough shapes first, then pairs ``Fuse`` must refuse.
FRAGMENT_PAIRS: tuple[tuple[str, str, str], ...] = (
    ("scan_columns", "SELECT i_item_sk FROM item", "SELECT i_brand_id FROM item"),
    (
        "filters",
        "SELECT i_item_desc FROM item WHERE i_category = 'Music' AND i_brand_id > 900",
        "SELECT i_item_desc FROM item WHERE i_category = 'Music' AND i_brand_id < 50",
    ),
    (
        "filter_vs_none",
        "SELECT i_item_sk FROM item WHERE i_color = 'red'",
        "SELECT i_item_sk FROM item",
    ),
    (
        "projects",
        "SELECT i_current_price * 2 AS p FROM item WHERE i_size = 'small'",
        "SELECT i_current_price + 1 AS p FROM item WHERE i_size = 'large'",
    ),
    (
        "joins",
        "SELECT ss_quantity FROM store_sales JOIN item ON ss_item_sk = i_item_sk WHERE i_color = 'red'",
        "SELECT ss_list_price FROM store_sales JOIN item ON ss_item_sk = i_item_sk WHERE i_color = 'blue'",
    ),
    (
        "group_by_masks",
        "SELECT i_category_id, min(i_brand_id) AS mi FROM item WHERE i_color = 'red' GROUP BY i_category_id",
        "SELECT i_category_id, avg(i_current_price) FILTER (WHERE i_size = 'medium') AS avgp FROM item GROUP BY i_category_id",
    ),
    (
        "scalar_aggregates",
        "SELECT avg(ss_list_price) AS a FROM store_sales WHERE ss_quantity BETWEEN 0 AND 5",
        "SELECT avg(ss_list_price) AS a FROM store_sales WHERE ss_quantity BETWEEN 6 AND 10",
    ),
    (
        "distinct_aggregates",
        "SELECT count(DISTINCT ss_list_price) AS c FROM store_sales WHERE ss_quantity BETWEEN 0 AND 5",
        "SELECT count(DISTINCT ss_list_price) AS c FROM store_sales WHERE ss_quantity BETWEEN 6 AND 10",
    ),
    (
        "windows",
        "SELECT ss_item_sk, avg(ss_sales_price) OVER (PARTITION BY ss_store_sk) AS a FROM store_sales",
        "SELECT ss_item_sk, sum(ss_sales_price) OVER (PARTITION BY ss_store_sk) AS s FROM store_sales",
    ),
    (
        "group_by_over_join",
        "SELECT ss_store_sk, ss_item_sk, sum(ss_sales_price) AS revenue FROM store_sales, date_dim"
        " WHERE ss_sold_date_sk = d_date_sk AND d_month_seq BETWEEN 1200 AND 1211 GROUP BY ss_store_sk, ss_item_sk",
        "SELECT ss_store_sk, ss_item_sk, sum(ss_sales_price) AS revenue FROM store_sales, date_dim"
        " WHERE ss_sold_date_sk = d_date_sk AND d_month_seq BETWEEN 1200 AND 1211 GROUP BY ss_store_sk, ss_item_sk",
    ),
    (
        "sorts",
        "SELECT i_item_sk FROM item WHERE i_size = 'small' ORDER BY i_item_sk",
        "SELECT i_item_sk FROM item WHERE i_size = 'large' ORDER BY i_item_sk",
    ),
    ("unfusable_tables", "SELECT i_item_sk FROM item", "SELECT s_store_sk FROM store"),
    (
        "unfusable_keys",
        "SELECT i_category_id, count(*) AS c FROM item GROUP BY i_category_id",
        "SELECT i_brand_id, count(*) AS c FROM item GROUP BY i_brand_id",
    ),
    (
        "unfusable_joins",
        "SELECT ss_quantity FROM store_sales JOIN item ON ss_item_sk = i_item_sk",
        "SELECT ss_quantity FROM store_sales JOIN store ON ss_store_sk = s_store_sk",
    ),
    (
        "unfusable_limit",
        "SELECT i_item_sk FROM item ORDER BY i_item_sk LIMIT 5",
        "SELECT i_item_sk FROM item ORDER BY i_item_sk LIMIT 7",
    ),
)


class _Span:
    """Context manager recording one span into its tracer."""

    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> None:
        tracer = self.tracer
        self.record[2] = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(self.record[0])
        self.record[6] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[7] = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.close(self.record)


class Tracer:
    """In-memory spans and counts for one traced run (one thread)."""

    #: Span record layout: id, name, parent, query, rep, seq, start, end.

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        #: (query, name, seq) -> fastest repeat so far, milliseconds.
        self.best: dict[tuple, float] = {}

    def span(self, name: str, query: str | None = None, rep: int = 0, seq: int = 0) -> _Span:
        record = [len(self.spans), name, None, query, rep, seq, 0.0, 0.0]
        self.spans.append(record)
        return _Span(self, record)

    def close(self, record: list) -> None:
        _, name, _, query, _, seq, start, end = record
        key = (query, name, seq)
        ms = (end - start) * 1000.0
        if ms < self.best.get(key, float("inf")):
            self.best[key] = ms

    def add_span(self, name: str, start: float, end: float, query=None, parent=None) -> int:
        """A span observed elsewhere (the service's client threads)."""
        self.spans.append([len(self.spans), name, parent, query, 0, 0, start, end])
        self.close(self.spans[-1])
        return len(self.spans) - 1

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def durations_ms(self, name: str) -> list[float]:
        return [(s[7] - s[6]) * 1000.0 for s in self.spans if s[1] == name]

    def self_ms(self) -> dict[str, float]:
        """Span name -> total self time (duration minus child spans)."""
        child_ms: dict[int, float] = {}
        for _, _, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                child_ms[parent] = child_ms.get(parent, 0.0) + (end - start) * 1000.0
        out: dict[str, float] = {}
        for sid, name, _, _, _, _, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) * 1000.0 - child_ms.get(sid, 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[6] for s in self.spans), default=0.0)
        with path.open("w") as handle:
            for sid, name, parent, query, rep, seq, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid, "name": name, "parent": parent, "query": query,
                            "rep": rep, "seq": seq,
                            "start_us": round((start - origin) * 1e6, 1),
                            "end_us": round((end - origin) * 1e6, 1),
                        }
                    )
                    + "\n"
                )
            for name, ms in sorted(self.self_ms().items()):
                handle.write(json.dumps({"self_ms": name, "value": round(ms, 3)}) + "\n")
            for name, value in sorted(self.counts.items()):
                handle.write(json.dumps({"count": name, "value": value}) + "\n")


def run_engine(engine: str, plan, ctx: RunContext, config: OptimizerConfig) -> list[tuple]:
    if engine == "batch":
        return list(execute_batch(plan, ctx, block_rows=config.batch_rows))
    if engine == "compiled":
        return list(
            execute_compiled(plan, ctx, block_rows=config.batch_rows, vectors=config.vectors)
        )
    return list(execute(plan, ctx))


class TracedRun:
    """One workload's traced run; ``run()`` returns every per-layer metric."""

    #: Shares of ``--seconds`` given to the staged/plain loop and to
    #: the load run on the service.
    LOOP_SHARE = 0.5
    SERVICE_SHARE = 0.3
    #: Operations of the service's stream replayed on a bare session.
    REPLAY_OPS = 640

    def __init__(
        self, prepared: Prepared, seed: int, seconds: float, repeats: int = 2,
        worker_cpus: list[int] | None = None,
    ):
        self.prepared = prepared
        #: Repeats of every probe (the fastest counts); the staged/plain
        #: loop makes at least one pass more.  ``--smoke`` lowers it.
        self.repeats = repeats
        #: CPUs the parallel probe's workers may use (the process itself
        #: is pinned to one; two workers on one CPU would measure nothing).
        self.worker_cpus = worker_cpus or []
        self.workload = prepared.workload
        self.store = prepared.store
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.values: dict[str, float] = {}
        #: Wall time of each phase of the traced run, for budgeting.
        self.phase_s: dict[str, float] = {}
        #: Query name -> optimized cache-free serial plan, for the probes.
        self.plans: dict[str, object] = {}
        config = self.workload.config
        #: The session the staged loop borrows catalog and cache from.
        self.session = Session(self.store, config)
        self.catalog = self.session.catalog
        #: Engine and storage probes run on cache-free serial plans, so
        #: they time the engines and not the cache in front of them.
        self.probe_config = replace(config, enable_plan_cache=False, workers=1)
        self.retry_policy = RetryPolicy(
            max_retries=config.max_retries,
            base_delay_ms=config.retry_base_delay_ms,
            seed=config.fault_seed,
        )
        self.limits = ResourceLimits(
            timeout_ms=config.timeout_ms,
            max_spool_rows=config.max_spool_rows,
            max_state_rows=config.max_state_rows,
        )

    # -- helpers -----------------------------------------------------------

    def check(self, name: str, rows: list[tuple]) -> None:
        self.attempted += 1
        if not rows_match(rows, self.prepared.reference[name]):
            self.failed += 1

    def sum_min(self, *names: str) -> float:
        """Sum over (query, seq) of the fastest repeat of the named spans."""
        return sum(ms for (_, name, _), ms in self.tracer.best.items() if name in names)

    def bound_plan(self, sql: str):
        return Binder(self.catalog).bind(parse(sql)).plan

    def optimized(self, sql: str, config: OptimizerConfig, **kw):
        plan, _ = optimize(self.bound_plan(sql), self.catalog, config, **kw)
        return plan

    # -- the staged pipeline (what Session.execute does, span by span) ------

    def staged_execute(self, name: str, sql: str, rep: int):
        tr = self.tracer
        config = self.session.config
        cache = self.session.plan_cache
        with tr.span("query", name, rep):
            with tr.span("sql.parse", name, rep):
                tree = parse(sql)
            with tr.span("sql.bind", name, rep):
                bound = Binder(self.catalog).bind(tree)
            try:
                with tr.span("optimizer.context", name, rep):
                    ctx = OptimizerContext(self.catalog, config, plan_cache=cache)
                with tr.span("optimizer.build_pipeline", name, rep):
                    passes = build_pipeline(config)
                plan = bound.plan
                for seq, plan_pass in enumerate(passes):
                    with tr.span("optimizer.pass." + plan_pass.name, name, rep, seq):
                        plan = plan_pass.run(plan, ctx)
                with tr.span("engine.context", name, rep):
                    run_ctx = RunContext(
                        self.store, plan_cache=cache,
                        retry_policy=self.retry_policy, limits=self.limits,
                    )
                with tr.span(f"engine.{config.engine}.run", name, rep):
                    rows = run_engine(config.engine, plan, run_ctx, config)
            finally:
                if cache is not None:
                    cache.release_pins()
        if rep == 0:
            fired = [f for f in ctx.fired if not f.endswith(".cost_declined")]
            tr.count("sql.plan_nodes", sum(1 for _ in walk_plan(bound.plan)))
            tr.count("optimizer.plan_nodes_out", sum(1 for _ in walk_plan(plan)))
            tr.count("optimizer.rules_fired", len(fired))
            tr.count("optimizer.fusion_rules_fired", sum(f in FUSION_RULE_NAMES for f in fired))
            tr.count("optimizer.cost_declined", len(ctx.fired) - len(fired))
            tr.count("engine.rows_scanned", run_ctx.metrics.rows_scanned)
            tr.count("engine.total_state_rows", run_ctx.metrics.total_state_rows)
            tr.counts["engine.peak_state_rows"] = max(
                tr.counts.get("engine.peak_state_rows", 0), run_ctx.metrics.peak_state_rows
            )
        self.check(name, rows)

    def pipeline_loop(self) -> None:
        """Every query staged span by span, then the same query through
        ``Session.execute`` untraced (the denominator of coverage and
        overhead), turn and turn about: the host changes speed every
        few seconds, and two loops one after the other would each see a
        different host."""
        queries = self.workload.queries
        if self.session.plan_cache is not None:
            # The service serves from a warm cache; stage that path.
            for sql in queries.values():
                self.session.execute(sql)
        plain = Samples()
        deadline = time.perf_counter() + self.seconds * self.LOOP_SHARE
        rep = 0
        while rep <= self.repeats or time.perf_counter() < deadline:
            for name, sql in queries.items():
                gc.collect()
                sample()  # the untraced runs calibrate here: start from the same cache state
                self.staged_execute(name, sql, rep)
                with self.tracer.span("sql.lex", name, rep):
                    tokens = tokenize(sql)
                if rep == 0:
                    self.tracer.count("sql.tokens", len(tokens))
                gc.collect()
                sample()
                timed_execute(self.session, name, rep, sql, self.prepared.reference, plain)
            rep += 1
        self.attempted += plain.attempted
        self.failed += plain.failed
        self.pipeline_metrics(plain)

    def pipeline_metrics(self, plain: Samples) -> None:
        v = self.values
        lex = self.sum_min("sql.lex")
        v["sql.lex_ms"] = lex
        # parse() tokenizes internally; the lexer's share is probed apart.
        v["sql.parse_ms"] = self.sum_min("sql.parse") - lex
        v["sql.bind_ms"] = self.sum_min("sql.bind")
        passes = {
            key: ms for key, ms in self.tracer.best.items()
            if key[1].startswith("optimizer.pass.")
        }
        groups = dict.fromkeys(["optimizer.classical_ms", *PASS_METRIC.values()], 0.0)
        for (_, name, _), ms in passes.items():
            pass_name = name.removeprefix("optimizer.pass.")
            groups[PASS_METRIC.get(pass_name, "optimizer.classical_ms")] += ms
        v.update(groups)
        v["optimizer.total_ms"] = sum(passes.values()) + self.sum_min(
            "optimizer.context", "optimizer.build_pipeline"
        )
        engine_ms = self.sum_min("engine.context", f"engine.{self.session.config.engine}.run")
        latency = plain.by_query(normalised=False)
        suite_ms = sum(min(ms) for ms in latency.values())
        staged_ms = (
            v["sql.parse_ms"] + lex + v["sql.bind_ms"] + v["optimizer.total_ms"] + engine_ms
        )
        v["session.execute_ms_p50"] = sum(statistics.median(ms) for ms in latency.values())
        v["session.execute_ms_p90"] = percentile(sorted(op.ms for op in plain.ops), 0.9)
        v["trace.coverage"] = staged_ms / suite_ms
        v["trace.residual_ms"] = suite_ms - staged_ms
        v["trace.overhead_share"] = self.sum_min("query") / suite_ms - 1.0
        for name in (
            "sql.tokens", "sql.plan_nodes", "optimizer.plan_nodes_out", "optimizer.rules_fired",
            "optimizer.fusion_rules_fired", "optimizer.cost_declined", "engine.rows_scanned",
            "engine.total_state_rows", "engine.peak_state_rows",
        ):
            v[name] = self.tracer.counts.get(name, 0)

    # -- layer probes ------------------------------------------------------

    def probe_optimizer_models(self) -> None:
        """Price and estimate each optimized plan on fresh (unmemoized)
        models: what one ``CostModel.cost`` / ``estimate`` call costs."""
        for rep in range(self.repeats):
            for name, plan in self.plans.items():
                estimator = CardinalityEstimator(self.catalog)
                with self.tracer.span("optimizer.stats.estimate", name, rep):
                    estimator.estimate(plan)
                model = CostModel(self.catalog, CardinalityEstimator(self.catalog))
                with self.tracer.span("optimizer.cost.price", name, rep):
                    model.cost(plan)
        self.values["optimizer.stats.estimate_ms"] = self.sum_min("optimizer.stats.estimate")
        # cost() estimates on its own fresh estimator; report pricing alone.
        self.values["optimizer.cost.price_ms"] = (
            self.sum_min("optimizer.cost.price") - self.values["optimizer.stats.estimate_ms"]
        )

    def probe_fusion(self) -> None:
        binder = Binder(self.catalog)
        fuser = Fuser(self.catalog.allocator)
        fused = 0
        for rep in range(self.repeats):
            for label, left_sql, right_sql in FRAGMENT_PAIRS:
                left, right = binder.bind_sql(left_sql).plan, binder.bind_sql(right_sql).plan
                with self.tracer.span("fusion.fuse", label, rep):
                    result = fuser.fuse(left, right)
                if rep == 0 and result is not None:
                    fused += 1
        self.values["fusion.fuse_ms"] = self.sum_min("fusion.fuse")
        self.values["fusion.fuse_success_share"] = fused / len(FRAGMENT_PAIRS)

    def probe_fingerprint(self) -> None:
        for rep in range(self.repeats):
            for name, sql in self.workload.queries.items():
                # The digest is memoized on the node: a fresh plan each time.
                plan = self.optimized(sql, self.probe_config)
                with self.tracer.span("algebra.fingerprint", name, rep):
                    plan_fingerprint(plan)
        self.values["algebra.fingerprint_ms"] = self.sum_min("algebra.fingerprint")

    def probe_engines(self) -> None:
        tr = self.tracer
        config = self.probe_config
        for engine, span in (("batch", "engine.batch.execute"), ("row", "engine.row.execute")):
            for rep in range(self.repeats):
                for name, plan in self.plans.items():
                    gc.collect()
                    ctx = RunContext(self.store)
                    with tr.span(span, name, rep):
                        rows = run_engine(engine, plan, ctx, config)
                    self.check(name, rows)
            self.values[span + "_ms"] = self.sum_min(span)
        compiled = 0
        for rep in range(self.repeats):
            for name, sql in self.workload.queries.items():
                # The kernel cache is keyed by plan identity: a plan
                # object never executed before compiles every pipeline.
                plan = self.optimized(sql, config)
                for span in ("engine.compiled.execute_cold", "engine.compiled.execute_warm"):
                    gc.collect()
                    ctx = RunContext(self.store)
                    with tr.span(span, name, rep):
                        rows = run_engine("compiled", plan, ctx, replace(config, vectors="numpy"))
                    self.check(name, rows)
                    if rep == 0 and span.endswith("cold"):
                        compiled += ctx.metrics.pipelines_compiled
        cold = self.sum_min("engine.compiled.execute_cold")
        warm = self.sum_min("engine.compiled.execute_warm")
        self.values["engine.compiled.execute_cold_ms"] = cold
        self.values["engine.compiled.execute_warm_ms"] = warm
        self.values["engine.compiled.compile_ms"] = cold - warm
        self.values["engine.pipelines_compiled"] = compiled

    def probe_parallel(self) -> None:
        config = replace(self.probe_config, workers=2)
        counts = {
            table.name.lower(): self.store.partition_count(table.name)
            for table in self.catalog.tables()
            if self.store.has(table.name)
        }
        plans = {
            name: self.optimized(sql, config, partition_counts=counts)
            for name, sql in self.workload.queries.items()
        }
        pinned = os.sched_getaffinity(0) if self.worker_cpus else None
        if pinned is not None:
            os.sched_setaffinity(0, self.worker_cpus)  # inherited by the forked workers
        pool = WorkerPool(self.store, config.workers)
        try:
            for rep in range(self.repeats):
                for name, plan in plans.items():
                    gc.collect()
                    ctx = RunContext(self.store)
                    with self.tracer.span("engine.parallel.execute", name, rep):
                        execute_parallel(plan, ctx, config, pool)
                        rows = run_engine(config.engine, plan, ctx, config)
                    self.check(name, rows)
        finally:
            pool.close()
            if pinned is not None:
                os.sched_setaffinity(0, pinned)
        self.values["engine.parallel.execute_ms"] = self.sum_min("engine.parallel.execute")

    def probe_plan_cache(self) -> None:
        """Cold (populate) and warm (replay) passes over a fresh cache."""
        config = replace(self.probe_config, enable_plan_cache=True)
        hits = misses = evictions = 0
        saved = 0.0
        for rep in range(self.repeats):
            with Session(self.store, config) as session:
                for span in ("engine.plan_cache.cold", "engine.plan_cache.warm"):
                    for name, sql in self.workload.queries.items():
                        gc.collect()
                        with self.tracer.span(span, name, rep):
                            result = session.execute(sql)
                        self.check(name, result.rows)
                        if rep == 0 and span.endswith("warm"):
                            saved += result.metrics.cache_bytes_saved
                if rep == 0:
                    stats = session.plan_cache.stats
                    hits, misses, evictions = stats.hits, stats.misses, stats.evictions
        v = self.values
        v["engine.plan_cache.cold_ms"] = self.sum_min("engine.plan_cache.cold")
        v["engine.plan_cache.warm_ms"] = self.sum_min("engine.plan_cache.warm")
        v["engine.plan_cache.hit_rate"] = hits / max(1, hits + misses)
        v["engine.plan_cache.bytes_saved_mb"] = saved / 1e6
        v["engine.plan_cache.evictions"] = evictions

    def probe_storage(self) -> None:
        """Full scans of the fact-table columns the workload references."""
        columns: dict[str, set[str]] = {}
        for plan in self.plans.values():
            for node in walk_plan(plan):
                if isinstance(node, Scan) and node.table.lower() in FACT_TABLES:
                    columns.setdefault(node.table.lower(), set()).update(node.source_names)
        scanned = ScanAccounting()
        for rep in range(self.repeats):
            for table, names in sorted(columns.items()):
                for span, as_vectors in (("storage.scan", False), ("storage.scan_vectors", True)):
                    accounting = scanned if (rep == 0 and not as_vectors) else ScanAccounting()
                    with self.tracer.span(span, table, rep):
                        for _ in self.store.scan_blocks(
                            table, sorted(names), accounting,
                            block_rows=self.probe_config.batch_rows, as_vectors=as_vectors,
                        ):
                            pass
        v = self.values
        v["storage.scan_ms"] = self.sum_min("storage.scan")
        v["storage.scan_vectors_ms"] = self.sum_min("storage.scan_vectors")
        v["storage.scan_mb_per_s"] = scanned.bytes_scanned / 1e6 / (v["storage.scan_ms"] / 1000.0)
        v["storage.partitions_read"] = scanned.partitions_read

    def probe_admission(self) -> None:
        controller = AdmissionController(
            default_quota=TenantQuota(rate_per_s=1e9, burst=10**9)
        )
        calls = 2000
        for rep in range(5):
            with self.tracer.span("server.admission", None, rep):
                for _ in range(calls):
                    controller.admit("tenant")
                    controller.on_dequeue()
                    controller.release("tenant")
        self.values["server.admission_us"] = self.sum_min("server.admission") * 1000.0 / calls

    def probe_service(self) -> None:
        """Queueing and service overhead, from a load run on the service
        (zeros on the serial workloads, which never touch the server)."""
        v = self.values
        if self.workload.kind != "service":
            v.update(
                (name, 0.0) for name in PER_LAYER
                if name.startswith("server.") and name != "server.admission_us"
            )
            return
        service = self.prepared.target
        samples = run_service(self.prepared, self.seed, self.seconds * self.SERVICE_SHARE)
        self.attempted += samples.attempted
        self.failed += samples.failed
        for op in samples.ops:
            span = self.tracer.add_span("server.execute", op.start, op.start + op.ms / 1000.0, op.name)
            self.tracer.add_span(
                "server.queue_wait", op.start, op.start + op.queue_wait_ms / 1000.0, op.name, span
            )
        waits = sorted(op.queue_wait_ms for op in samples.ops)
        pooled = sorted(op.ms for op in samples.ops)
        v["server.queue_wait_ms_p50"] = percentile(waits, 0.5)
        v["server.queue_wait_ms_p99"] = percentile(waits, 0.99)
        v["server.query_ms_p50"] = percentile(pooled, 0.5)
        v["server.query_ms_p99"] = percentile(pooled, 0.99)
        v["server.overhead_ms"] = percentile(pooled, 0.5) - self.replay_median(samples.ops)
        snapshot = service.metrics()
        v["server.rejected"] = snapshot["admission"]["rejected"]
        v["server.demotions"] = snapshot["degradations"]
        v["server.shared_hits"] = snapshot["shared_hits"]
        cache = snapshot["plan_cache"]
        v["server.cache_hit_rate"] = cache["hits"] / max(1, cache["hits"] + cache["misses"])

    def replay_median(self, ops) -> float:
        """Median latency of the stream the service just served (first
        ``REPLAY_OPS`` operations, invalidations included) on one warm
        ``Session``: the service's path minus the server."""
        queries = self.workload.queries
        for op in sorted(ops, key=lambda op: op.number)[: self.REPLAY_OPS]:
            if op.number % INVALIDATE_EVERY == 0:
                table = FACT_TABLES[op.number // INVALIDATE_EVERY % len(FACT_TABLES)]
                self.session.plan_cache.invalidate_table(table)
            with self.tracer.span("session.replay", op.name, op.number):
                result = self.session.execute(queries[op.name])
            self.check(op.name, result.rows)
        return statistics.median(self.tracer.durations_ms("session.replay"))

    def probe_paper(self) -> None:
        """Figures 1 and 2 on this workload's data: the studied queries
        under the default fused and the unfused configuration."""
        fused = Session(self.store, OptimizerConfig())
        baseline = Session(self.store, OptimizerConfig(enable_fusion=False))
        bytes_scanned = {"paper.fused": {}, "paper.baseline": {}}
        for rep in range(self.repeats):
            for name, sql in STUDIED_QUERIES.items():
                for span, session in (("paper.fused", fused), ("paper.baseline", baseline)):
                    gc.collect()
                    with self.tracer.span(span, name, rep):
                        result = session.execute(sql)
                    bytes_scanned[span][name] = result.metrics.bytes_scanned
                    self.check(name, result.rows)
        best = self.tracer.best
        v = self.values
        for name in STUDIED_QUERIES:
            v[f"paper.fig1.{name}"] = best[(name, "paper.fused", 0)] / best[(name, "paper.baseline", 0)]
            v[f"paper.fig2.{name}"] = (
                bytes_scanned["paper.fused"][name] / bytes_scanned["paper.baseline"][name]
            )
        v["paper.fig1_latency_ratio"] = self.sum_min("paper.fused") / self.sum_min("paper.baseline")
        v["paper.fig2_bytes_fraction"] = sum(bytes_scanned["paper.fused"].values()) / sum(
            bytes_scanned["paper.baseline"].values()
        )

    # -- driver ------------------------------------------------------------

    def make_plans(self) -> None:
        self.plans = {
            name: self.optimized(sql, self.probe_config)
            for name, sql in self.workload.queries.items()
        }

    def run(self) -> dict[str, float]:
        gc.collect()
        gc.freeze()
        phases = (
            self.pipeline_loop, self.make_plans, self.probe_optimizer_models,
            self.probe_fusion, self.probe_fingerprint, self.probe_engines, self.probe_parallel,
            self.probe_plan_cache, self.probe_storage, self.probe_admission, self.probe_service,
            self.probe_paper,
        )
        for phase in phases:
            started = time.perf_counter()
            phase()
            self.phase_s[phase.__name__] = round(time.perf_counter() - started, 3)
        self.session.close()
        v = self.values
        v["tpcds.generate_s"] = self.prepared.generate_s
        v["tpcds.rows_total"] = sum(
            self.store.stored_table(table.name).row_count for table in self.catalog.tables()
        )
        v["failed_share"] = self.failed / max(1, self.attempted)
        return v
