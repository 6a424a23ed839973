"""Optimizer configuration.

``OptimizerConfig`` selects which rule groups run, mirroring the
paper's experimental setup: the *baseline* is the engine's standard
rule set ("Athena's default production configuration"), and the
*instrumented* compiler additionally enables the fusion-based rules of
§IV.  Per-rule flags support the ablation tests.

``fusion_min_rows`` is the §IV.E cost heuristic: fusion rewrites fire
only when the common subexpression is estimated expensive — it
contains a join/aggregation or scans at least this many rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class OptimizerConfig:
    """Feature switches and heuristics for one optimization pipeline."""

    #: Master switch for the paper's fusion-based rules (§IV).
    enable_fusion: bool = True
    #: §IV.A GroupByJoinToWindow.
    enable_groupby_join_to_window: bool = True
    #: §IV.B JoinOnKeys (including the scalar-aggregate special case).
    enable_join_on_keys: bool = True
    #: §IV.C UnionAllOnJoin.
    enable_union_all_on_join: bool = True
    #: §IV.D UnionAll.
    enable_union_all: bool = True
    #: Cost heuristic (§IV.E): minimum estimated input rows of the
    #: common expression for a fusion rewrite to be worthwhile.  The
    #: default of 1 fires on anything that scans stored data but not on
    #: constant-table expressions; tests/test_pipeline.py raises it.
    fusion_min_rows: int = 1
    #: Spool duplicated common subexpressions that fusion did not
    #: eliminate (the paper's stated roadmap fallback).  Off by default:
    #: the paper's engine does not have it yet, and tests/test_spooling.py
    #: compares fusion vs spooling explicitly.
    enable_spooling: bool = False
    #: Execution backend: ``"batch"`` streams ~``batch_rows``-row
    #: column blocks through vectorized operators (the default — it
    #: amortizes the interpreter's per-row overhead); ``"row"`` is the
    #: original tuple-at-a-time streaming executor; ``"compiled"``
    #: runs the batch operators over NumPy vector blocks, plus an
    #: array equi-join (repro.engine.compiled, DESIGN.md §11).
    #: All three produce identical results and scan/spool metrics
    #: (tests/test_engine_ab.py); compiled with NumPy vectors carries
    #: the usual float summation-order latitude.
    engine: str = "batch"
    #: Rows per block for the batch and compiled engines.
    batch_rows: int = 1024
    #: Vector representation for ``engine="compiled"``: ``"numpy"``
    #: backs eligible column blocks with ndarrays + validity masks
    #: (silently degrading to Python lists when NumPy is missing or
    #: ``REPRO_DISABLE_NUMPY`` is set); ``"python"`` keeps lists,
    #: which makes the engine the batch engine itself.
    vectors: str = "numpy"
    #: Record a per-operator wall-time breakdown into
    #: ``QueryMetrics.operator_times`` (the CLI's ``--profile``).
    profile: bool = False
    #: Cross-query computation reuse: fingerprint subplans and replace
    #: any whose result is already in the session's plan cache with a
    #: CachedScan, populating promising subplans on first execution
    #: (repro.engine.plan_cache).  Off by default — reuse across
    #: queries only pays off for sessions that repeat work (the
    #: ``service_mixed`` workload of benchmarks/e2e).
    enable_plan_cache: bool = False
    #: Byte budget of the plan cache (LRU evicts beyond it).
    cache_budget_mb: float = 64.0
    #: Maximum subplans scheduled for cache population per query —
    #: bounds the materialization overhead of a cold first run.
    cache_max_populate: int = 4
    #: Fault tolerance (see repro.storage.faults and DESIGN.md §9).
    #: Fraction of chunk-read sites that fail transiently; > 0 makes
    #: the session install a deterministic FaultInjector on its store.
    fault_rate: float = 0.0
    #: Seed for the fault injector and retry jitter.
    fault_seed: int = 7
    #: Bounded retries of transient read faults (0 = surface the first
    #: fault as a TransientReadError).
    max_retries: int = 3
    #: Base delay of the exponential retry backoff.
    retry_base_delay_ms: float = 1.0
    #: Per-query deadline, enforced cooperatively at block boundaries
    #: (None = no deadline; 0 times out at the first boundary).
    timeout_ms: float | None = None
    #: Row budget for any single materialized intermediate (spools,
    #: plan-cache populations); None = unlimited.
    max_spool_rows: int | None = None
    #: Budget for total resident operator state in rows — the memory
    #: stand-in covering join builds, aggregation hash tables, sorts.
    max_state_rows: int | None = None
    #: Verify chunk content checksums on every read (and plan-cache
    #: entry checksums on every replay).
    verify_checksums: bool = True
    #: Strict block mode for tests/CI: "copy" hands out copied vectors,
    #: "verify" re-checks all stored chunks after each query (None =
    #: zero-copy fast path, no post-query sweep).
    strict_blocks: str | None = None
    #: Run the plan invariant validator
    #: (:func:`repro.algebra.validator.validate_plan`) on the pipeline
    #: input and after every pass that changes the plan, re-derive the
    #: abstract-interpretation column facts
    #: (:mod:`repro.algebra.analysis`) after each change and fail on a
    #: fact contradiction, and check the §III fusion contract after
    #: every successful ``Fuse``.  Errors name the offending rule.  Off
    #: by default (it costs a full tree walk plus a fact derivation per
    #: pass); the differential fuzzer and CI turn it on.
    validate_plans: bool = False
    #: Scale-out execution inside one process (DESIGN.md §13): with
    #: ``workers > 1`` the optimizer appends the ParallelPlan pass,
    #: which cuts partition-parallel subtrees out of the optimized plan
    #: with Exchange/Repartition markers, and the session dispatches
    #: those fragments to a persistent multiprocessing worker pool.
    #: ``workers == 1`` (the default) never inserts an Exchange and is
    #: byte-for-byte the serial engine.
    workers: int = 1
    #: Simulated object-store read latency, milliseconds per partition
    #: read (the S3 GET regime Athena's scans live in).  Parallel
    #: workers overlap these waits, which is the latency-hiding effect
    #: ``benchmarks/bench_parallel.py`` measures; 0 disables the sleep.
    io_latency_ms: float = 0.0
    #: Per-fragment fault domain: how many times a failed fragment is
    #: resubmitted (on a different worker when possible) before the
    #: query fails.
    fragment_retries: int = 2
    #: Stall detection: a dispatched fragment with no result after this
    #: many milliseconds is speculatively resubmitted to another worker
    #: (first result wins).  None disables speculation.
    fragment_timeout_ms: float | None = None
    #: Cost-based rewrite selection (ROADMAP item 3, DESIGN.md §15):
    #: price fusion candidates, the semi-join conversion block, join
    #: order, and cache-populate placement with the CostModel (bytes
    #: scanned + rows processed over memoized cardinality estimates)
    #: and fire only the alternatives that price no worse, instead of
    #: relying on the §IV.E heuristics alone.  Plan choice changes;
    #: results never do — the fuzzer's costed axis enforces it.
    cost_based: bool = False
    #: When True, distinct aggregates are lowered to MarkDistinct
    #: *before* the fusion rules run, exercising §III.F's MarkDistinct
    #: fusion on e.g. TPC-DS Q28.  The default lowers after fusion,
    #: which produces the same results with cheaper plans (fusion then
    #: merges the distinct flags directly);
    #: tests/test_integration_tpcds.py holds both orders to the same rows.
    lower_distinct_before_fusion: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ("row", "batch", "compiled"):
            raise ValueError(
                f"unknown engine {self.engine!r}: expected 'row', 'batch' "
                "or 'compiled'"
            )
        if self.vectors not in ("python", "numpy"):
            raise ValueError(
                f"unknown vectors {self.vectors!r}: expected 'python' or 'numpy'"
            )
        if self.batch_rows <= 0:
            raise ValueError("batch_rows must be positive")
        if self.cache_budget_mb <= 0:
            raise ValueError("cache_budget_mb must be positive")
        if self.cache_max_populate < 0:
            raise ValueError("cache_max_populate must be non-negative")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_base_delay_ms < 0:
            raise ValueError("retry_base_delay_ms must be non-negative")
        if self.timeout_ms is not None and self.timeout_ms < 0:
            raise ValueError("timeout_ms must be non-negative")
        if self.max_spool_rows is not None and self.max_spool_rows <= 0:
            raise ValueError("max_spool_rows must be positive")
        if self.max_state_rows is not None and self.max_state_rows <= 0:
            raise ValueError("max_state_rows must be positive")
        if self.strict_blocks not in (None, "copy", "verify"):
            raise ValueError(
                f"strict_blocks must be None, 'copy' or 'verify', "
                f"got {self.strict_blocks!r}"
            )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.io_latency_ms < 0:
            raise ValueError("io_latency_ms must be non-negative")
        if self.fragment_retries < 0:
            raise ValueError("fragment_retries must be non-negative")
        if self.fragment_timeout_ms is not None and self.fragment_timeout_ms <= 0:
            raise ValueError("fragment_timeout_ms must be positive")

    def fusion_rules_enabled(self) -> bool:
        return self.enable_fusion and (
            self.enable_groupby_join_to_window
            or self.enable_join_on_keys
            or self.enable_union_all_on_join
            or self.enable_union_all
        )

    def without_fusion(self) -> "OptimizerConfig":
        """The baseline configuration: same classical rules, no §IV."""
        return replace(self, enable_fusion=False)


#: The paper's baseline: production rules without the new optimizations.
BASELINE = OptimizerConfig(enable_fusion=False)

#: The instrumented compiler: all fusion rules on.
FUSION = OptimizerConfig(enable_fusion=True)
