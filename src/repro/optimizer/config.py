"""Optimizer configuration.

``OptimizerConfig`` selects which rule groups run, mirroring the
paper's experimental setup: the *baseline* is the engine's standard
rule set ("Athena's default production configuration"), and the
*instrumented* compiler additionally enables the fusion-based rules of
§IV.  The §IV.E gate on fusion is a fixed heuristic, not an option
(:meth:`repro.optimizer.context.OptimizerContext.worth_fusing`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar


@dataclass(frozen=True)
class OptimizerConfig:
    """Feature switches and heuristics for one optimization pipeline."""

    #: Master switch for the paper's fusion-based rules (§IV).
    enable_fusion: bool = True
    #: Execution backend: ``"batch"`` — the block engine — streams
    #: column blocks through vectorized operators (the default: it
    #: amortizes the interpreter's per-row overhead);
    #: ``"row"`` is the original tuple-at-a-time streaming executor.
    #: The vector path's former engine name, compiled, is normalized to
    #: ``"batch"`` on construction.  Both engines produce bit-identical
    #: results and identical scan metrics
    #: (tests/test_engine_ab.py, DESIGN.md §11).
    engine: str = "batch"
    #: The most rows a block of the block engine holds.  A scan the
    #: plan drains whole hands out runs of partition chunks up to this
    #: size; under a LIMIT or a scalar subquery it hands out one chunk,
    #: or a slice of one, per block (DESIGN.md §7).  Large, because an
    #: operator's cost is per block far more than per row.
    batch_rows: int = 1 << 16
    #: Column representation of the block engine: ``"numpy"`` backs
    #: eligible column blocks with ndarrays + validity masks;
    #: ``"python"`` keeps lists.
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
    #: Seed for the retry jitter (DESIGN.md §9).  Faults are the
    #: store's: a chaos caller sets ``store.fault_injector`` itself.
    fault_seed: int = 7
    #: Bounded retries of transient read faults (0 = surface the first
    #: fault as a TransientReadError).
    max_retries: int = 3
    #: Base delay of the exponential retry backoff: a constant, not a
    #: field, since no caller sets it.
    retry_base_delay_ms: ClassVar[float] = 1.0
    #: Per-query deadline, enforced cooperatively at block boundaries
    #: (None = no deadline; 0 times out at the first boundary).
    timeout_ms: float | None = None
    #: Row budget for any single plan-cache population; None =
    #: unlimited.
    max_spool_rows: int | None = None
    #: Budget for total resident operator state in rows — the memory
    #: stand-in covering join builds, aggregation hash tables, sorts.
    max_state_rows: int | None = None
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
    #: which wraps each partition-parallel scan pipeline of the
    #: optimized plan in an Exchange, and the session dispatches those
    #: fragments to a persistent multiprocessing worker pool.
    #: ``workers == 1`` (the default) never inserts an Exchange and is
    #: byte-for-byte the serial engine.
    workers: int = 1
    #: Cost-based rewrite selection (ROADMAP item 3, DESIGN.md §15):
    #: price fusion candidates, the semi-join conversion block, join
    #: order, and cache-populate placement with the CostModel (bytes
    #: scanned + rows processed over memoized cardinality estimates)
    #: and fire only the alternatives that price no worse, instead of
    #: relying on the §IV.E heuristics alone.  Plan choice changes;
    #: results never do — the fuzzer's costed axis enforces it.
    cost_based: bool = False

    def __post_init__(self) -> None:
        if self.engine == "compiled":  # the vector path's former name
            object.__setattr__(self, "engine", "batch")
        if self.engine not in ("row", "batch"):
            raise ValueError(f"unknown engine {self.engine!r}: expected 'row' or 'batch'")
        if self.vectors not in ("python", "numpy"):
            raise ValueError(
                f"unknown vectors {self.vectors!r}: expected 'python' or 'numpy'"
            )
        if self.batch_rows <= 0:
            raise ValueError("batch_rows must be positive")
        if self.cache_budget_mb <= 0:
            raise ValueError("cache_budget_mb must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.timeout_ms is not None and self.timeout_ms < 0:
            raise ValueError("timeout_ms must be non-negative")
        if self.max_spool_rows is not None and self.max_spool_rows <= 0:
            raise ValueError("max_spool_rows must be positive")
        if self.max_state_rows is not None and self.max_state_rows <= 0:
            raise ValueError("max_state_rows must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def without_fusion(self) -> "OptimizerConfig":
        """The baseline configuration: same classical rules, no §IV."""
        return replace(self, enable_fusion=False)


#: The paper's baseline: production rules without the new optimizations.
BASELINE = OptimizerConfig(enable_fusion=False)

#: The instrumented compiler: all fusion rules on.
FUSION = OptimizerConfig(enable_fusion=True)
