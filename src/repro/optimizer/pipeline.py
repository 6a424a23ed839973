"""Optimization pipelines.

:func:`build_pipeline` assembles the pass list for a configuration.
The *baseline* pipeline is the classical rule set (what the paper calls
"Athena's default production configuration"); enabling fusion splices
the §IV rules in at the positions the paper describes:

* fusion's join rules run over flattened n-ary joins *before* any join
  restructuring (§IV.E);
* UnionAllOnJoin runs before the generic UnionAll rule (it produces
  strictly better plans for the join-shaped case and the generic rule
  would not match the differing-table branches anyway);
* the semi-join → distinct-join conversion and distinct pushdown (the
  §V.D enablers) are classical rules present in both pipelines; the
  fusion pipeline's JoinOnKeys then removes the duplicated distinct;
* a joint ``Cleanup`` fixpoint (expression folding, trivial filters,
  projection merging, empty union branches), pushdown and pruning
  re-run after fusion so compensating filters reach the scans and dead
  columns disappear.
"""

from __future__ import annotations

from repro.algebra.operators import PlanNode
from repro.catalog.catalog import Catalog
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.cost import CostGatedGroup
from repro.optimizer.parallel_plan import ParallelPlan
from repro.optimizer.fusion_rules import (
    GroupByJoinToWindow,
    JoinOnKeys,
    UnionAllFusion,
    UnionAllOnJoin,
)
from repro.optimizer.rewrites import (
    Cleanup,
    CrossQueryReuse,
    DecorrelateScalarAggregates,
    DistinctPushdown,
    FactorAggregateMasks,
    FactSimplify,
    GreedyJoinOrder,
    LowerDistinctAggregates,
    PredicatePushdown,
    ProjectionPruning,
    RemoveScalarSubqueries,
    SemiJoinToDistinctJoin,
)
from repro.optimizer.rule import PlanPass, run_pipeline


def build_pipeline(config: OptimizerConfig) -> list[PlanPass]:
    """The ordered pass list for ``config``."""
    passes: list[PlanPass] = [
        Cleanup(),
        RemoveScalarSubqueries(),
        DecorrelateScalarAggregates(),
        Cleanup(),
        PredicatePushdown(),
        ProjectionPruning(),
        # Derived-fact folding runs after pushdown so predicates sit
        # next to the scans whose statistics decide them.
        FactSimplify(),
    ]
    semijoin: list[PlanPass] = [SemiJoinToDistinctJoin(), Cleanup(), DistinctPushdown()]
    if config.enable_fusion:
        passes += [UnionAllOnJoin(), UnionAllFusion()]
        semijoin += [GroupByJoinToWindow(), JoinOnKeys()]
    if config.cost_based:
        # Cost mode (DESIGN.md §15): the semi-join → distinct-join
        # conversion is an *enabler* — locally a pessimization whose
        # payoff is the JoinOnKeys fusion it unlocks — so it is priced
        # as one group with the fusion rules behind it.  The rest of
        # the block then re-runs outside the group (idempotent when the
        # group already fused) so a declined conversion does not starve
        # independent fusion opportunities or lose the cleanups.
        passes.append(CostGatedGroup("semijoin_distinct_group", semijoin))
        semijoin = semijoin[1:]
    passes += semijoin
    passes += [
        FactorAggregateMasks(),
        LowerDistinctAggregates(),
        # §IV.E: join reordering runs AFTER the fusion rules, which
        # matched on the canonical author-written join order.
        GreedyJoinOrder(),
        PredicatePushdown(),
        Cleanup(),
        ProjectionPruning(),
        # Second FactSimplify round over the final shape: fusion
        # compensators and join-key rewrites expose new always-true
        # / redundant-DISTINCT opportunities.
        FactSimplify(),
        Cleanup(),
        ProjectionPruning(),
    ]
    if config.enable_plan_cache:
        # Cross-query reuse runs over the final plan shape.
        passes.append(CrossQueryReuse())
    if config.workers > 1:
        # Fragment cutting runs last, over the final serial plan shape:
        # Exchange is a placement marker every earlier rule would have
        # to look through, and fingerprints ignore it so parallel plans
        # share cache entries with serial ones.
        passes.append(ParallelPlan())
    return passes


#: Passes that read per-execution state — the plan cache's contents,
#: the store's partition counts — and so run on every plan, memoized
#: or not.  They close the pipeline; nothing before them reads either.
PER_EXECUTION_PASSES = (CrossQueryReuse, ParallelPlan)


def split_pipeline(config: OptimizerConfig) -> tuple[list[PlanPass], list[PlanPass]]:
    """``build_pipeline(config)`` cut before its per-execution tail:
    ``(head, tail)``.  The head's output depends only on the bound
    plan, the config and the catalog, so a session may memoize it."""
    passes = build_pipeline(config)
    cut = next(
        (i for i, p in enumerate(passes) if isinstance(p, PER_EXECUTION_PASSES)),
        len(passes),
    )
    return passes[:cut], passes[cut:]


def optimize(
    plan: PlanNode,
    catalog: Catalog,
    config: OptimizerConfig | None = None,
    plan_cache=None,
    partition_counts=None,
) -> tuple[PlanNode, OptimizerContext]:
    """Optimize ``plan`` under ``config`` (default: fusion enabled).

    ``plan_cache`` is the session's cross-query result cache; it is
    only consulted when ``config.enable_plan_cache`` is set.
    ``partition_counts`` maps table names to stored partition counts
    for the ParallelPlan pass (None = assume partitioned).

    Returns the optimized plan and the context (whose ``fired`` list
    records which rules changed the plan).
    """
    config = config if config is not None else OptimizerConfig()
    ctx = OptimizerContext(
        catalog, config, plan_cache=plan_cache, partition_counts=partition_counts
    )
    optimized = run_pipeline(plan, build_pipeline(config), ctx)
    return optimized, ctx
