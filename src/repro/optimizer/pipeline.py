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
* cleanup, pushdown, and pruning re-run after fusion so compensating
  filters reach the scans and dead columns disappear.
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
    CrossQueryReuse,
    DecorrelateScalarAggregates,
    DistinctPushdown,
    FactorAggregateMasks,
    FactSimplify,
    GreedyJoinOrder,
    LowerDistinctAggregates,
    MergeProjections,
    PredicatePushdown,
    ProjectionPruning,
    PruneUnionBranches,
    RemoveScalarSubqueries,
    RemoveTrivialFilters,
    SemiJoinToDistinctJoin,
    SimplifyExpressions,
    SpoolDuplicateSubtrees,
)
from repro.optimizer.rule import PlanPass, run_pipeline


def build_pipeline(config: OptimizerConfig) -> list[PlanPass]:
    """The ordered pass list for ``config``."""
    cleanup: list[PlanPass] = [
        SimplifyExpressions(),
        RemoveTrivialFilters(),
        MergeProjections(),
        PruneUnionBranches(),
    ]
    passes: list[PlanPass] = [
        SimplifyExpressions(),
        RemoveScalarSubqueries(),
        DecorrelateScalarAggregates(),
        *cleanup,
        PredicatePushdown(),
        ProjectionPruning(),
        # Derived-fact folding runs after pushdown so predicates sit
        # next to the scans whose statistics decide them.
        FactSimplify(),
    ]
    if config.lower_distinct_before_fusion:
        passes.append(LowerDistinctAggregates())
    if config.enable_fusion and config.enable_union_all_on_join:
        passes.append(UnionAllOnJoin())
    if config.enable_fusion and config.enable_union_all:
        passes.append(UnionAllFusion())
    window_rule = config.enable_fusion and config.enable_groupby_join_to_window
    keys_rule = config.enable_fusion and config.enable_join_on_keys
    if config.cost_based:
        # Cost mode (DESIGN.md §15): the semi-join → distinct-join
        # conversion is an *enabler* — locally a pessimization whose
        # payoff is the JoinOnKeys fusion it unlocks — so it is priced
        # as one group with the fusion rules behind it.  The fusion
        # rules then re-run outside the group (idempotent when the
        # group already fused) so a declined conversion does not starve
        # independent fusion opportunities, and the cleanups re-run so
        # a decline does not lose them.
        group: list[PlanPass] = [
            SemiJoinToDistinctJoin(),
            MergeProjections(),
            DistinctPushdown(),
        ]
        if window_rule:
            group.append(GroupByJoinToWindow())
        if keys_rule:
            group.append(JoinOnKeys())
        passes.append(CostGatedGroup("semijoin_distinct_group", group))
        passes.append(MergeProjections())
        passes.append(DistinctPushdown())
    else:
        passes.append(SemiJoinToDistinctJoin())
        passes.append(MergeProjections())
        passes.append(DistinctPushdown())
    if window_rule:
        passes.append(GroupByJoinToWindow())
    if keys_rule:
        passes.append(JoinOnKeys())
    passes.extend(
        [
            FactorAggregateMasks(),
            LowerDistinctAggregates(),
            # §IV.E: join reordering runs AFTER the fusion rules, which
            # matched on the canonical author-written join order.
            GreedyJoinOrder(),
            PredicatePushdown(),
            *cleanup,
            ProjectionPruning(),
            SimplifyExpressions(),
            # Second FactSimplify round over the final shape: fusion
            # compensators and join-key rewrites expose new always-true
            # / redundant-DISTINCT opportunities.
            FactSimplify(),
            RemoveTrivialFilters(),
            ProjectionPruning(),
        ]
    )
    if config.enable_spooling:
        # The roadmap fallback: materialize duplicates fusion left behind.
        passes.append(SpoolDuplicateSubtrees())
    if config.enable_plan_cache:
        # Cross-query reuse runs over the final plan shape (after
        # spooling, so spooled common subexpressions are populate
        # candidates too).
        passes.append(CrossQueryReuse())
    if config.workers > 1:
        # Fragment cutting runs last, over the final serial plan shape:
        # Exchange/Repartition are placement markers every earlier rule
        # would have to look through, and fingerprints ignore them so
        # parallel plans share cache entries with serial ones.
        passes.append(ParallelPlan())
    return passes


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
