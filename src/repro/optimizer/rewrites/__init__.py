"""Classical rewrite rules (the engine's baseline rule set)."""

from repro.optimizer.rewrites.distinct import LowerDistinctAggregates
from repro.optimizer.rewrites.facts import FactSimplify
from repro.optimizer.rewrites.join_order import GreedyJoinOrder
from repro.optimizer.rewrites.masks import FactorAggregateMasks
from repro.optimizer.rewrites.pruning import ProjectionPruning
from repro.optimizer.rewrites.pushdown import PredicatePushdown
from repro.optimizer.rewrites.reuse import CrossQueryReuse
from repro.optimizer.rewrites.semijoin import DistinctPushdown, SemiJoinToDistinctJoin
from repro.optimizer.rewrites.simplify import Cleanup
from repro.optimizer.rewrites.subqueries import (
    DecorrelateScalarAggregates,
    RemoveScalarSubqueries,
)

__all__ = [
    "Cleanup",
    "FactSimplify",
    "PredicatePushdown",
    "ProjectionPruning",
    "RemoveScalarSubqueries",
    "DecorrelateScalarAggregates",
    "LowerDistinctAggregates",
    "SemiJoinToDistinctJoin",
    "DistinctPushdown",
    "FactorAggregateMasks",
    "GreedyJoinOrder",
    "CrossQueryReuse",
]
