"""Shared state for one optimization run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.algebra.operators import GroupBy, Join, PlanNode, Scan, Window
from repro.algebra.schema import ColumnAllocator
from repro.algebra.visitors import walk_plan
from repro.catalog.catalog import Catalog
from repro.fusion.fuse import Fuser
from repro.optimizer.config import OptimizerConfig

if TYPE_CHECKING:  # engine imports the optimizer; keep runtime acyclic.
    from repro.engine.plan_cache import PlanCache


@dataclass
class OptimizerContext:
    """Catalog + allocator + fuser + config, threaded through rules.

    Also records which rules fired (``fired``), which benchmarks use to
    report per-query rule coverage and tests use for plan-shape
    assertions.
    """

    catalog: Catalog
    config: OptimizerConfig
    fired: list[str] = field(default_factory=list)
    #: The session's cross-query result cache, when planning inside a
    #: cache-enabled session (None otherwise — e.g. bare ``optimize``
    #: calls in tests).  Consulted by the CrossQueryReuse pass.
    plan_cache: "PlanCache | None" = None
    #: Stored partition count per (lower-cased) table name, supplied by
    #: the session from its store.  The ParallelPlan pass uses it to
    #: skip tables too small to cut into morsels; None (bare
    #: ``optimize`` calls) makes the pass assume tables are partitioned.
    partition_counts: "dict[str, int] | None" = None

    def __post_init__(self) -> None:
        from repro.optimizer.stats import CardinalityEstimator

        self.allocator: ColumnAllocator = self.catalog.allocator
        self.fuser = Fuser(self.allocator, validate=self.config.validate_plans)
        self.estimator = CardinalityEstimator(self.catalog, plan_cache=self.plan_cache)
        #: Cost-based rewrite selection (DESIGN.md §15): present only
        #: when the config asks for it; ``choose`` degrades to
        #: always-accept otherwise.  Imported lazily — the cost module
        #: imports the rule engine, which imports this module.
        self.cost_model = None
        if self.config.cost_based:
            from repro.optimizer.cost import CostModel

            self.cost_model = CostModel(
                self.catalog, self.estimator, plan_cache=self.plan_cache
            )

    def record(self, rule_name: str) -> None:
        self.fired.append(rule_name)

    # -- cost heuristics (§IV.E) ------------------------------------------

    def estimated_rows(self, plan: PlanNode) -> int:
        """Statistics-based cardinality estimate (§IV.E's "local
        heuristics based on statistics and plan properties")."""
        return int(self.estimator.estimate(plan))

    def scanned_rows(self, plan: PlanNode) -> int:
        """Total stored-row mass the plan scans (the recompute cost a
        duplicate elimination saves)."""
        total = 0
        for node in walk_plan(plan):
            if isinstance(node, Scan) and self.catalog.has_table(node.table):
                total += self.catalog.row_count(node.table)
        return total

    def choose(self, name: str, original: PlanNode, candidate: PlanNode) -> bool:
        """Cost gate for one rewrite: True means *take the candidate*.

        Heuristic mode (no cost model) always accepts — rules keep
        their §IV.E behavior.  In cost mode the candidate must price no
        worse than the original; a decline is recorded as
        ``<name>.cost_declined`` so benchmarks and tests can observe
        which rewrites the model rejected.  Shared subtrees between the
        two alternatives are priced once (the model memoizes by node
        identity).
        """
        if self.cost_model is None:
            return True
        original_cost = self.cost_model.cost(original)
        candidate_cost = self.cost_model.cost(candidate)
        if candidate_cost.total <= original_cost.total:
            return True
        self.record(f"{name}.cost_declined")
        return False

    def worth_fusing(self, common: PlanNode) -> bool:
        """Is eliminating a duplicate of ``common`` worth the rewrite?

        True when the common expression contains a join/aggregation/
        window (recomputation is expensive) or scans any stored row;
        an expression over constant tables alone is cheaper to repeat.
        """
        if any(isinstance(n, (Join, GroupBy, Window)) for n in walk_plan(common)):
            return True
        return self.scanned_rows(common) > 0
