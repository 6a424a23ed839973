"""Rule engine.

Two rule shapes:

* :class:`RewriteRule` — matches a single operator; the engine applies
  it bottom-up across the tree, iterating to a (bounded) fixpoint;
* :class:`PlanPass` — a whole-plan transformation (pushdown, pruning).

A pipeline is an ordered list of passes; :func:`run_pipeline` executes
them and returns the final plan.
"""

from __future__ import annotations

import abc

from repro.algebra.analysis import FactAnalyzer, fact_conflicts
from repro.algebra.operators import PlanNode
from repro.algebra.validator import validate_plan
from repro.algebra.visitors import transform_up
from repro.errors import OptimizerError, PlanError
from repro.optimizer.context import OptimizerContext


class PlanPass(abc.ABC):
    """A whole-plan transformation."""

    name: str = "pass"

    @abc.abstractmethod
    def run(self, plan: PlanNode, ctx: OptimizerContext) -> PlanNode:
        """Return the rewritten plan (may be the input unchanged)."""


#: Upper bound on :meth:`RewriteRule.run` fixpoint iterations.
MAX_ITERATIONS = 10


class RewriteRule(PlanPass):
    """A node-local rewrite applied bottom-up to fixpoint."""

    name: str = "rule"
    #: When True and the context carries a cost model (DESIGN.md §15),
    #: each successful rewrite is priced against the node it replaces
    #: and kept only if it costs no worse.  Declining returns the
    #: original node, so the fixpoint loop still terminates.
    cost_gated: bool = False

    @abc.abstractmethod
    def rewrite(self, node: PlanNode, ctx: OptimizerContext) -> PlanNode | None:
        """Rewrite one node, or None when the rule does not apply."""

    def run(self, plan: PlanNode, ctx: OptimizerContext) -> PlanNode:
        for _ in range(MAX_ITERATIONS):
            changed = False

            def apply(node: PlanNode) -> PlanNode:
                nonlocal changed
                rewritten = self.rewrite(node, ctx)
                if rewritten is None:
                    return node
                if self.cost_gated and not ctx.choose(self.name, node, rewritten):
                    return node
                changed = True
                ctx.record(self.name)
                return rewritten

            plan = transform_up(plan, apply)
            if not changed:
                return plan
        return plan


class Pipeline:
    """An ordered sequence of passes."""

    def __init__(self, passes: list[PlanPass]):
        self.passes = passes

    def run(self, plan: PlanNode, ctx: OptimizerContext) -> PlanNode:
        validate = ctx.config.validate_plans
        analyzer = FactAnalyzer(ctx.catalog) if validate else None
        if validate:
            _checked(plan, ctx, "pipeline input")
            facts = analyzer.facts(plan)
        for plan_pass in self.passes:
            before = plan
            plan = plan_pass.run(plan, ctx)
            if plan is None:  # defensive: a buggy pass returned nothing
                raise OptimizerError(f"pass {plan_pass.name} returned None")
            if validate and plan is not before:
                _checked(plan, ctx, plan_pass.name)
                # Fact-drift check: re-derive column facts and fail
                # with per-rule blame if the rewritten plan's facts
                # *contradict* the input's — precision may move, but
                # two sound analyses of equivalent plans can never
                # definitely disagree (see fact_conflicts).
                after = analyzer.facts(plan)
                conflicts = fact_conflicts(facts, after, plan.output_columns)
                if conflicts:
                    raise OptimizerError(
                        f"rule {plan_pass.name!r} produced a plan whose "
                        f"derived facts contradict its input: "
                        + "; ".join(conflicts)
                    )
                facts = after
        return plan


def _checked(plan: PlanNode, ctx: OptimizerContext, origin: str) -> None:
    """Validate ``plan``, converting a violation into an OptimizerError
    that names the pass that produced the invalid tree."""
    try:
        validate_plan(plan, ctx.catalog)
    except PlanError as exc:
        raise OptimizerError(f"rule {origin!r} produced an invalid plan: {exc}") from exc


def run_pipeline(plan: PlanNode, passes: list[PlanPass], ctx: OptimizerContext) -> PlanNode:
    return Pipeline(passes).run(plan, ctx)
