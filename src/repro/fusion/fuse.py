"""The ``Fuse`` operation (paper §III).

``Fuse(P1, P2)`` recursively fuses two logical plans into one plan
that computes a superset of both, together with a column mapping and
compensating filters (see :mod:`repro.fusion.result`).  It returns
``None`` (the paper's ⊥) when the inputs cannot be fused.

Cases implemented, following the paper section by section:

* §III.A table scans (extended with pushed-down scan predicates, which
  fuse like filters);
* §III.B filters — OR of the conditions, compensators restore each;
* §III.C projections — shared assignments are deduplicated via the
  mapping; compensating filters are kept well-formed by adding
  pass-through assignments for any column they reference;
* §III.D joins — pairwise fusion of both sides, requiring equivalent
  conditions modulo the mapping; inner/cross joins combine both sides'
  compensators, semi/anti/left variants require exact right sides;
* §III.E aggregations — masks!  Aggregate lists are merged with
  tightened masks, plus ``COUNT(*) FILTER(L) > 0`` compensations for
  non-scalar group-bys;
* §III.F MarkDistinct — compensating boolean columns are added to the
  distinct sets so markers stay correct per consumer;
* §III.G generic operators (EnforceSingleRow, Sort; Limit, UnionAll
  and ScalarApply when their semantic fingerprints are equal, the plan
  cache's own equality) and root-mismatch compensations: skipping a
  MarkDistinct, absorbing a Filter, manufacturing a trivial Project —
  tried in exactly that order, which resolves the paper's
  ``Filter(T)`` vs ``MarkDistinct(Filter(T))`` example the good way.
"""

from __future__ import annotations

from repro.algebra.expressions import (
    TRUE,
    ColumnRef,
    Comparison,
    Expression,
    columns_in,
    equivalent,
    integer,
    make_and,
    normalize,
)
from repro.algebra.fingerprint import plan_fingerprint
from repro.algebra.operators import (
    AggregateAssignment,
    EnforceSingleRow,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    MarkDistinct,
    PlanNode,
    Project,
    Scan,
    Sort,
    Values,
    Window,
    WindowAssignment,
)
from repro.algebra.schema import Column, ColumnAllocator
from repro.algebra.simplify import simplify, simplify_filter
from repro.algebra.types import DataType
from repro.fusion.mapping import ColumnMapping
from repro.fusion.result import FusionResult


class Fuser:
    """Stateful fusion driver (needs an allocator for fresh columns)."""

    def __init__(self, allocator: ColumnAllocator, validate: bool = False):
        self.allocator = allocator
        #: Check §III's contract (mapping soundness, live compensators)
        #: on every successful fusion — set from
        #: ``OptimizerConfig(validate_plans=True)``.
        self.validate = validate

    # -- dispatch ----------------------------------------------------------

    def fuse(self, p1: PlanNode, p2: PlanNode) -> FusionResult | None:
        """Fuse two plans; None when fusion is not possible."""
        result = self._dispatch(p1, p2)
        if result is not None and self.validate:
            from repro.algebra.validator import validate_fusion_result

            validate_fusion_result(result, p1, p2)
        return result

    def _dispatch(self, p1: PlanNode, p2: PlanNode) -> FusionResult | None:
        if type(p1) is type(p2):
            handler = self._HANDLERS.get(type(p1))
            if handler is not None:
                return handler(self, p1, p2)
            return self._fuse_structural(p1, p2)
        # Root operators differ: best-effort compensations (§III.G),
        # in preference order.
        if isinstance(p1, MarkDistinct):
            return self._skip_mark_distinct_left(p1, p2)
        if isinstance(p2, MarkDistinct):
            return self._skip_mark_distinct_right(p1, p2)
        if isinstance(p1, Filter):
            return self._absorb_filter_left(p1, p2)
        if isinstance(p2, Filter):
            return self._absorb_filter_right(p1, p2)
        if isinstance(p1, Project):
            return self._fuse_project(p1, Project.identity(p2))
        if isinstance(p2, Project):
            return self._fuse_project(Project.identity(p1), p2)
        return None

    # -- scans (§III.A) ----------------------------------------------------

    def _fuse_scan(self, p1: Scan, p2: Scan) -> FusionResult | None:
        if p1.table.lower() != p2.table.lower():
            return None
        mapping = ColumnMapping()
        by_source = {src.lower(): col for col, src in zip(p1.columns, p1.source_names)}
        extra_columns: list[Column] = []
        extra_sources: list[str] = []
        for column, source in zip(p2.columns, p2.source_names):
            match = by_source.get(source.lower())
            if match is not None:
                mapping.add(column, match)
            else:
                extra_columns.append(column)
                extra_sources.append(source)
        plan = Scan(
            p1.table,
            p1.columns + tuple(extra_columns),
            p1.source_names + tuple(extra_sources),
            p1.predicate,
        )
        if p1.predicate is None and p2.predicate is None:
            return FusionResult(plan, mapping)
        # Pushed-down predicates fuse like filters.
        c1 = p1.predicate if p1.predicate is not None else TRUE
        c2 = mapping.map_expression(p2.predicate) if p2.predicate is not None else TRUE
        if equivalent(c1, c2):
            return FusionResult(plan, mapping)
        fused = simplify_filter(make_or_pair(c1, c2))
        plan = plan.with_predicate(None if fused == TRUE else fused)
        return FusionResult(plan, mapping, c1, c2)

    # -- filters (§III.B) ----------------------------------------------------

    def _fuse_filter(self, p1: Filter, p2: Filter) -> FusionResult | None:
        child = self.fuse(p1.child, p2.child)
        if child is None:
            return None
        c1 = p1.condition
        c2 = child.mapping.map_expression(p2.condition)
        if equivalent(c1, c2):
            return FusionResult(
                Filter(child.plan, c1),
                child.mapping,
                child.left_filter,
                child.right_filter,
            )
        fused_condition = simplify_filter(make_or_pair(c1, c2))
        plan = (
            child.plan
            if fused_condition == TRUE
            else Filter(child.plan, fused_condition)
        )
        left = simplify(make_and([child.left_filter, c1]))
        right = simplify(make_and([child.right_filter, c2]))
        return FusionResult(plan, child.mapping, left, right)

    def _absorb_filter_left(self, p1: Filter, p2: PlanNode) -> FusionResult | None:
        child = self.fuse(p1.child, p2)
        if child is None:
            return None
        left = simplify(make_and([child.left_filter, p1.condition]))
        return FusionResult(child.plan, child.mapping, left, child.right_filter)

    def _absorb_filter_right(self, p1: PlanNode, p2: Filter) -> FusionResult | None:
        child = self.fuse(p1, p2.child)
        if child is None:
            return None
        condition = child.mapping.map_expression(p2.condition)
        right = simplify(make_and([child.right_filter, condition]))
        return FusionResult(child.plan, child.mapping, child.left_filter, right)

    # -- projections (§III.C) -------------------------------------------------

    def _fuse_project(self, p1: Project, p2: Project) -> FusionResult | None:
        child = self.fuse(p1.child, p2.child)
        if child is None:
            return None
        assignments = list(p1.assignments)
        by_expression: dict[Expression, Column] = {
            normalize(expr): target for target, expr in p1.assignments
        }
        mapping = ColumnMapping()
        for target, expr in p2.assignments:
            mapped = child.mapping.map_expression(expr)
            key = normalize(mapped)
            existing = by_expression.get(key)
            if existing is not None:
                mapping.add(target, existing)
            else:
                # Keep the P2 target's identity; it maps to itself.
                assignments.append((target, mapped))
                by_expression[key] = target
        left, assignments = self._pull_through_project(child.left_filter, assignments)
        right, assignments = self._pull_through_project(child.right_filter, assignments)
        return FusionResult(Project(child.plan, tuple(assignments)), mapping, left, right)

    def _pull_through_project(
        self,
        condition: Expression,
        assignments: list[tuple[Column, Expression]],
    ) -> tuple[Expression, list[tuple[Column, Expression]]]:
        """Keep a compensating filter valid above a projection.

        §III.C leaves implicit that L/R may reference columns the
        projection drops; we add pass-through assignments (preserving
        column identity) so the invariant "L and R are defined over the
        output columns of P" always holds.
        """
        if condition == TRUE:
            return condition, assignments
        assignments = list(assignments)
        targets = {target.cid: expr for target, expr in assignments}
        rewrites: dict[int, Expression] = {}
        for column in sorted(columns_in(condition), key=lambda c: c.cid):
            existing = targets.get(column.cid)
            if existing is None:
                assignments.append((column, ColumnRef(column)))
                targets[column.cid] = ColumnRef(column)
            elif existing != ColumnRef(column):
                # The target id is taken by a different expression:
                # route the filter through a fresh pass-through column.
                fresh = self.allocator.like(column)
                assignments.append((fresh, ColumnRef(column)))
                targets[fresh.cid] = ColumnRef(column)
                rewrites[column.cid] = ColumnRef(fresh)
        if rewrites:
            from repro.algebra.expressions import substitute

            condition = substitute(condition, rewrites)
        return condition, assignments

    # -- joins (§III.D) ----------------------------------------------------

    def _fuse_join(self, p1: Join, p2: Join) -> FusionResult | None:
        if p1.kind is not p2.kind:
            return None
        left = self.fuse(p1.left, p2.left)
        if left is None:
            return None
        right = self.fuse(p1.right, p2.right)
        if right is None:
            return None
        mapping = left.mapping.merged(right.mapping)
        if p1.kind is not JoinKind.CROSS:
            if not equivalent(p1.condition, p2.condition, _substitution(mapping)):
                return None
        if p1.kind in (JoinKind.SEMI, JoinKind.ANTI, JoinKind.LEFT):
            # Compensators on the right side would change which left
            # rows match (semi/anti) or get padded (left outer): only
            # fuse when the right sides fused exactly.
            if not right.is_exact:
                return None
            plan = Join(p1.kind, left.plan, right.plan, p1.condition)
            return FusionResult(plan, mapping, left.left_filter, left.right_filter)
        plan = Join(p1.kind, left.plan, right.plan, p1.condition)
        l_comp = simplify(make_and([left.left_filter, right.left_filter]))
        r_comp = simplify(make_and([left.right_filter, right.right_filter]))
        return FusionResult(plan, mapping, l_comp, r_comp)

    # -- aggregations (§III.E) -------------------------------------------------

    def _fuse_group_by(self, p1: GroupBy, p2: GroupBy) -> FusionResult | None:
        child = self.fuse(p1.child, p2.child)
        if child is None:
            return None
        keys2 = set(child.mapping.map_columns(p2.keys))
        if set(p1.keys) != keys2:
            return None
        left, right = child.left_filter, child.right_filter
        merged: list[AggregateAssignment] = []
        index: dict[tuple, Column] = {}

        def agg_key(assignment: AggregateAssignment) -> tuple:
            argument = (
                None
                if assignment.argument is None
                else normalize(assignment.argument)
            )
            return (assignment.func, argument, normalize(assignment.mask), assignment.distinct)

        for assignment in p1.aggregates:
            mask = simplify(make_and([assignment.mask, left]))
            tightened = AggregateAssignment(
                assignment.target, assignment.func, assignment.argument, mask,
                assignment.distinct,
            )
            merged.append(tightened)
            index[agg_key(tightened)] = tightened.target

        mapping = ColumnMapping(dict(child.mapping.items()))
        for assignment in p2.aggregates:
            argument = (
                None
                if assignment.argument is None
                else child.mapping.map_expression(assignment.argument)
            )
            mask = simplify(
                make_and([child.mapping.map_expression(assignment.mask), right])
            )
            candidate = AggregateAssignment(
                assignment.target, assignment.func, argument, mask, assignment.distinct
            )
            existing = index.get(agg_key(candidate))
            if existing is not None:
                mapping.add(assignment.target, existing)
            else:
                merged.append(candidate)
                index[agg_key(candidate)] = candidate.target

        comp_left: Expression = TRUE
        comp_right: Expression = TRUE
        if p1.keys and left != TRUE:
            comp_left = Comparison(">", ColumnRef(self._count_column(merged, index, left)), integer(0))
        if p1.keys and right != TRUE:
            comp_right = Comparison(">", ColumnRef(self._count_column(merged, index, right)), integer(0))
        plan = GroupBy(child.plan, p1.keys, tuple(merged))
        return FusionResult(plan, mapping, comp_left, comp_right)

    def _count_column(
        self,
        merged: list[AggregateAssignment],
        index: dict[tuple, Column],
        mask: Expression,
    ) -> Column:
        """The compensating ``COUNT(*) FILTER (mask)`` column, reusing
        an existing aggregate when one matches.

        The merged aggregates were keyed on *simplified* masks
        (``simplify(make_and([mask, filter]))``), so the compensation
        mask must be simplified the same way before keying — otherwise
        e.g. an unsimplified scan-predicate compensator ``NOT (x <= 5)``
        misses the existing ``count(*) FILTER (x > 5)`` and a duplicate
        count column is emitted.
        """
        mask = simplify(mask)
        key = ("count", None, normalize(mask), False)
        existing = index.get(key)
        if existing is not None:
            return existing
        target = self.allocator.fresh("comp_count", DataType.INTEGER)
        assignment = AggregateAssignment(target, "count", None, mask, False)
        merged.append(assignment)
        index[key] = target
        return target

    # -- MarkDistinct (§III.F) -------------------------------------------------

    def _fuse_mark_distinct(self, p1: MarkDistinct, p2: MarkDistinct) -> FusionResult | None:
        """§III.F with the native-mask extension the paper sketches:
        instead of projecting compensating boolean columns into the
        distinct sets, each re-emitted MarkDistinct tightens its own
        mask with the consumer's compensating filter, so it counts a
        first occurrence only among that consumer's rows."""
        child = self.fuse(p1.child, p2.child)
        if child is None:
            return None
        left, right = child.left_filter, child.right_filter
        mask1 = simplify(make_and([p1.mask, left]))
        mask2 = simplify(
            make_and([child.mapping.map_expression(p2.mask), right])
        )
        plan: PlanNode = MarkDistinct(
            child.plan, child.mapping.map_columns(p2.columns), p2.marker, mask2
        )
        plan = MarkDistinct(plan, p1.columns, p1.marker, mask1)
        mapping = ColumnMapping(dict(child.mapping.items()))
        mapping.add(p2.marker, p2.marker)
        return FusionResult(plan, mapping, left, right)

    def _skip_mark_distinct_left(self, p1: MarkDistinct, p2: PlanNode) -> FusionResult | None:
        child = self.fuse(p1.child, p2)
        if child is None:
            return None
        mask = simplify(make_and([p1.mask, child.left_filter]))
        plan = MarkDistinct(child.plan, p1.columns, p1.marker, mask)
        return FusionResult(plan, child.mapping, child.left_filter, child.right_filter)

    def _skip_mark_distinct_right(self, p1: PlanNode, p2: MarkDistinct) -> FusionResult | None:
        child = self.fuse(p1, p2.child)
        if child is None:
            return None
        mask = simplify(
            make_and([child.mapping.map_expression(p2.mask), child.right_filter])
        )
        plan = MarkDistinct(
            child.plan, child.mapping.map_columns(p2.columns), p2.marker, mask
        )
        mapping = ColumnMapping(dict(child.mapping.items()))
        mapping.add(p2.marker, p2.marker)
        return FusionResult(plan, mapping, child.left_filter, child.right_filter)

    # -- windows -----------------------------------------------------------

    def _fuse_window(self, p1: Window, p2: Window) -> FusionResult | None:
        child = self.fuse(p1.child, p2.child)
        if child is None or not child.is_exact:
            # Window aggregates over a superset stream would differ.
            return None
        parts2 = child.mapping.map_columns(p2.partition_by)
        if set(p1.partition_by) != set(parts2):
            return None
        merged = list(p1.functions)
        index: dict[tuple, Column] = {}
        for fn in p1.functions:
            arg = None if fn.argument is None else normalize(fn.argument)
            index[(fn.func, arg)] = fn.target
        mapping = ColumnMapping(dict(child.mapping.items()))
        for fn in p2.functions:
            argument = (
                None if fn.argument is None else child.mapping.map_expression(fn.argument)
            )
            key = (fn.func, None if argument is None else normalize(argument))
            existing = index.get(key)
            if existing is not None:
                mapping.add(fn.target, existing)
            else:
                merged.append(WindowAssignment(fn.target, fn.func, argument))
                index[key] = fn.target
        plan = Window(child.plan, p1.partition_by, tuple(merged))
        return FusionResult(plan, mapping)

    # -- generic unary operators (§III.G) ------------------------------------

    def _fuse_enforce_single_row(
        self, p1: EnforceSingleRow, p2: EnforceSingleRow
    ) -> FusionResult | None:
        child = self.fuse(p1.child, p2.child)
        if child is None or not child.is_exact:
            # Extra rows from the other consumer would fail the check.
            return None
        return FusionResult(EnforceSingleRow(child.plan), child.mapping)

    def _fuse_sort(self, p1: Sort, p2: Sort) -> FusionResult | None:
        child = self.fuse(p1.child, p2.child)
        if child is None:
            return None
        if len(p1.keys) != len(p2.keys):
            return None
        substitution = _substitution(child.mapping)
        for key1, key2 in zip(p1.keys, p2.keys):
            if key1.ascending != key2.ascending:
                return None
            if not equivalent(key1.expression, key2.expression, substitution):
                return None
        # Filters commute with sorting, so compensators pass through.
        return FusionResult(
            Sort(child.plan, p1.keys),
            child.mapping,
            child.left_filter,
            child.right_filter,
        )

    def _fuse_values(self, p1: Values, p2: Values) -> FusionResult | None:
        if p1.rows != p2.rows or len(p1.columns) != len(p2.columns):
            return None
        mapping = ColumnMapping()
        for source, target in zip(p2.columns, p1.columns):
            if source.dtype is not target.dtype:
                return None
            mapping.add(source, target)
        return FusionResult(p1, mapping)

    # -- structural fallback ------------------------------------------------

    def _fuse_structural(self, p1: PlanNode, p2: PlanNode) -> FusionResult | None:
        """Exact fusion for operators with no dedicated fusion case
        (UnionAll, Limit, ScalarApply): two subplans with the same
        semantic fingerprint fuse into one, with no compensators.

        This is what makes fusion cover arbitrary CTE-duplicated
        subtrees even when they contain operators §III does not define
        a merge rule for.
        """
        mapping = structural_equivalence(p1, p2)
        if mapping is None:
            return None
        return FusionResult(p1, mapping)

    _HANDLERS = {}


Fuser._HANDLERS = {
    Scan: Fuser._fuse_scan,
    Filter: Fuser._fuse_filter,
    Project: Fuser._fuse_project,
    Join: Fuser._fuse_join,
    GroupBy: Fuser._fuse_group_by,
    MarkDistinct: Fuser._fuse_mark_distinct,
    Window: Fuser._fuse_window,
    EnforceSingleRow: Fuser._fuse_enforce_single_row,
    Sort: Fuser._fuse_sort,
    Values: Fuser._fuse_values,
}


def make_or_pair(left: Expression, right: Expression) -> Expression:
    from repro.algebra.expressions import make_or

    if left == TRUE or right == TRUE:
        return TRUE
    return make_or([left, right])


def _substitution(mapping: ColumnMapping) -> dict[int, Expression]:
    return {source.cid: ColumnRef(target) for source, target in mapping.items()}


def structural_equivalence(p1: PlanNode, p2: PlanNode) -> ColumnMapping | None:
    """If ``p1`` and ``p2`` compute the same rows, the mapping from
    ``p2``'s output columns to ``p1``'s; else None.

    "The same" is the plan cache's definition: equal semantic
    fingerprints (:mod:`repro.algebra.fingerprint`), which see through
    column identity, conjunct order, INNER join input order and the
    other equivalences listed there.  Each ``p2`` output maps to the
    ``p1`` output that carries the same column token.
    """
    fp1, fp2 = plan_fingerprint(p1), plan_fingerprint(p2)
    if fp1.digest != fp2.digest:
        return None
    tokens1, tokens2 = fp1.column_tokens, fp2.column_tokens
    targets = {
        tokens1[c.cid]: c for c in reversed(p1.output_columns) if c.cid in tokens1
    }
    mapping = ColumnMapping()
    for column in p2.output_columns:
        target = targets.get(tokens2.get(column.cid))
        if target is None or target.dtype is not column.dtype:
            return None
        mapping.add(column, target)
    return mapping
