"""Bottom-up abstract interpretation over plan trees.

Every plan node is interpreted into a :class:`PlanFacts`: per output
column a :class:`ColumnFacts` lattice element (nullability under 3VL,
constant value, inclusive range bounds) plus whole-relation facts
(candidate keys as sets of column ids, a row-count upper bound).  The
facts are *sound over-approximations*: whatever the plan produces at
runtime is guaranteed to satisfy them — a column whose facts say
``nullable=False`` never yields a NULL, observed values always fall
inside ``[low, high]``, and rows are duplicate-free on any derived key
(NULLs compare equal and NaNs canonicalize, matching the engines'
grouping semantics).

Three consumers (DESIGN.md §12):

* the optimizer pipeline re-derives facts after every pass under
  ``validate_plans`` and blames a pass whose output facts *contradict*
  its input's (:func:`fact_conflicts`) — two sound analyses of
  semantically equal plans may differ in precision but can never
  disagree on a definite value;
* :class:`~repro.optimizer.rewrites.facts.FactSimplify` folds
  always-TRUE / never-TRUE predicates and provably-redundant DISTINCTs
  using :func:`repro.algebra.simplify.simplify_with_facts`;
* the differential fuzzer's analysis oracle checks the predictions
  against actual query results (:func:`verify_facts`), so every
  transfer function below is itself differentially tested across all
  four engines.

Transfer functions cover Scan (seeded from catalog statistics, which
:meth:`Store.register_table` keeps exact), Filter (predicate-implied
narrowing), Project/compute, Join (null-introducing outer sides, key
preservation), GroupBy, Window, MarkDistinct, UnionAll (widening
join), Sort/Limit/EnforceSingleRow, ScalarApply and the
CachedScan/CachePopulate reuse nodes.  Unknown node types degrade to
TOP (everything nullable, no bounds, no keys) — conservative, never
wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

from repro.algebra.expressions import (
    And,
    Arithmetic,
    Case,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    conjuncts,
    disjuncts,
)
from repro.algebra.operators import (
    CachePopulate,
    CachedScan,
    EnforceSingleRow,
    Exchange,
    Filter,
    GroupBy,
    Join,
    JoinKind,
    Limit,
    MarkDistinct,
    PlanNode,
    Project,
    ScalarApply,
    Scan,
    Sort,
    UnionAll,
    Values,
    Window,
)
from repro.algebra.types import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.catalog import Catalog

#: Cap on tracked candidate keys per node (smallest keys win).
MAX_KEYS = 8


# ---------------------------------------------------------------------------
# The fact lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnFacts:
    """Facts about one output column, all sound over-approximations.

    * ``nullable`` — NULL may appear; ``False`` is the strong claim.
    * ``always_null`` — every value is NULL (``Literal(None)``; the
      identity element of :func:`join_facts` for value facts).
    * ``low``/``high`` — inclusive bounds on *non-NULL* values
      (``None`` = unbounded on that side).  Never NaN.
    * ``const`` (with ``has_const``) — every non-NULL value equals
      this; combined with ``nullable=False`` the column is constant.
    """

    nullable: bool = True
    always_null: bool = False
    low: object = None
    high: object = None
    const: object = None
    has_const: bool = False


#: No information: anything may appear.  Safe default everywhere.
TOP = ColumnFacts()

#: The empty relation's column facts: every claim holds vacuously.
BOTTOM = ColumnFacts(nullable=False, always_null=True)


class Bool3(NamedTuple):
    """Abstract Kleene truth value: which outcomes are possible."""

    may_true: bool
    may_false: bool
    may_null: bool


ANY_BOOL = Bool3(True, True, True)


@dataclass(frozen=True)
class PlanFacts:
    """Facts about one plan node's output relation."""

    columns: dict  # cid -> ColumnFacts
    keys: tuple = ()  # frozenset[int] column-id sets, each duplicate-free
    max_rows: int | None = None  # upper bound on output rows

    def column(self, cid: int) -> ColumnFacts:
        return self.columns.get(cid, TOP)

    def is_unique(self, cids) -> bool:
        """Rows provably duplicate-free when projected onto ``cids``."""
        if self.max_rows is not None and self.max_rows <= 1:
            return True
        cids = frozenset(cids)
        return any(key <= cids for key in self.keys)


def _is_nan(value: object) -> bool:
    return isinstance(value, float) and value != value


def _clean_bound(value: object) -> object:
    """Bounds must be orderable scalars; NaN poisons comparisons."""
    if value is None or _is_nan(value) or isinstance(value, bool):
        return None
    return value


def _cmp(a: object, b: object) -> int | None:
    """Three-way compare, None when the values are incomparable."""
    try:
        if a < b:
            return -1
        if a > b:
            return 1
        if a == b:
            return 0
    except TypeError:
        return None
    return None  # NaN-ish partial orders


def _min_bound(a: object, b: object) -> object:
    if a is None or b is None:
        return None
    order = _cmp(a, b)
    if order is None:
        return None
    return a if order <= 0 else b


def _max_bound(a: object, b: object) -> object:
    if a is None or b is None:
        return None
    order = _cmp(a, b)
    if order is None:
        return None
    return a if order >= 0 else b


def _const_facts(value: object) -> ColumnFacts:
    """Exact facts for a known scalar (a literal)."""
    if value is None:
        return ColumnFacts(nullable=True, always_null=True)
    bound = _clean_bound(value)
    return ColumnFacts(
        nullable=False, low=bound, high=bound, const=value, has_const=True
    )


def join_facts(a: ColumnFacts, b: ColumnFacts) -> ColumnFacts:
    """Least upper bound: sound for a value drawn from either side."""
    if a.always_null:
        value = b
    elif b.always_null:
        value = a
    else:
        same_const = a.has_const and b.has_const and _cmp(a.const, b.const) == 0
        value = ColumnFacts(
            low=None if a.low is None or b.low is None else _min_bound(a.low, b.low),
            high=(
                None if a.high is None or b.high is None else _max_bound(a.high, b.high)
            ),
            const=a.const if same_const else None,
            has_const=same_const,
        )
    return replace(
        value,
        nullable=a.nullable or b.nullable,
        always_null=a.always_null and b.always_null,
    )


def meet_facts(a: ColumnFacts, b: ColumnFacts) -> ColumnFacts:
    """Greatest lower bound: sound for a value known to satisfy both.
    May produce an empty interval (``low > high``) — callers treat that
    as "no such value exists"."""
    if a.has_const:
        const, has_const = a.const, True
    else:
        const, has_const = b.const, b.has_const
    return ColumnFacts(
        nullable=a.nullable and b.nullable,
        always_null=a.always_null or b.always_null,
        low=_max_bound(a.low, b.low) if a.low is not None and b.low is not None
        else (a.low if a.low is not None else b.low),
        high=_min_bound(a.high, b.high) if a.high is not None and b.high is not None
        else (a.high if a.high is not None else b.high),
        const=const,
        has_const=has_const,
    )


def _empty_interval(facts: ColumnFacts) -> bool:
    if facts.low is None or facts.high is None:
        return False
    return _cmp(facts.low, facts.high) == 1


# ---------------------------------------------------------------------------
# Expression transfer functions
# ---------------------------------------------------------------------------


def _interval_arith(op: str, left: ColumnFacts, right: ColumnFacts) -> tuple:
    """Interval arithmetic for ``+ - *`` (rounding-monotone in float);
    division contributes no bounds (NULL on zero divisors anyway)."""
    ll, lh, rl, rh = left.low, left.high, right.low, right.high
    try:
        if op == "+":
            low = None if ll is None or rl is None else ll + rl
            high = None if lh is None or rh is None else lh + rh
        elif op == "-":
            low = None if ll is None or rh is None else ll - rh
            high = None if lh is None or rl is None else lh - rl
        elif op == "*":
            if None in (ll, lh, rl, rh):
                return None, None
            products = [ll * rl, ll * rh, lh * rl, lh * rh]
            low, high = min(products), max(products)
        else:
            return None, None
    except TypeError:
        return None, None
    return _clean_bound(low), _clean_bound(high)


def bool_range(expr: Expression, env: dict) -> Bool3:
    """Which Kleene outcomes ``expr`` may produce under ``env``
    (cid -> ColumnFacts).  Over-approximate: a cleared flag is a proof
    that the outcome cannot happen."""
    if isinstance(expr, Literal):
        if expr.value is None:
            return Bool3(False, False, True)
        if expr.value is True:
            return Bool3(True, False, False)
        if expr.value is False:
            return Bool3(False, True, False)
        return ANY_BOOL
    if isinstance(expr, ColumnRef):
        facts = env.get(expr.column.cid, TOP)
        if facts.always_null:
            return Bool3(False, False, True)
        may_null = facts.nullable
        if facts.has_const:
            return Bool3(facts.const is True, facts.const is False, may_null)
        return Bool3(True, True, may_null)
    if isinstance(expr, Not):
        inner = bool_range(expr.term, env)
        return Bool3(inner.may_false, inner.may_true, inner.may_null)
    if isinstance(expr, And):
        terms = [bool_range(t, env) for t in expr.terms]
        return Bool3(
            all(t.may_true for t in terms),
            any(t.may_false for t in terms),
            any(t.may_null for t in terms),
        )
    if isinstance(expr, Or):
        terms = [bool_range(t, env) for t in expr.terms]
        return Bool3(
            any(t.may_true for t in terms),
            all(t.may_false for t in terms),
            any(t.may_null for t in terms),
        )
    if isinstance(expr, IsNull):
        operand = expression_facts(expr.operand, env)
        if operand.always_null:
            return Bool3(True, False, False)
        if not operand.nullable:
            return Bool3(False, True, False)
        return Bool3(True, True, False)
    if isinstance(expr, Comparison):
        left = expression_facts(expr.left, env)
        right = expression_facts(expr.right, env)
        if left.always_null or right.always_null:
            return Bool3(False, False, True)
        may_null = left.nullable or right.nullable
        verdict = _compare_intervals(expr.op, left, right)
        if verdict is True:
            return Bool3(True, False, may_null)
        if verdict is False:
            return Bool3(False, True, may_null)
        return Bool3(True, True, may_null)
    if isinstance(expr, InList):
        operand = expression_facts(expr.operand, env)
        if operand.always_null:
            return Bool3(False, False, True)
        items = [expression_facts(i, env) for i in expr.items]
        may_null = operand.nullable or any(
            i.nullable or i.always_null for i in items
        )
        return Bool3(True, True, may_null)
    if isinstance(expr, Like):
        operand = expression_facts(expr.operand, env)
        if operand.always_null:
            return Bool3(False, False, True)
        return Bool3(True, True, operand.nullable)
    return ANY_BOOL


def _compare_intervals(op: str, left: ColumnFacts, right: ColumnFacts):
    """True/False when the bounds decide ``op`` for every non-NULL
    value pair; None when they don't."""
    if op == "=":
        if (
            left.has_const
            and right.has_const
            and not _is_nan(left.const)
            and not _is_nan(right.const)
        ):
            order = _cmp(left.const, right.const)
            if order is not None:
                return order == 0
        if _compare_intervals("<", left, right) or _compare_intervals(
            ">", left, right
        ):
            return False
        return None
    if op == "<>":
        eq = _compare_intervals("=", left, right)
        return None if eq is None else not eq
    if op in (">", ">="):
        flipped = {">": "<", ">=": "<="}[op]
        return _compare_intervals(flipped, right, left)
    if op == "<":
        if left.high is not None and right.low is not None:
            if _cmp(left.high, right.low) == -1:
                return True
        if left.low is not None and right.high is not None:
            if _cmp(left.low, right.high) in (0, 1):
                return False
        return None
    if op == "<=":
        if left.high is not None and right.low is not None:
            if _cmp(left.high, right.low) in (-1, 0):
                return True
        if left.low is not None and right.high is not None:
            if _cmp(left.low, right.high) == 1:
                return False
        return None
    return None


def _facts_from_bool3(b: Bool3) -> ColumnFacts:
    if not b.may_true and not b.may_false:
        return ColumnFacts(nullable=True, always_null=True)
    facts = ColumnFacts(nullable=b.may_null)
    if b.may_true and not b.may_false:
        facts = replace(facts, const=True, has_const=True)
    elif b.may_false and not b.may_true:
        facts = replace(facts, const=False, has_const=True)
    return facts


def expression_facts(expr: Expression, env: dict) -> ColumnFacts:
    """Facts for one expression's value under ``env`` (cid -> facts)."""
    if isinstance(expr, Literal):
        return _const_facts(expr.value)
    if isinstance(expr, ColumnRef):
        return env.get(expr.column.cid, TOP)
    if isinstance(expr, (Comparison, And, Or, Not, IsNull, InList, Like)):
        try:
            if expr.dtype is DataType.BOOLEAN:
                return _facts_from_bool3(bool_range(expr, env))
        except Exception:  # malformed trees have no dtype; stay TOP
            return TOP
        return TOP
    if isinstance(expr, Arithmetic):
        left = expression_facts(expr.left, env)
        right = expression_facts(expr.right, env)
        if left.always_null or right.always_null:
            return ColumnFacts(nullable=True, always_null=True)
        if expr.op == "/":
            # Division by zero yields NULL (the engines' documented
            # degradation), so '/' is always nullable and unbounded.
            return TOP
        low, high = _interval_arith(expr.op, left, right)
        return ColumnFacts(
            nullable=left.nullable or right.nullable, low=low, high=high
        )
    if isinstance(expr, Case):
        branches = [expression_facts(value, env) for _, value in expr.whens]
        branches.append(expression_facts(expr.default, env))
        facts = branches[0]
        for other in branches[1:]:
            facts = join_facts(facts, other)
        return facts
    if isinstance(expr, FunctionCall):
        return _function_facts(expr, env)
    return TOP


def _function_facts(expr: FunctionCall, env: dict) -> ColumnFacts:
    name = expr.name.lower()
    args = [expression_facts(a, env) for a in expr.args]
    if not args:
        return TOP
    if name == "coalesce":
        facts = args[0]
        for other in args[1:]:
            facts = join_facts(facts, other)
        # Non-NULL as soon as any argument is non-NULL.
        return replace(
            facts,
            nullable=all(a.nullable for a in args),
            always_null=all(a.always_null for a in args),
        )
    first = args[0]
    # Every remaining scalar function is NULL iff (some) argument is
    # NULL and non-NULL on all-non-NULL inputs (evaluator semantics).
    nullable = any(a.nullable or a.always_null for a in args)
    if first.always_null:
        return ColumnFacts(nullable=True, always_null=True)
    if name == "abs":
        low = high = None
        if first.low is not None and first.high is not None:
            try:
                spans_zero = first.low <= 0 <= first.high
                bounds = (abs(first.low), abs(first.high))
                low = 0 if spans_zero else min(bounds)
                high = max(bounds)
            except TypeError:
                low = high = None
        return ColumnFacts(nullable=nullable, low=low, high=high)
    if name == "floor":
        import math

        low = high = None
        try:
            low = None if first.low is None else math.floor(first.low)
            high = None if first.high is None else math.floor(first.high)
        except (TypeError, ValueError, OverflowError):
            low = high = None
        return ColumnFacts(nullable=nullable, low=low, high=high)
    if name == "length":
        return ColumnFacts(nullable=nullable, low=0)
    if name in ("round", "lower", "upper", "substr", "concat"):
        return ColumnFacts(nullable=nullable)
    return TOP


# ---------------------------------------------------------------------------
# Predicate-implied narrowing
# ---------------------------------------------------------------------------


def narrow_env(env: dict, predicate: Expression) -> tuple[dict, bool]:
    """Refine ``env`` for rows on which ``predicate`` is TRUE.

    Returns ``(narrowed env, never_true)``; ``never_true`` means the
    predicate provably has an empty TRUE-set (the filter drops every
    row).  Sound under 3VL: a row only survives a filter when the
    condition is identity-TRUE, so e.g. ``x > 5`` implies ``x`` is
    non-NULL with a lower bound.
    """
    env = dict(env)
    for term in conjuncts(predicate):
        _narrow_term(env, term)
    verdict = bool_range(predicate, env)
    never_true = not verdict.may_true or env_contradiction(env)
    return env, never_true


def _vacuous(facts: ColumnFacts) -> bool:
    """No non-NULL value can satisfy these facts (all value claims are
    then vacuous: the column is all-NULL or the relation is empty)."""
    return _empty_interval(facts) or (facts.always_null and not facts.nullable)


def env_contradiction(env: dict) -> bool:
    """True when some column's facts are unsatisfiable by any row —
    an environment no actual row can inhabit (the narrowing assumed a
    predicate that can never be TRUE)."""
    return any(
        _empty_interval(facts) or (facts.always_null and not facts.nullable)
        for facts in env.values()
    )


def _narrow_column(env: dict, cid: int, facts: ColumnFacts) -> None:
    env[cid] = meet_facts(env.get(cid, TOP), facts)


def _narrow_term(env: dict, term: Expression) -> None:
    if isinstance(term, ColumnRef):
        try:
            boolean = term.dtype is DataType.BOOLEAN
        except Exception:
            boolean = False
        if boolean:
            _narrow_column(
                env,
                term.column.cid,
                ColumnFacts(nullable=False, const=True, has_const=True),
            )
        return
    if isinstance(term, Not):
        inner = term.term
        if isinstance(inner, IsNull) and isinstance(inner.operand, ColumnRef):
            _narrow_column(
                env, inner.operand.column.cid, ColumnFacts(nullable=False)
            )
        elif isinstance(inner, ColumnRef):
            _narrow_column(
                env,
                inner.column.cid,
                ColumnFacts(nullable=False, const=False, has_const=True),
            )
        return
    if isinstance(term, IsNull) and isinstance(term.operand, ColumnRef):
        _narrow_column(
            env,
            term.operand.column.cid,
            ColumnFacts(nullable=True, always_null=True),
        )
        return
    if isinstance(term, Like) and isinstance(term.operand, ColumnRef):
        _narrow_column(env, term.operand.column.cid, ColumnFacts(nullable=False))
        return
    if isinstance(term, InList) and isinstance(term.operand, ColumnRef):
        values = []
        literal_only = True
        for item in term.items:
            if isinstance(item, Literal):
                if item.value is not None and not _is_nan(item.value):
                    values.append(item.value)
            else:
                literal_only = False
        facts = ColumnFacts(nullable=False)
        if literal_only and values:
            low = values[0]
            high = values[0]
            for v in values[1:]:
                low = _min_bound(low, v)
                high = _max_bound(high, v)
            facts = replace(
                facts,
                low=_clean_bound(low),
                high=_clean_bound(high),
                const=values[0] if len(set(map(repr, values))) == 1 else None,
                has_const=len(set(map(repr, values))) == 1,
            )
        _narrow_column(env, term.operand.column.cid, facts)
        return
    if isinstance(term, Comparison):
        _narrow_comparison(env, term)
        return
    if isinstance(term, Or):
        branches = []
        for disjunct in disjuncts(term):
            branch = dict(env)
            for conjunct in conjuncts(disjunct):
                _narrow_term(branch, conjunct)
            branches.append(branch)
        touched = set()
        for branch in branches:
            touched |= set(branch)
        for cid in touched:
            joined = branches[0].get(cid, TOP)
            for branch in branches[1:]:
                joined = join_facts(joined, branch.get(cid, TOP))
            _narrow_column(env, cid, joined)
        return


def _narrow_comparison(env: dict, term: Comparison) -> None:
    """``a op b`` TRUE implies both sides non-NULL plus bound transfer."""
    for side, other, op in (
        (term.left, term.right, term.op),
        (term.right, term.left, term.commuted().op),
    ):
        if not isinstance(side, ColumnRef):
            continue
        other_facts = expression_facts(other, env)
        facts = ColumnFacts(nullable=False)
        if op == "=":
            facts = replace(
                facts,
                low=other_facts.low,
                high=other_facts.high,
                const=other_facts.const if not _is_nan(other_facts.const) else None,
                has_const=other_facts.has_const and not _is_nan(other_facts.const),
            )
        elif op in ("<", "<="):
            facts = replace(facts, high=other_facts.high)
        elif op in (">", ">="):
            facts = replace(facts, low=other_facts.low)
        _narrow_column(env, side.column.cid, facts)


# ---------------------------------------------------------------------------
# Plan transfer functions
# ---------------------------------------------------------------------------


def _add_key(keys: list, key: frozenset) -> None:
    if any(existing <= key for existing in keys):
        return
    keys[:] = [existing for existing in keys if not key < existing]
    if len(keys) < MAX_KEYS:
        keys.append(key)


class FactAnalyzer:
    """Memoizing bottom-up interpreter (memo keyed by node identity —
    plans are immutable, so a node's facts never change)."""

    def __init__(self, catalog: "Catalog | None" = None):
        self.catalog = catalog
        self._memo: dict[int, PlanFacts] = {}
        self._pins: list[PlanNode] = []  # keep ids stable while memoized

    def facts(self, plan: PlanNode) -> PlanFacts:
        cached = self._memo.get(id(plan))
        if cached is not None:
            return cached
        result = self._derive(plan)
        self._memo[id(plan)] = result
        self._pins.append(plan)
        return result

    # -- per-node rules ---------------------------------------------------

    def _derive(self, plan: PlanNode) -> PlanFacts:
        handler = _HANDLERS.get(type(plan))
        if handler is None:
            return _top_facts(plan)
        return handler(self, plan)

    def _scan(self, plan: Scan) -> PlanFacts:
        columns: dict[int, ColumnFacts] = {}
        keys: list = []
        max_rows: int | None = None
        catalog = self.catalog
        if catalog is not None and catalog.has_table(plan.table):
            table = catalog.table(plan.table)
            max_rows = catalog.row_count(plan.table)
            empty = max_rows == 0
            for column, source in zip(plan.columns, plan.source_names):
                stats = catalog.column_stats(plan.table, source)
                if stats is None:
                    columns[column.cid] = TOP
                    continue
                nullable = stats.null_fraction > 0.0 and not empty
                low = _clean_bound(stats.min_value)
                high = _clean_bound(stats.max_value)
                has_const = (
                    low is not None and high is not None and _cmp(low, high) == 0
                )
                columns[column.cid] = ColumnFacts(
                    nullable=nullable,
                    always_null=bool(stats.null_fraction >= 1.0 and max_rows),
                    low=low,
                    high=high,
                    const=low if has_const else None,
                    has_const=has_const,
                )
            if table.primary_key:
                sources = dict(zip(plan.source_names, plan.columns))
                if all(name in sources for name in table.primary_key):
                    _add_key(
                        keys,
                        frozenset(sources[name].cid for name in table.primary_key),
                    )
        else:
            columns = {c.cid: TOP for c in plan.columns}
        if plan.predicate is not None:
            columns, never_true = narrow_env(columns, plan.predicate)
            columns = {c.cid: columns.get(c.cid, TOP) for c in plan.columns}
            if never_true:
                max_rows = 0
        return PlanFacts(columns, tuple(keys), max_rows)

    def _values(self, plan: Values) -> PlanFacts:
        columns: dict[int, ColumnFacts] = {}
        keys: list = []
        rows = plan.rows
        for position, column in enumerate(plan.columns):
            cell_values = [row[position] for row in rows]
            non_null = [v for v in cell_values if v is not None]
            if not rows:
                columns[column.cid] = BOTTOM
                continue
            facts = ColumnFacts(
                nullable=len(non_null) < len(cell_values),
                always_null=not non_null,
            )
            if non_null:
                low = high = None
                comparable = not any(_is_nan(v) for v in non_null)
                if comparable:
                    low, high = non_null[0], non_null[0]
                    for v in non_null[1:]:
                        low = _min_bound(low, v)
                        high = _max_bound(high, v)
                distinct = {_canon(v) for v in non_null}
                facts = replace(
                    facts,
                    low=_clean_bound(low),
                    high=_clean_bound(high),
                    const=non_null[0] if len(distinct) == 1 else None,
                    has_const=len(distinct) == 1,
                )
                if len(non_null) == len(cell_values):
                    distinct_all = {_canon(v) for v in cell_values}
                    if len(distinct_all) == len(cell_values):
                        _add_key(keys, frozenset((column.cid,)))
            columns[column.cid] = facts
        return PlanFacts(columns, tuple(keys), len(rows))

    def _filter(self, plan: Filter) -> PlanFacts:
        child = self.facts(plan.child)
        env, never_true = narrow_env(child.columns, plan.condition)
        max_rows = 0 if never_true else child.max_rows
        return PlanFacts(env, child.keys, max_rows)

    def _project(self, plan: Project) -> PlanFacts:
        child = self.facts(plan.child)
        columns: dict[int, ColumnFacts] = {}
        passthrough: dict[int, int] = {}  # child cid -> output cid
        for target, expr in plan.assignments:
            columns[target.cid] = expression_facts(expr, child.columns)
            if isinstance(expr, ColumnRef):
                passthrough.setdefault(expr.column.cid, target.cid)
        keys: list = []
        for key in child.keys:
            if all(cid in passthrough for cid in key):
                _add_key(keys, frozenset(passthrough[cid] for cid in key))
        return PlanFacts(columns, tuple(keys), child.max_rows)

    def _join(self, plan: Join) -> PlanFacts:
        left = self.facts(plan.left)
        right = self.facts(plan.right)
        kind = plan.kind
        left_cids = {c.cid for c in plan.left.output_columns}
        right_cids = {c.cid for c in plan.right.output_columns}
        combined = dict(left.columns)
        combined.update(right.columns)

        narrowed = combined
        never_matches = False
        if plan.condition is not None and kind in (
            JoinKind.INNER,
            JoinKind.LEFT,
            JoinKind.SEMI,
        ):
            narrowed, never_matches = narrow_env(combined, plan.condition)

        equi_left, equi_right = _equi_columns(plan)
        right_at_most_one = right.is_unique(equi_right) if equi_right else False
        left_at_most_one = left.is_unique(equi_left) if equi_left else False

        keys: list = []
        if kind in (JoinKind.SEMI, JoinKind.ANTI):
            columns = {
                cid: (narrowed if kind is JoinKind.SEMI else combined)[cid]
                for cid in left_cids
                if cid in combined
            }
            for key in left.keys:
                _add_key(keys, key)
            max_rows = 0 if kind is JoinKind.SEMI and never_matches else left.max_rows
            return PlanFacts(columns, tuple(keys), max_rows)

        columns = {}
        for cid in left_cids | right_cids:
            if kind is JoinKind.LEFT and cid in right_cids and never_matches:
                # No pair can satisfy the condition: every left row is
                # unmatched and the right side is all-NULL padding.
                facts = ColumnFacts(nullable=True, always_null=True)
            elif kind is JoinKind.LEFT and cid in right_cids:
                # Unmatched left rows pad the right side with NULLs:
                # value bounds from the matched case still hold for
                # non-NULL values, but non-nullability does not.
                facts = replace(narrowed.get(cid, TOP), nullable=True)
                facts = replace(
                    facts, always_null=combined.get(cid, TOP).always_null
                )
            elif kind is JoinKind.LEFT and cid in left_cids:
                facts = combined.get(cid, TOP)  # every left row survives
            else:
                facts = narrowed.get(cid, TOP)
            columns[cid] = facts
        if kind in (JoinKind.INNER, JoinKind.LEFT):
            if right_at_most_one:
                for key in left.keys:
                    _add_key(keys, key)
            if kind is JoinKind.INNER and left_at_most_one:
                for key in right.keys:
                    _add_key(keys, key)
            for lk in left.keys:
                for rk in right.keys:
                    _add_key(keys, lk | rk)
        max_rows = None
        if kind is JoinKind.INNER and never_matches:
            max_rows = 0
        elif left.max_rows is not None and right.max_rows is not None:
            if kind is JoinKind.INNER or kind is JoinKind.CROSS:
                max_rows = left.max_rows * right.max_rows
            elif kind is JoinKind.LEFT:
                max_rows = left.max_rows * max(right.max_rows, 1)
        return PlanFacts(columns, tuple(keys), max_rows)

    def _group_by(self, plan: GroupBy) -> PlanFacts:
        child = self.facts(plan.child)
        columns: dict[int, ColumnFacts] = {}
        for key in plan.keys:
            columns[key.cid] = child.column(key.cid)
        scalar = plan.is_scalar
        for agg in plan.aggregates:
            columns[agg.target.cid] = _aggregate_facts(
                agg.func,
                agg.argument,
                agg.mask,
                child,
                scalar=scalar,
                rows_bound=child.max_rows,
            )
        keys: list = []
        _add_key(keys, frozenset(k.cid for k in plan.keys))
        max_rows = 1 if scalar else child.max_rows
        return PlanFacts(columns, tuple(keys), max_rows)

    def _mark_distinct(self, plan: MarkDistinct) -> PlanFacts:
        child = self.facts(plan.child)
        columns = dict(child.columns)
        columns[plan.marker.cid] = ColumnFacts(nullable=False)
        return PlanFacts(columns, child.keys, child.max_rows)

    def _window(self, plan: Window) -> PlanFacts:
        child = self.facts(plan.child)
        columns = dict(child.columns)
        for fn in plan.functions:
            columns[fn.target.cid] = _aggregate_facts(
                fn.func,
                fn.argument,
                None,
                child,
                scalar=False,
                rows_bound=child.max_rows,
                window=True,
            )
        return PlanFacts(columns, child.keys, child.max_rows)

    def _union_all(self, plan: UnionAll) -> PlanFacts:
        branch_facts = [self.facts(child) for child in plan.inputs]
        columns: dict[int, ColumnFacts] = {}
        for position, out in enumerate(plan.columns):
            joined = None
            for facts, branch in zip(branch_facts, plan.input_columns):
                contribution = facts.column(branch[position].cid)
                joined = (
                    contribution
                    if joined is None
                    else join_facts(joined, contribution)
                )
            columns[out.cid] = joined if joined is not None else BOTTOM
        max_rows: int | None = 0
        for facts in branch_facts:
            if facts.max_rows is None:
                max_rows = None
                break
            max_rows += facts.max_rows
        return PlanFacts(columns, (), max_rows)

    def _limit(self, plan: Limit) -> PlanFacts:
        child = self.facts(plan.child)
        max_rows = plan.count
        if child.max_rows is not None:
            max_rows = min(max_rows, child.max_rows)
        return PlanFacts(child.columns, child.keys, max_rows)

    def _sort(self, plan: Sort) -> PlanFacts:
        child = self.facts(plan.child)
        return PlanFacts(child.columns, child.keys, child.max_rows)

    def _enforce_single_row(self, plan: EnforceSingleRow) -> PlanFacts:
        child = self.facts(plan.child)
        columns = {
            cid: replace(facts, nullable=True)  # empty input pads NULLs
            for cid, facts in child.columns.items()
        }
        return PlanFacts(columns, (frozenset(),), 1)

    def _exchange(self, plan) -> PlanFacts:
        # Exchange is bag-identity: same columns, same rows, so the
        # child's facts transfer unchanged.
        return self.facts(plan.child)

    def _cached_scan(self, plan: CachedScan) -> PlanFacts:
        # Replayed bytes carry no statistics; everything is unknown.
        return _top_facts(plan)

    def _cache_populate(self, plan: CachePopulate) -> PlanFacts:
        return self.facts(plan.child)

    def _scalar_apply(self, plan: ScalarApply) -> PlanFacts:
        inner = self.facts(plan.input)
        sub = self.facts(plan.subquery)
        columns = dict(inner.columns)
        value = sub.column(plan.value.cid)
        # The subquery may yield no row for some outer tuples → NULL.
        columns[plan.output.cid] = replace(value, nullable=True, always_null=False)
        return PlanFacts(columns, inner.keys, inner.max_rows)


def _top_facts(plan: PlanNode) -> PlanFacts:
    return PlanFacts({c.cid: TOP for c in plan.output_columns})


def _equi_columns(plan: Join) -> tuple[set, set]:
    """Column ids on each side joined by top-level equality conjuncts."""
    left_cids = {c.cid for c in plan.left.output_columns}
    right_cids = {c.cid for c in plan.right.output_columns}
    equi_left: set = set()
    equi_right: set = set()
    if plan.condition is None:
        return equi_left, equi_right
    for term in conjuncts(plan.condition):
        if (
            isinstance(term, Comparison)
            and term.op == "="
            and isinstance(term.left, ColumnRef)
            and isinstance(term.right, ColumnRef)
        ):
            a, b = term.left.column.cid, term.right.column.cid
            if a in left_cids and b in right_cids:
                equi_left.add(a)
                equi_right.add(b)
            elif b in left_cids and a in right_cids:
                equi_left.add(b)
                equi_right.add(a)
    return equi_left, equi_right


def _aggregate_facts(
    func: str,
    argument,
    mask,
    child: PlanFacts,
    scalar: bool,
    rows_bound: int | None,
    window: bool = False,
) -> ColumnFacts:
    """Facts for one aggregate/window output.

    Keyed groups and window partitions are non-empty by construction;
    a scalar aggregate may see an empty input.  A mask (or a NULL-able
    argument) can still starve a group, so non-nullability additionally
    requires an unmasked, never-NULL argument.
    """
    from repro.algebra.expressions import TRUE

    arg_facts = None if argument is None else expression_facts(argument, child.columns)
    unmasked = mask is None or mask == TRUE
    if func == "count":
        # count never yields NULL; count(*) over a non-empty group ≥ 1.
        low = 0
        if (
            not scalar
            and argument is None
            and unmasked
        ):
            low = 1
        return ColumnFacts(nullable=False, low=low, high=rows_bound)
    fed = (
        unmasked
        and argument is not None
        and arg_facts is not None
        and not arg_facts.nullable
        and not arg_facts.always_null
    )
    nullable = scalar or not fed
    if func in ("min", "max"):
        # Selected values are actual argument values.
        low = None if arg_facts is None else arg_facts.low
        high = None if arg_facts is None else arg_facts.high
        const = None if arg_facts is None else arg_facts.const
        has_const = arg_facts.has_const if arg_facts is not None else False
        return ColumnFacts(
            nullable=nullable, low=low, high=high, const=const, has_const=has_const
        )
    if func == "stddev_samp":
        return ColumnFacts(nullable=True, low=0)
    # sum / avg: float accumulation order varies per engine; no bounds.
    return ColumnFacts(nullable=nullable)


_HANDLERS = {
    Scan: FactAnalyzer._scan,
    Values: FactAnalyzer._values,
    Filter: FactAnalyzer._filter,
    Project: FactAnalyzer._project,
    Join: FactAnalyzer._join,
    GroupBy: FactAnalyzer._group_by,
    MarkDistinct: FactAnalyzer._mark_distinct,
    Window: FactAnalyzer._window,
    UnionAll: FactAnalyzer._union_all,
    Limit: FactAnalyzer._limit,
    Sort: FactAnalyzer._sort,
    EnforceSingleRow: FactAnalyzer._enforce_single_row,
    CachedScan: FactAnalyzer._cached_scan,
    CachePopulate: FactAnalyzer._cache_populate,
    Exchange: FactAnalyzer._exchange,
    ScalarApply: FactAnalyzer._scalar_apply,
}


def derive_facts(plan: PlanNode, catalog: "Catalog | None" = None) -> PlanFacts:
    """Facts for ``plan``'s output relation (one-shot convenience)."""
    return FactAnalyzer(catalog).facts(plan)


# ---------------------------------------------------------------------------
# Pipeline drift check
# ---------------------------------------------------------------------------


def fact_conflicts(
    before: PlanFacts, after: PlanFacts, columns
) -> list[str]:
    """Definite disagreements between two fact derivations of
    semantically equal plans.

    Both derivations over-approximate the same truth, so they may
    differ in *precision* (one proves non-NULL where the other cannot —
    legal, rewrites legitimately enable sharper analysis) but never in
    *value*: a column cannot be provably always-NULL on one side and
    provably never-NULL on the other, carry two different constants, or
    have disjoint ranges, unless the output is provably empty (then
    every claim is vacuous — such plans are skipped).
    """
    if before.max_rows == 0 or after.max_rows == 0:
        return []
    names = {c.cid: c.name for c in columns}
    conflicts: list[str] = []
    for cid, name in names.items():
        if cid not in before.columns or cid not in after.columns:
            continue
        b, a = before.columns[cid], after.columns[cid]
        if _vacuous(b) or _vacuous(a):
            # One side proves no non-NULL value exists (empty interval
            # or null-conflict element): that only happens on provably
            # empty/all-NULL data, where every claim holds vacuously.
            continue
        if (b.always_null and not a.nullable) or (a.always_null and not b.nullable):
            conflicts.append(
                f"column {name!r}: always-NULL on one side, never-NULL on the other"
            )
            continue
        definite = not b.nullable or not a.nullable
        if not definite:
            continue  # an all-NULL truth would satisfy both sides
        if b.has_const and a.has_const and _cmp(b.const, a.const) not in (0, None):
            conflicts.append(
                f"column {name!r}: constant {b.const!r} became {a.const!r}"
            )
            continue
        if (
            b.high is not None
            and a.low is not None
            and _cmp(b.high, a.low) == -1
        ) or (
            a.high is not None
            and b.low is not None
            and _cmp(a.high, b.low) == -1
        ):
            conflicts.append(
                f"column {name!r}: ranges [{b.low!r}, {b.high!r}] and "
                f"[{a.low!r}, {a.high!r}] are disjoint"
            )
    return conflicts


# ---------------------------------------------------------------------------
# Runtime verification (the fuzzer's analysis oracle)
# ---------------------------------------------------------------------------

_CANON_NAN = float("nan")


def _canon(value: object) -> object:
    """NaN-canonical value for key comparisons (mirrors the engines'
    ``canon_key`` so key facts share their grouping semantics)."""
    if _is_nan(value):
        return _CANON_NAN
    return value


def verify_facts(
    plan: PlanNode,
    rows: list,
    catalog: "Catalog | None" = None,
    facts: PlanFacts | None = None,
) -> list[str]:
    """Check ``rows`` (the executed result of ``plan``) against the
    statically derived facts; returns human-readable violations.

    An empty list means every prediction held.  Any violation is a bug
    in a transfer function, a lying catalog statistic, or an unsound
    rewrite upstream — the analysis oracle treats all three as
    divergences.
    """
    if facts is None:
        facts = derive_facts(plan, catalog)
    columns = plan.output_columns
    violations: list[str] = []
    if facts.max_rows is not None and len(rows) > facts.max_rows:
        violations.append(
            f"predicted at most {facts.max_rows} rows, observed {len(rows)}"
        )
    for index, column in enumerate(columns):
        col_facts = facts.columns.get(column.cid)
        if col_facts is None or col_facts is TOP:
            continue
        for row in rows:
            value = row[index]
            if value is None:
                if not col_facts.nullable:
                    violations.append(
                        f"column {column.name!r} predicted non-NULL but "
                        f"produced NULL"
                    )
                    break
                continue
            if col_facts.always_null:
                violations.append(
                    f"column {column.name!r} predicted always-NULL but "
                    f"produced {value!r}"
                )
                break
            if _is_nan(value):
                continue  # NaN escapes every ordering claim
            if col_facts.has_const and _cmp(value, col_facts.const) != 0:
                violations.append(
                    f"column {column.name!r} predicted constant "
                    f"{col_facts.const!r} but produced {value!r}"
                )
                break
            if col_facts.low is not None and _cmp(value, col_facts.low) == -1:
                violations.append(
                    f"column {column.name!r} produced {value!r} below "
                    f"predicted lower bound {col_facts.low!r}"
                )
                break
            if col_facts.high is not None and _cmp(value, col_facts.high) == 1:
                violations.append(
                    f"column {column.name!r} produced {value!r} above "
                    f"predicted upper bound {col_facts.high!r}"
                )
                break
    position = {c.cid: i for i, c in enumerate(columns)}
    for key in facts.keys:
        if not key <= set(position):
            continue
        indexes = sorted(position[cid] for cid in key)
        seen = set()
        for row in rows:
            probe = tuple(_canon(row[i]) for i in indexes)
            if probe in seen:
                names = [columns[i].name for i in indexes]
                violations.append(
                    f"columns {names!r} predicted unique but produced "
                    f"duplicate {probe!r}"
                )
                break
            seen.add(probe)
    return violations
