"""Expression simplification and contradiction detection.

The optimizer's simplifier folds constants, flattens boolean structure,
and detects contradictions between range predicates on the same column
(used by the UnionAll fusion rule's ``L AND R = FALSE`` fast path and by
filter pruning).  Simplification is semantics-preserving under SQL
three-valued logic *for filter contexts*: an expression used as a
filter condition treats NULL like FALSE, so rewrites only need to
preserve the TRUE-set.  :func:`simplify` preserves full 3VL semantics;
:func:`simplify_filter` may additionally turn never-TRUE conditions
into FALSE.
"""

from __future__ import annotations

import operator
from typing import Iterable

from repro.algebra.expressions import (
    FALSE,
    TRUE,
    And,
    Arithmetic,
    Case,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    conjuncts,
    disjuncts,
    make_and,
    make_or,
    normalize,
    transform_memoized,
)
from repro.algebra.schema import Column
from repro.algebra.types import DataType

_CMP = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _fold_arithmetic(expr: Arithmetic) -> Expression:
    if isinstance(expr.left, Literal) and isinstance(expr.right, Literal):
        a, b = expr.left.value, expr.right.value
        if a is None or b is None:
            return Literal(None, expr.dtype)
        if expr.op == "+":
            return Literal(a + b, expr.dtype)
        if expr.op == "-":
            return Literal(a - b, expr.dtype)
        if expr.op == "*":
            return Literal(a * b, expr.dtype)
        if b != 0:
            return Literal(a / b, expr.dtype)
    return expr


def _fold_comparison(expr: Comparison) -> Expression:
    if isinstance(expr.left, Literal) and isinstance(expr.right, Literal):
        if expr.left.value is None or expr.right.value is None:
            return Literal(None, DataType.BOOLEAN)
        return TRUE if _CMP[expr.op](expr.left.value, expr.right.value) else FALSE
    return expr


def _absorb(terms: list[Expression]) -> list[Expression]:
    """Absorption law inside a conjunction: ``x AND (x OR y) = x``.

    A disjunctive conjunct is dropped when one of its disjuncts is
    implied by the other conjuncts (every conjunct of that disjunct
    appears among them).  Valid under Kleene three-valued logic.  This
    is what collapses the cumulative compensating filters produced by
    n-ary fusion (``b1 AND (b1 OR b2) AND (b1 OR b2 OR b3)`` → ``b1``).
    """
    if len(terms) < 2:
        return terms
    normalized = {normalize(t) for t in terms}
    kept: list[Expression] = []
    for term in terms:
        if isinstance(term, Or):
            context = normalized - {normalize(term)}
            implied = any(
                all(normalize(c) in context for c in conjuncts(d))
                for d in disjuncts(term)
            )
            if implied:
                continue
        kept.append(term)
    return kept


def simplify(expr: Expression) -> Expression:
    """Constant folding + boolean flattening, 3VL-safe everywhere;
    computed once per node (:func:`transform_memoized`)."""

    def step(node: Expression) -> Expression:
        if isinstance(node, Comparison):
            return _fold_comparison(node)
        if isinstance(node, Arithmetic):
            return _fold_arithmetic(node)
        if isinstance(node, Not):
            if node.term == TRUE:
                return FALSE
            if node.term == FALSE:
                return TRUE
            if isinstance(node.term, Not):
                return node.term.term
            if isinstance(node.term, Comparison):
                return node.term.negated()
            return node
        if isinstance(node, And):
            terms = []
            for term in conjuncts(node):
                if term == FALSE:
                    return FALSE
                if term != TRUE:
                    terms.append(term)
            return make_and(_absorb(terms))
        if isinstance(node, Or):
            terms = []
            for term in disjuncts(node):
                if term == TRUE:
                    return TRUE
                if term != FALSE:
                    terms.append(term)
            return make_or(terms)
        if isinstance(node, IsNull):
            if isinstance(node.operand, Literal):
                return TRUE if node.operand.value is None else FALSE
            return node
        if isinstance(node, InList):
            if isinstance(node.operand, Literal) and all(
                isinstance(i, Literal) for i in node.items
            ):
                if node.operand.value is None:
                    return Literal(None, DataType.BOOLEAN)
                values = {i.value for i in node.items if i.value is not None}
                if node.operand.value in values:
                    return TRUE
                if any(i.value is None for i in node.items):
                    return Literal(None, DataType.BOOLEAN)
                return FALSE
            return node
        if isinstance(node, Case):
            whens = []
            for cond, value in node.whens:
                if cond == FALSE or (isinstance(cond, Literal) and cond.value is None):
                    continue
                whens.append((cond, value))
                if cond == TRUE:
                    break
            if whens and whens[0][0] == TRUE:
                return whens[0][1]
            if not whens:
                return node.default
            return Case(tuple(whens), node.default)
        return node

    return transform_memoized(expr, step, "_simplified")


# ---------------------------------------------------------------------------
# Contradiction detection (filter contexts)
# ---------------------------------------------------------------------------


class _Range:
    """An interval with optional excluded points, for one column."""

    __slots__ = ("low", "low_inclusive", "high", "high_inclusive", "not_equal")

    def __init__(self) -> None:
        self.low: object | None = None
        self.low_inclusive = True
        self.high: object | None = None
        self.high_inclusive = True
        self.not_equal: set[object] = set()

    def add_low(self, value: object, inclusive: bool) -> None:
        if self.low is None or value > self.low or (value == self.low and not inclusive):
            self.low = value
            self.low_inclusive = inclusive

    def add_high(self, value: object, inclusive: bool) -> None:
        if self.high is None or value < self.high or (value == self.high and not inclusive):
            self.high = value
            self.high_inclusive = inclusive

    @property
    def empty(self) -> bool:
        if self.low is None or self.high is None:
            return False
        if self.low > self.high:
            return True
        if self.low == self.high:
            if not (self.low_inclusive and self.high_inclusive):
                return True
            if self.low in self.not_equal:
                return True
        return False


def _comparable(a: object, b: object) -> bool:
    return isinstance(a, type(b)) or isinstance(b, type(a)) or (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    )


def is_contradiction(expr: Expression) -> bool:
    """True when ``expr`` can never evaluate to TRUE (filter context).

    Detects conjunctions of comparisons between a single column and
    literals whose ranges are disjoint (``x=1 AND x=2``,
    ``x<5 AND x>10``, ``tag=1 AND tag=2``, BETWEEN bands that do not
    overlap), and literal FALSE.  Sound but incomplete: returning False
    means "could not prove a contradiction".
    """
    expr = simplify(expr)
    if expr == FALSE:
        return True
    if isinstance(expr, Literal):
        # FALSE and NULL never pass a filter; any other literal might.
        return expr.value is not True
    ranges: dict[Column, _Range] = {}
    in_sets: dict[Column, set] = {}
    for term in conjuncts(expr):
        if term == FALSE:
            return True
        column, op, value = _column_literal_comparison(term)
        if column is not None:
            rng = ranges.setdefault(column, _Range())
            current_bounds = [v for v in (rng.low, rng.high) if v is not None]
            if any(not _comparable(value, b) for b in current_bounds):
                continue
            if op == "=":
                rng.add_low(value, True)
                rng.add_high(value, True)
            elif op == "<>":
                rng.not_equal.add(value)
            elif op == "<":
                rng.add_high(value, False)
            elif op == "<=":
                rng.add_high(value, True)
            elif op == ">":
                rng.add_low(value, False)
            elif op == ">=":
                rng.add_low(value, True)
            if rng.empty:
                return True
            continue
        if isinstance(term, InList) and isinstance(term.operand, ColumnRef):
            if all(isinstance(i, Literal) for i in term.items):
                values = {i.value for i in term.items if i.value is not None}
                col = term.operand.column
                if col in in_sets:
                    in_sets[col] &= values
                else:
                    in_sets[col] = set(values)
                if not in_sets[col]:
                    return True
    for col, values in in_sets.items():
        rng = ranges.get(col)
        if rng is None:
            continue
        surviving = set()
        for v in values:
            probe = _Range()
            probe.low, probe.low_inclusive = rng.low, rng.low_inclusive
            probe.high, probe.high_inclusive = rng.high, rng.high_inclusive
            probe.not_equal = set(rng.not_equal)
            if all(_comparable(v, b) for b in (probe.low, probe.high) if b is not None):
                probe.add_low(v, True)
                probe.add_high(v, True)
                if not probe.empty:
                    surviving.add(v)
            else:
                surviving.add(v)
        if not surviving:
            return True
    return False


def _column_literal_comparison(term: Expression):
    """Decompose ``column op literal`` (either orientation); returns
    (None, None, None) when the term has a different shape."""
    if isinstance(term, Comparison):
        left, right = term.left, term.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal) and right.value is not None:
            return left.column, term.op, right.value
        if isinstance(right, ColumnRef) and isinstance(left, Literal) and left.value is not None:
            commuted = term.commuted()
            return right.column, commuted.op, left.value
    return None, None, None


def simplify_filter(expr: Expression) -> Expression:
    """Simplify for a filter context: additionally collapses provable
    contradictions to FALSE."""
    expr = simplify(expr)
    if is_contradiction(expr):
        return FALSE
    if isinstance(expr, Or):
        terms = [t for t in disjuncts(expr) if not is_contradiction(t)]
        return make_or(terms) if terms else FALSE
    return expr


def implied_by(candidate: Expression, context: Iterable[Expression]) -> bool:
    """True when every conjunct of ``candidate`` appears (syntactically,
    modulo normalization) among ``context`` conjuncts."""
    have = {normalize(c) for c in context}
    return all(normalize(c) in have for c in conjuncts(candidate))


def simplify_with_facts(expr: Expression, env: dict) -> Expression:
    """Simplify ``expr`` using derived column facts (``env`` maps
    column id -> :class:`~repro.algebra.analysis.ColumnFacts`).

    Any boolean subexpression whose abstract evaluation admits a single
    Kleene outcome is replaced by that literal (TRUE / FALSE / NULL) —
    full 3VL-preserving, so the result is valid in any context, not
    just filters.  Falls back to the fact-free :func:`simplify`.
    """
    from repro.algebra.analysis import bool_range
    from repro.algebra.expressions import NULL
    from repro.algebra.types import DataType

    def fold(node: Expression) -> Expression:
        is_bool = isinstance(node, (Comparison, InList, IsNull, Like, Not, And, Or)) or (
            isinstance(node, ColumnRef) and node.dtype is DataType.BOOLEAN
        )
        if is_bool:
            verdict = bool_range(node, env)
            outcomes = int(verdict.may_true) + int(verdict.may_false) + int(
                verdict.may_null
            )
            if outcomes <= 1:
                if verdict.may_true:
                    return TRUE
                if verdict.may_false:
                    return FALSE
                return NULL
        children = node.children
        if not children:
            return node
        folded = tuple(fold(child) for child in children)
        if all(new is old for new, old in zip(folded, children)):
            return node
        return node.with_children(folded)

    return simplify(fold(expr))
