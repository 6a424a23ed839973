"""Scalar expression evaluation, aggregate accumulators and lowering.

:func:`compile_expression` is the scalar reference compiler: the row
engine runs it, and the block compiler
(:func:`repro.engine.vectors.compile_expression_block`) is tested
against it lane by lane.

Expressions compile to Python closures over row tuples.  Column
references resolve to tuple indexes at compile time; references that
are not in the row schema fall back to the runtime context's
correlation environment (used by the ScalarApply nested-loop fallback).

SQL three-valued logic: ``None`` is NULL.  Comparisons and arithmetic
return NULL when any operand is NULL; AND/OR follow Kleene logic;
filters treat non-TRUE as reject.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable

from repro.algebra.expressions import (
    TRUE,
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
)
from repro.algebra.schema import Column
from repro.errors import ExecutionError

RowFn = Callable[[tuple], object]


def column_indexes(columns: tuple[Column, ...]) -> dict[int, int]:
    """Map column id -> tuple position for a row schema."""
    return {col.cid: i for i, col in enumerate(columns)}


# Compiled LIKE patterns are shared process-wide.  The cache is a
# small LRU (dicts preserve insertion order; a hit reinserts the key)
# so a long-lived session evaluating many distinct patterns cannot grow
# it without bound.  Locked: concurrent server queries share it, and
# the evict-oldest sequence is not atomic under threads.
_LIKE_CACHE: dict[str, re.Pattern] = {}
_LIKE_CACHE_MAX = 256
_LIKE_CACHE_LOCK = threading.Lock()


def _like_pattern(pattern: str) -> re.Pattern:
    with _LIKE_CACHE_LOCK:
        compiled = _LIKE_CACHE.pop(pattern, None)
        if compiled is not None:
            _LIKE_CACHE[pattern] = compiled
            return compiled
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    compiled = re.compile(f"^{regex}$", re.DOTALL)
    with _LIKE_CACHE_LOCK:
        if pattern not in _LIKE_CACHE and len(_LIKE_CACHE) >= _LIKE_CACHE_MAX:
            del _LIKE_CACHE[next(iter(_LIKE_CACHE))]
        _LIKE_CACHE[pattern] = compiled
    return compiled


def _eq(a: object, b: object) -> object:
    if a is None or b is None:
        return None
    return a == b


_COMPARATORS: dict[str, Callable[[object, object], object]] = {
    "=": _eq,
    "<>": lambda a, b: None if a is None or b is None else a != b,
    "<": lambda a, b: None if a is None or b is None else a < b,
    "<=": lambda a, b: None if a is None or b is None else a <= b,
    ">": lambda a, b: None if a is None or b is None else a > b,
    ">=": lambda a, b: None if a is None or b is None else a >= b,
}


def _scalar_abs(args: list[object]) -> object:
    return None if args[0] is None else abs(args[0])


def _scalar_coalesce(args: list[object]) -> object:
    for value in args:
        if value is not None:
            return value
    return None


def _scalar_round(args: list[object]) -> object:
    if args[0] is None:
        return None
    digits = args[1] if len(args) > 1 and args[1] is not None else 0
    return round(float(args[0]), int(digits))


def _scalar_floor(args: list[object]) -> object:
    return None if args[0] is None else math.floor(args[0])


def _scalar_length(args: list[object]) -> object:
    return None if args[0] is None else len(args[0])


def _scalar_lower(args: list[object]) -> object:
    return None if args[0] is None else str(args[0]).lower()


def _scalar_upper(args: list[object]) -> object:
    return None if args[0] is None else str(args[0]).upper()


def _scalar_substr(args: list[object]) -> object:
    if args[0] is None or args[1] is None:
        return None
    start = int(args[1]) - 1
    if len(args) > 2 and args[2] is not None:
        return str(args[0])[start : start + int(args[2])]
    return str(args[0])[start:]


def _scalar_concat(args: list[object]) -> object:
    if any(a is None for a in args):
        return None
    return "".join(str(a) for a in args)


SCALAR_FUNCTIONS: dict[str, Callable[[list[object]], object]] = {
    "abs": _scalar_abs,
    "coalesce": _scalar_coalesce,
    "round": _scalar_round,
    "floor": _scalar_floor,
    "length": _scalar_length,
    "lower": _scalar_lower,
    "upper": _scalar_upper,
    "substr": _scalar_substr,
    "concat": _scalar_concat,
}


def compile_expression(
    expr: Expression,
    columns: tuple[Column, ...],
    env: dict[int, object] | None = None,
) -> RowFn:
    """Compile ``expr`` into a ``row -> value`` closure.

    ``env`` is the mutable correlation environment: a reference to a
    column outside the row schema reads ``env[cid]`` at call time.
    """
    indexes = column_indexes(columns)

    def build(node: Expression) -> RowFn:
        if isinstance(node, Literal):
            value = node.value
            return lambda row: value
        if isinstance(node, ColumnRef):
            cid = node.column.cid
            index = indexes.get(cid)
            if index is not None:
                return lambda row: row[index]
            if env is None:
                raise ExecutionError(
                    f"column {node.column!r} is not available in this row schema"
                )

            def read_env(row: tuple, cid: int = cid) -> object:
                try:
                    return env[cid]
                except KeyError:
                    raise ExecutionError(
                        f"unbound correlated column id {cid}"
                    ) from None

            return read_env
        if isinstance(node, Comparison):
            left = build(node.left)
            right = build(node.right)
            compare = _COMPARATORS[node.op]
            return lambda row: compare(left(row), right(row))
        if isinstance(node, And):
            terms = [build(t) for t in node.terms]

            def eval_and(row: tuple) -> object:
                saw_null = False
                for term in terms:
                    value = term(row)
                    if value is False:
                        return False
                    if value is None:
                        saw_null = True
                return None if saw_null else True

            return eval_and
        if isinstance(node, Or):
            terms = [build(t) for t in node.terms]

            def eval_or(row: tuple) -> object:
                saw_null = False
                for term in terms:
                    value = term(row)
                    if value is True:
                        return True
                    if value is None:
                        saw_null = True
                return None if saw_null else False

            return eval_or
        if isinstance(node, Not):
            term = build(node.term)

            def eval_not(row: tuple) -> object:
                value = term(row)
                return None if value is None else not value

            return eval_not
        if isinstance(node, Arithmetic):
            left = build(node.left)
            right = build(node.right)
            op = node.op

            def eval_arith(row: tuple) -> object:
                a = left(row)
                b = right(row)
                if a is None or b is None:
                    return None
                if op == "+":
                    return a + b
                if op == "-":
                    return a - b
                if op == "*":
                    return a * b
                if b == 0:
                    return None  # SQL raises; we degrade gracefully (documented)
                return a / b

            return eval_arith
        if isinstance(node, IsNull):
            operand = build(node.operand)
            return lambda row: operand(row) is None
        if isinstance(node, InList):
            operand = build(node.operand)
            items = [build(i) for i in node.items]

            def eval_in(row: tuple) -> object:
                value = operand(row)
                if value is None:
                    return None
                saw_null = False
                for item in items:
                    candidate = item(row)
                    if candidate is None:
                        saw_null = True
                    elif candidate == value:
                        return True
                return None if saw_null else False

            return eval_in
        if isinstance(node, Like):
            operand = build(node.operand)
            regex = _like_pattern(node.pattern)

            def eval_like(row: tuple) -> object:
                value = operand(row)
                if value is None:
                    return None
                return regex.match(str(value)) is not None

            return eval_like
        if isinstance(node, Case):
            whens = [(build(c), build(v)) for c, v in node.whens]
            default = build(node.default)

            def eval_case(row: tuple) -> object:
                for cond, value in whens:
                    if cond(row) is True:
                        return value(row)
                return default(row)

            return eval_case
        if isinstance(node, FunctionCall):
            impl = SCALAR_FUNCTIONS.get(node.name.lower())
            if impl is None:
                raise ExecutionError(f"unknown scalar function {node.name!r}")
            args = [build(a) for a in node.args]
            return lambda row: impl([a(row) for a in args])
        raise ExecutionError(f"cannot evaluate expression {node!r}")

    return build(expr)


#: The one NaN every group key uses (see :func:`canon_key`).
_CANON_NAN = float("nan")


def canon_key(value):
    """Canonicalize one group-key value: every float NaN maps to a
    single shared NaN object, so all NaN keys land in one group.  A
    plain Python dict would otherwise group NaNs by *object identity*
    (``hash`` equal, ``==`` false, identity short-circuit true), which
    is unobservable at the SQL level and impossible to reproduce once
    values round-trip through NumPy arrays."""
    if isinstance(value, float) and value != value:
        return _CANON_NAN
    return value


def env_free(expr: Expression, columns) -> bool:
    """True when every column reference in ``expr`` resolves inside
    ``columns`` — i.e. a compiled closure never reads the correlation
    env and is a pure function of ``(expr, columns)``."""
    cids = {col.cid for col in columns}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ColumnRef) and node.column.cid not in cids:
            return False
        stack.extend(node.children)
    return True


def lower_aggregates(aggregates, compile) -> tuple[list, list[tuple]]:
    """Lower a GroupBy's aggregate assignments for any engine.

    Fused GroupBys carry many aggregates sharing a few distinct masks
    and arguments (§III.E): each distinct expression gets one slot and
    is compiled once with ``compile(expr)``, so it is evaluated once
    per row/block and shared.  Returns ``(slot_fns, specs)``, one
    ``(func, distinct, arg_slot, mask_slot)`` spec per aggregate;
    ``arg_slot is None`` is ``count(*)``, ``mask_slot is None`` an
    unmasked aggregate.
    """
    slot_fns: list = []
    slots: dict[Expression, int] = {}

    def shared(expr: Expression) -> int:
        slot = slots.get(expr)
        if slot is None:
            slot = slots[expr] = len(slot_fns)
            slot_fns.append(compile(expr))
        return slot

    specs = [
        (
            a.func,
            a.distinct,
            None if a.argument is None else shared(a.argument),
            None if a.mask == TRUE else shared(a.mask),
        )
        for a in aggregates
    ]
    return slot_fns, specs


class Aggregator:
    """Incremental aggregate accumulator (one per aggregate per group).

    Skips NULL inputs (except ``count(*)``); supports DISTINCT by
    keeping a per-group seen set.
    """

    __slots__ = ("func", "distinct", "count", "total", "extreme", "sq_total", "seen")

    def __init__(self, func: str, distinct: bool = False):
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total = 0
        self.sq_total = 0.0
        self.extreme: object | None = None
        self.seen: set | None = set() if distinct else None

    def add(self, value: object) -> None:
        func = self.func
        if func == "count" and value is not None:
            if self.seen is not None:
                # DISTINCT dedup uses canon_key semantics: a raw
                # seen-set would dedup NaN by object identity (hash
                # equal, == false, identity short-circuit true), which
                # diverges between engines once values round-trip
                # through NumPy arrays.
                probe = canon_key(value)
                if probe in self.seen:
                    return
                self.seen.add(probe)
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            probe = canon_key(value)
            if probe in self.seen:
                return
            self.seen.add(probe)
        if func in ("sum", "avg"):
            self.count += 1
            self.total += value
        elif func == "min":
            if self.extreme is None or value < self.extreme:
                self.extreme = value
        elif func == "max":
            if self.extreme is None or value > self.extreme:
                self.extreme = value
        elif func == "stddev_samp":
            self.count += 1
            self.total += value
            self.sq_total += value * value

    def add_count_star(self) -> None:
        self.count += 1

    def result(self) -> object:
        func = self.func
        if func == "count":
            return self.count
        if func == "sum":
            return self.total if self.count else None
        if func == "avg":
            return self.total / self.count if self.count else None
        if func in ("min", "max"):
            return self.extreme
        if func == "stddev_samp":
            if self.count < 2:
                return None
            mean = self.total / self.count
            variance = (self.sq_total - self.count * mean * mean) / (self.count - 1)
            return math.sqrt(max(variance, 0.0))
        raise ExecutionError(f"unknown aggregate {func!r}")
