"""Block expression compiler and column vectors.

Every block-at-a-time consumer — the batch engine's operators, over
lists or (under the compiled engine) vectors, and the array join —
evaluates expressions
through :func:`compile_expression_block`: one ``(cols, n) -> column``
closure tree whose handlers pick their path from the *representation*
of the operands they receive at run time.  A block column is either a
Python list or a :class:`NumpyVector` (a NumPy array plus an optional
validity mask; scans hand these out with ``as_vectors=True``).  A
handler takes the array path when an operand is a ``NumpyVector`` and
the list-comprehension path otherwise; it never touches ``np`` unless
an operand is a ``NumpyVector``, so ``vectors="python"``,
``REPRO_DISABLE_NUMPY=1`` and the batch engine all run the very same
list closures.  The scalar :func:`~repro.engine.evaluator.
compile_expression` is the independent reference both paths are tested
against.

Semantics (one statement for both paths; DESIGN.md §7):

* **NULL** is ``None`` in a list and a False validity bit in a vector
  (``valid is None`` means all lanes valid; invalid lanes hold a benign
  0/False fill).  Comparison, arithmetic, NOT, IN and LIKE are NULL
  where an operand is NULL.
* **AND/OR** are Kleene: ``False AND NULL = False``, ``True OR NULL =
  True``.  Only identity ``True`` counts as true for OR, only identity
  ``False`` as false for AND, as in the scalar compiler.  Over list
  columns they evaluate by selection, like CASE: a lane an earlier
  term made ``False`` (AND) / ``True`` (OR) is final, and once few
  enough lanes are still undecided for the remaining terms to repay a
  gather (``_NARROW_*``), later terms see only those lanes — so a term
  may, but need not, be spared the lanes earlier terms decided.  A
  block holding a vector column folds whole arrays instead.
* **Division by zero** yields NULL (``0``, ``-0.0`` and ``False`` are
  all zero divisors).
* **Filters and aggregate masks** keep a lane only when the value is
  identity-``True``.
* **CASE** is lazy: a branch is evaluated only for the lanes that
  reach it, so a branch that would raise on other lanes never sees
  them.
* **NaN** compares false to everything including itself; GROUP BY /
  DISTINCT canonicalize every NaN to one key (``canon_key``).
* **Integer exactness**: Python ints are unbounded, int64 lanes are
  not.  Columns holding an int at or beyond ±2**62 stay lists; array
  ``+ - *`` and array ``SUM``/``AVG``/``STDDEV_SAMP`` run only when
  operand magnitudes cannot reach 2**62, array ``/`` and int-vs-float
  comparisons only when every int is at most 2**53 (exactly
  representable as a double) — otherwise that block takes the list
  path (:func:`_array_exact`).  Integer and boolean results are
  therefore bit-identical across representations; float *accumulation
  order* differs (``ndarray.sum`` is pairwise, the list path folds
  left to right), the last-ulp latitude the oracle already grants
  fusion.

``REPRO_DISABLE_NUMPY=1`` (or NumPy being absent) disables vectors at
run time: :func:`numpy_enabled` is re-checked on every conversion, so
the pure-Python fallback is testable in a NumPy-equipped process.
"""

from __future__ import annotations

import operator
import os
import threading
import zlib
from typing import Callable

try:  # pragma: no cover - exercised via numpy_enabled()
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None

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
    columns_in,
    walk,
)
from repro.algebra.types import DataType
from repro.engine.evaluator import (
    SCALAR_FUNCTIONS,
    _like_pattern,
    column_indexes,
    env_free,
)
from repro.errors import ExecutionError


def numpy_enabled() -> bool:
    """True when the NumPy backend may be used (import succeeded and
    ``REPRO_DISABLE_NUMPY`` is unset).  Checked at call time so tests
    and the CI fallback job can flip the environment variable without
    re-importing."""
    return np is not None and not os.environ.get("REPRO_DISABLE_NUMPY")


#: Exact Python element type required per storage dtype.  Mixed-type or
#: otherwise ineligible columns stay Python lists — round-tripping a
#: value through the array must preserve its exact type, or engines
#: would disagree on output rows (``3`` vs ``3.0``) and sort keys.
_ELEMENT_TYPES = {
    DataType.INTEGER: int,
    DataType.DATE: int,  # DATE is an integer day number
    DataType.DOUBLE: float,
    DataType.BOOLEAN: bool,
}

_NP_DTYPES = {int: "int64", float: "float64", bool: "bool"}

#: int64 magnitude guard: array + - * and array sums run only while
#: operand magnitudes cannot reach this (Python ints are exact).
_INT_GUARD = 1 << 62

#: Largest int magnitude a float64 holds exactly: array division and
#: int-vs-float comparison convert ints to doubles.
_FLOAT_EXACT = 1 << 53


class NumpyVector:
    """One column vector: ``data`` ndarray + optional validity mask.

    ``valid`` is ``None`` when every lane is valid, else a bool array
    where False marks NULL.  Instances are immutable by the same
    convention as list blocks; slicing returns views.
    """

    __slots__ = ("data", "valid")

    def __init__(self, data, valid=None):
        self.data = data
        self.valid = valid

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self):
        return iter(self.tolist())

    def __getitem__(self, item):
        if isinstance(item, slice):
            valid = self.valid
            return NumpyVector(
                self.data[item], None if valid is None else valid[item]
            )
        if self.valid is not None and not self.valid[item]:
            return None
        return self.data[item].item()

    def tolist(self) -> list:
        out = self.data.tolist()
        if self.valid is None:
            return out
        return [
            v if ok else None for v, ok in zip(out, self.valid.tolist())
        ]

    def take(self, indexes) -> "NumpyVector":
        valid = self.valid
        return NumpyVector(
            self.data[indexes], None if valid is None else valid[indexes]
        )

    def checksum(self) -> int:
        """Content digest over the raw array buffers (C-speed; no
        re-tupling of Python values)."""
        crc = zlib.crc32(memoryview(np.ascontiguousarray(self.data)))
        if self.valid is not None:
            crc = zlib.crc32(
                memoryview(np.ascontiguousarray(self.valid)), crc
            )
        return crc


def vector_from_values(values: list, dtype: DataType) -> NumpyVector | None:
    """Convert one column's Python values to a vector, or ``None`` when
    the column is ineligible (strings, mixed element types, ints beyond
    the int64 guard, or the backend disabled)."""
    if not numpy_enabled():
        return None
    element = _ELEMENT_TYPES.get(dtype)
    if element is None:
        return None
    has_null = False
    for v in values:
        if v is None:
            has_null = True
        elif type(v) is not element:
            return None
        elif element is int and not -_INT_GUARD < v < _INT_GUARD:
            return None
    np_dtype = _NP_DTYPES[element]
    try:
        if not has_null:
            return NumpyVector(np.array(values, dtype=np_dtype))
        data = np.array(
            [0 if v is None else v for v in values], dtype=np_dtype
        )
        valid = np.array([v is not None for v in values], dtype=bool)
        return NumpyVector(data, valid)
    except (OverflowError, ValueError):  # pragma: no cover - guarded above
        return None


def delist(column):
    """A plain Python list view of a column (no-op for lists)."""
    if type(column) is NumpyVector:
        return column.tolist()
    return column


# -- runtime values ------------------------------------------------------


class VConst:
    """A per-block-constant expression value (literal or correlated
    env reference): one scalar standing for all ``n`` lanes."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


_NULL = VConst(None)


def as_list(value, n: int) -> list:
    """The ``n`` lane values of any runtime value as a Python list."""
    if type(value) is VConst:
        return [value.value] * n
    return delist(value)


def _and_valid(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def true_mask(mask):
    """Identity-True lanes of a boolean vector as a bool ndarray, or
    ``None`` when the mask is a list."""
    if type(mask) is not NumpyVector:
        return None
    return mask.data & mask.valid if mask.valid is not None else mask.data


def _bool_lanes(value):
    """(true_lanes, false_lanes) of a Kleene operand — bool arrays for
    a boolean vector, Python bools (which broadcast) for a constant —
    or ``None`` for lists and non-boolean vectors."""
    if type(value) is VConst:
        return value.value is True, value.value is False
    if type(value) is NumpyVector and value.data.dtype.kind == "b":
        data, valid = value.data, value.valid
        if valid is None:
            return data, ~data
        return data & valid, ~data & valid
    return None


def _lanes_to_vector(true_lanes, false_lanes) -> NumpyVector:
    decided = true_lanes | false_lanes
    if decided.all():
        return NumpyVector(true_lanes)
    return NumpyVector(true_lanes, decided)


# -- per-node evaluation -------------------------------------------------

#: List-path kernels: one inlined comprehension per operator (an
#: ``operator.*`` call per lane costs about 2x).  The ``_K`` forms take
#: a non-NULL scalar right-hand side — literals and correlated values.
_CMP_LIST = {
    "=": lambda a, b: [
        None if x is None or y is None else x == y for x, y in zip(a, b)
    ],
    "<>": lambda a, b: [
        None if x is None or y is None else x != y for x, y in zip(a, b)
    ],
    "<": lambda a, b: [
        None if x is None or y is None else x < y for x, y in zip(a, b)
    ],
    "<=": lambda a, b: [
        None if x is None or y is None else x <= y for x, y in zip(a, b)
    ],
    ">": lambda a, b: [
        None if x is None or y is None else x > y for x, y in zip(a, b)
    ],
    ">=": lambda a, b: [
        None if x is None or y is None else x >= y for x, y in zip(a, b)
    ],
}
_CMP_LIST_K = {
    "=": lambda a, k: [None if x is None else x == k for x in a],
    "<>": lambda a, k: [None if x is None else x != k for x in a],
    "<": lambda a, k: [None if x is None else x < k for x in a],
    "<=": lambda a, k: [None if x is None else x <= k for x in a],
    ">": lambda a, k: [None if x is None else x > k for x in a],
    ">=": lambda a, k: [None if x is None else x >= k for x in a],
}
_ARITH_LIST = {
    "+": lambda a, b: [
        None if x is None or y is None else x + y for x, y in zip(a, b)
    ],
    "-": lambda a, b: [
        None if x is None or y is None else x - y for x, y in zip(a, b)
    ],
    "*": lambda a, b: [
        None if x is None or y is None else x * y for x, y in zip(a, b)
    ],
    "/": lambda a, b: [
        None if x is None or y is None or y == 0 else x / y
        for x, y in zip(a, b)
    ],
}

#: Scalar/array operators (``operator.*`` broadcasts over ndarrays).
_OPERATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _array_operand(x):
    """``(data, valid)`` when ``x`` can enter an array operation — a
    vector, or a numeric constant (which broadcasts) — else ``None``."""
    if type(x) is NumpyVector:
        return x.data, x.valid
    if type(x) is VConst and isinstance(x.value, (bool, int, float)):
        return x.value, None
    return None


def _kind(x) -> str:
    """NumPy-style kind of an array operand: b(ool), i(nt) or f(loat)."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind
    return "b" if isinstance(x, bool) else "i" if isinstance(x, int) else "f"


def _int_bound(x) -> int:
    """Largest int magnitude in an array operand (0 for floats/bools)."""
    if isinstance(x, np.ndarray):
        return int(np.abs(x).max()) if x.dtype.kind == "i" and x.size else 0
    return abs(x) if type(x) is int else 0


def _array_exact(op: str, a_data, b_data) -> bool:
    """True when the NumPy ``op`` over these operands equals Python's
    scalar semantics lane for lane (module docstring, "Integer
    exactness").  Floats always pass — they round and saturate exactly
    like Python floats."""
    kinds = _kind(a_data) + _kind(b_data)
    arithmetic = op in _ARITH_LIST
    if arithmetic and "b" in kinds:
        return False  # Python adds bools as ints; NumPy does not
    if "i" not in kinds or (not arithmetic and "f" not in kinds):
        return True
    a_bound, b_bound = _int_bound(a_data), _int_bound(b_data)
    if op in ("+", "-"):
        return a_bound + b_bound < _INT_GUARD
    if op == "*":
        return a_bound * b_bound < _INT_GUARD
    return max(a_bound, b_bound) <= _FLOAT_EXACT  # "/", int-vs-float compare


def _binary(op: str, a, b, n: int):
    """One comparison or arithmetic node over runtime operand values."""
    ta, tb = type(a), type(b)
    divide = op == "/"
    if (ta is VConst and a.value is None) or (tb is VConst and b.value is None):
        return _NULL
    if ta is VConst and tb is VConst:
        if divide and b.value == 0:
            return _NULL
        return VConst(_OPERATORS[op](a.value, b.value))
    if ta is NumpyVector or tb is NumpyVector:
        left, right = _array_operand(a), _array_operand(b)
        if left and right and _array_exact(op, left[0], right[0]):
            (a_data, a_valid), (b_data, b_valid) = left, right
            valid = _and_valid(a_valid, b_valid)
            if divide:
                nonzero = b_data != 0
                if nonzero is False:
                    return _NULL  # constant zero divisor
                if nonzero is not True and not nonzero.all():
                    valid = _and_valid(valid, nonzero)
                    b_data = np.where(nonzero, b_data, 1)
            if op not in _ARITH_LIST:
                return NumpyVector(_OPERATORS[op](a_data, b_data), valid)
            # Python floats overflow to inf and turn inf-inf into nan
            # silently; so must the array path.
            with np.errstate(all="ignore"):
                return NumpyVector(_OPERATORS[op](a_data, b_data), valid)
    if op in _ARITH_LIST:
        return _ARITH_LIST[op](as_list(a, n), as_list(b, n))
    if tb is VConst:
        return _CMP_LIST_K[op](as_list(a, n), b.value)
    return _CMP_LIST[op](as_list(a, n), as_list(b, n))


def _fold(conj: bool, a: list, b: list) -> list:
    """One Kleene AND (``conj``) / OR step over two lists."""
    if conj:
        return [
            False
            if x is False or y is False
            else (None if x is None or y is None else True)
            for x, y in zip(a, b)
        ]
    return [
        True
        if x is True or y is True
        else (None if x is None or y is None else False)
        for x, y in zip(a, b)
    ]


def _kleene(conj: bool, values: list, n: int):
    """N-ary Kleene AND (``conj``) / OR over the evaluated operands of
    a block that holds a vector column (all-list blocks evaluate by
    selection, ``eval_terms``)."""
    if NumpyVector in map(type, values):
        lanes = [_bool_lanes(v) for v in values]
        if all(pair is not None for pair in lanes):
            true_lanes, false_lanes = lanes[0]
            for t, f in lanes[1:]:
                if conj:
                    true_lanes = true_lanes & t
                    false_lanes = false_lanes | f
                else:
                    true_lanes = true_lanes | t
                    false_lanes = false_lanes & f
            return _lanes_to_vector(true_lanes, false_lanes)
    # A list or non-boolean operand: fold as lists.  A single term
    # folds with itself, which normalizes it to True/False/None exactly
    # as the scalar compiler's loop does.
    out = as_list(values[0], n)
    for value in values[1:] or values:
        out = _fold(conj, out, as_list(value, n))
    return out


def _negate(value):
    if type(value) is VConst:
        return _NULL if value.value is None else VConst(not value.value)
    lanes = _bool_lanes(value)
    if lanes is not None:
        return _lanes_to_vector(lanes[1], lanes[0])
    return [None if v is None else not v for v in value]


def _is_null(value):
    if type(value) is VConst:
        return VConst(value.value is None)
    if type(value) is NumpyVector:
        if value.valid is None:
            return NumpyVector(np.zeros(len(value.data), bool))
        return NumpyVector(~value.valid)
    return [v is None for v in value]


def _in_row(value, candidates) -> object:
    """``value IN (candidates)`` for one lane."""
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return True
    return None if saw_null else False


def take_rows(cols: list, sel) -> list:
    """The block's rows at positions ``sel`` (int list or index array)."""
    positions = None
    out = []
    for c in cols:
        if type(c) is NumpyVector:
            out.append(c.take(sel))
        else:
            if positions is None:
                positions = sel if type(sel) is list else sel.tolist()
            out.append([c[i] for i in positions])
    return out


# -- the block compiler --------------------------------------------------

#: A block closure: (columns, row count) -> column.  ``cols`` holds one
#: list or :class:`NumpyVector` per schema column; the result is a list
#: or vector of ``row count`` lanes.  Closures never mutate their input
#: and may return a column by reference (column refs are zero-copy).
BlockFn = Callable[[list, int], object]

#: Compiled closures for env-free expressions, shared across executions
#: and engines: a prepared plan re-run under a fresh context skips the
#: compile tree-walks entirely.  Bounded LRU (dicts keep insertion
#: order; a hit reinserts), locked because concurrent server queries
#: share it and evict-oldest is not atomic under threads.
_BLOCK_MEMO: dict[tuple, BlockFn] = {}
_BLOCK_MEMO_MAX = 2048
_BLOCK_MEMO_LOCK = threading.Lock()


def compile_expression_block(
    expr: Expression,
    columns,
    env: dict[int, object] | None = None,
) -> BlockFn:
    """Compile ``expr`` into a ``(cols, n) -> column`` closure.

    Lane for lane the result equals :func:`~repro.engine.evaluator.
    compile_expression` applied to each row (module docstring), for
    blocks whose columns are any mix of lists and :class:`NumpyVector`.
    ``env`` is the correlation environment: a reference to a column
    outside ``columns`` reads ``env[cid]`` at call time.
    """
    if type(columns) is not tuple:
        columns = tuple(columns)
    key = (expr, columns)
    with _BLOCK_MEMO_LOCK:
        fn = _BLOCK_MEMO.pop(key, None)
        if fn is not None:
            _BLOCK_MEMO[key] = fn  # LRU reinsertion
            return fn
    fn = _compile_block(expr, columns, env)
    if env_free(expr, columns):
        with _BLOCK_MEMO_LOCK:
            if key not in _BLOCK_MEMO and len(_BLOCK_MEMO) >= _BLOCK_MEMO_MAX:
                del _BLOCK_MEMO[next(iter(_BLOCK_MEMO))]
            _BLOCK_MEMO[key] = fn
    return fn


def _compile_block(expr: Expression, columns: tuple, env) -> BlockFn:
    root = _builder(columns, env)(expr)

    def run(cols: list, n: int):
        out = root(cols, n)
        return [out.value] * n if type(out) is VConst else out

    return run


#: AND/OR narrow to the ``live`` lanes no term has decided when the
#: later terms hold at least ``_NARROW_MIN_NODES`` operator nodes and
#: skipping the decided lanes saves more than gathering and scattering
#: the live ones costs: ``live * _NARROW_LANE_COST <= decided * nodes``
#: (DESIGN.md §7 has the measurement behind both numbers).
_NARROW_MIN_NODES = 2
_NARROW_LANE_COST = 4


def _columns_read(node: Expression, columns: tuple, indexes: dict):
    """``(positions, schema)`` of the ``columns`` that ``node`` reads."""
    used = sorted({indexes[c.cid] for c in columns_in(node) if c.cid in indexes})
    return used, tuple(columns[i] for i in used)


def _builder(columns: tuple, env):
    """``build(node)`` for blocks of ``columns``: the closure tree
    ``(cols, n) -> list | NumpyVector | VConst`` (a constant stays one
    scalar until a consumer needs lanes)."""
    indexes = column_indexes(columns)

    def build(node: Expression):
        if isinstance(node, Literal):
            const = VConst(node.value)
            return lambda cols, n: const
        if isinstance(node, ColumnRef):
            cid = node.column.cid
            index = indexes.get(cid)
            if index is not None:
                return lambda cols, n: cols[index]
            if env is None:
                raise ExecutionError(
                    f"column {node.column!r} is not available in this row schema"
                )

            def read_env(cols, n):
                try:
                    return VConst(env[cid])
                except KeyError:
                    raise ExecutionError(
                        f"unbound correlated column id {cid}"
                    ) from None

            return read_env
        if isinstance(node, (Comparison, Arithmetic)):
            left = build(node.left)
            right = build(node.right)
            op = node.op
            return lambda cols, n: _binary(op, left(cols, n), right(cols, n), n)
        if isinstance(node, (And, Or)):
            # By selection, as CASE: a lane some term made False (AND)
            # / True (OR) is final, so later terms may skip it.  Terms
            # compile once, against just the columns the node reads, so
            # narrowing never copies a bystander column.
            conj = isinstance(node, And)
            decided = not conj
            used, narrow = _columns_read(node, columns, indexes)
            build_term = build if narrow == columns else _builder(narrow, env)
            terms = [build_term(t) for t in node.terms]
            sizes = [
                sum(not isinstance(x, (ColumnRef, Literal)) for x in walk(t))
                for t in node.terms
            ]
            # (term, operator nodes in the terms after it)
            steps = [(t, sum(sizes[k + 1 :])) for k, t in enumerate(terms)]

            def eval_terms(cols, n):
                cols = [cols[i] for i in used]
                if NumpyVector in map(type, cols):
                    return _kleene(conj, [t(cols, n) for t in terms], n)
                # ``live`` maps the narrowed block's lanes back to
                # positions in ``result``, which holds the decided ones.
                out = result = live = None
                for term, later in steps:
                    value = as_list(term(cols, n), n)
                    out = value if out is None else _fold(conj, out, value)
                    if later < _NARROW_MIN_NODES:
                        continue
                    # count() is a C-speed bound (== may overcount a
                    # raw first term); the selection itself is exact.
                    gone = out.count(decided)
                    if (n - gone) * _NARROW_LANE_COST <= gone * later:
                        sel = [i for i, v in enumerate(out) if v is not decided]
                        if len(sel) * _NARROW_LANE_COST > (n - len(sel)) * later:
                            continue
                        if result is None:
                            result, live = [decided] * n, sel
                        else:
                            live = [live[i] for i in sel]
                        if not sel:
                            return result
                        out = [out[i] for i in sel]
                        cols, n = take_rows(cols, sel), len(sel)
                if len(steps) == 1:
                    out = _fold(conj, out, out)  # normalizes, as the scalar loop
                if result is None:
                    return out
                for position, v in zip(live, out):
                    result[position] = v
                return result

            return eval_terms
        if isinstance(node, Not):
            term = build(node.term)
            return lambda cols, n: _negate(term(cols, n))
        if isinstance(node, IsNull):
            operand = build(node.operand)
            return lambda cols, n: _is_null(operand(cols, n))
        if isinstance(node, InList):
            operand = build(node.operand)
            if not all(isinstance(i, Literal) for i in node.items):
                items = [build(i) for i in node.items]

                def eval_in_rows(cols, n):
                    lanes = zip(*(as_list(i(cols, n), n) for i in items))
                    values = as_list(operand(cols, n), n)
                    return [_in_row(v, c) for v, c in zip(values, lanes)]

                return eval_in_rows
            literals = [i.value for i in node.items]
            # A NULL item makes every non-match NULL instead of False;
            # a NaN item equals nothing, so it is dropped outright
            # (``in`` would match it by object identity).
            miss = None if None in literals else False
            candidates = [v for v in literals if v is not None and v == v]
            numeric = [c for c in candidates if isinstance(c, (bool, int, float))]
            has_float = any(type(c) is float for c in numeric)
            ints_exact = all(
                abs(c) <= _FLOAT_EXACT for c in numeric if type(c) is int
            )

            def eval_in(cols, n):
                value = operand(cols, n)
                # isin compares ints and floats as doubles: exact only
                # while every int involved is (as for comparisons).
                if type(value) is NumpyVector and (
                    ints_exact
                    if value.data.dtype.kind == "f"
                    else not has_float or _int_bound(value.data) <= _FLOAT_EXACT
                ):
                    # Non-numeric candidates can never equal a numeric
                    # lane, so isin over the numeric subset is `==`.
                    hits = np.isin(value.data, numeric)
                    if miss is None:
                        return NumpyVector(hits, _and_valid(value.valid, hits))
                    return NumpyVector(hits, value.valid)
                return [
                    None if v is None else (True if v in candidates else miss)
                    for v in as_list(value, n)
                ]

            return eval_in
        if isinstance(node, Like):
            operand = build(node.operand)
            match = _like_pattern(node.pattern).match
            return lambda cols, n: [
                None if v is None else match(str(v)) is not None
                for v in as_list(operand(cols, n), n)
            ]
        if isinstance(node, Case):
            # Lazy branches by selection: each WHEN sees only the lanes
            # no earlier WHEN claimed.  Branches compile against just
            # the columns CASE reads, so selecting lanes never copies a
            # bystander column.
            used, narrow = _columns_read(node, columns, indexes)
            whens = [
                (_compile_block(c, narrow, env), _compile_block(v, narrow, env))
                for c, v in node.whens
            ]
            default = _compile_block(node.default, narrow, env)

            def eval_case(cols, n):
                # ``live`` maps the shrinking block's lanes back to
                # output positions.
                cols = [cols[i] for i in used]
                out = [None] * n
                live = list(range(n))
                for cond, value in whens:
                    mask = as_list(cond(cols, n), n)
                    hit = [i for i, m in enumerate(mask) if m is True]
                    if not hit:
                        continue
                    rest = [i for i, m in enumerate(mask) if m is not True]
                    hit_cols = cols if not rest else take_rows(cols, hit)
                    taken = as_list(value(hit_cols, len(hit)), len(hit))
                    for i, v in zip(hit, taken):
                        out[live[i]] = v
                    if not rest:
                        return out
                    live = [live[i] for i in rest]
                    cols, n = take_rows(cols, rest), len(rest)
                for position, v in zip(live, as_list(default(cols, n), n)):
                    out[position] = v
                return out

            return eval_case
        if isinstance(node, FunctionCall):
            impl = SCALAR_FUNCTIONS.get(node.name.lower())
            if impl is None:
                raise ExecutionError(f"unknown scalar function {node.name!r}")
            args = [build(a) for a in node.args]
            if not args:
                return lambda cols, n: [impl([]) for _ in range(n)]
            return lambda cols, n: [
                impl(list(t))
                for t in zip(*(as_list(a(cols, n), n) for a in args))
            ]
        raise ExecutionError(f"cannot evaluate expression {node!r}")

    return build


# -- block helpers -------------------------------------------------------


def compact_block(cols: list, n: int, mask) -> tuple[list, int]:
    """Keep the rows whose mask value is identity-True."""
    keep = true_mask(mask)
    if keep is None and NumpyVector in map(type, cols):
        keep = np.fromiter((v is True for v in mask), dtype=bool, count=n)
    if keep is None:
        sel = [i for i, v in enumerate(mask) if v is True]
    else:
        sel = np.flatnonzero(keep)
    kept = len(sel)
    if kept == n:
        return cols, n
    if kept == 0:
        return [], 0
    return take_rows(cols, sel), kept


def accumulate_block(acc, values, mask, n: int) -> None:
    """Feed one block into an :class:`~repro.engine.evaluator.Aggregator`.

    NumPy-backed ``values`` update the accumulator's fields with array
    reductions; anything else routes through the exact ``add_block``
    path.  ``values is None`` is ``count(*)``.
    """
    lanes = true_mask(mask)
    if lanes is None and (mask is not None or type(values) is not NumpyVector):
        acc.add_block(delist(values), mask, n)
        return
    if values is None:
        acc.count += int(lanes.sum())
        return
    if type(values) is not NumpyVector:
        acc.add_block(values, lanes.tolist(), n)
        return
    data, valid = values.data, values.valid
    keep = lanes
    if valid is not None:
        keep = valid if keep is None else keep & valid
    if keep is not None:
        data = data[keep]
    if acc.seen is not None:
        # DISTINCT: dedupe within the block at C speed, then feed the
        # exact per-value path (cross-block dedupe via the seen set).
        for v in np.unique(data).tolist():
            acc.add(v)
        return
    func = acc.func
    size = int(data.size)
    if not size:
        return
    if func == "count":
        acc.count += size
    elif func == "min":
        lo = data.min().item()
        if acc.extreme is None or lo < acc.extreme:
            acc.extreme = lo
    elif func == "max":
        hi = data.max().item()
        if acc.extreme is None or hi > acc.extreme:
            acc.extreme = hi
    elif func in ("sum", "avg", "stddev_samp"):
        if data.dtype.kind == "i" and int(np.abs(data).max()) * size >= _INT_GUARD:
            # ndarray.sum() wraps int64 silently; Python ints are exact.
            acc.add_block(data.tolist(), None, size)
            return
        acc.count += size
        acc.total += data.sum().item()
        if func == "stddev_samp":
            acc.sq_total += (data.astype("float64") ** 2).sum().item()
