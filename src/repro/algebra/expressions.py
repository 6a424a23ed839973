"""Scalar expression trees.

Expressions are immutable, hashable dataclasses.  They reference
columns by identity (:class:`~repro.algebra.schema.Column`), never by
name, which makes rewrites such as fusion's column mapping ``M`` a
simple substitution of column ids.

NULL semantics follow SQL three-valued logic and are implemented by the
evaluator (:mod:`repro.engine.evaluator`); this module only defines the
tree shapes plus structural utilities: traversal, substitution,
normalization (for equivalence checks), and conjunct manipulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
from typing import Callable, Iterable, Iterator, Mapping

from repro.algebra.schema import Column
from repro.algebra.types import DataType, common_numeric_type


#: Every memo slot code under ``repro.algebra`` writes into an
#: expression node's ``__dict__`` (DESIGN.md §3b): pure functions of the
#: immutable node, stored on first use.  ``__getstate__`` strips them,
#: and ``benchmarks/lint_repo.py`` rejects a slot missing from here.
MEMO_SLOTS = ("_hash", "_normalized", "_simplified")


class Expression:
    """Base class for scalar expressions."""

    __slots__ = ()

    def __getstate__(self) -> dict:
        """The fields without the memo slots: ``_hash`` mixes in ``str``
        hashes, which differ between processes, and the cached forms
        would triple what a plan sent to a fragment worker weighs."""
        return {k: v for k, v in self.__dict__.items() if k not in MEMO_SLOTS}

    def __hash__(self) -> int:
        """Structural hash, cached per node.

        Expressions are immutable and heavily used as dict/set keys by
        the optimizer (normalization, deduplication); recomputing a
        deep recursive hash on every lookup dominates optimization
        time, so the first computed value is memoized on the instance.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(self.__dict__.get(f) for f in self.__dataclass_fields__))
            cached = hash((type(self).__name__, cached))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def children(self) -> tuple["Expression", ...]:
        return ()

    def with_children(self, children: tuple["Expression", ...]) -> "Expression":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    @property
    def dtype(self) -> DataType:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value.  ``value is None`` encodes SQL NULL."""

    value: object
    type: DataType

    def __eq__(self, other: object) -> bool:
        """Field equality, except that the sign of a zero counts:
        ``-0.0 == 0.0`` as floats, but ``x * -0.0`` is not ``x * 0.0``,
        and expression-keyed memos (``vectors._BLOCK_MEMO``) would
        otherwise serve one literal's closure for the other."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        value, theirs = self.value, other.value
        return (value, self.type) == (theirs, other.type) and (
            value != 0 or copysign(1.0, value) == copysign(1.0, theirs)
        )

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            value = self.value
            sign = copysign(1.0, value) if value == 0 else None
            cached = hash(("Literal", value, self.type, sign))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def dtype(self) -> DataType:
        return self.type

    def __repr__(self) -> str:
        if self.type is DataType.STRING and self.value is not None:
            return f"'{self.value}'"
        return str(self.value)


TRUE = Literal(True, DataType.BOOLEAN)
FALSE = Literal(False, DataType.BOOLEAN)
NULL = Literal(None, DataType.BOOLEAN)


def integer(value: int) -> Literal:
    return Literal(value, DataType.INTEGER)


def double(value: float) -> Literal:
    return Literal(value, DataType.DOUBLE)


def string(value: str) -> Literal:
    return Literal(value, DataType.STRING)


def boolean(value: bool) -> Literal:
    return TRUE if value else FALSE


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to a column produced by a child operator."""

    column: Column

    @property
    def dtype(self) -> DataType:
        return self.column.dtype

    def __repr__(self) -> str:
        return repr(self.column)


#: Comparison operators in canonical spelling.
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

_COMMUTED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_NEGATED = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


@dataclass(frozen=True)
class Comparison(Expression):
    """Binary comparison; returns NULL if either operand is NULL."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Expression, ...]) -> "Comparison":
        left, right = children
        return Comparison(self.op, left, right)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    def commuted(self) -> "Comparison":
        """The same predicate with operands swapped (e.g. a<b -> b>a)."""
        return Comparison(_COMMUTED[self.op], self.right, self.left)

    def negated(self) -> "Comparison":
        """The complement predicate (safe under 3-valued logic)."""
        return Comparison(_NEGATED[self.op], self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class And(Expression):
    """N-ary conjunction (Kleene logic)."""

    terms: tuple[Expression, ...]

    @property
    def children(self) -> tuple[Expression, ...]:
        return self.terms

    def with_children(self, children: tuple[Expression, ...]) -> "And":
        return And(children)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(t) for t in self.terms) + ")"


@dataclass(frozen=True)
class Or(Expression):
    """N-ary disjunction (Kleene logic)."""

    terms: tuple[Expression, ...]

    @property
    def children(self) -> tuple[Expression, ...]:
        return self.terms

    def with_children(self, children: tuple[Expression, ...]) -> "Or":
        return Or(children)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(t) for t in self.terms) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation (NULL stays NULL)."""

    term: Expression

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.term,)

    def with_children(self, children: tuple[Expression, ...]) -> "Not":
        (term,) = children
        return Not(term)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    def __repr__(self) -> str:
        return f"(NOT {self.term!r})"


ARITHMETIC_OPS = ("+", "-", "*", "/")


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic; NULL if either operand is NULL."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ARITHMETIC_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Expression, ...]) -> "Arithmetic":
        left, right = children
        return Arithmetic(self.op, left, right)

    @property
    def dtype(self) -> DataType:
        if self.op == "/":
            return DataType.DOUBLE
        return common_numeric_type(self.left.dtype, self.right.dtype)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``operand IS NULL`` — never returns NULL itself."""

    operand: Expression

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expression, ...]) -> "IsNull":
        (operand,) = children
        return IsNull(operand)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    def __repr__(self) -> str:
        return f"({self.operand!r} IS NULL)"


def is_not_null(operand: Expression) -> Expression:
    """``operand IS NOT NULL`` (sugar for ``NOT (x IS NULL)``)."""
    return Not(IsNull(operand))


@dataclass(frozen=True)
class InList(Expression):
    """``operand IN (v1, v2, …)`` against a literal list."""

    operand: Expression
    items: tuple[Expression, ...]

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.operand, *self.items)

    def with_children(self, children: tuple[Expression, ...]) -> "InList":
        return InList(children[0], tuple(children[1:]))

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    def __repr__(self) -> str:
        items = ", ".join(repr(i) for i in self.items)
        return f"({self.operand!r} IN ({items}))"


@dataclass(frozen=True)
class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards (pattern is a literal)."""

    operand: Expression
    pattern: str

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Expression, ...]) -> "Like":
        (operand,) = children
        return Like(operand, self.pattern)

    @property
    def dtype(self) -> DataType:
        return DataType.BOOLEAN

    def __repr__(self) -> str:
        return f"({self.operand!r} LIKE '{self.pattern}')"


@dataclass(frozen=True)
class Case(Expression):
    """Searched CASE: ``CASE WHEN c1 THEN v1 … ELSE d END``."""

    whens: tuple[tuple[Expression, Expression], ...]
    default: Expression

    @property
    def children(self) -> tuple[Expression, ...]:
        flat: list[Expression] = []
        for cond, value in self.whens:
            flat.append(cond)
            flat.append(value)
        flat.append(self.default)
        return tuple(flat)

    def with_children(self, children: tuple[Expression, ...]) -> "Case":
        pairs = tuple(
            (children[i], children[i + 1]) for i in range(0, len(children) - 1, 2)
        )
        return Case(pairs, children[-1])

    @property
    def dtype(self) -> DataType:
        for _, value in self.whens:
            if not (isinstance(value, Literal) and value.value is None):
                return value.dtype
        return self.default.dtype

    def __repr__(self) -> str:
        parts = " ".join(f"WHEN {c!r} THEN {v!r}" for c, v in self.whens)
        return f"(CASE {parts} ELSE {self.default!r} END)"


_FUNCTION_TYPES: dict[str, Callable[[tuple[Expression, ...]], DataType]] = {
    "abs": lambda args: args[0].dtype,
    "coalesce": lambda args: args[0].dtype,
    "round": lambda args: DataType.DOUBLE,
    "floor": lambda args: DataType.INTEGER,
    "length": lambda args: DataType.INTEGER,
    "lower": lambda args: DataType.STRING,
    "upper": lambda args: DataType.STRING,
    "substr": lambda args: DataType.STRING,
    "concat": lambda args: DataType.STRING,
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call (see evaluator for the supported set)."""

    name: str
    args: tuple[Expression, ...]

    @property
    def children(self) -> tuple[Expression, ...]:
        return self.args

    def with_children(self, children: tuple[Expression, ...]) -> "FunctionCall":
        return FunctionCall(self.name, children)

    @property
    def dtype(self) -> DataType:
        typer = _FUNCTION_TYPES.get(self.name.lower())
        if typer is None:
            raise ValueError(f"unknown scalar function {self.name!r}")
        return typer(self.args)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(repr(a) for a in self.args)})"


# The @dataclass(frozen=True) decorator generates a per-class __hash__
# that recomputes recursively on every call; restore the caching hash
# from the base class (equality stays structural via the dataclass
# __eq__ — hashes only pre-filter dict lookups).
for _cls in (
    ColumnRef, Comparison, And, Or, Not, Arithmetic,
    IsNull, InList, Like, Case, FunctionCall,
):
    _cls.__hash__ = Expression.__hash__  # type: ignore[method-assign]


# ---------------------------------------------------------------------------
# Structural utilities
# ---------------------------------------------------------------------------


def walk(expr: Expression) -> Iterator[Expression]:
    """Pre-order traversal of the expression tree."""
    yield expr
    for child in expr.children:
        yield from walk(child)


def columns_in(expr: Expression) -> set[Column]:
    """All columns referenced anywhere in ``expr``."""
    return {node.column for node in walk(expr) if isinstance(node, ColumnRef)}


def transform(expr: Expression, fn: Callable[[Expression], Expression]) -> Expression:
    """Bottom-up rewrite: children first, then ``fn`` on the rebuilt node."""
    children = expr.children
    if children:
        new_children = tuple(transform(c, fn) for c in children)
        if new_children != children:
            expr = expr.with_children(new_children)
    return fn(expr)


def transform_memoized(
    expr: Expression, fn: Callable[[Expression], Expression], slot: str
) -> Expression:
    """:func:`transform` for a pure ``fn``, computed once per node: the
    result is looked up in, and stored under, ``slot`` (one of
    :data:`MEMO_SLOTS`) of each node's ``__dict__``, so a sub-tree seen
    before costs one lookup however many trees share it.  Keyed by
    identity, never by equality; racing threads store equal values."""
    cached = expr.__dict__.get(slot)
    if cached is None:
        node, children = expr, expr.children
        if children:
            new_children = tuple(transform_memoized(c, fn, slot) for c in children)
            if new_children != children:
                node = expr.with_children(new_children)
        cached = fn(node)
        # A node that is its own result stores a marker, not itself: a
        # self-reference would leave every tree to the cycle collector.
        object.__setattr__(expr, slot, True if cached is expr else cached)
    return expr if cached is True else cached


def substitute(expr: Expression, mapping: Mapping[int, Expression]) -> Expression:
    """Replace column references by id according to ``mapping``.

    Values may be arbitrary expressions, so this supports both fusion's
    column-to-column map ``M`` and inlining projection assignments.
    """
    if not mapping:
        return expr

    def replace(node: Expression) -> Expression:
        if isinstance(node, ColumnRef) and node.column.cid in mapping:
            return mapping[node.column.cid]
        return node

    return transform(expr, replace)


def column_substitution(mapping: Mapping[Column, Column]) -> dict[int, Expression]:
    """Convert a Column->Column map into a substitution for :func:`substitute`."""
    return {src.cid: ColumnRef(dst) for src, dst in mapping.items()}


def conjuncts(expr: Expression | None) -> list[Expression]:
    """Flatten an expression into its top-level AND-ed conjuncts.

    ``None`` and TRUE yield the empty list.
    """
    if expr is None or expr == TRUE:
        return []
    if isinstance(expr, And):
        result: list[Expression] = []
        for term in expr.terms:
            result.extend(conjuncts(term))
        return result
    return [expr]


def disjuncts(expr: Expression | None) -> list[Expression]:
    """Flatten an expression into its top-level OR-ed disjuncts."""
    if expr is None:
        return []
    if isinstance(expr, Or):
        result: list[Expression] = []
        for term in expr.terms:
            result.extend(disjuncts(term))
        return result
    return [expr]


def make_and(terms: Iterable[Expression]) -> Expression:
    """AND together ``terms``, flattening and dropping TRUE.

    Returns TRUE for an empty list, the single term for a singleton.
    """
    flat: list[Expression] = []
    for term in terms:
        flat.extend(conjuncts(term))
    deduped: list[Expression] = []
    seen: set[Expression] = set()
    for term in flat:
        if term not in seen:
            seen.add(term)
            deduped.append(term)
    if not deduped:
        return TRUE
    if len(deduped) == 1:
        return deduped[0]
    return And(tuple(deduped))


def make_or(terms: Iterable[Expression]) -> Expression:
    """OR together ``terms``, flattening, dropping FALSE, deduplicating."""
    flat: list[Expression] = []
    for term in terms:
        for d in disjuncts(term):
            if d != FALSE:
                flat.append(d)
    deduped: list[Expression] = []
    seen: set[Expression] = set()
    for term in flat:
        if term not in seen:
            seen.add(term)
            deduped.append(term)
    if not deduped:
        return FALSE
    if len(deduped) == 1:
        return deduped[0]
    return Or(tuple(deduped))


def _sort_key(expr: Expression) -> str:
    return repr(expr)


def normalize(expr: Expression) -> Expression:
    """Canonical form for structural-equivalence checks.

    Flattens and sorts AND/OR operands, orients comparisons (``>`` and
    ``>=`` become ``<``/``<=`` with swapped operands; ``=``/``<>``
    operands are sorted), sorts ``+``/``*`` operands, and eliminates
    double negation.  Two expressions that normalize identically are
    semantically equivalent; the converse does not hold (this is a
    syntactic check, which is all fusion needs).  Computed once per
    node (:func:`transform_memoized`).
    """

    def canon(node: Expression) -> Expression:
        if isinstance(node, And):
            terms = sorted(set(conjuncts(node)), key=_sort_key)
            if len(terms) <= 1:
                return terms[0] if terms else TRUE
            return And(tuple(terms))
        if isinstance(node, Or):
            terms = sorted(set(disjuncts(node)), key=_sort_key)
            if len(terms) <= 1:
                return terms[0] if terms else FALSE
            return Or(tuple(terms))
        if isinstance(node, Comparison):
            if node.op in (">", ">="):
                node = node.commuted()
            if node.op in ("=", "<>") and _sort_key(node.left) > _sort_key(node.right):
                node = node.commuted()
            return node
        if isinstance(node, Arithmetic) and node.op in ("+", "*"):
            if _sort_key(node.left) > _sort_key(node.right):
                return Arithmetic(node.op, node.right, node.left)
            return node
        if isinstance(node, Not) and isinstance(node.term, Not):
            return node.term.term
        if isinstance(node, InList):
            items = tuple(sorted(set(node.items), key=_sort_key))
            return InList(node.operand, items)
        return node

    return transform_memoized(expr, canon, "_normalized")


def equivalent(
    left: Expression,
    right: Expression,
    mapping: Mapping[int, Expression] | None = None,
) -> bool:
    """Syntactic equivalence of ``left`` and ``right`` after applying
    ``mapping`` to ``right`` (fusion compares modulo its column map M)."""
    if mapping:
        right = substitute(right, mapping)
    return normalize(left) == normalize(right)
