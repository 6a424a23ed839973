"""Semantic plan fingerprints for cross-query computation reuse.

They are the library's one answer to "are these the same subplan?":
the plan cache keys entries by them, and fusion's exact fallback for
operators with no §III case (``fusion.structural_equivalence``)
compares them.

A fingerprint is a stable digest of a subplan's *semantics*: two
alpha-equivalent subplans — same computation written with different
aliases, different column ids (every scan instance allocates fresh
ids), reordered conjuncts, swapped inputs of a commutative join, or
differently-spelled numeric literals in comparisons — hash to the same
digest, while semantically different plans (a changed literal, an
extra conjunct, INNER vs LEFT) do not.

The construction is bottom-up.  Canonicalizing a node yields a
:class:`PlanFingerprint`:

* ``digest`` — a blake2b hex digest of the node's canonical token
  tree.  Parents embed their children's digest *strings*, never the
  trees, so fingerprinting is O(plan size).
* ``column_tokens`` — a map from output column id to a *token*, a
  digest-derived name that is stable across alpha-equivalent plans.
  Tokens replace column ids inside expression canonicalization and key
  the per-column vectors of a cache entry, so a consumer with
  different column ids can still find its vectors.
* ``has_free`` — the subplan references columns produced outside it
  (correlated subqueries); such subplans are never cached.
* ``tables`` — every stored table in the subplan's lineage, used for
  version-based invalidation.

Equivalences recognized: alias/column-id renaming everywhere; AND/OR
conjunct order and duplicates; comparison orientation (``a > b`` ≡
``b < a``); ``+``/``*`` operand order; IN-list order/duplicates;
double negation; select-list order and duplicate projections; GROUP BY
key order; INNER/CROSS join input order; and — only inside comparison
or IN operands, where the result is boolean — numeric literal form
(``x > 1`` ≡ ``x > 1.0``).  A *projected* literal keeps its type:
``SELECT 1`` and ``SELECT 1.0`` produce different bytes and must not
collide.

Fingerprints are memoized on operator nodes (``_fp_cache`` attribute):
plans are immutable and ``with_children`` rebuilds nodes, so a cached
value can never go stale — rebuilding *is* the invalidation.  The memo
is only used for the outer-free canonicalization; nodes inside a
correlated subquery are canonicalized against their outer scope and
not memoized.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

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

_CACHE_ATTR = "_fp_cache"

_EMPTY_OUTER: dict[int, str] = {}

#: ``>``/``>=`` are rewritten to ``<``/``<=`` with swapped operands.
_ORIENT = {">": "<", ">=": "<="}


def _h(payload: object) -> str:
    """Stable digest of a canonical token tree (repr of nested tuples
    of str/int/float/bool/None — deterministic across processes, unlike
    the built-in ``hash``)."""
    return hashlib.blake2b(repr(payload).encode(), digest_size=12).hexdigest()


@dataclass(frozen=True)
class PlanFingerprint:
    """The canonical identity of one subplan (see module docstring)."""

    digest: str
    column_tokens: Mapping[int, str]
    has_free: bool
    tables: frozenset[str]

    def output_tokens(self, node: PlanNode) -> tuple[str, ...]:
        """Tokens of ``node``'s output columns, in schema order."""
        return tuple(self.column_tokens[c.cid] for c in node.output_columns)


def plan_fingerprint(plan: PlanNode) -> PlanFingerprint:
    """Fingerprint ``plan`` as a closed subplan (no outer scope)."""
    return _canonical(plan, _EMPTY_OUTER)


# ---------------------------------------------------------------------------
# Expression canonicalization
# ---------------------------------------------------------------------------


def _canon_expr(
    expr: Expression, colmap: Mapping[int, str], free: set[int], cmp_ctx: bool
) -> object:
    """Canonical token tree for ``expr`` with columns replaced by tokens.

    ``cmp_ctx`` is True inside comparison/IN operands, where the only
    observable result is boolean: there (and only there) numeric
    literals erase their spelled type, so ``x > 1`` and ``x > 1.0``
    canonicalize identically.  Outside a boolean sink the literal's
    value escapes into the output, so its type is part of the identity.
    """
    if isinstance(expr, ColumnRef):
        token = colmap.get(expr.column.cid)
        if token is None:
            free.add(expr.column.cid)
            return ("freecol", expr.column.cid)
        return ("col", token)
    if isinstance(expr, Literal):
        value = expr.value
        if (
            cmp_ctx
            and value is not None
            and expr.type.is_numeric
            and not isinstance(value, bool)
            and isinstance(value, (int, float))
        ):
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            return ("lit", "num", value)
        return ("lit", expr.type.value, value)
    if isinstance(expr, Comparison):
        op, left, right = expr.op, expr.left, expr.right
        if op in _ORIENT:
            op, left, right = _ORIENT[op], right, left
        lt = _canon_expr(left, colmap, free, True)
        rt = _canon_expr(right, colmap, free, True)
        if op in ("=", "<>") and repr(lt) > repr(rt):
            lt, rt = rt, lt
        return ("cmp", op, lt, rt)
    if isinstance(expr, And):
        terms = {_canon_expr(t, colmap, free, cmp_ctx) for t in conjuncts(expr)}
        if not terms:
            return ("lit", "boolean", True)
        ordered = sorted(terms, key=repr)
        if len(ordered) == 1:
            return ordered[0]
        return ("and", tuple(ordered))
    if isinstance(expr, Or):
        terms = {_canon_expr(t, colmap, free, cmp_ctx) for t in disjuncts(expr)}
        ordered = sorted(terms, key=repr)
        if len(ordered) == 1:
            return ordered[0]
        return ("or", tuple(ordered))
    if isinstance(expr, Not):
        if isinstance(expr.term, Not):
            return _canon_expr(expr.term.term, colmap, free, cmp_ctx)
        return ("not", _canon_expr(expr.term, colmap, free, cmp_ctx))
    if isinstance(expr, Arithmetic):
        lt = _canon_expr(expr.left, colmap, free, cmp_ctx)
        rt = _canon_expr(expr.right, colmap, free, cmp_ctx)
        if expr.op in ("+", "*") and repr(lt) > repr(rt):
            lt, rt = rt, lt
        return ("arith", expr.op, lt, rt)
    if isinstance(expr, IsNull):
        return ("isnull", _canon_expr(expr.operand, colmap, free, cmp_ctx))
    if isinstance(expr, InList):
        operand = _canon_expr(expr.operand, colmap, free, True)
        items = {_canon_expr(i, colmap, free, True) for i in expr.items}
        return ("in", operand, tuple(sorted(items, key=repr)))
    if isinstance(expr, Like):
        return ("like", _canon_expr(expr.operand, colmap, free, cmp_ctx), expr.pattern)
    if isinstance(expr, Case):
        whens = tuple(
            (
                _canon_expr(cond, colmap, free, False),
                _canon_expr(value, colmap, free, cmp_ctx),
            )
            for cond, value in expr.whens
        )
        return ("case", whens, _canon_expr(expr.default, colmap, free, cmp_ctx))
    if isinstance(expr, FunctionCall):
        args = tuple(_canon_expr(a, colmap, free, cmp_ctx) for a in expr.args)
        return ("fn", expr.name.lower(), args)
    # Unknown expression class: fall back to its repr, which contains
    # raw column ids — alpha-equivalence is lost but soundness is kept
    # (distinct plans stay distinct).
    return ("opaque_expr", repr(expr))


# ---------------------------------------------------------------------------
# Plan canonicalization
# ---------------------------------------------------------------------------


def _canonical(node: PlanNode, outer: Mapping[int, str]) -> PlanFingerprint:
    if not outer:
        cached = node.__dict__.get(_CACHE_ATTR)
        if cached is not None:
            return cached
    fp = _compute(node, outer)
    if not outer:
        object.__setattr__(node, _CACHE_ATTR, fp)
    return fp


def _env(outer: Mapping[int, str], colmap: Mapping[int, str]) -> dict[int, str]:
    if not outer:
        return dict(colmap)
    merged = dict(outer)
    merged.update(colmap)
    return merged


def _compute(node: PlanNode, outer: Mapping[int, str]) -> PlanFingerprint:
    if isinstance(node, Scan):
        table = node.table.lower()
        base = {
            col.cid: _h(("srccol", table, src.lower()))
            for col, src in zip(node.columns, node.source_names)
        }
        free: set[int] = set()
        pred = None
        if node.predicate is not None:
            pred = _canon_expr(node.predicate, _env(outer, base), free, False)
        sources = tuple(sorted({s.lower() for s in node.source_names}))
        digest = _h(("scan", table, sources, pred))
        colmap = {
            col.cid: _h(("scol", digest, src.lower()))
            for col, src in zip(node.columns, node.source_names)
        }
        return PlanFingerprint(digest, colmap, bool(free), frozenset((table,)))

    if isinstance(node, Values):
        dtypes = tuple(c.dtype.value for c in node.columns)
        digest = _h(("values", dtypes, node.rows))
        colmap = {c.cid: _h(("vcol", digest, i)) for i, c in enumerate(node.columns)}
        return PlanFingerprint(digest, colmap, False, frozenset())

    if isinstance(node, CachedScan):
        colmap = dict(zip((c.cid for c in node.columns), node.column_tokens))
        return PlanFingerprint(
            node.fingerprint, colmap, False, frozenset(node.tables)
        )

    if isinstance(node, (CachePopulate, Exchange)):
        # Transparent: populating a subplan does not change what it
        # computes, so the wrapper fingerprints exactly like its child.
        # Exchange is a bag-identity placement marker — the same
        # computation run on one worker or eight must hit the same cache
        # entries.
        return _canonical(node.child, outer)

    if isinstance(node, Filter):
        child = _canonical(node.child, outer)
        free = set()
        cond = _canon_expr(
            node.condition, _env(outer, child.column_tokens), free, False
        )
        digest = _h(("filter", cond, child.digest))
        return PlanFingerprint(
            digest, child.column_tokens, child.has_free or bool(free), child.tables
        )

    if isinstance(node, Project):
        child = _canonical(node.child, outer)
        env = _env(outer, child.column_tokens)
        free = set()
        colmap = {}
        tokens = []
        for target, expr in node.assignments:
            token = _h(("pcol", child.digest, _canon_expr(expr, env, free, False)))
            colmap[target.cid] = token
            tokens.append(token)
        # A *set* of expression tokens: select-list order, duplicates,
        # and target names are not part of the identity (CachedScan
        # reconstructs any output arity from per-token vectors).
        digest = _h(("project", tuple(sorted(set(tokens))), child.digest))
        return PlanFingerprint(
            digest, colmap, child.has_free or bool(free), child.tables
        )

    if isinstance(node, Join):
        left = _canonical(node.left, outer)
        right = _canonical(node.right, outer)
        if node.kind in (JoinKind.INNER, JoinKind.CROSS) and right.digest < left.digest:
            left, right = right, left  # commutative: order inputs by digest
        if left.digest == right.digest:
            # Self-join: digests cannot disambiguate the sides, tag by
            # position (swapping symmetric self-joins is not recognized
            # — a missed equivalence, never an unsound collision).
            lmap = {c: _h(("jside", 0, t)) for c, t in left.column_tokens.items()}
            rmap = {c: _h(("jside", 1, t)) for c, t in right.column_tokens.items()}
        else:
            # Tag each side's tokens with its own child digest — stable
            # under the commutative swap above.
            lmap = {
                c: _h(("jin", left.digest, t)) for c, t in left.column_tokens.items()
            }
            rmap = {
                c: _h(("jin", right.digest, t)) for c, t in right.column_tokens.items()
            }
        merged = dict(lmap)
        merged.update(rmap)
        free = set()
        cond = None
        if node.condition is not None:
            cond = _canon_expr(node.condition, _env(outer, merged), free, False)
        digest = _h(("join", node.kind.value, left.digest, right.digest, cond))
        colmap = lmap if node.kind in (JoinKind.SEMI, JoinKind.ANTI) else merged
        return PlanFingerprint(
            digest,
            colmap,
            left.has_free or right.has_free or bool(free),
            left.tables | right.tables,
        )

    if isinstance(node, GroupBy):
        child = _canonical(node.child, outer)
        env = _env(outer, child.column_tokens)
        free = set()
        colmap = {}
        key_tokens = []
        for key in node.keys:
            token = child.column_tokens.get(key.cid)
            if token is None:
                free.add(key.cid)
                token = _h(("freekey", key.cid))
            colmap[key.cid] = token
            key_tokens.append(token)
        descriptors = []
        for agg in node.aggregates:
            arg = (
                None
                if agg.argument is None
                else _canon_expr(agg.argument, env, free, False)
            )
            mask = (
                None if agg.mask == TRUE else _canon_expr(agg.mask, env, free, False)
            )
            desc = ("agg", agg.func, bool(agg.distinct), arg, mask)
            colmap[agg.target.cid] = _h(("aggcol", child.digest, desc))
            descriptors.append(desc)
        digest = _h(
            (
                "groupby",
                tuple(sorted(key_tokens)),  # GROUP BY key order is immaterial
                tuple(sorted(descriptors, key=repr)),
                child.digest,
            )
        )
        return PlanFingerprint(
            digest, colmap, child.has_free or bool(free), child.tables
        )

    if isinstance(node, MarkDistinct):
        child = _canonical(node.child, outer)
        free = set()
        col_tokens = []
        for col in node.columns:
            token = child.column_tokens.get(col.cid)
            if token is None:
                free.add(col.cid)
                token = _h(("freemark", col.cid))
            col_tokens.append(token)
        mask = (
            None
            if node.mask == TRUE
            else _canon_expr(node.mask, _env(outer, child.column_tokens), free, False)
        )
        digest = _h(
            ("markdistinct", tuple(sorted(col_tokens)), mask, child.digest)
        )
        colmap = dict(child.column_tokens)
        colmap[node.marker.cid] = _h(("markcol", digest))
        return PlanFingerprint(
            digest, colmap, child.has_free or bool(free), child.tables
        )

    if isinstance(node, Window):
        child = _canonical(node.child, outer)
        env = _env(outer, child.column_tokens)
        free = set()
        part_tokens = []
        for col in node.partition_by:
            token = child.column_tokens.get(col.cid)
            if token is None:
                free.add(col.cid)
                token = _h(("freepart", col.cid))
            part_tokens.append(token)
        colmap = dict(child.column_tokens)
        descriptors = []
        for fn in node.functions:
            arg = (
                None
                if fn.argument is None
                else _canon_expr(fn.argument, env, free, False)
            )
            desc = ("win", fn.func, arg)
            colmap[fn.target.cid] = _h(("wincol", child.digest, desc))
            descriptors.append(desc)
        digest = _h(
            (
                "window",
                tuple(sorted(part_tokens)),
                tuple(sorted(descriptors, key=repr)),
                child.digest,
            )
        )
        return PlanFingerprint(
            digest, colmap, child.has_free or bool(free), child.tables
        )

    if isinstance(node, UnionAll):
        # Branch order is preserved: UNION ALL output order is the
        # concatenation order in this engine, and replay must be
        # byte-identical.
        free = set()
        has_free = False
        tables: frozenset[str] = frozenset()
        branches = []
        for child_node, branch in zip(node.inputs, node.input_columns):
            child = _canonical(child_node, outer)
            has_free = has_free or child.has_free
            tables = tables | child.tables
            tokens = []
            for col in branch:
                token = child.column_tokens.get(col.cid)
                if token is None:
                    free.add(col.cid)
                    token = _h(("freeucol", col.cid))
                tokens.append(token)
            branches.append((child.digest, tuple(tokens)))
        digest = _h(("union", tuple(branches)))
        colmap = {c.cid: _h(("ucol", digest, i)) for i, c in enumerate(node.columns)}
        return PlanFingerprint(digest, colmap, has_free or bool(free), tables)

    if isinstance(node, Sort):
        child = _canonical(node.child, outer)
        env = _env(outer, child.column_tokens)
        free = set()
        keys = tuple(
            (_canon_expr(k.expression, env, free, False), bool(k.ascending))
            for k in node.keys
        )
        digest = _h(("sort", keys, child.digest))
        return PlanFingerprint(
            digest, child.column_tokens, child.has_free or bool(free), child.tables
        )

    if isinstance(node, Limit):
        child = _canonical(node.child, outer)
        digest = _h(("limit", node.count, child.digest))
        return PlanFingerprint(
            digest, child.column_tokens, child.has_free, child.tables
        )

    if isinstance(node, EnforceSingleRow):
        child = _canonical(node.child, outer)
        digest = _h(("single", child.digest))
        return PlanFingerprint(
            digest, child.column_tokens, child.has_free, child.tables
        )

    if isinstance(node, ScalarApply):
        inp = _canonical(node.input, outer)
        # Correlated references inside the subquery resolve against the
        # apply input's tokens, so they are *not* free at this node.
        sub = _canonical(node.subquery, _env(outer, inp.column_tokens))
        free = set()
        value = sub.column_tokens.get(node.value.cid)
        if value is None:
            free.add(node.value.cid)
            value = _h(("freeval", node.value.cid))
        digest = _h(("sapply", inp.digest, sub.digest, value))
        colmap = dict(inp.column_tokens)
        colmap[node.output.cid] = _h(("sacol", digest))
        return PlanFingerprint(
            digest,
            colmap,
            inp.has_free or sub.has_free or bool(free),
            inp.tables | sub.tables,
        )

    # Unknown operator: give it a structural digest but mark it free so
    # the reuse pass never caches it (or anything above it).
    children = [_canonical(c, outer) for c in node.children]
    digest = _h(("opaque", node.name, tuple(c.digest for c in children)))
    tables = frozenset().union(*(c.tables for c in children)) if children else frozenset()
    return PlanFingerprint(digest, {}, True, tables)
