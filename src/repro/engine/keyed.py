"""Keyed operator state on positions (DESIGN.md §7, "Keyed state").

GroupBy, MarkDistinct, Window and Sort of both block engines are
callers of the primitives here; only the column representation varies:

* :func:`factorize` — key columns to dense group codes numbered in
  first-seen order, plus the lane where each new group first appears
  (MarkDistinct's marker, DISTINCT's dedup and the emitted key columns
  are all gathers at those lanes);
* :class:`GroupState` — every aggregate as a segmented reduction over
  ``(codes, values, mask)`` into per-aggregate state *columns* indexed
  by code, so Window is "reduce per code, gather back by code";
* :func:`sort_positions` — a stable argsort over key columns, the
  gather left to the caller.

List blocks accumulate across calls (the batch engine streams) and
reduce left to right, so results equal the row engine's
:class:`~repro.engine.evaluator.Aggregator` bit for bit.  An
array-backed stream is one block — the compiled engine buffers a keyed
operator's input — and reduces with ``bincount`` / ``ufunc.at``: float
sums still fold in lane order; int64 never passes through float64 and
leaves the arrays for the exact list loop before a sum could reach
``_INT_GUARD``; MIN/MAX over NaN (Python's order-dependent ``<``),
booleans and STDDEV_SAMP take the list loop as well.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, count
from operator import eq

from repro.engine.evaluator import Aggregator, canon_key
from repro.engine.vectors import (
    _INT_GUARD,
    NumpyVector,
    _and_valid,
    delist,
    np,
    take_rows,
    true_mask,
)


def buffer_blocks(blocks, width: int, ctx):
    """A block stream as one block, ``(columns, rows)``.  Every block
    consumed is a cancellation/deadline point: a producer that is not a
    scan (a GroupBy's output) has none of its own."""
    segments: list[list] = [[] for _ in range(width)]
    total = 0
    for cols, n in blocks:
        ctx.checkpoint()
        for seg, c in zip(segments, cols):
            seg.append(c)
        total += n
    return [_concat_column(segs) for segs in segments], total


def _concat_column(segs: list):
    """Concatenate per-block column segments; NumPy when uniform."""
    if len(segs) == 1:
        return segs[0]
    if segs and all(type(s) is NumpyVector for s in segs):
        data = np.concatenate([s.data for s in segs])
        if all(s.valid is None for s in segs):
            return NumpyVector(data)
        valid = [np.ones(len(s), bool) if s.valid is None else s.valid for s in segs]
        return NumpyVector(data, np.concatenate(valid))
    return list(chain.from_iterable(map(delist, segs)))


def block_slices(cols: list, total: int, block_rows: int):
    """``(cols, total)`` re-cut into blocks of at most ``block_rows``."""
    if 0 < total <= block_rows:
        yield cols, total
        return
    for start in range(0, total, block_rows):
        rows = min(block_rows, total - start)
        yield [c[start : start + rows] for c in cols], rows


# -- factorize -----------------------------------------------------------


def factorize(key_cols: list, n: int, index: dict):
    """``(codes, first)`` for one block of key columns: each lane's
    group code — dense, numbered in first-seen order — and, per group
    new to this call, the lane where it first appears, in code order.

    Keys are equal as dict keys are (``1 == 1.0 == True``, ``-0.0 ==
    0.0``), NULL is a key like any other, and every NaN is one key
    (``canon_key``).  ``index`` maps the key tuples of earlier list
    blocks to their codes and is extended; an array block is factorized
    on its own (module docstring).
    """
    if not n:
        return [], []
    if NumpyVector in map(type, key_cols):
        return _factorize_arrays(key_cols, n)
    single = len(key_cols) == 1
    if single:
        keys = key_cols[0]
    else:
        keys = list(zip(*key_cols)) if key_cols else [()] * n
    local = dict.fromkeys(keys)  # this block's distinct keys, first-seen order
    base = len(index)
    new = [key for key in local if key not in index]
    parts = new if single else list(chain.from_iterable(new))
    if all(map(eq, parts, parts)):
        index.update(zip(new, count(base)))
        local = index
    else:
        # A NaN equals no stored key, itself included: file every key
        # of the block under its canon.
        for key in local:
            canon = canon_key(key) if single else tuple(map(canon_key, key))
            local[key] = index.setdefault(canon, len(index))
    codes = list(map(local.__getitem__, keys))
    if len(index) == base:
        return codes, []
    # Filled back to front, so each code keeps its first lane.
    where = dict(zip(reversed(codes), range(n - 1, -1, -1)))
    return codes, [where[code] for code in range(base, len(index))]


def _factorize_arrays(key_cols: list, n: int):
    combined, bound = None, 1
    for col in key_cols:
        codes, width = _column_codes(col, n)
        if combined is None:
            combined, bound = codes, width
            continue
        if bound * width >= _INT_GUARD:  # re-densify before int64 could wrap
            combined, bound = np.unique(combined, return_inverse=True)[1], n
            if bound * width >= _INT_GUARD:
                codes, width = np.unique(codes, return_inverse=True)[1], n
        combined = combined * width + codes
        bound *= width
    _, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    order = np.argsort(first)  # groups by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], first[order]


def _column_codes(col, n: int):
    """``(codes, bound)``: int64 codes below ``bound``, equal exactly
    where the column's keys are equal."""
    if type(col) is not NumpyVector:
        index: dict = {}
        codes, _ = factorize([col], n, index)
        return np.array(codes, dtype=np.int64), len(index)
    data, valid = col.data, col.valid
    if data.dtype.kind == "f":
        # np.unique folds -0.0 into 0.0 and every NaN into one value.
        uniq, codes = np.unique(data, return_inverse=True)
        bound = len(uniq)
    else:
        codes = data.astype(np.int64)
        codes -= codes.min()
        bound = int(codes.max()) + 1
    if valid is not None:
        codes = np.where(valid, codes, bound)
        bound += 1
    return codes, bound


def _canon_column(col):
    """A key column as a GroupBy emits it: every NaN the one canonical
    object, as the row engine's ``canon_key`` keys are (an equi join
    above matches NaN by identity, DESIGN.md §7)."""
    if type(col) is NumpyVector:
        if col.data.dtype.kind != "f" or not np.isnan(col.data).any():
            return col
        col = col.tolist()
    return col if all(map(eq, col, col)) else [canon_key(v) for v in col]


def mark_first(key_cols: list, n: int, mask, index: dict):
    """MarkDistinct's marker column — True on the first lane, among
    those whose ``mask`` is identity-True, of each key new to ``index``
    — and the number of such keys."""
    lanes = None
    if mask is not None:
        every = np.arange(n) if type(mask) is NumpyVector else list(range(n))
        lanes, _ = _live_lanes(every, None, mask)
        key_cols = take_rows(key_cols, lanes)
    _, first = factorize(key_cols, n if lanes is None else len(lanes), index)
    if type(lanes) is list and type(first) is list:
        first = [lanes[i] for i in first]
    elif lanes is not None:
        first = np.asarray(lanes)[first]
    if type(first) is list:
        marker = [False] * n
        for i in first:
            marker[i] = True
        return marker, len(first)
    marker = np.zeros(n, dtype=bool)
    marker[first] = True
    return NumpyVector(marker), len(first)


def sort_positions(keys: list, n: int) -> list[int]:
    """Stable argsort of ``n`` rows by ``(column, ascending)`` keys,
    major key first; NULLS LAST ascending, FIRST descending.  The row
    engine's successive ``list.sort`` passes, moving positions only."""
    order = list(range(n))
    for col, ascending in reversed(keys):
        # The 1-tuple avoids comparing None with None.
        ranks = [(1,) if v is None else (0, v) for v in delist(col)]
        order.sort(key=ranks.__getitem__, reverse=not ascending)
    return order


# -- segmented reduce ----------------------------------------------------


def _live_lanes(codes, values, mask):
    """``(codes, values)`` of the lanes an aggregate reads: mask
    identity-True and value not NULL.  ``values is None`` (``count(*)``)
    stays None; arrays stay arrays only when every operand is one."""
    if list not in (type(codes), type(values), type(mask)):
        keep = None if mask is None else true_mask(mask)
        if values is not None:
            keep = _and_valid(keep, values.valid)
            values = values.data
        if keep is not None:
            codes = codes[keep]
            values = None if values is None else values[keep]
        return codes, values
    if type(codes) is not list:
        codes = codes.tolist()
    values = delist(values)
    if mask is not None:
        codes, values = _kept([m is True for m in delist(mask)], codes, values)
    if values is not None and None in values:
        codes, values = _kept([v is not None for v in values], codes, values)
    return codes, values


def _kept(keep: list, codes: list, values):
    values = None if values is None else list(compress(values, keep))
    return list(compress(codes, keep)), values


def _fold_arrays(func: str, codes, data, groups: int):
    """Array lanes folded to one lane per live group, for the list loop
    to merge — ``(lane counts, codes, values)`` — or None where only
    the list loop is exact (module docstring)."""
    counts = np.bincount(codes, minlength=groups)
    live = np.flatnonzero(counts)
    lanes = zip(live.tolist(), counts[live].tolist())
    if func == "count" or not live.size:
        return lanes, [], []
    kind = data.dtype.kind
    if func == "min" or func == "max":
        if kind not in "if" or (kind == "f" and bool(np.isnan(data).any())):
            return None
        lower = func == "min"
        # The block's own bound is the fold's identity.
        folded = np.full(groups, data.max() if lower else data.min())
        (np.minimum if lower else np.maximum).at(folded, codes, data)
    elif func == "stddev_samp":
        return None
    elif kind == "f":
        folded = np.bincount(codes, weights=data, minlength=groups)
    elif kind == "i" and int(np.abs(data).max()) * data.size < _INT_GUARD:
        folded = np.zeros(groups, dtype=np.int64)
        np.add.at(folded, codes, data)
    else:
        return None
    return lanes, live.tolist(), folded[live].tolist()


class _Aggregate:
    """One aggregate's state columns, indexed by group code; the
    columnar :class:`~repro.engine.evaluator.Aggregator`."""

    __slots__ = ("func", "seen", "count", "total", "sq_total", "extreme")

    def __init__(self, func: str, distinct: bool):
        self.func = func
        self.seen: dict | None = {} if distinct else None
        self.count, self.total, self.sq_total, self.extreme = [], [], [], []

    def grow(self, groups: int) -> None:
        self.count.extend([0] * groups)
        self.total.extend([0] * groups)
        self.sq_total.extend([0.0] * groups)
        self.extreme.extend([None] * groups)

    def reduce(self, codes, values) -> None:
        """Fold the live lanes of one block (``_live_lanes``)."""
        func = self.func
        if values is None:
            func = "count"  # count(*)
        elif self.seen is not None:
            # DISTINCT: the first lane of each (group, value) pair.
            if type(codes) is not list:
                codes, values = codes.tolist(), values.tolist()
            _, first = factorize([codes, values], len(codes), self.seen)
            codes, values = take_rows([codes, values], first)
        lanes = None  # per-group lane counts, once arrays are folded
        if type(codes) is not list:
            folded = _fold_arrays(func, codes, values, len(self.count))
            if folded is None:
                codes, values = codes.tolist(), values.tolist()
            else:
                lanes, codes, values = folded
        if func == "min" or func == "max":
            extreme, lower = self.extreme, func == "min"
            for code, v in zip(codes, values):
                e = extreme[code]
                if e is None or (v < e if lower else v > e):
                    extreme[code] = v
            return
        count = self.count
        for code, k in Counter(codes).items() if lanes is None else lanes:
            count[code] += k
        if func == "count":
            return
        total = self.total
        for code, v in zip(codes, values):
            total[code] += v
        if func == "stddev_samp":
            sq_total = self.sq_total
            for code, v in zip(codes, values):
                sq_total[code] += v * v

    def results(self) -> list:
        func = self.func
        if func == "count":
            return self.count
        if func == "min" or func == "max":
            return self.extreme
        if func == "sum":
            return [t if k else None for t, k in zip(self.total, self.count)]
        if func == "avg":
            return [t / k if k else None for t, k in zip(self.total, self.count)]
        acc, out = Aggregator(func), []  # stddev_samp: the reference's formula
        for acc.count, acc.total, acc.sq_total in zip(
            self.count, self.total, self.sq_total
        ):
            out.append(acc.result())
        return out


class GroupState:
    """The groups of a block stream and their aggregates' state.

    ``specs`` are :func:`~repro.engine.evaluator.lower_aggregates`'
    ``(func, distinct, arg_slot, mask_slot)`` tuples; ``size`` counts
    the groups so far.
    """

    def __init__(self, specs: list[tuple]):
        self.specs = specs
        self.aggregates = [_Aggregate(func, distinct) for func, distinct, _, _ in specs]
        self.index: dict = {}
        self.key_segments: list[list] = []  # per block, its new groups' keys
        self.size = 0

    def update(self, key_cols: list, values: list, n: int):
        """Fold one block — ``values`` are the evaluated slot columns —
        and return ``(codes, groups new to this block)``."""
        codes, first = factorize(key_cols, n, self.index)
        fresh = len(first)
        if fresh:
            keys = take_rows(key_cols, first)
            self.key_segments.append([_canon_column(c) for c in keys])
            self.size += fresh
        if type(codes) is list and NumpyVector in map(type, values):
            codes = np.array(codes, dtype=np.int64)
        lanes: dict = {}
        for aggregate, (_, _, arg_slot, mask_slot) in zip(self.aggregates, self.specs):
            aggregate.grow(fresh)
            live = lanes.get((arg_slot, mask_slot))
            if live is None:
                live = lanes[arg_slot, mask_slot] = _live_lanes(
                    codes,
                    None if arg_slot is None else values[arg_slot],
                    None if mask_slot is None else values[mask_slot],
                )
            aggregate.reduce(*live)
        return codes, fresh

    def columns(self) -> list:
        """The key columns, then one result column per aggregate, all
        indexed by group code — first-occurrence order, which a LIMIT
        above GROUP BY observes."""
        keys = [_concat_column(list(segs)) for segs in zip(*self.key_segments)]
        return keys + [aggregate.results() for aggregate in self.aggregates]
