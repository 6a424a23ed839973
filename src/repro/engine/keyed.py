"""Keyed operator state on positions (DESIGN.md §7, "Keyed state").

GroupBy, MarkDistinct, Window and Sort of the block engine are callers
of the primitives here, over one block holding their whole input, in
either column representation:

* :func:`factorize` — key columns to dense group codes numbered in
  first-seen order, plus the lane where each group first appears
  (MarkDistinct's marker, DISTINCT's dedup and the emitted key columns
  are all gathers at those lanes).  Array keys combine into one int64
  key; where its bound fits the join directory's density rule
  (``_DIRECTORY_DENSITY * rows + _DIRECTORY_SLACK``) a direct-address
  table finds each key's first lane with no sort, and sparser keys
  sort (``np.unique``);
* :class:`GroupState` — every aggregate as a segmented reduction over
  ``(codes, values, mask)`` into per-aggregate result *columns* indexed
  by code, so Window is "reduce per code, gather back by code";
* :func:`sort_positions` — a stable argsort over key columns, the
  gather left to the caller.

Scalar aggregation is the fold's one-group arm (:class:`OneGroup`),
fed block by block: the count of live lanes stands in for a codes
array, float sums continue the running total, and the one-lane results
stay lists.

List columns reduce left to right, so results equal the row engine's
:class:`~repro.engine.evaluator.Aggregator` bit for bit.  Array columns
reduce with ``bincount`` / ``ufunc.at`` straight into per-group arrays,
which a GroupState emits as ``NumpyVector`` result columns (an empty
group a NULL lane), or, for one group, with whole-array reductions:
float sums still fold in lane order; int64 never passes through
float64 and leaves the arrays for the exact list loop before a sum
could reach ``_INT_GUARD``, a square or an AVG's total
``_FLOAT_EXACT``; MIN/MAX over NaN or zeros of both signs (Python's
order-dependent ``<``) and booleans take the list loop as well
(``_arrays_exact``).  An aggregate the list loop folds emits a list.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, count, repeat
from functools import reduce
from operator import add, eq, mul

from repro.engine.evaluator import Aggregator, canon_key
from repro.engine.vectors import _FLOAT_EXACT, _and_valid, np, take_rows, true_mask
from repro.storage.columnar import _INT_GUARD, NumpyVector, concat_column, delist


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
    return [concat_column(segs) for segs in segments], total


def block_slices(cols: list, total: int, block_rows: int):
    """``(cols, total)`` re-cut into blocks of at most ``block_rows``."""
    if 0 < total <= block_rows:
        yield cols, total
        return
    for start in range(0, total, block_rows):
        rows = min(block_rows, total - start)
        yield [c[start : start + rows] for c in cols], rows


# -- factorize -----------------------------------------------------------


def factorize(key_cols: list, n: int):
    """``(codes, first)`` for one block of key columns: each lane's
    group code — dense, numbered in first-seen order — and, per group,
    the lane where it first appears, in code order.

    Keys are equal as dict keys are (``1 == 1.0 == True``, ``-0.0 ==
    0.0``), NULL is a key like any other, and every NaN is one key
    (``canon_key``).
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
    index = dict.fromkeys(keys)  # the distinct keys, first-seen order
    parts = index if single else list(chain.from_iterable(index))
    if all(map(eq, parts, parts)):
        groups = len(index)
        index = dict(zip(index, count()))
    else:
        # A NaN equals no other key, itself included: file every key
        # under its canon.
        canon: dict = {}
        for key in index:
            key_canon = canon_key(key) if single else tuple(map(canon_key, key))
            index[key] = canon.setdefault(key_canon, len(canon))
        groups = len(canon)
    codes = list(map(index.__getitem__, keys))
    # Filled back to front, so each code keeps its first lane.
    where = dict(zip(reversed(codes), range(n - 1, -1, -1)))
    return codes, [where[code] for code in range(groups)]


#: Integer keys are direct-addressed — a join's build keys
#: (``batch_executor._sort_build_keys``), a keyed operator's combined
#: group key (:func:`_first_seen`) — when their span is at most
#: ``_DIRECTORY_DENSITY * rows + _DIRECTORY_SLACK``: the table's cost and
#: memory stay a constant times the rows.  Sparser keys sort.
_DIRECTORY_DENSITY = 4
_DIRECTORY_SLACK = 1 << 10


def _factorize_arrays(key_cols: list, n: int):
    combined, bound = None, 1
    for col in key_cols:
        codes, width = _column_codes(col, n)
        if combined is None:
            combined, bound = codes, width
            continue
        if bound * width >= _INT_GUARD:  # re-densify before int64 could wrap
            combined, first = _first_seen(combined, bound, n)
            bound = len(first)
            if bound * width >= _INT_GUARD:
                codes, first = _first_seen(codes, width, n)
                width = len(first)
        combined = combined * width + codes
        bound *= width
    return _first_seen(combined, bound, n)


def _first_seen(keys, bound: int, n: int):
    """:func:`factorize`'s ``(codes, first)`` of ``n`` int64 ``keys``
    in ``[0, bound)``: direct-addressed where ``bound`` is dense, sorted
    otherwise."""
    if bound <= _DIRECTORY_DENSITY * n + _DIRECTORY_SLACK:
        return _first_seen_direct(keys, bound, n)
    return _first_seen_sorted(keys)


def _first_seen_direct(keys, bound: int, n: int):
    """Each key's first lane is the least of its lanes (``minimum.at``:
    a fancy assignment with repeated indexes fixes no winner); marked in
    a lane mask, ``flatnonzero`` lists them in first-seen order with no
    sort, and a table from key to rank numbers the lanes."""
    lanes = np.arange(n)
    seen = np.full(bound, n, dtype=lanes.dtype)
    np.minimum.at(seen, keys, lanes)
    mark = np.zeros(n, dtype=bool)
    mark[seen[seen < n]] = True
    first = np.flatnonzero(mark)
    rank = np.empty(bound, dtype=lanes.dtype)
    rank[keys[first]] = np.arange(first.size)
    return rank[keys], first


def _first_seen_sorted(keys):
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # groups by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], first[order]


def _column_codes(col, n: int):
    """``(codes, bound)``: int64 codes below ``bound``, equal exactly
    where the column's keys are equal."""
    if type(col) is not NumpyVector:
        codes, first = factorize([col], n)
        return np.array(codes, dtype=np.int64), len(first)
    data, valid = col.data, col.valid
    if data.dtype.kind == "f":
        # np.unique folds -0.0 into 0.0 and every NaN into one value.
        uniq, codes = np.unique(data, return_inverse=True)
        bound = len(uniq)
    else:
        # The span is taken over valid lanes only: a NULL lane's fill
        # value would widen it, and a nullable key far from 0 would look
        # sparse and sort.  No valid lane (or no lane) leaves bound 1.
        codes = data.astype(np.int64)
        lanes = True if valid is None else valid
        codes -= codes.min(where=lanes, initial=np.iinfo(np.int64).max)
        bound = int(codes.max(where=lanes, initial=0)) + 1
    if valid is not None:
        codes = np.where(valid, codes, bound)
        bound += 1
    return codes, bound


def _canon_column(col):
    """A key column as a GroupBy emits it: every NaN the one canonical
    object, as the row engine's ``canon_key`` keys are (row tuples
    compare a NaN equal only to the very same object)."""
    if type(col) is NumpyVector:
        if col.data.dtype.kind != "f" or not np.isnan(col.data).any():
            return col
        col = col.tolist()
    return col if all(map(eq, col, col)) else [canon_key(v) for v in col]


def mark_first(key_cols: list, n: int, mask):
    """MarkDistinct's marker column — True on the first lane of each
    key among the lanes whose ``mask`` is identity-True — and the number
    of keys."""
    lanes = None
    if mask is not None:
        every = np.arange(n) if type(mask) is NumpyVector else list(range(n))
        lanes, _ = _live_lanes(every, None, mask)
        key_cols = take_rows(key_cols, lanes)
    _, first = factorize(key_cols, n if lanes is None else len(lanes))
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
    stays None; arrays stay arrays only when every operand is one.  An
    int ``codes`` is the one-group arm's lane count and comes back as
    the live lanes' count, so that arm never builds a codes array."""
    if list not in (type(codes), type(values), type(mask)):
        keep = None if mask is None else true_mask(mask)
        if values is not None:
            keep = _and_valid(keep, values.valid)
            values = values.data
        if keep is not None:
            codes = int(np.count_nonzero(keep)) if type(codes) is int else codes[keep]
            values = None if values is None else values[keep]
        return codes, values
    if type(codes) is not list and type(codes) is not int:
        codes = codes.tolist()
    values = delist(values)
    if mask is not None:
        codes, values = _kept([m is True for m in delist(mask)], codes, values)
    if values is not None and None in values:
        codes, values = _kept([v is not None for v in values], codes, values)
    return codes, values


def _kept(keep: list, codes, values):
    values = None if values is None else list(compress(values, keep))
    if type(codes) is int:
        return keep.count(True) if values is None else len(values), values
    return list(compress(codes, keep)), values


def _tolist(lanes):
    return lanes.tolist() if type(lanes) is np.ndarray else lanes


def _arrays_exact(func: str, data) -> bool:
    """True where folding ``data`` as arrays equals the row engine's
    Python loop (module docstring): an int64 sum cannot wrap, an int's
    square is exact as a double, MIN/MAX see no NaN and no zeros of
    both signs (Python's ``<`` makes them follow lane order) and no
    booleans add as ints."""
    kind = data.dtype.kind
    if func == "min" or func == "max":
        if kind != "f":
            return kind == "i"
        signs = np.signbit(data[data == 0])
        return not np.isnan(data).any() and (signs.all() or not signs.any())
    if kind != "i":
        return kind == "f"
    bound = int(np.abs(data).max())
    return bound * data.size < _INT_GUARD and (
        func != "stddev_samp" or bound <= _FLOAT_EXACT
    )


def _fold_floats(state: list, weights) -> None:
    """Add ``weights`` to the one group's running ``state[0]`` lane by
    lane, the rounding of the row engine's ``+=`` loop (``ndarray.sum``
    is pairwise): a ``np.add.accumulate`` seeded with the total."""
    lanes = np.empty(weights.size + 1)
    lanes[0] = float(state[0])
    lanes[1:] = weights
    state[0] = np.add.accumulate(lanes, out=lanes)[-1].item()


class _Aggregate:
    """One aggregate's state columns, indexed by group code; the
    columnar :class:`~repro.engine.evaluator.Aggregator`.  The keyed
    array fold keeps its result vector in ``column``."""

    __slots__ = ("func", "distinct", "count", "total", "sq_total", "extreme", "column")

    def __init__(self, func: str, distinct: bool, groups: int):
        self.func = func
        self.distinct = distinct
        self.count, self.total = [0] * groups, [0] * groups
        self.sq_total, self.extreme = [0.0] * groups, [None] * groups
        self.column = None

    def reduce(self, codes, values) -> None:
        """Fold the live lanes (``_live_lanes``); an int ``codes`` is
        the one-group arm, every live lane in group 0."""
        func = self.func
        if values is None:
            func = "count"  # count(*)
        elif self.distinct:
            # DISTINCT: the first lane of each (group, value) pair.
            codes = [0] * codes if type(codes) is int else _tolist(codes)
            values = _tolist(values)
            _, first = factorize([codes, values], len(codes))
            codes, values = take_rows([codes, values], first)
        if list in (type(codes), type(values)) or not self._fold_arrays(
            func, codes, values
        ):
            self._fold_lists(func, _tolist(codes), _tolist(values))

    def _fold_arrays(self, func: str, codes, data) -> bool:
        """Fold array lanes into the state, or return False, touching
        nothing, where only the list loop is exact (``_arrays_exact``)."""
        if data is not None and data.size and func != "count" and not _arrays_exact(func, data):
            return False
        if type(codes) is not int:
            return self._fold_groups(func, codes, data)
        if data is not None and not data.size:
            return True
        if func == "min" or func == "max":
            self._fold_lists(func, [0], [(data.min() if func == "min" else data.max()).item()])
            return True
        self.count[0] += codes
        if func == "count":
            return True
        if data.dtype.kind == "i" and type(self.total[0]) is int:
            self.total[0] += data.sum().item()
        else:
            _fold_floats(self.total, data)
        if func == "stddev_samp":
            _fold_floats(self.sq_total, np.square(data, dtype="float64"))
        return True

    def _fold_groups(self, func: str, codes, data) -> bool:
        """The keyed arm: a GroupState folds its one block straight into
        per-group arrays — ``bincount`` counts and float sums (which add
        lane by lane), ``ufunc.at`` int sums and extremes — and keeps
        the result vector, an empty group a NULL lane.  An int AVG whose
        total passes ``_FLOAT_EXACT`` returns False: ``int / int``
        rounds exactly only in Python."""
        groups = len(self.count)
        counts = np.bincount(codes, minlength=groups)
        if func == "count":
            self.column = NumpyVector(counts)
            return True
        if func == "min" or func == "max":
            lower = func == "min"
            folded = np.zeros(groups, data.dtype)
            if data.size:  # the block's own bound is the fold's identity
                folded.fill(data.max() if lower else data.min())
                (np.minimum if lower else np.maximum).at(folded, codes, data)
        elif data.dtype.kind == "f":
            folded = np.bincount(codes, weights=data, minlength=groups)
        else:
            folded = np.zeros(groups, dtype=np.int64)
            np.add.at(folded, codes, data)
        if func == "stddev_samp":  # results() applies the reference's formula
            squares = np.bincount(codes, np.square(data, dtype="float64"), groups)
            self.count, self.total = counts.tolist(), folded.tolist()
            self.sq_total = squares.tolist()
            return True
        if func == "avg":
            if folded.dtype.kind == "i" and np.abs(folded).max(initial=0) > _FLOAT_EXACT:
                return False
            folded = folded / counts
        valid = None if counts.all() else counts > 0
        if valid is not None:
            folded[~valid] = 0
        self.column = NumpyVector(folded, valid)
        return True

    def _fold_lists(self, func: str, codes, values) -> None:
        if type(codes) is int:
            lanes, codes = [(0, codes)], repeat(0)
        else:
            lanes = Counter(codes).items()
        if func == "min" or func == "max":
            extreme, lower = self.extreme, func == "min"
            for code, v in zip(codes, values):
                e = extreme[code]
                if e is None or (v < e if lower else v > e):
                    extreme[code] = v
            return
        count = self.count
        for code, k in lanes:
            count[code] += k
        if func == "count":
            return
        total, sq_total = self.total, self.sq_total
        if type(codes) is repeat:  # one group: left folds of C-level adds
            total[0] = reduce(add, values, total[0])
            if func == "stddev_samp":
                sq_total[0] = reduce(add, map(mul, values, values), sq_total[0])
            return
        for code, v in zip(codes, values):
            total[code] += v
        if func == "stddev_samp":
            for code, v in zip(codes, values):
                sq_total[code] += v * v

    def results(self):
        if self.column is not None:
            return self.column
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


def _reduce(aggregates: list, specs: list, codes, values: list) -> None:
    """Fold one block into ``aggregates``, one per
    :func:`~repro.engine.evaluator.lower_aggregates` spec in ``specs``;
    ``values`` are the block's evaluated slot columns.  Each
    ``(argument, mask)`` pair selects its live lanes once, for every
    aggregate that reads it.  Array folds overflow to inf and turn
    inf - inf into NaN silently, as Python floats do."""
    lanes: dict = {}
    with np.errstate(all="ignore"):
        for aggregate, (_, _, arg_slot, mask_slot) in zip(aggregates, specs):
            live = lanes.get((arg_slot, mask_slot))
            if live is None:
                live = lanes[arg_slot, mask_slot] = _live_lanes(
                    codes,
                    None if arg_slot is None else values[arg_slot],
                    None if mask_slot is None else values[mask_slot],
                )
            aggregate.reduce(*live)


class GroupState:
    """The groups of one block and their aggregates' state.

    ``specs`` are :func:`~repro.engine.evaluator.lower_aggregates`'
    ``(func, distinct, arg_slot, mask_slot)`` tuples and ``values`` the
    block's evaluated slot columns; ``codes`` holds each lane's group
    code and ``size`` counts the groups.
    """

    def __init__(self, specs: list[tuple], key_cols: list, values: list, n: int):
        codes, first = factorize(key_cols, n)
        self.size = len(first)
        self.keys = [_canon_column(c) for c in take_rows(key_cols, first)]
        if type(codes) is list and NumpyVector in map(type, values):
            codes = np.array(codes, dtype=np.int64)
        self.codes = codes
        self.aggregates = [_Aggregate(f, d, self.size) for f, d, _, _ in specs]
        _reduce(self.aggregates, specs, codes, values)

    def columns(self) -> list:
        """The key columns, then one result column per aggregate, all
        indexed by group code — first-occurrence order, which a LIMIT
        above GROUP BY observes."""
        return self.keys + [aggregate.results() for aggregate in self.aggregates]


class OneGroup:
    """Scalar aggregation's state, fed block by block: the one-group
    arm of the fold above, whose live-lane count stands in for a codes
    array.  A DISTINCT aggregate dedupes within a block, so it must be
    fed its input as one block."""

    def __init__(self, specs: list[tuple]):
        self.specs = specs
        self.aggregates = [_Aggregate(f, d, 1) for f, d, _, _ in specs]

    def reduce(self, values: list, n: int) -> None:
        _reduce(self.aggregates, self.specs, n, values)

    def columns(self) -> list:
        """One single-lane result column per aggregate."""
        return [aggregate.results() for aggregate in self.aggregates]
