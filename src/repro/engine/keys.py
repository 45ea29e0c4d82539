"""The one key encoder behind join, group-by, COUNT DISTINCT, universe
variance and sampler strata.

A tuple of key columns becomes a single non-negative int64 per row whose
sort order is the tuple's lexicographic order: each column is turned into
order-preserving codes in ``[0, span)`` and the columns are combined by
mixed radix. Equal tuples get equal keys and nothing else does, except
that a float NaN equals nothing (itself included): rows holding one are
reported separately so that grouping gives each its own group and a join
never matches them.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlanError

__all__ = [
    "MAX_SPAN", "pack_keys", "group_codes", "first_appearance_codes", "group_ids", "dense_span",
    "value_counts", "count_distinct", "stable_argsort", "encode_dictionary", "same_dictionary",
]

#: A packed key stays below this, so folding in one more column cannot
#: overflow int64 before the check that re-densifies.
MAX_SPAN = 1 << 62

#: Rows of the first prefix searched for each group's first row. The
#: prefix doubles until every group present has been met: a key seen in a
#: prefix has its first row there, and grouped inputs tend to meet all
#: their groups within a few thousand rows.
FIRST_ROW_PREFIX = 4096


def dense_span(span: int, rows: int) -> bool:
    """Whether keys in ``[0, span)`` over ``rows`` rows are addressed by a
    ``span``-sized table instead of sorted. A property of the input, not a
    setting: the table costs O(span) to build and the sort O(rows log rows),
    so the table wins until it is several times larger than the input; the
    floor keeps small inputs off the sort whatever their span."""
    return span <= max(4 * rows, 65536)


def value_counts(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct values in ascending order and how often each occurs (all
    NaNs as one value): integers whose span is dense are counted into a
    span-sized table, everything else takes the one sort."""
    if len(values) and values.dtype.kind in "iu" and np.can_cast(values.dtype, np.int64):
        lo, hi = int(values.min()), int(values.max())
        if dense_span(hi - lo + 1, len(values)):
            table = np.bincount(values.astype(np.int64, copy=False) - lo, minlength=hi - lo + 1)
            present = np.flatnonzero(table)
            return present + lo, table[present]
    return np.unique(values, return_counts=True)


def count_distinct(key: np.ndarray, span: int) -> int:
    """How many distinct values packed keys in ``[0, span)`` hold: marked
    in a span-sized table where the span is dense, else counted off one
    sort of the values (as uint32 where they fit, whose sort is several
    times as fast as :func:`value_counts`' ``np.unique``)."""
    if dense_span(span, len(key)):
        return int(np.count_nonzero(_present(key, span)))
    ordered = np.sort(key.astype(np.uint32) if span <= 2**32 else key)
    return int(np.count_nonzero(ordered[1:] != ordered[:-1])) + int(len(ordered) > 0)


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(values, kind="stable")``, from NumPy's default
    sort where that gives the same permutation.

    The stable sort of 32- and 64-bit keys is a timsort, several times
    slower than the default SIMD sort; but a sort of keys without ties has
    one answer, so the fast sort is exact on them:

    * integers: ``(key - min) * n + row`` has no ties and orders as
      ``(key, row)`` does; used when it fits int64;
    * floats: sorted as they are, kept if no two adjacent sorted values
      are equal (``-0.0 == 0.0`` is a tie) and at most one is NaN (NaNs
      sort last, in no fixed order among themselves);
    * anything else, and keys of 16 bits or fewer (whose stable sort is
      already a radix sort), take the stable sort.
    """
    values = np.asarray(values)
    n = len(values)
    kind = values.dtype.kind
    if n > 1 and values.dtype.itemsize > 2:
        if kind in "iu":
            lo, hi = int(values.min()), int(values.max())
            if (hi - lo) * n + n - 1 <= np.iinfo(np.int64).max:
                if values.dtype == np.uint64:  # ``lo`` may not fit int64
                    shifted = (values - values.dtype.type(lo)).astype(np.int64)
                else:
                    shifted = values.astype(np.int64) - lo
                return np.argsort(shifted * n + np.arange(n))
        elif kind == "f":
            order = np.argsort(values)
            ordered = values[order]
            if not (ordered[1:] == ordered[:-1]).any() and not np.isnan(ordered[-2]):
                return order
    return np.argsort(values, kind="stable")


def encode_dictionary(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Order-preserving int32 codes of ``values`` and the dictionary they
    index: the distinct values, ascending. The one sort a string column
    of a registered table gets; keyed kernels work on the codes."""
    dictionary, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int32, copy=False), dictionary


def same_dictionary(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    """Whether codes under ``a`` and under ``b`` mean the same values: one
    object, or equal content (a copy that crossed a process boundary)."""
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _dense_codes(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Rank of each value among the distinct values (all NaNs share the last)."""
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64, copy=False), len(uniques)


def _column_codes(col: np.ndarray) -> Tuple[np.ndarray, int]:
    """Order-preserving codes in ``[0, span)`` for one key column."""
    if col.dtype.kind in "biu" and len(col):
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < MAX_SPAN:
            if col.dtype == np.uint64:  # may not fit int64 before the shift
                return (col - lo).astype(np.int64), hi - lo + 1
            return np.subtract(col, lo, dtype=np.int64), hi - lo + 1
    return _dense_codes(col)


def pack_keys(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, int, Optional[np.ndarray]]:
    """``(key, span, nan_rows)``: one int64 key in ``[0, span)`` per row,
    ordered as the key tuples are, and a mask of the rows with a NaN in
    some key column (``None`` when there is none)."""
    if not arrays:
        raise PlanError("a key needs at least one column")
    key, total, nan_rows = None, 1, None
    for col in arrays:
        col = np.asarray(col)
        codes, span = _column_codes(col)
        if col.dtype.kind == "f":
            isnan = np.isnan(col)
            if isnan.any():
                nan_rows = isnan if nan_rows is None else nan_rows | isnan
        if key is None:
            key, total = codes, span
            continue
        if total * span > MAX_SPAN:
            key, total = _dense_codes(key)
            if total * span > MAX_SPAN:
                codes, span = _dense_codes(codes)
        key *= span  # every code array here is a fresh one
        key += codes
        total *= span
    return key, total, nan_rows


def group_codes(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, int]:
    """Dense group ids for a tuple of key columns.

    Returns ``(codes, first_row_index_per_group, num_groups)`` with groups
    numbered in key order; ``first_row_index_per_group`` is the first row
    of each group (used to emit the group-key columns without re-sorting).
    """
    key, span, nan_rows = pack_keys(arrays)
    if nan_rows is None and dense_span(span, len(key)):
        present = _present(key, span)
        first_index = _first_rows(key, present)[present]
        return _rank_of(key, present), first_index, len(first_index)
    return _sorted_group_codes(key, nan_rows)


def first_appearance_codes(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, int]:
    """:func:`group_codes` with the groups numbered in order of first
    appearance (the order an aggregate emits them in): the first rows come
    out ascending. On a dense span the renumbering is a span-sized table
    and one gather per row."""
    key, span, nan_rows = pack_keys(arrays)
    if nan_rows is None and dense_span(span, len(key)):
        present = _present(key, span)
        first_index = np.sort(_first_rows(key, present)[present])
        rank = np.empty(span, dtype=np.int64)  # read only where present
        rank[key[first_index]] = np.arange(len(first_index))
        return rank[key], first_index, len(first_index)
    codes, first_index, num_groups = _sorted_group_codes(key, nan_rows)
    order = np.argsort(first_index)
    remap = np.empty(num_groups, dtype=np.int64)
    remap[order] = np.arange(num_groups)
    return remap[codes], first_index[order], num_groups


def _present(key: np.ndarray, span: int) -> np.ndarray:
    """Which keys in ``[0, span)`` occur: one store per row, where a
    ``bincount`` would also count them."""
    present = np.zeros(span, dtype=bool)
    present[key] = True
    return present


def _first_rows(key: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Each present key's first row in a table over the span (``len(key)``
    where absent), scattered from prefixes of doubling length until every
    present key has one. Once the span is larger than the rows scanned so
    far, checking costs more than it can save, and the rest is scanned at
    once."""
    n, span = len(key), len(present)
    first = np.full(span, n, dtype=np.int64)
    wanted = np.count_nonzero(present)
    start, stop = 0, min(FIRST_ROW_PREFIX, n)
    while start < n:
        np.minimum.at(first, key[start:stop], np.arange(start, stop))
        if span > stop:
            start, stop = stop, n
        elif np.count_nonzero(first < n) == wanted:
            break
        else:
            start, stop = stop, min(2 * stop, n)
    return first


def group_ids(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``group_codes(arrays)[0]`` without the first-row table (what the
    distinct sampler's strata need)."""
    key, span, nan_rows = pack_keys(arrays)
    if nan_rows is None and dense_span(span, len(key)):
        return _rank_of(key, _present(key, span))
    return _sorted_group_codes(key, nan_rows)[0]


def _rank_of(key: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Each key's rank among the keys ``present`` marks: its group id."""
    return (np.cumsum(present) - 1)[key]


def _sorted_group_codes(
    key: np.ndarray, nan_rows: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, int]:
    """:func:`group_codes` by one sort of the packed key."""
    n = len(key)
    order = stable_argsort(key)
    sorted_key = key[order]
    boundary = np.ones(n, dtype=bool)
    boundary[1:] = sorted_key[1:] != sorted_key[:-1]
    if nan_rows is not None:
        # NaN sorts as one value (last) but equals nothing: every row
        # holding one starts its own group, ties left in row order.
        boundary[1:] |= nan_rows[order[1:]]
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.cumsum(boundary) - 1
    first_index = order[boundary]
    return codes, first_index, len(first_index)
