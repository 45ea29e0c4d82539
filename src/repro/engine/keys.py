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
    "pack_keys", "group_codes", "group_ids", "dense_span", "value_counts", "stable_argsort",
    "encode_dictionary", "same_dictionary",
]

#: A packed key stays below this, so folding in one more column cannot
#: overflow int64 before the check that re-densifies.
_MAX_SPAN = 1 << 62


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
        if hi - lo < _MAX_SPAN:
            if col.dtype == np.uint64:  # may not fit int64 before the shift
                return (col - lo).astype(np.int64), hi - lo + 1
            return col.astype(np.int64, copy=False) - lo, hi - lo + 1
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
        if total * span > _MAX_SPAN:
            key, total = _dense_codes(key)
            if total * span > _MAX_SPAN:
                codes, span = _dense_codes(codes)
        key = key * span + codes
        total *= span
    return key, total, nan_rows


def group_codes(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, int]:
    """Dense group ids for a tuple of key columns.

    Returns ``(codes, first_row_index_per_group, num_groups)`` with groups
    numbered in key order; ``first_row_index_per_group`` is the first row
    of each group (used to emit the group-key columns without re-sorting).
    """
    key, span, nan_rows = pack_keys(arrays)
    n = len(key)
    if nan_rows is None and dense_span(span, n):
        first = np.full(span, n, dtype=np.int64)
        np.minimum.at(first, key, np.arange(n))
        present = first < n
        first_index = first[present]
        return _rank_of(key, present), first_index, len(first_index)
    return _sorted_group_codes(key, nan_rows)


def group_ids(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``group_codes(arrays)[0]`` without the first-row table: on a dense
    span, which keys occur is one ``bincount`` rather than a ``minimum.at``
    scatter (what the distinct sampler's strata need)."""
    key, span, nan_rows = pack_keys(arrays)
    if nan_rows is None and dense_span(span, len(key)):
        return _rank_of(key, np.bincount(key, minlength=span) > 0)
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
