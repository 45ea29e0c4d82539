"""Deterministic 64-bit hashing for the universe and uniform samplers.

The universe sampler projects join-key values into a high-dimensional space
with a strong hash and keeps the rows whose image lands in a chosen
``p``-fraction subspace (paper Section 4.1.3). The production system uses a
cryptographically strong hash; here we use the splitmix64 finalizer — a
full-avalanche 64-bit mixer — keyed by a seed so that *related samplers pick
the same subspace* (same columns + same seed => same subspace) while
unrelated samplers are independent.

Everything is vectorized over NumPy arrays. String columns are hashed
through their dictionary: each distinct string once, by a stable FNV-1a
hash, gathered by code (the number of distinct strings is small compared to
row count in all our workloads). A dictionary-coded table column brings its
dictionary (:func:`hash_rows`); a plain string array gets one built. A
float's hash is its bits, with ``-0.0`` read as ``0.0``: the two are one
key to every join and group-by (:mod:`repro.engine.keys`).

A sampler keeps a row iff ``float64(hash) < p * 2**64``. The float cast is
monotone, so that is the integer compare ``hash < threshold(p)`` against
the least integer the cast takes to ``p * 2**64`` or above
(:func:`hash_threshold`): the same decision for every hash, computed
without a per-row cast. :func:`keep_rows` makes that decision per
dictionary entry or per key-span slot when one column is hashed, and
gathers it by code (DESIGN §20).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.engine.keys import encode_dictionary

__all__ = ["mix64", "hash_columns", "hash_rows", "hash_threshold", "keep_rows", "universe_fraction"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(values: np.ndarray, seed: int = 0, out: Optional[np.ndarray] = None) -> np.ndarray:
    """splitmix64 finalizer over ``values`` read as uint64 (integers wrap,
    as ``astype`` does), keyed by ``seed``, into ``out`` (which may be
    ``values``) or a new array: the first step casts as it adds, and one
    temporary serves every shift."""
    with np.errstate(over="ignore"):
        z = np.add(values, _GOLDEN * np.uint64(seed + 1), out=out, dtype=np.uint64, casting="unsafe")
        shifted = np.empty_like(z)
        for shift, multiplier in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, shift, out=shifted)
            z ^= shifted
            z *= multiplier
        np.right_shift(z, 31, out=shifted)
        z ^= shifted
    return z


def _fnv1a(text: str) -> int:
    """Stable 64-bit FNV-1a hash of a string (independent of PYTHONHASHSEED)."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _dictionary_hashes(dictionary: np.ndarray) -> np.ndarray:
    """FNV-1a of each dictionary entry, once."""
    return np.fromiter(
        (_fnv1a(str(u)) for u in dictionary), dtype=np.uint64, count=len(dictionary)
    )


def _per_value(
    column: np.ndarray, dictionary: Optional[np.ndarray], seed: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(mixed, index)`` with ``mixed[index]`` the column's per-row
    :func:`mix64`, when the column has few values: a coded column's are
    mixed once per dictionary entry, an integer column's once per slot of
    its span when the span is at most half the row count (a wider one, as
    lineage's, costs more to mix per slot and gather than per row).
    ``None`` otherwise."""
    if dictionary is not None:
        return mix64(_dictionary_hashes(dictionary), seed), column
    if column.dtype.kind in "iu" and column.dtype != np.uint64 and len(column):
        lo, hi = int(column.min()), int(column.max())
        if 2 * (hi - lo + 1) <= len(column):
            slots = np.arange(lo, hi + 1, dtype=np.int64)
            return mix64(slots, seed), np.subtract(column, lo, dtype=np.int64)
    return None


def _to_uint64(column: np.ndarray) -> np.ndarray:
    """A plain column as values :func:`mix64` reads as uint64 codes, equal
    exactly where the column's values are: an integer as ``astype`` wraps
    it, a float by its bits with ``-0.0`` read as ``0.0``, a string by the
    FNV-1a hash of its dictionary entry."""
    if column.dtype.kind in "biu":
        return column
    if column.dtype.kind == "f":
        # Adding +0.0 turns -0.0 into 0.0 and leaves every other value.
        return np.add(column, 0.0, dtype=np.float64).view(np.uint64)
    codes, dictionary = encode_dictionary(column)
    return _dictionary_hashes(dictionary)[codes]


def _column_hash(column: np.ndarray, dictionary: Optional[np.ndarray], seed: int) -> np.ndarray:
    """Per row, :func:`mix64` of one column's value (``dictionary`` is
    given when ``column`` holds codes into it): per value where there are
    few (:func:`_per_value`), else per row. Equal values hash alike."""
    per_value = _per_value(column, dictionary, seed)
    if per_value is not None:
        mixed, index = per_value
        return mixed[index]
    return mix64(_to_uint64(column), seed)


def _combine(columns: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]], seed: int) -> np.ndarray:
    """The keyed hash of ``(column, dictionary)`` tuples, row by row."""
    acc = _column_hash(*columns[0], seed)
    for index, (column, dictionary) in enumerate(columns[1:], start=1):
        with np.errstate(over="ignore"):
            acc += _column_hash(column, dictionary, seed + index)
        mix64(acc, seed, out=acc)
    return acc


def hash_columns(columns: Sequence[np.ndarray], seed: int = 0) -> np.ndarray:
    """Combine one or more key columns into a single keyed 64-bit hash.

    The combination is order-sensitive (column i is salted with i) and each
    stage re-mixes, so collisions between different tuples are as unlikely
    as for a single 64-bit hash.
    """
    if not columns:
        raise ValueError("hash_columns requires at least one column")
    return _combine([(np.asarray(column), None) for column in columns], seed)


def hash_rows(table, names: Sequence[str], seed: int = 0) -> np.ndarray:
    """:func:`hash_columns` of the named columns of a table: the same hash
    per row, a coded column's through the dictionary it already has."""
    return _combine([(table.key_column(n), table.dictionary(n)) for n in names], seed)


@lru_cache(maxsize=None)
def hash_threshold(p: float) -> np.uint64:
    """The least hash ``x`` with ``float64(x) >= p * 2**64``: a hash is
    below ``p * 2**64`` as a float iff it is below this as an integer.

    ``float64(x)`` rounds to nearest and never decreases as ``x`` grows, so
    the hashes it maps below ``p * 2**64`` are exactly those below one
    integer; the search finds it with the cast the comparison would use.
    ``p <= 1`` keeps it at most ``2**64 - 1`` (``float64(2**64 - 1)`` is
    ``2**64``): at ``p = 1`` it is ``2**64 - 1024``, the first hash that
    rounds up to ``2**64``."""
    limit = p * float(2**64)
    lo, hi = 0, (1 << 64) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if np.array([mid], dtype=np.uint64).astype(np.float64)[0] >= limit:
            hi = mid
        else:
            lo = mid + 1
    return np.uint64(lo)


def keep_rows(table, names: Sequence[str], seed: int, p: float) -> np.ndarray:
    """Row mask of ``hash_rows(table, names, seed) < hash_threshold(p)``.

    One key column with few values (:func:`_per_value`) is decided once
    per dictionary entry or span slot, and the rows gather the decision:
    each value's hash is the one :func:`hash_rows` gives its rows, so the
    mask is the same."""
    threshold = hash_threshold(p)
    if len(names) == 1:
        per_value = _per_value(table.key_column(names[0]), table.dictionary(names[0]), seed)
        if per_value is not None:
            mixed, index = per_value
            return (mixed < threshold)[index]
    return hash_rows(table, names, seed) < threshold


def universe_fraction(columns: Sequence[np.ndarray], seed: int = 0) -> np.ndarray:
    """Map each row's key tuple to a point in [0, 1).

    The universe sampler with probability ``p`` keeps rows whose point is
    below ``p``; both join inputs using the same columns and seed keep
    exactly the same key subspace.
    """
    return hash_columns(columns, seed).astype(np.float64) / float(2**64)
