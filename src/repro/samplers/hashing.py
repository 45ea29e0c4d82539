"""Deterministic 64-bit hashing for the universe sampler.

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
dictionary (:func:`hash_rows`); a plain string array gets one built.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.engine.keys import encode_dictionary

__all__ = ["mix64", "hash_columns", "hash_rows", "universe_fraction"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, keyed by ``seed``."""
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64, copy=True)
        z += _GOLDEN * np.uint64(seed + 1)
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def _fnv1a(text: str) -> int:
    """Stable 64-bit FNV-1a hash of a string (independent of PYTHONHASHSEED)."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _to_uint64(column: np.ndarray, dictionary: Optional[np.ndarray] = None) -> np.ndarray:
    """Losslessly map a column to uint64 codes suitable for mixing;
    ``dictionary`` is given when ``column`` holds codes into it."""
    if dictionary is None:
        if column.dtype.kind in ("i", "u", "b"):
            return column.astype(np.uint64)
        if column.dtype.kind == "f":
            return column.astype(np.float64, copy=False).view(np.uint64)
        column, dictionary = encode_dictionary(column)
    # Strings / objects: each distinct value through FNV-1a, once.
    hashes = np.fromiter(
        (_fnv1a(str(u)) for u in dictionary), dtype=np.uint64, count=len(dictionary)
    )
    return hashes[column]


def _combine(codes: Sequence[np.ndarray], seed: int) -> np.ndarray:
    acc = mix64(codes[0], seed)
    for index, column in enumerate(codes[1:], start=1):
        with np.errstate(over="ignore"):
            acc = mix64(acc + mix64(column, seed + index), seed)
    return acc


def hash_columns(columns: Sequence[np.ndarray], seed: int = 0) -> np.ndarray:
    """Combine one or more key columns into a single keyed 64-bit hash.

    The combination is order-sensitive (column i is salted with i) and each
    stage re-mixes, so collisions between different tuples are as unlikely
    as for a single 64-bit hash.
    """
    if not columns:
        raise ValueError("hash_columns requires at least one column")
    return _combine([_to_uint64(np.asarray(column)) for column in columns], seed)


def hash_rows(table, names: Sequence[str], seed: int = 0) -> np.ndarray:
    """:func:`hash_columns` of the named columns of a table: the same hash
    per row, a coded column's through the dictionary it already has."""
    return _combine([_to_uint64(table.key_column(n), table.dictionary(n)) for n in names], seed)


def universe_fraction(columns: Sequence[np.ndarray], seed: int = 0) -> np.ndarray:
    """Map each row's key tuple to a point in [0, 1).

    The universe sampler with probability ``p`` keeps rows whose point is
    below ``p``; both join inputs using the same columns and seed keep
    exactly the same key subspace.
    """
    return hash_columns(columns, seed).astype(np.float64) / float(2**64)
