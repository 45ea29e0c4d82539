"""Distinct-value counting: exact (for base-table statistics) and a
Flajolet-Martin style probabilistic counter (for one-pass stat collection
over large streams, following Bar-Yossef et al., "Counting distinct elements
in a data stream").

The catalog (paper Table 2) needs the number of distinct values per
interesting column and column set; the optimizer's C1 support check divides
cardinalities by these counts.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Sequence

import numpy as np

from repro.engine.keys import pack_keys, value_counts
from repro.samplers.hashing import _to_uint64, mix64

__all__ = ["exact_distinct", "exact_distinct_multi", "KMVCounter"]


def exact_distinct(values: np.ndarray) -> int:
    """Exact distinct count of a single column."""
    if len(values) == 0:
        return 0
    return int(len(np.unique(values)))


def exact_distinct_multi(columns: Sequence[np.ndarray]) -> int:
    """Exact distinct count over a tuple of columns (a column set)."""
    if not columns:
        return 0
    key, _, nan_rows = pack_keys(columns)
    if nan_rows is None:
        return len(value_counts(key)[0])
    # A NaN equals nothing: every row holding one is a value of its own.
    return len(value_counts(key[~nan_rows])[0]) + int(nan_rows.sum())


class KMVCounter:
    """K-minimum-values distinct count estimator.

    Keeps the ``k`` smallest 64-bit hashes seen; the estimate is
    ``(k - 1) / max_kept_normalized_hash``. Mergeable across partitions
    (take the union's k smallest), so it fits the same streaming,
    partitionable execution mode as the samplers.
    """

    def __init__(self, k: int = 1024, seed: int = 0x5EED):
        self.k = int(k)
        self.seed = int(seed)
        self._hashes: set = set()
        self._max: int = -1

    def add(self, value: Hashable) -> None:
        h = int(mix64(_to_uint64(np.asarray([value])), self.seed)[0])
        if len(self._hashes) < self.k:
            self._hashes.add(h)
            self._max = max(self._max, h)
        elif h < self._max and h not in self._hashes:
            self._hashes.discard(self._max)
            self._hashes.add(h)
            self._max = max(self._hashes)

    def add_many(self, values: Iterable[Hashable]) -> None:
        for value in values:
            self.add(value)

    def add_array(self, values: np.ndarray) -> None:
        """Vectorized, seed-stable bulk insert (one hash pass per distinct
        value; independent of ``PYTHONHASHSEED``, so sketches built in
        different processes agree bit-for-bit). Equivalent to calling
        :meth:`add` on every element."""
        values = np.asarray(values)
        if values.size == 0:
            return
        hashes = mix64(_to_uint64(np.unique(values)), self.seed)
        if hashes.size > self.k:
            hashes = np.partition(hashes, self.k - 1)[: self.k]
        self._hashes.update(int(h) for h in hashes)
        if len(self._hashes) > self.k:
            self._hashes = set(sorted(self._hashes)[: self.k])
        self._max = max(self._hashes) if self._hashes else -1

    @classmethod
    def from_values(
        cls, values: np.ndarray, k: int = 1024, seed: int = 0x5EED
    ) -> "KMVCounter":
        sketch = cls(k, seed)
        sketch.add_array(values)
        return sketch

    def estimate(self) -> int:
        """Estimated number of distinct values observed."""
        count = len(self._hashes)
        if count < self.k:
            return count
        # k-th smallest normalized hash ~ k / D for D distinct values.
        normalized = self._max / float(2**64)
        if normalized <= 0:
            return count
        return int(round((self.k - 1) / normalized))

    def merge(self, other: "KMVCounter") -> "KMVCounter":
        if other.k != self.k or other.seed != self.seed:
            raise ValueError("cannot merge KMV counters with different parameters")
        merged = KMVCounter(self.k, self.seed)
        union = sorted(self._hashes | other._hashes)[: self.k]
        merged._hashes = set(union)
        merged._max = union[-1] if union else -1
        return merged

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot; inverse of :meth:`from_dict`."""
        return {"k": self.k, "seed": self.seed, "hashes": sorted(self._hashes)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "KMVCounter":
        sketch = cls(int(payload["k"]), int(payload["seed"]))
        sketch._hashes = {int(h) for h in payload["hashes"]}
        sketch._max = max(sketch._hashes) if sketch._hashes else -1
        return sketch
